// E7 -- protocol performance (paper section 4.1): "requests are
// asynchronous, so that an application can send requests without waiting
// for the completion of previous requests" -- the X-style argument that an
// asynchronous protocol amortizes round trips.
//
// google-benchmark over the wire path: asynchronous request throughput,
// blocking round-trip latency, pipelined-vs-blocking speedup, and sound
// data upload bandwidth -- over an in-process socket pair and over TCP.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/transport/socket_stream.h"

namespace aud {
namespace {

std::unique_ptr<AudioConnection> TcpClient(BenchWorld& world) {
  if (!world.server().ListenTcp(0)) {
    return nullptr;
  }
  return AudioConnection::OpenTcp("127.0.0.1", world.server().tcp_port(), "tcp-bench");
}

// Asynchronous no-op flood: requests/second the server dispatches.
void BM_AsyncRequestThroughput(benchmark::State& state) {
  BenchWorld world;
  bool tcp = state.range(0) != 0;
  std::unique_ptr<AudioConnection> tcp_client;
  AudioConnection* client = &world.client();
  if (tcp) {
    tcp_client = TcpClient(world);
    if (tcp_client == nullptr) {
      state.SkipWithError("tcp setup failed");
      return;
    }
    client = tcp_client.get();
  }
  constexpr int kBatch = 1000;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      client->SendRequest(Opcode::kNoOp, {});
    }
    (void)client->Sync();  // barrier: all processed
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel(tcp ? "tcp" : "pipe");
}
BENCHMARK(BM_AsyncRequestThroughput)->Arg(0)->Arg(1);

// Blocking round trip: one Sync per iteration.
void BM_RoundTripLatency(benchmark::State& state) {
  BenchWorld world;
  bool tcp = state.range(0) != 0;
  std::unique_ptr<AudioConnection> tcp_client;
  AudioConnection* client = &world.client();
  if (tcp) {
    tcp_client = TcpClient(world);
    if (tcp_client == nullptr) {
      state.SkipWithError("tcp setup failed");
      return;
    }
    client = tcp_client.get();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(client->Sync());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(tcp ? "tcp" : "pipe");
}
BENCHMARK(BM_RoundTripLatency)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The asynchronous-protocol payoff: N object creations pipelined (fire
// then one Sync) vs N blocking query round trips.
void BM_PipelinedCreates(benchmark::State& state) {
  BenchWorld world;
  AudioConnection& client = world.client();
  constexpr int kBatch = 200;
  for (auto _ : state) {
    ResourceId loud = client.CreateLoud(kNoResource, {});
    for (int i = 0; i < kBatch; ++i) {
      client.CreateDevice(loud, DeviceClass::kPlayer, {});
    }
    (void)client.Sync();
    state.PauseTiming();
    client.DestroyLoud(loud);
    (void)client.Sync();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel("async pipeline");
}
BENCHMARK(BM_PipelinedCreates);

void BM_BlockingQueries(benchmark::State& state) {
  BenchWorld world;
  AudioConnection& client = world.client();
  ResourceId loud = client.CreateLoud(kNoResource, {});
  ResourceId device = client.CreateDevice(loud, DeviceClass::kPlayer, {});
  (void)client.Sync();
  constexpr int kBatch = 200;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(client.QueryDevice(device));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel("blocking round trips");
}
BENCHMARK(BM_BlockingQueries);

// Sound-data upload bandwidth (client-side supply path, section 6.2).
void BM_SoundUpload(benchmark::State& state) {
  BenchWorld world;
  AudioConnection& client = world.client();
  size_t chunk = static_cast<size_t>(state.range(0));
  ResourceId sound = client.CreateSound({Encoding::kPcm16, 8000});
  (void)client.Sync();
  std::vector<uint8_t> data(chunk, 0x5A);
  uint64_t offset = 0;
  for (auto _ : state) {
    client.WriteSound(sound, 0, data);  // overwrite in place: bounded memory
    (void)client.Sync();
    offset += chunk;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk));
}
BENCHMARK(BM_SoundUpload)->Arg(1024)->Arg(16384)->Arg(262144);

}  // namespace
}  // namespace aud

BENCHMARK_MAIN();
