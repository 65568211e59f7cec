// Shared scaffolding for the benchmark/experiment binaries. Each bench
// reproduces one experiment from DESIGN.md (E1..E11) and prints rows
// comparing the paper's stated goal with the measured value; EXPERIMENTS.md
// records the results.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/alib/alib.h"
#include "src/dsp/tone.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/socket_stream.h"

namespace aud {

// An in-process server + one client, like the test fixture but bench-grade.
class BenchWorld {
 public:
  explicit BenchWorld(const BoardConfig& config = BoardConfig{},
                      ServerOptions options = ServerOptions{})
      : board_(config), server_(&board_, options) {
    client_ = Connect("bench");
    toolkit_ = std::make_unique<AudioToolkit>(client_.get());
    toolkit_->set_time_pump([this] { server_.StepFrames(160); });
  }

  ~BenchWorld() { server_.Shutdown(); }

  std::unique_ptr<AudioConnection> Connect(const std::string& name) {
    auto [client_end, server_end] = CreatePipePair();
    server_.AddConnection(std::move(server_end));
    return AudioConnection::Open(std::move(client_end), name);
  }

  Board& board() { return board_; }
  AudioServer& server() { return server_; }
  AudioConnection& client() { return *client_; }
  AudioToolkit& toolkit() { return *toolkit_; }

 private:
  Board board_;
  AudioServer server_;
  std::unique_ptr<AudioConnection> client_;
  std::unique_ptr<AudioToolkit> toolkit_;
};

struct DistributionStats {
  double min = 0;
  double median = 0;
  double p90 = 0;
  double max = 0;
  double mean = 0;
};

inline DistributionStats Summarize(std::vector<double> values) {
  DistributionStats stats;
  if (values.empty()) {
    return stats;
  }
  std::sort(values.begin(), values.end());
  stats.min = values.front();
  stats.max = values.back();
  stats.median = values[values.size() / 2];
  stats.p90 = values[values.size() * 9 / 10];
  stats.mean = std::accumulate(values.begin(), values.end(), 0.0) /
               static_cast<double>(values.size());
  return stats;
}

inline void PrintHeader(const char* experiment, const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

// Process CPU time (user + system), for CPU-share measurements.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto to_s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

// -- Repeated catalogue play (the decoded-PCM cache's target workload) -------
//
// The answering-machine pattern: several lines play the same catalogued
// prompt (4-bit ADPCM at 16 kHz, so each play costs an ADPCM decode plus a
// 16k -> 8k resample unless the cache serves it) over and over. `clients`
// players run concurrently, each playing the prompt `plays_each` times
// back-to-back; virtual time advances until every queue drains.

struct CatalogPlayResult {
  bool ok = false;                // every play completed
  int plays = 0;                  // total plays timed
  double wall_ns_per_play = 0;    // wall ns per play (engine stepping)
  double cpu_ns_per_play = 0;     // process CPU ns per play
  double tick_p50_us = 0;         // server tick latency percentiles
  double tick_p99_us = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

inline CatalogPlayResult RunCatalogPlayWorkload(size_t cache_bytes, int clients,
                                                int plays_each) {
  ServerOptions options;
  options.decoded_cache_bytes = cache_bytes;
  BenchWorld world(BoardConfig{}, options);

  struct PlayClient {
    std::unique_ptr<AudioConnection> conn;
    std::unique_ptr<AudioToolkit> toolkit;
    AudioToolkit::PlaybackChain chain;
  };
  std::vector<PlayClient> players(static_cast<size_t>(clients));
  const uint32_t last_tag = 1000;
  for (int i = 0; i < clients; ++i) {
    PlayClient& c = players[static_cast<size_t>(i)];
    c.conn = world.Connect("catalog-play-" + std::to_string(i));
    c.toolkit = std::make_unique<AudioToolkit>(c.conn.get());
    c.toolkit->set_time_pump([&world] { world.server().StepFrames(160); });
    c.chain = c.toolkit->BuildPlaybackChain();
    ResourceId sound = c.conn->LoadCatalogueSound("prompt");
    std::vector<CommandSpec> program;
    for (int p = 0; p < plays_each; ++p) {
      program.push_back(PlayCommand(c.chain.player, sound,
                                    p + 1 == plays_each ? last_tag : 0));
    }
    c.conn->Enqueue(c.chain.loud, program);
  }
  for (auto& c : players) {
    (void)c.conn->Sync();
  }

  CatalogPlayResult result;
  result.plays = clients * plays_each;
  double cpu0 = ProcessCpuSeconds();
  auto t0 = std::chrono::steady_clock::now();
  for (auto& c : players) {
    c.conn->StartQueue(c.chain.loud);
  }
  result.ok = true;
  for (auto& c : players) {
    result.ok = c.toolkit->WaitCommandDone(last_tag, 120000) && result.ok;
  }
  auto t1 = std::chrono::steady_clock::now();
  double cpu1 = ProcessCpuSeconds();

  double wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  result.wall_ns_per_play = wall_ns / result.plays;
  result.cpu_ns_per_play = (cpu1 - cpu0) * 1e9 / result.plays;

  auto stats = players[0].conn->GetServerStats(false);
  if (stats.ok()) {
    const auto& tick = stats.value().tick_us;
    result.tick_p50_us = tick.empty() ? 0.0 : tick.Percentile(50);
    result.tick_p99_us = tick.empty() ? 0.0 : tick.Percentile(99);
    result.cache_hits = stats.value().decoded_cache_hits;
    result.cache_misses = stats.value().decoded_cache_misses;
  }
  return result;
}

}  // namespace aud

#endif  // BENCH_BENCH_UTIL_H_
