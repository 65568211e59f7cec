// C10k -- connection-plane capacity (the experiment behind DESIGN.md
// decision 14): how many concurrent clients can one server hold at its
// latency SLOs on its fixed pool of event-loop threads?
//
// Each ladder step starts a fresh realtime server with default options and
// connects C raw-protocol clients from a fixed worker pool. The population is the classic C10k mix:
// every client creates and maps a loud, subscribes to events, and keeps a
// trickle of kSync round-trips flowing through the measure window, while
// every kPlayerStride-th client additionally builds a full playback chain
// with 20 ms sync marks and runs its queue. Engine mixing therefore scales
// with C / kPlayerStride while the connection plane carries all C sockets —
// the step measures the connection plane, not the mixer. A step passes when
// every client connected and survived (no egress-overflow disconnects), the
// engine held its period (tick p99 <= one 20 ms period), dispatch p99
// stayed under a period, and the per-tick sync-mark fan-out actually
// reached the players. Capacity = the highest passing step; the ladder
// stops at the first failure.
//
// Full-run acceptance (exit 1 otherwise), absolute so it does not flip
// with the host's core count:
//   * capacity >= kAcceptCapacity clients at the SLOs;
//   * O(1) threads: on every passing step the process thread count is
//     unchanged by accepting C clients (thread_delta == 0).
//
// The run prints one line per step (tick/dispatch p99s, thread counts,
// event fan-out) and a summary line `capacity: clients=C
// loop_thread_delta=D cores=N`. Capacity is machine-dependent: a full run
// on a 4-vCPU VM held 4096 clients (EXPERIMENTS.md records it with the core
// count).
//
// --with-limits re-runs the ladder with overload protection armed (decision
// 15) at thresholds a compliant client never trips; the pass criterion then
// also requires zero rate-limit/quota/admission refusals, so the run proves
// the guards are free for clients that behave.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/transport/framer.h"
#include "src/transport/socket_stream.h"
#include "src/wire/messages.h"

namespace aud {
namespace {

constexpr double kSloTickP99Us = 20000.0;      // one 20 ms engine period
constexpr double kSloDispatchP99Us = 20000.0;  // end-to-end server dispatch

// The capacity the connection plane held when this gate was set (2048
// clients on a 4-vCPU VM); the fixed pool of kConnectionLoops event loops
// must keep it.
constexpr int kAcceptCapacity = 2048;

// Every kPlayerStride-th client actively plays; the rest hold mapped,
// subscribed, periodically-syncing connections. Client 0 always plays, so
// every step has at least one sync-mark producer.
constexpr int kPlayerStride = 8;

int ProcessThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  int threads = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

// One raw-protocol capacity client. The setup handshake and chain build use
// blocking reads; during the measure window the owning worker drains events
// and replies through the resumable Framer (SocketStream::ReadSome is
// MSG_DONTWAIT, so the same stream serves both phases).
class CapClient {
 public:
  explicit CapClient(int index) : index_(index) {}

  bool alive() const { return stream_ != nullptr && !dead_; }
  bool player() const { return index_ % kPlayerStride == 0; }
  uint64_t events() const { return events_; }

  bool Connect(uint16_t port, const std::vector<uint8_t>& sound_bytes) {
    stream_ = ConnectTcp("127.0.0.1", port);
    if (stream_ == nullptr) {
      return false;
    }
    SetupRequest request;
    request.client_name = "cap-" + std::to_string(index_);
    ByteWriter w;
    request.Encode(&w);
    if (!WriteMessage(stream_.get(), MessageType::kRequest, kSetupOpcode, 0,
                      w.bytes())) {
      return Fail();
    }
    std::optional<FramedMessage> reply = ReadMessage(stream_.get());
    if (!reply) {
      return Fail();
    }
    ByteReader r(reply->payload);
    SetupReply setup = SetupReply::Decode(&r);
    if (!r.ok() || setup.success == 0) {
      return Fail();
    }
    id_base_ = setup.id_base;
    return player() ? BuildChain(sound_bytes) : BuildIdle();
  }

  // Arms the playback: sync marks start flowing once the queue runs.
  bool StartQueue() {
    if (!player()) {
      return true;
    }
    ResourceReq req;
    req.id = loud_;
    ByteWriter w;
    req.Encode(&w);
    return Send(Opcode::kStartQueue, w.bytes());
  }

  bool SendSync() { return Send(Opcode::kSync, {}); }

  // Drains everything currently readable; false when the connection died.
  bool Drain() {
    if (!alive()) {
      return false;
    }
    for (int i = 0; i < 4096; ++i) {
      FramedMessage msg;
      switch (framer_.TryReadMessage(stream_.get(), &msg)) {
        case FrameStatus::kMessage:
          if (msg.header.type == MessageType::kEvent) {
            ++events_;
          }
          continue;
        case FrameStatus::kWouldBlock:
          return true;
        case FrameStatus::kEof:
        case FrameStatus::kMalformed:
          Fail();
          return false;
      }
    }
    return true;
  }

  void Close() {
    if (stream_ != nullptr) {
      stream_->Close();
    }
  }

 private:
  bool Fail() {
    dead_ = true;
    if (stream_ != nullptr) {
      stream_->Close();
      stream_.reset();
    }
    return false;
  }

  ResourceId AllocId() { return id_base_ + next_id_++; }

  bool Send(Opcode opcode, std::span<const uint8_t> payload) {
    if (!WriteMessage(stream_.get(), MessageType::kRequest,
                      static_cast<uint16_t>(opcode), ++sequence_, payload)) {
      return Fail();
    }
    return true;
  }

  // An idle-but-held connection: an event-subscribed loud that is never
  // mapped, so the engine never ticks it and it costs nothing — the
  // client is purely a held socket with live protocol state, the C10k idle
  // connection. Its kSync trickle still exercises the dispatch path.
  bool BuildIdle() {
    loud_ = AllocId();
    CreateLoudReq loud;
    loud.id = loud_;
    ByteWriter lw;
    loud.Encode(&lw);
    if (!Send(Opcode::kCreateLoud, lw.bytes())) {
      return false;
    }
    SelectEventsReq select;
    select.resource = loud_;
    select.mask = kQueueEvents | kLifecycleEvents | kSyncEvents;
    ByteWriter sw;
    select.Encode(&sw);
    if (!Send(Opcode::kSelectEvents, sw.bytes())) {
      return false;
    }
    return SyncBlocking();
  }

  // The toolkit's BuildPlaybackChain, raw: loud + player + output + wire,
  // event subscription, map, an uploaded sound, 20 ms sync marks, and one
  // queued play — everything async, confirmed by a blocking sync.
  bool BuildChain(const std::vector<uint8_t>& sound_bytes) {
    loud_ = AllocId();
    CreateLoudReq loud;
    loud.id = loud_;
    ByteWriter lw;
    loud.Encode(&lw);
    if (!Send(Opcode::kCreateLoud, lw.bytes())) {
      return false;
    }
    player_ = AllocId();
    output_ = AllocId();
    for (auto [id, device_class] :
         {std::pair{player_, DeviceClass::kPlayer},
          std::pair{output_, DeviceClass::kOutput}}) {
      CreateVirtualDeviceReq dev;
      dev.id = id;
      dev.loud = loud_;
      dev.device_class = device_class;
      ByteWriter dw;
      dev.Encode(&dw);
      if (!Send(Opcode::kCreateVirtualDevice, dw.bytes())) {
        return false;
      }
    }
    CreateWireReq wire;
    wire.id = AllocId();
    wire.src_device = player_;
    wire.dst_device = output_;
    ByteWriter ww;
    wire.Encode(&ww);
    if (!Send(Opcode::kCreateWire, ww.bytes())) {
      return false;
    }
    SelectEventsReq select;
    select.resource = loud_;
    select.mask = kQueueEvents | kLifecycleEvents | kSyncEvents;
    ByteWriter sw;
    select.Encode(&sw);
    if (!Send(Opcode::kSelectEvents, sw.bytes())) {
      return false;
    }
    MapLoudReq map;
    map.loud = loud_;
    ByteWriter mw;
    map.Encode(&mw);
    if (!Send(Opcode::kMapLoud, mw.bytes())) {
      return false;
    }
    sound_ = AllocId();
    CreateSoundReq create;
    create.id = sound_;
    create.format = kTelephoneFormat;
    ByteWriter cw;
    create.Encode(&cw);
    if (!Send(Opcode::kCreateSound, cw.bytes())) {
      return false;
    }
    WriteSoundDataReq write;
    write.id = sound_;
    write.data = sound_bytes;
    ByteWriter dw;
    write.Encode(&dw);
    if (!Send(Opcode::kWriteSoundData, dw.bytes())) {
      return false;
    }
    SetSyncMarksReq marks;
    marks.loud = loud_;
    marks.interval_ms = 20;
    ByteWriter kw;
    marks.Encode(&kw);
    if (!Send(Opcode::kSetSyncMarks, kw.bytes())) {
      return false;
    }
    EnqueueCommandsReq enqueue;
    enqueue.loud = loud_;
    enqueue.commands.push_back(PlayCommand(player_, sound_, 1));
    ByteWriter ew;
    enqueue.Encode(&ew);
    if (!Send(Opcode::kEnqueueCommands, ew.bytes())) {
      return false;
    }
    return SyncBlocking();
  }

  // Blocking ramp-phase sync: consume events until our reply arrives.
  bool SyncBlocking() {
    if (!Send(Opcode::kSync, {})) {
      return false;
    }
    const uint32_t want = sequence_;
    for (int i = 0; i < 100000; ++i) {
      std::optional<FramedMessage> msg = ReadMessage(stream_.get());
      if (!msg) {
        return Fail();
      }
      if (msg->header.type == MessageType::kEvent) {
        ++events_;
        continue;
      }
      if (msg->header.type == MessageType::kReply && msg->header.sequence == want) {
        return true;
      }
    }
    return Fail();
  }

  const int index_;
  std::unique_ptr<ByteStream> stream_;
  Framer framer_;
  ResourceId id_base_ = kNoResource;
  uint32_t next_id_ = 0;
  uint32_t sequence_ = 0;
  ResourceId loud_ = kNoResource;
  ResourceId player_ = kNoResource;
  ResourceId output_ = kNoResource;
  ResourceId sound_ = kNoResource;
  bool dead_ = false;
  uint64_t events_ = 0;
};

struct StepResult {
  int clients = 0;
  int players = 0;
  int connected = 0;
  int died = 0;
  int threads_before = 0;   // server up, zero clients
  int threads_loaded = 0;   // all clients held
  int bench_threads = 0;    // the bench's own workers, spawned after threads_before
  double tick_p99_us = 0;
  double dispatch_p99_us = 0;
  double loop_dispatch_p99_us = 0;
  int64_t fds_watched = 0;
  uint64_t egress_disconnects = 0;
  uint64_t events_sent = 0;
  uint64_t events_received = 0;
  uint64_t rate_limited = 0;
  uint64_t quota_denials = 0;
  double window_s = 0;
  bool pass = false;
};

// with_limits runs the identical workload against a server with overload
// protection armed (DESIGN.md decision 15). The limits are sized so a
// compliant capacity client never trips them — the chain build bursts ~12
// requests and one 80 KB sound upload, the hold phase trickles syncs — so
// the step must pass the same SLOs *and* record zero refusals, proving the
// admission/bucket/quota checks cost compliant clients nothing.
StepResult RunStep(int clients, int window_ms, bool with_limits) {
  StepResult result;
  result.clients = clients;
  result.players = (clients + kPlayerStride - 1) / kPlayerStride;

  ServerOptions options;
  if (with_limits) {
    options.max_connections = static_cast<size_t>(clients) + 8;
    options.limit_rps = 2000;
    options.limit_rps_burst = 256;
    options.limit_bps = 4 << 20;
    options.limit_bps_burst = 1 << 20;
    options.quota_devices = 8;
    options.quota_sound_bytes = 1 << 20;
    options.quota_plays = 4;
  }
  Board board{BoardConfig{}};
  AudioServer server(&board, options);
  if (!server.ListenTcp(0)) {
    return result;
  }
  server.StartRealtime();
  const uint16_t port = server.tcp_port();
  result.threads_before = ProcessThreadCount();

  // 10 s of near-silent mulaw: outlives ramp + window, so sync marks keep
  // firing for every client through the whole measure window.
  const std::vector<uint8_t> sound_bytes(8000 * 10, 0xFE);

  const int workers = std::min(4, clients);
  result.bench_threads = workers;
  std::vector<std::vector<std::unique_ptr<CapClient>>> per_worker(
      static_cast<size_t>(workers));
  std::atomic<int> connected{0};
  std::atomic<int> died{0};
  std::atomic<uint64_t> events_received{0};
  std::atomic<int> ramp_done{0};
  std::atomic<bool> window_open{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      auto& mine = per_worker[static_cast<size_t>(w)];
      const int lo = clients * w / workers;
      const int hi = clients * (w + 1) / workers;
      for (int i = lo; i < hi && !stop.load(); ++i) {
        auto client = std::make_unique<CapClient>(i);
        if (client->Connect(port, sound_bytes)) {
          connected.fetch_add(1);
          mine.push_back(std::move(client));
        }
      }
      ramp_done.fetch_add(1);
      // Barrier: wait for every worker's ramp before the window opens.
      while (!window_open.load() && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (auto& client : mine) {
        client->StartQueue();
      }
      // Hold: drain events non-blockingly, trickle syncs to keep request
      // dispatch in the measurement.
      uint64_t pass_count = 0;
      while (!stop.load()) {
        ++pass_count;
        for (auto& client : mine) {
          if (!client->alive()) {
            continue;
          }
          if (!client->Drain()) {
            died.fetch_add(1);
            continue;
          }
          if (pass_count % 16 == 0) {
            client->SendSync();
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      for (auto& client : mine) {
        events_received.fetch_add(client->events());
        client->Close();
      }
    });
  }

  // Wait for every worker to finish its ramp (success or failure — a step
  // with failed connects still runs its window and then fails the
  // all-connected criterion), then open the measure window.
  while (ramp_done.load() < workers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  window_open.store(true);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  result.threads_loaded = ProcessThreadCount();
  ServerStatsReply stats;
  {
    MutexLock lock(&server.mutex());
    stats = server.state().BuildServerStats(false);
  }
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  result.window_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.Shutdown();

  result.connected = connected.load();
  result.died = died.load();
  result.events_received = events_received.load();
  result.tick_p99_us = stats.tick_us.empty() ? 0.0 : stats.tick_us.Percentile(99);
  result.dispatch_p99_us =
      stats.dispatch_us.empty() ? 0.0 : stats.dispatch_us.Percentile(99);
  result.loop_dispatch_p99_us =
      stats.loop_dispatch_us.empty() ? 0.0 : stats.loop_dispatch_us.Percentile(99);
  result.fds_watched = stats.fds_watched;
  result.egress_disconnects = stats.egress_disconnects;
  result.events_sent = stats.events_sent;
  result.rate_limited = stats.rate_limited;
  result.quota_denials = stats.quota_denials;
  result.pass = result.connected == clients && result.died == 0 &&
                result.egress_disconnects == 0 &&
                result.tick_p99_us <= kSloTickP99Us &&
                result.dispatch_p99_us <= kSloDispatchP99Us &&
                result.events_received >= static_cast<uint64_t>(result.players) &&
                // With limits armed, compliant traffic must sail through.
                result.rate_limited == 0 && result.quota_denials == 0 &&
                stats.admission_rejects == 0;
  return result;
}

}  // namespace
}  // namespace aud

int main(int argc, char** argv) {
  // --with-limits is ours; strip it before the common parser warns.
  bool with_limits = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--with-limits") == 0) {
      with_limits = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  aud::BenchFlags flags = aud::BenchFlags::Parse(argc, argv);

  // The bench holds the client end of every socket besides the server's
  // end: lift the fd ceiling so the ladder measures the server, not our
  // rlimit.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &nofile);
  }

  const int window_ms = flags.quick ? 1000 : 2000;
  const std::vector<int> ladder = flags.quick
                                      ? std::vector<int>{16, 48, 96}
                                      : std::vector<int>{512, 1024, 2048, 4096, 8192};
  const unsigned cores = std::thread::hardware_concurrency();

  int capacity = 0;
  int loop_thread_delta_max = 0;

  for (int clients : ladder) {
    aud::StepResult r = aud::RunStep(clients, window_ms, with_limits);
    // threads_before is sampled before the bench spawns its own workers,
    // so subtract them: the delta isolates server-side thread growth.
    const int thread_delta = r.threads_loaded - r.threads_before - r.bench_threads;
    std::printf(
        "capacity%s/%d: %s connected=%d players=%d died=%d tick_p99=%.0fus "
        "dispatch_p99=%.0fus loop_dispatch_p99=%.0fus threads=%d (+%d) "
        "fds=%lld events rx=%llu tx=%llu cuts=%llu ratelim=%llu quota=%llu\n",
        with_limits ? "+limits" : "", clients, r.pass ? "PASS" : "fail", r.connected,
        r.players, r.died, r.tick_p99_us, r.dispatch_p99_us, r.loop_dispatch_p99_us,
        r.threads_loaded, thread_delta, static_cast<long long>(r.fds_watched),
        static_cast<unsigned long long>(r.events_received),
        static_cast<unsigned long long>(r.events_sent),
        static_cast<unsigned long long>(r.egress_disconnects),
        static_cast<unsigned long long>(r.rate_limited),
        static_cast<unsigned long long>(r.quota_denials));
    std::fflush(stdout);
    if (!r.pass) {
      break;  // the ladder is monotone; higher steps only burn time
    }
    capacity = clients;
    loop_thread_delta_max = std::max(loop_thread_delta_max, thread_delta);
  }

  std::printf("capacity%s: clients=%d loop_thread_delta=%d cores=%u\n",
              with_limits ? "+limits" : "", capacity, loop_thread_delta_max, cores);

  if (!flags.quick) {
    if (capacity < aud::kAcceptCapacity) {
      std::fprintf(stderr, "bench_capacity: FAIL capacity %d < %d clients\n", capacity,
                   aud::kAcceptCapacity);
      return 1;
    }
    if (loop_thread_delta_max != 0) {
      std::fprintf(stderr,
                   "bench_capacity: FAIL the server grew %d threads with "
                   "clients (want 0)\n",
                   loop_thread_delta_max);
      return 1;
    }
  }
  return 0;
}
