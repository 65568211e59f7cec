// audioload: the capacity load generator for audiond, and the load behind
// bench_capacity. Opens N raw-protocol clients — no Alib, so the generator
// spends a fixed worker pool rather than a thread per connection, the
// discipline the server's event-loop plane is measured on.
//
// The population is the C10k mix. Every kPlayerStride-th client (client 0
// among them) builds a mapped playback chain: player, output and wire, an
// event subscription, a sound that outlasts the hold, 20 ms sync marks and
// one queued play. Every other client holds an event-subscribed LOUD that
// is never mapped, so the engine never ticks it: a held socket with live
// protocol state. Workers ramp their clients up (spread over --ramp-ms),
// each confirmed by a sync round-trip. Once every worker's ramp is done,
// audioload prints
//
//   audioload: hold: <connected>/<clients> clients up
//
// and holds for --hold-ms: the players' queues start, and every client
// drains its events and replies without blocking and trickles kSync
// requests. One sync in --sync-every is timed; its RTT is the
// client-observed end-to-end latency (framing, loop dispatch, the state
// lock, egress), reported as p50/p95/p99/max. A worker reads a timed reply
// as soon as it arrives between passes, but not during one, so with
// thousands of clients per worker the RTT also holds part of a pass.
//
// Every error a well-behaved client receives is counted (errors_seen in
// --json). Any error other than RateLimited or QuotaExceeded fails the run,
// as does a client dying or nothing connecting: exit code 1, so CI smoke
// can gate on it.
//
// --abuse swaps three clients in four for an overload-protection exercise:
// flooders (request storms), device hogs and sound hogs (quota busters),
// beside the well-behaved mix whose sync RTT is the fairness verdict. The
// RateLimited / QuotaExceeded errors each client observes are counted and
// reported; abusers being throttled or cut does not fail the run.
//
// usage: audioload --port P [--host 127.0.0.1] [--clients 100] [--workers 8]
//                  [--ramp-ms 1000] [--hold-ms 2000] [--sync-every 8]
//                  [--abuse] [--json]

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/alib/alib.h"
#include "src/transport/framer.h"
#include "src/transport/socket_stream.h"
#include "src/wire/messages.h"

namespace aud {
namespace {

using Clock = std::chrono::steady_clock;

// Every kPlayerStride-th well-behaved client plays; the rest idle.
constexpr int kPlayerStride = 8;
// A hold pass visits every client of a worker, then sleeps kPassMs; every
// kSyncPasses-th pass each client sends one kSync.
constexpr int kPassMs = 2;
constexpr uint64_t kSyncPasses = 16;

// The well-behaved mix, plus the --abuse classes: flooders burst requests
// far past any sane rate (tripping the token buckets), device hogs create
// virtual devices until the quota says no, sound hogs append sound data
// until the byte quota says no.
enum class MixClass : uint8_t {
  kWellBehaved,
  kFlood,
  kDeviceHog,
  kSoundHog,
};

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int clients = 100;
  int workers = 8;
  int ramp_ms = 1000;
  int hold_ms = 2000;
  int sync_every = 8;
  bool json = false;
  bool abuse = false;
};

// Run-wide sums of the per-client tallies.
struct Tally {
  std::atomic<uint64_t> events{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> rate_limited{0};
  std::atomic<uint64_t> quota_denied{0};
};

// One raw-protocol client: a TCP stream, its id block, and its class's
// requests. Owned and driven by exactly one worker thread; no locking.
class LoadClient {
 public:
  LoadClient(int index, MixClass mix) : index_(index), mix_(mix) {}

  bool alive() const { return stream_ != nullptr && !dead_; }
  bool abusive() const { return mix_ != MixClass::kWellBehaved; }
  bool player() const { return !abusive() && index_ % kPlayerStride == 0; }
  // The socket to poll while a timed sync is in flight, else -1.
  int timed_fd() const {
    return alive() && timed_sequence_ != 0 ? stream_->pollable_fd() : -1;
  }
  const std::vector<uint32_t>& rtts_us() const { return rtts_us_; }

  // Connects, performs the setup handshake, and creates the class's server
  // objects (async), confirmed by one blocking sync round-trip.
  bool Connect(const Options& options, const std::vector<uint8_t>& sound_bytes) {
    stream_ = ConnectTcp(options.host, options.port);
    if (stream_ == nullptr) {
      return false;
    }
    SetupRequest request;
    request.client_name = "load-" + std::to_string(index_);
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
    return Prepare(sound_bytes) && SyncBlocking();
  }

  // Arms the playback: sync marks start flowing once the queue runs.
  void StartQueue() {
    if (player()) {
      ResourceReq req;
      req.id = loud_;
      Request(Opcode::kStartQueue, req);
    }
  }

  // One hold visit: drain what is readable, the class's request, and on
  // sync passes a kSync (one in sync_every timed).
  void Visit(uint64_t pass, int sync_every) {
    if (!Drain()) {
      return;
    }
    switch (mix_) {
      case MixClass::kWellBehaved:
        break;
      case MixClass::kFlood:
        // Request storm: a burst of NoOps per visit, far past any sane
        // request rate. Soft-policy refusals come back as RateLimited
        // errors; the hard policy cuts the connection.
        for (int k = 0; k < 32 && Send(Opcode::kNoOp, {}); ++k) {
        }
        break;
      case MixClass::kDeviceHog:
        // One more virtual device per visit, forever — the device quota
        // answers QuotaExceeded once the cap is reached.
        CreateDevice(DeviceClass::kPlayer);
        break;
      case MixClass::kSoundHog: {
        // Append another block to the hoard; the sound-byte quota denies
        // all growth past the cap. The offset stops advancing at 1 MiB so
        // the denial stays a quota denial (not the absolute size cap).
        WriteSoundDataReq write;
        write.id = sound_;
        write.offset = hog_offset_;
        write.data.assign(4096, 0x40);
        if (hog_offset_ < (1u << 20)) {
          hog_offset_ += 4096;
        }
        Request(Opcode::kWriteSoundData, write);
        break;
      }
    }
    if (pass % kSyncPasses == 0 && Send(Opcode::kSync, {})) {
      ++syncs_sent_;
      if (sync_every > 0 && timed_sequence_ == 0 &&
          syncs_sent_ % static_cast<uint64_t>(sync_every) == 0) {
        timed_sequence_ = sequence_;
        timed_at_ = Clock::now();
      }
    }
  }

  // Drains everything currently readable; false when the connection died.
  bool Drain() {
    if (!alive()) {
      return false;
    }
    for (int i = 0; i < 4096; ++i) {
      switch (framer_.TryReadMessage(stream_.get(), &msg_)) {
        case FrameStatus::kMessage:
          Note(msg_);
          continue;
        case FrameStatus::kWouldBlock:
          return true;
        case FrameStatus::kEof:
        case FrameStatus::kMalformed:
          return Fail();
      }
    }
    return true;
  }

  // Adds this client's counts to the run's and closes it.
  void Finish(Tally* tally) {
    tally->events.fetch_add(events_);
    tally->errors.fetch_add(errors_);
    tally->rate_limited.fetch_add(rate_limited_);
    tally->quota_denied.fetch_add(quota_denied_);
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
    if (!alive() || !WriteMessage(stream_.get(), MessageType::kRequest,
                                  static_cast<uint16_t>(opcode), ++sequence_,
                                  payload)) {
      return Fail();
    }
    return true;
  }

  template <typename Req>
  bool Request(Opcode opcode, const Req& req) {
    ByteWriter w;
    req.Encode(&w);
    return Send(opcode, w.bytes());
  }

  // Counts an event or error, and closes the timed sync's round-trip.
  void Note(const FramedMessage& msg) {
    if (msg.header.type == MessageType::kEvent) {
      ++events_;
      return;
    }
    if (msg.header.type == MessageType::kError) {
      ByteReader r(msg.payload);
      const ErrorMessage error = ErrorMessage::Decode(&r);
      if (r.ok() && error.code == ErrorCode::kRateLimited) {
        ++rate_limited_;
      } else if (r.ok() && error.code == ErrorCode::kQuotaExceeded) {
        ++quota_denied_;
      } else if (!abusive()) {
        ++errors_;
        static std::atomic_flag reported;
        if (!reported.test_and_set()) {
          std::fprintf(stderr, "audioload: client %d: %s on %s\n", index_,
                       std::string(ErrorCodeName(error.code)).c_str(),
                       std::string(OpcodeName(static_cast<Opcode>(error.opcode)))
                           .c_str());
        }
      }
    }
    if (timed_sequence_ != 0 && msg.header.sequence == timed_sequence_) {
      rtts_us_.push_back(static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                timed_at_)
              .count()));
      timed_sequence_ = 0;
    }
  }

  // Ramp-phase sync: blocking reads until our reply (or its refusal).
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
      Note(*msg);
      if (msg->header.type != MessageType::kEvent && msg->header.sequence == want) {
        return true;
      }
    }
    return Fail();
  }

  // Every client: a LOUD. Well-behaved clients subscribe it to their
  // events, and players build a chain in it. Requests are async, so a send
  // that fails leaves the client dead and the rest no-ops.
  bool Prepare(const std::vector<uint8_t>& sound_bytes) {
    loud_ = AllocId();
    CreateLoudReq loud;
    loud.id = loud_;
    Request(Opcode::kCreateLoud, loud);
    switch (mix_) {
      case MixClass::kWellBehaved:
        break;
      case MixClass::kFlood:
      case MixClass::kDeviceHog:
        return alive();  // the LOUD alone is enough to abuse from
      case MixClass::kSoundHog:
        CreateSound();
        return alive();
    }
    SelectEventsReq select;
    select.resource = loud_;
    select.mask = kQueueEvents | kLifecycleEvents | kSyncEvents;
    Request(Opcode::kSelectEvents, select);
    if (player()) {
      BuildChain(sound_bytes);
    }
    return alive();
  }

  // The toolkit's BuildPlaybackChain, raw: player -> output in the mapped
  // LOUD, an uploaded sound, 20 ms sync marks and one queued play.
  void BuildChain(const std::vector<uint8_t>& sound_bytes) {
    CreateWireReq wire;
    wire.id = AllocId();
    wire.src_device = CreateDevice(DeviceClass::kPlayer);
    wire.dst_device = CreateDevice(DeviceClass::kOutput);
    Request(Opcode::kCreateWire, wire);
    MapLoudReq map;
    map.loud = loud_;
    Request(Opcode::kMapLoud, map);
    CreateSound();
    WriteSoundDataReq write;
    write.id = sound_;
    write.data = sound_bytes;
    Request(Opcode::kWriteSoundData, write);
    SetSyncMarksReq marks;
    marks.loud = loud_;
    marks.interval_ms = 20;
    Request(Opcode::kSetSyncMarks, marks);
    EnqueueCommandsReq enqueue;
    enqueue.loud = loud_;
    enqueue.commands.push_back(PlayCommand(wire.src_device, sound_, 1));
    Request(Opcode::kEnqueueCommands, enqueue);
  }

  ResourceId CreateDevice(DeviceClass device_class) {
    CreateVirtualDeviceReq req;
    req.id = AllocId();
    req.loud = loud_;
    req.device_class = device_class;
    Request(Opcode::kCreateVirtualDevice, req);
    return req.id;
  }

  void CreateSound() {
    sound_ = AllocId();
    CreateSoundReq req;
    req.id = sound_;
    req.format = kTelephoneFormat;
    Request(Opcode::kCreateSound, req);
  }

  const int index_;
  const MixClass mix_;
  std::unique_ptr<ByteStream> stream_;
  Framer framer_;
  FramedMessage msg_;
  ResourceId id_base_ = kNoResource;
  uint32_t next_id_ = 0;
  uint32_t sequence_ = 0;
  ResourceId loud_ = kNoResource;
  ResourceId sound_ = kNoResource;
  bool dead_ = false;
  uint64_t events_ = 0;
  uint64_t errors_ = 0;
  uint64_t rate_limited_ = 0;
  uint64_t quota_denied_ = 0;
  uint64_t hog_offset_ = 0;
  uint64_t syncs_sent_ = 0;
  uint32_t timed_sequence_ = 0;  // 0: no timed sync in flight
  Clock::time_point timed_at_;
  std::vector<uint32_t> rtts_us_;
};

// Sleeps until `until`, but drains each client whose timed sync is in
// flight as soon as its socket turns readable, so the RTT is not rounded up
// to a hold pass.
void Rest(const std::vector<std::unique_ptr<LoadClient>>& clients,
          Clock::time_point until) {
  std::vector<pollfd> fds;
  std::vector<LoadClient*> timed;
  for (const auto& client : clients) {
    if (client->timed_fd() >= 0) {
      fds.push_back({client->timed_fd(), POLLIN, 0});
      timed.push_back(client.get());
    }
  }
  while (!fds.empty()) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(until - Clock::now());
    if (left.count() <= 0 ||
        ::poll(fds.data(), fds.size(), static_cast<int>(left.count())) <= 0) {
      break;
    }
    for (size_t i = 0; i < fds.size();) {
      if (fds[i].revents != 0) {
        timed[i]->Drain();
      }
      if (timed[i]->timed_fd() >= 0) {
        ++i;
        continue;
      }
      fds[i] = fds.back();
      fds.pop_back();
      timed[i] = timed.back();
      timed.pop_back();
    }
  }
  std::this_thread::sleep_until(until);
}

double PercentileOf(std::vector<uint32_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t index = static_cast<size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                       p / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[index]);
}

int Run(const Options& options) {
  const int workers =
      std::max(1, std::min(options.workers, std::max(1, options.clients)));
  std::atomic<int64_t> connected{0};
  std::atomic<int64_t> players{0};
  std::atomic<int64_t> setup_failed{0};
  std::atomic<int64_t> died{0};
  std::atomic<int64_t> abusers_died{0};
  Tally tally;
  std::vector<std::vector<uint32_t>> worker_rtts(static_cast<size_t>(workers));

  // Near-silent mulaw that outlasts the hold, so every player's sync marks
  // keep firing until the end. Holds past 10 minutes keep a 10-minute sound,
  // which still fits one frame.
  const int64_t sound_ms = std::min<int64_t>(int64_t{options.hold_ms} + 1000, 600000);
  const std::vector<uint8_t> sound_bytes(
      static_cast<size_t>(sound_ms * kTelephoneFormat.sample_rate_hz / 1000), 0xFE);

  // The hold starts once every worker's ramp is confirmed; the barrier's
  // completion stamps it and prints the hold line before any worker goes on.
  Clock::time_point hold_end;
  std::barrier ramp_done(workers, [&]() noexcept {
    hold_end = Clock::now() + std::chrono::milliseconds(options.hold_ms);
    std::printf("audioload: hold: %lld/%d clients up\n",
                static_cast<long long>(connected.load()), options.clients);
    std::fflush(stdout);
  });

  const auto started = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const int lo = options.clients * w / workers;
      const int hi = options.clients * (w + 1) / workers;
      std::vector<std::unique_ptr<LoadClient>> mine;
      mine.reserve(static_cast<size_t>(hi - lo));

      // Ramp: spread this worker's connects evenly across the ramp window.
      for (int i = lo; i < hi; ++i) {
        if (options.ramp_ms > 0) {
          std::this_thread::sleep_until(
              started + std::chrono::milliseconds(options.ramp_ms * (i - lo) / (hi - lo)));
        }
        // Abuse mix: well-behaved / flooder / device hog / sound hog, so
        // fairness (the well-behaved RTT under attack) is measured in the
        // same run that generates the attack.
        const MixClass mix =
            options.abuse ? static_cast<MixClass>(i % 4) : MixClass::kWellBehaved;
        auto client = std::make_unique<LoadClient>(i, mix);
        if (client->Connect(options, sound_bytes)) {
          connected.fetch_add(1);
          players.fetch_add(client->player() ? 1 : 0);
          mine.push_back(std::move(client));
        } else {
          setup_failed.fetch_add(1);
        }
      }
      ramp_done.arrive_and_wait();

      for (auto& client : mine) {
        client->StartQueue();
      }
      for (uint64_t pass = 1; Clock::now() < hold_end; ++pass) {
        for (auto& client : mine) {
          client->Visit(pass, options.sync_every);
        }
        Rest(mine, Clock::now() + std::chrono::milliseconds(kPassMs));
      }

      auto& sink = worker_rtts[static_cast<size_t>(w)];
      for (auto& client : mine) {
        // In abuse mode the RTT percentiles are the fairness verdict: only
        // the well-behaved clients' syncs count (a throttled flooder's sync
        // queues behind its own refused backlog by design).
        if (!client->abusive()) {
          sink.insert(sink.end(), client->rtts_us().begin(), client->rtts_us().end());
        }
        // An abuser cut by the hard policy is the system working, not a
        // casualty; only well-behaved deaths count against the run.
        if (!client->alive()) {
          (client->abusive() ? abusers_died : died).fetch_add(1);
        }
        client->Finish(&tally);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<uint32_t> rtts;
  for (auto& chunk : worker_rtts) {
    rtts.insert(rtts.end(), chunk.begin(), chunk.end());
  }
  std::sort(rtts.begin(), rtts.end());
  const double p50 = PercentileOf(rtts, 50);
  const double p95 = PercentileOf(rtts, 95);
  const double p99 = PercentileOf(rtts, 99);
  const double max = rtts.empty() ? 0.0 : static_cast<double>(rtts.back());
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - started).count();

  if (options.json) {
    std::printf(
        "{\"clients\": %d, \"connected\": %lld, \"players\": %lld, "
        "\"setup_failed\": %lld, \"died\": %lld, \"abusers_died\": %lld, "
        "\"events_seen\": %llu, \"errors_seen\": %llu, "
        "\"rate_limited_seen\": %llu, \"quota_denied_seen\": %llu, "
        "\"syncs\": %zu, \"sync_rtt_us\": {\"p50\": %.0f, \"p95\": %.0f, "
        "\"p99\": %.0f, \"max\": %.0f}, \"wall_s\": %.2f}\n",
        options.clients, static_cast<long long>(connected.load()),
        static_cast<long long>(players.load()),
        static_cast<long long>(setup_failed.load()),
        static_cast<long long>(died.load()),
        static_cast<long long>(abusers_died.load()),
        static_cast<unsigned long long>(tally.events.load()),
        static_cast<unsigned long long>(tally.errors.load()),
        static_cast<unsigned long long>(tally.rate_limited.load()),
        static_cast<unsigned long long>(tally.quota_denied.load()), rtts.size(),
        p50, p95, p99, max, wall_s);
  } else {
    std::printf("audioload: %lld/%d clients up (%lld players, %lld setup "
                "failures), %llu events, %llu errors, %.1fs\n",
                static_cast<long long>(connected.load()), options.clients,
                static_cast<long long>(players.load()),
                static_cast<long long>(setup_failed.load()),
                static_cast<unsigned long long>(tally.events.load()),
                static_cast<unsigned long long>(tally.errors.load()), wall_s);
    std::printf("audioload: sync rtt us p50=%.0f p95=%.0f p99=%.0f max=%.0f "
                "(%zu samples)\n",
                p50, p95, p99, max, rtts.size());
    if (options.abuse) {
      std::printf("audioload: abuse: %llu rate-limited, %llu quota denials "
                  "seen, %lld abusers cut\n",
                  static_cast<unsigned long long>(tally.rate_limited.load()),
                  static_cast<unsigned long long>(tally.quota_denied.load()),
                  static_cast<long long>(abusers_died.load()));
    }
    if (died.load() > 0) {
      std::printf("audioload: %lld clients died mid-hold\n",
                  static_cast<long long>(died.load()));
    }
  }
  // Abuse runs expect casualties and refusals among the abusers; a dead or
  // wrongly refused well-behaved client fails the run either way.
  const bool ok = connected.load() > 0 && died.load() == 0 && tally.errors.load() == 0;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace aud

int main(int argc, char** argv) {
  aud::Options options;
  auto next_int = [&](int i) { return i + 1 < argc ? std::atoi(argv[i + 1]) : 0; };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port") {
      options.port = static_cast<uint16_t>(next_int(i));
      ++i;
    } else if (arg == "--clients") {
      options.clients = std::max(1, next_int(i));
      ++i;
    } else if (arg == "--workers") {
      options.workers = std::max(1, next_int(i));
      ++i;
    } else if (arg == "--ramp-ms") {
      options.ramp_ms = std::max(0, next_int(i));
      ++i;
    } else if (arg == "--hold-ms") {
      options.hold_ms = std::max(0, next_int(i));
      ++i;
    } else if (arg == "--sync-every") {
      options.sync_every = std::max(0, next_int(i));
      ++i;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--abuse") {
      options.abuse = true;
    } else {
      std::fprintf(stderr,
                   "usage: audioload --port P [--host H] [--clients N] "
                   "[--workers W] [--ramp-ms R] [--hold-ms H] "
                   "[--sync-every K] [--abuse] [--json]\n");
      return 2;
    }
  }
  if (options.port == 0) {
    std::fprintf(stderr, "audioload: --port is required\n");
    return 2;
  }
  return aud::Run(options);
}
