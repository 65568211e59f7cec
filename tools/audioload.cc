// audioload: capacity load generator for audiond (the C10k driver behind
// bench_capacity). Opens N raw-protocol clients — no Alib, so the generator
// spends a fixed worker pool rather than a thread per connection, exactly
// the discipline the server's event-loop plane is being measured on — ramps
// them up over --ramp-ms, then holds for --hold-ms while every client is
// touched round-robin with a class-specific request mix:
//
//   dial       Immediate(DialCommand) on a telephone device
//   play       Immediate(PlayCommand) of a small uploaded sound
//   record     Immediate(RecordCommand) into a scratch sound
//   subscribe  SelectEvents(kAllEvents) + Map/UnmapLoud churn (self-events)
//
// Every --sync-every'th touch is a kSync round-trip; its RTT is the
// client-observed end-to-end latency (framing, loop dispatch, the big lock,
// egress) and is reported as p50/p95/p99/max. Exit code 1 when any client
// died unexpectedly or nothing connected — so CI smoke can assert survival.
//
// --abuse swaps the mix for an overload-protection exercise: flooders
// (request storms), device hogs and sound hogs (quota busters), plus one
// well-behaved player class whose sync RTT is the fairness verdict. The
// RateLimited / QuotaExceeded errors each client observes are counted and
// reported; abusers being throttled or cut does not fail the run.
//
// usage: audioload --port P [--host 127.0.0.1] [--clients 100] [--workers 8]
//                  [--ramp-ms 1000] [--hold-ms 2000] [--sync-every 8]
//                  [--abuse] [--json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

// The well-behaved mix, plus the --abuse classes: flooders burst requests
// far past any sane rate (tripping the token buckets), device hogs create
// virtual devices until the quota says no, sound hogs append sound data
// until the byte quota says no. Abuse runs keep one well-behaved class in
// the mix so the server's fairness — abusers throttled, the compliant
// client's sync RTT intact — is observable from the same process.
enum class MixClass : uint8_t {
  kDial,
  kPlay,
  kRecord,
  kSubscribe,
  kFlood,
  kDeviceHog,
  kSoundHog,
};

const char* MixName(MixClass mix) {
  switch (mix) {
    case MixClass::kDial: return "dial";
    case MixClass::kPlay: return "play";
    case MixClass::kRecord: return "record";
    case MixClass::kSubscribe: return "subscribe";
    case MixClass::kFlood: return "flood";
    case MixClass::kDeviceHog: return "devicehog";
    case MixClass::kSoundHog: return "soundhog";
  }
  return "?";
}

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int clients = 100;
  int workers = 8;
  int ramp_ms = 1000;
  int hold_ms = 2000;
  int sync_every = 8;
  bool json = false;
  // Abuse mode: 3/4 of clients are flooders and quota-busters, 1/4 stay
  // well-behaved players. Abusers getting throttled or cut is the expected
  // outcome, so only "nothing connected" fails the run.
  bool abuse = false;
};

// One raw-protocol client: a TCP stream, its id block, and a per-class
// touch. Owned and driven by exactly one worker thread; no locking.
class LoadClient {
 public:
  LoadClient(int index, MixClass mix) : index_(index), mix_(mix) {}

  bool alive() const { return stream_ != nullptr && !dead_; }
  MixClass mix() const { return mix_; }
  bool abusive() const { return mix_ >= MixClass::kFlood; }
  uint64_t touches() const { return touches_; }
  uint64_t events_seen() const { return events_seen_; }
  uint64_t rate_limited_seen() const { return rate_limited_seen_; }
  uint64_t quota_denied_seen() const { return quota_denied_seen_; }
  const std::vector<uint32_t>& rtts_us() const { return rtts_us_; }

  // Connects, performs the setup handshake, and creates the class's server
  // objects (async), confirmed by one sync round-trip.
  bool Connect(const Options& options) {
    stream_ = ConnectTcp(options.host, options.port);
    if (stream_ == nullptr) {
      return false;
    }
    SetupRequest request;
    request.client_name = std::string(MixName(mix_)) + "-" + std::to_string(index_);
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
    return Prepare();
  }

  // One round-robin visit: the class's async request, plus a measured sync
  // round-trip every sync_every'th visit.
  bool Touch(int sync_every) {
    if (!alive()) {
      return false;
    }
    switch (mix_) {
      case MixClass::kDial:
        SendImmediate(DialCommand(device_, "5551234"));
        break;
      case MixClass::kPlay:
        SendImmediate(PlayCommand(device_, sound_, /*tag=*/NextTag()));
        break;
      case MixClass::kRecord:
        SendImmediate(
            RecordCommand(device_, sound_, /*termination=*/0, /*max_ms=*/20));
        break;
      case MixClass::kSubscribe: {
        // Map/unmap churn: lifecycle events the client itself subscribed to.
        MapLoudReq map;
        map.loud = loud_;
        ByteWriter w;
        map.Encode(&w);
        Send(mapped_ ? Opcode::kUnmapLoud : Opcode::kMapLoud, w.bytes());
        mapped_ = !mapped_;
        break;
      }
      case MixClass::kFlood:
        // Request storm: a burst of NoOps per visit, far past any sane
        // request rate. Soft-policy refusals come back as RateLimited
        // errors (consumed and counted at the next sync); the hard policy
        // cuts the connection, which abuse-mode scoring expects.
        for (int k = 0; k < 32 && alive(); ++k) {
          if (!Send(Opcode::kNoOp, {})) {
            break;
          }
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
        ByteWriter w;
        write.Encode(&w);
        Send(Opcode::kWriteSoundData, w.bytes());
        break;
      }
    }
    ++touches_;
    if (sync_every > 0 && touches_ % static_cast<uint64_t>(sync_every) == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!SyncRoundTrip()) {
        return false;
      }
      rtts_us_.push_back(static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    return alive();
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
  uint32_t NextTag() { return ++tag_; }

  bool Send(Opcode opcode, std::span<const uint8_t> payload) {
    if (!WriteMessage(stream_.get(), MessageType::kRequest,
                      static_cast<uint16_t>(opcode), ++sequence_, payload)) {
      return Fail();
    }
    return true;
  }

  void SendImmediate(const CommandSpec& command) {
    ImmediateCommandReq req;
    req.loud = loud_;
    req.command = command;
    ByteWriter w;
    req.Encode(&w);
    Send(Opcode::kImmediateCommand, w.bytes());
  }

  // kSync round-trip; async events and errors that arrive first are
  // consumed (events counted, errors tolerated — hostile-free load still
  // races device-state errors, e.g. Dial on an already-dialing telephone).
  bool SyncRoundTrip() {
    if (!Send(Opcode::kSync, {})) {
      return false;
    }
    const uint32_t want = sequence_;
    for (int i = 0; i < 100000; ++i) {
      std::optional<FramedMessage> msg = ReadMessage(stream_.get());
      if (!msg) {
        Fail();
        return false;
      }
      if (msg->header.type == MessageType::kEvent) {
        ++events_seen_;
        continue;
      }
      if (msg->header.type == MessageType::kError) {
        // Tolerated, but overload verdicts are counted: they are the
        // client-side evidence the server's throttles actually fired.
        ByteReader er(msg->payload);
        ErrorMessage error = ErrorMessage::Decode(&er);
        if (er.ok() && error.code == ErrorCode::kRateLimited) {
          ++rate_limited_seen_;
        } else if (er.ok() && error.code == ErrorCode::kQuotaExceeded) {
          ++quota_denied_seen_;
        }
        if (msg->header.sequence == want) {
          return true;  // the sync itself was refused: no reply will follow
        }
        continue;
      }
      if (msg->header.type == MessageType::kReply &&
          msg->header.sequence == want) {
        return true;
      }
    }
    Fail();
    return false;
  }

  bool Prepare() {
    loud_ = AllocId();
    CreateLoudReq loud;
    loud.id = loud_;
    ByteWriter lw;
    loud.Encode(&lw);
    if (!Send(Opcode::kCreateLoud, lw.bytes())) {
      return false;
    }
    switch (mix_) {
      case MixClass::kDial:
        if (!CreateDevice(DeviceClass::kTelephone)) {
          return false;
        }
        break;
      case MixClass::kPlay:
        if (!CreateDevice(DeviceClass::kPlayer) || !CreateSound(true)) {
          return false;
        }
        break;
      case MixClass::kRecord:
        if (!CreateDevice(DeviceClass::kRecorder) || !CreateSound(false)) {
          return false;
        }
        break;
      case MixClass::kSubscribe: {
        SelectEventsReq select;
        select.resource = loud_;
        select.mask = kAllEvents;
        ByteWriter sw;
        select.Encode(&sw);
        if (!Send(Opcode::kSelectEvents, sw.bytes())) {
          return false;
        }
        break;
      }
      case MixClass::kFlood:
      case MixClass::kDeviceHog:
        break;  // the LOUD alone is enough to abuse from
      case MixClass::kSoundHog:
        if (!CreateSound(false)) {
          return false;
        }
        break;
    }
    return SyncRoundTrip();  // all creates landed; errors surfaced, client up
  }

  bool CreateDevice(DeviceClass device_class) {
    device_ = AllocId();
    CreateVirtualDeviceReq req;
    req.id = device_;
    req.loud = loud_;
    req.device_class = device_class;
    ByteWriter w;
    req.Encode(&w);
    return Send(Opcode::kCreateVirtualDevice, w.bytes());
  }

  bool CreateSound(bool upload) {
    sound_ = AllocId();
    CreateSoundReq req;
    req.id = sound_;
    req.format = kTelephoneFormat;
    ByteWriter w;
    req.Encode(&w);
    if (!Send(Opcode::kCreateSound, w.bytes())) {
      return false;
    }
    if (upload) {
      WriteSoundDataReq write;
      write.id = sound_;
      write.data.assign(800, 0x40);  // 100 ms of mulaw at 8 kHz
      ByteWriter ww;
      write.Encode(&ww);
      return Send(Opcode::kWriteSoundData, ww.bytes());
    }
    return true;
  }

  const int index_;
  const MixClass mix_;
  std::unique_ptr<ByteStream> stream_;
  ResourceId id_base_ = kNoResource;
  uint32_t next_id_ = 0;
  uint32_t sequence_ = 0;
  uint32_t tag_ = 0;
  ResourceId loud_ = kNoResource;
  ResourceId device_ = kNoResource;
  ResourceId sound_ = kNoResource;
  bool mapped_ = false;
  bool dead_ = false;
  uint64_t touches_ = 0;
  uint64_t events_seen_ = 0;
  uint64_t rate_limited_seen_ = 0;
  uint64_t quota_denied_seen_ = 0;
  uint64_t hog_offset_ = 0;
  std::vector<uint32_t> rtts_us_;
};

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
  std::atomic<int64_t> setup_failed{0};
  std::atomic<int64_t> died{0};
  std::atomic<int64_t> abusers_died{0};
  std::atomic<uint64_t> touches{0};
  std::atomic<uint64_t> events_seen{0};
  std::atomic<uint64_t> rate_limited_seen{0};
  std::atomic<uint64_t> quota_denied_seen{0};
  std::vector<std::vector<uint32_t>> worker_rtts(static_cast<size_t>(workers));

  const auto started = std::chrono::steady_clock::now();
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
        if (options.ramp_ms > 0 && hi > lo) {
          const auto due = started + std::chrono::milliseconds(
                                         options.ramp_ms * (i - lo) / (hi - lo));
          std::this_thread::sleep_until(due);
        }
        // Abuse mix: flooder / device hog / sound hog / well-behaved
        // player, so fairness (the player's RTT under attack) is measured
        // in the same run that generates the attack.
        const MixClass mix =
            options.abuse
                ? (i % 4 == 3 ? MixClass::kPlay
                              : static_cast<MixClass>(
                                    static_cast<int>(MixClass::kFlood) + i % 4))
                : static_cast<MixClass>(i % 4);
        auto client = std::make_unique<LoadClient>(i, mix);
        if (client->Connect(options)) {
          connected.fetch_add(1);
          mine.push_back(std::move(client));
        } else {
          setup_failed.fetch_add(1);
        }
      }

      // Hold: round-robin touches until the deadline.
      const auto deadline = started +
                            std::chrono::milliseconds(options.ramp_ms) +
                            std::chrono::milliseconds(options.hold_ms);
      while (std::chrono::steady_clock::now() < deadline) {
        bool any = false;
        for (auto& client : mine) {
          if (!client->alive()) {
            continue;
          }
          any = true;
          if (!client->Touch(options.sync_every)) {
            // An abuser cut by the hard policy is the system working, not a
            // casualty; only well-behaved deaths count against the run.
            (client->abusive() ? abusers_died : died).fetch_add(1);
          }
        }
        if (!any) {
          break;
        }
      }

      for (auto& client : mine) {
        touches.fetch_add(client->touches());
        events_seen.fetch_add(client->events_seen());
        rate_limited_seen.fetch_add(client->rate_limited_seen());
        quota_denied_seen.fetch_add(client->quota_denied_seen());
        // In abuse mode the RTT percentiles are the fairness verdict: only
        // the well-behaved clients' syncs count (a throttled flooder's sync
        // queues behind its own refused backlog by design).
        if (!options.abuse || !client->abusive()) {
          auto& sink = worker_rtts[static_cast<size_t>(w)];
          sink.insert(sink.end(), client->rtts_us().begin(),
                      client->rtts_us().end());
        }
        client->Close();
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
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  if (options.json) {
    std::printf(
        "{\"clients\": %d, \"connected\": %lld, \"setup_failed\": %lld, "
        "\"died\": %lld, \"abusers_died\": %lld, \"touches\": %llu, "
        "\"events_seen\": %llu, \"rate_limited_seen\": %llu, "
        "\"quota_denied_seen\": %llu, "
        "\"syncs\": %zu, \"sync_rtt_us\": {\"p50\": %.0f, \"p95\": %.0f, "
        "\"p99\": %.0f, \"max\": %.0f}, \"wall_s\": %.2f}\n",
        options.clients, static_cast<long long>(connected.load()),
        static_cast<long long>(setup_failed.load()),
        static_cast<long long>(died.load()),
        static_cast<long long>(abusers_died.load()),
        static_cast<unsigned long long>(touches.load()),
        static_cast<unsigned long long>(events_seen.load()),
        static_cast<unsigned long long>(rate_limited_seen.load()),
        static_cast<unsigned long long>(quota_denied_seen.load()), rtts.size(),
        p50, p95, p99, max, wall_s);
  } else {
    std::printf("audioload: %lld/%d clients up (%lld setup failures), "
                "%llu touches, %llu events, %.1fs\n",
                static_cast<long long>(connected.load()), options.clients,
                static_cast<long long>(setup_failed.load()),
                static_cast<unsigned long long>(touches.load()),
                static_cast<unsigned long long>(events_seen.load()), wall_s);
    std::printf("audioload: sync rtt us p50=%.0f p95=%.0f p99=%.0f max=%.0f "
                "(%zu samples)\n",
                p50, p95, p99, max, rtts.size());
    if (options.abuse) {
      std::printf("audioload: abuse: %llu rate-limited, %llu quota denials "
                  "seen, %lld abusers cut\n",
                  static_cast<unsigned long long>(rate_limited_seen.load()),
                  static_cast<unsigned long long>(quota_denied_seen.load()),
                  static_cast<long long>(abusers_died.load()));
    }
    if (died.load() > 0) {
      std::printf("audioload: %lld clients died mid-hold\n",
                  static_cast<long long>(died.load()));
    }
  }
  // Abuse runs expect casualties among the abusers; a dead well-behaved
  // client still fails the run either way.
  const bool ok = connected.load() > 0 && died.load() == 0;
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
