// C10k -- connection-plane capacity (the experiment behind DESIGN.md
// decision 14): how many concurrent clients can one server hold at its
// latency SLOs on its fixed pool of event-loop threads?
//
// Each ladder step runs the shipped binaries as child processes: a fresh
// `audiond --port 0` with default options, and `audioload --clients C`,
// whose population is the classic C10k mix: every 8th client builds a
// mapped playback chain with 20 ms sync marks and runs its queue, every
// other client holds an event-subscribed, unmapped LOUD, and all of them
// keep a trickle of kSync round-trips flowing through the hold. Engine
// mixing therefore scales with C / 8 while the connection plane carries
// all C sockets — the step measures the connection plane, not the mixer.
//
// The measure window opens on audioload's hold line (every client ramped
// up) and closes window_ms later, before the hold ends. The step judges
// three sources: the window deltas of two GetServerStats snapshots (tick
// and dispatch p99s), audioload's --json line (connects, deaths, events
// received), and the thread count in /proc/<audiond pid>/status. The
// refusal and cut counters are read at the window's end, so they cover the
// whole step on its fresh server, ramp included. A step passes when every
// client connected and survived (no egress-overflow disconnects), no
// request drew an error, the engine held its period (tick p99 <= one 20 ms
// period), dispatch p99 stayed under a period, and the per-tick sync-mark
// fan-out actually reached the players. Capacity = the highest passing step; the ladder
// stops at the first failure.
//
// Full-run acceptance (exit 1 otherwise), absolute so it does not flip
// with the host's core count:
//   * capacity >= kAcceptCapacity clients at the SLOs;
//   * O(1) threads: on every passing step audiond's thread count is
//     unchanged by accepting C clients (thread_delta == 0).
//
// The run prints one line per step (tick/dispatch p99s, thread counts,
// event fan-out) and a summary line `capacity: clients=C
// loop_thread_delta=D cores=N`. Capacity is machine-dependent; EXPERIMENTS.md
// records full runs with the core count.
//
// --with-limits re-runs the ladder with overload protection armed (decision
// 15) at thresholds a compliant client never trips; the pass criterion then
// also requires zero rate-limit/quota/admission refusals, so the run proves
// the guards are free for clients that behave.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/alib/alib.h"
#include "src/common/obs.h"

namespace aud {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSloTickP99Us = 20000.0;      // one 20 ms engine period
constexpr double kSloDispatchP99Us = 20000.0;  // end-to-end server dispatch

// The capacity the connection plane held when this gate was set (2048
// clients on a 4-vCPU VM); the fixed pool of kConnectionLoops event loops
// must keep it.
constexpr int kAcceptCapacity = 2048;

// audioload holds this long past the window, so the closing snapshot is
// taken under full load.
constexpr int kHoldMarginMs = 1000;
// Longest wait for a child's line (audiond's banner, audioload's hold line
// after the ramp, its --json line after the hold).
constexpr auto kLineTimeout = std::chrono::seconds(120);

// A child process with its stdout on a pipe to us. It dies with the bench,
// so an interrupted run leaves no server behind, and the destructor kills
// and reaps it if Stop has not.
class Child {
 public:
  explicit Child(const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      return;
    }
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      std::perror(argv[0]);
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
  }
  ~Child() { Stop(std::chrono::milliseconds(0)); }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  void Signal(int sig) {
    if (pid_ > 0) {
      ::kill(pid_, sig);
    }
  }

  // The next stdout line that starts with `prefix`, or nullopt on EOF or
  // after kLineTimeout.
  std::optional<std::string> ReadLine(const char* prefix) {
    const auto deadline = Clock::now() + kLineTimeout;
    while (true) {
      size_t eol;
      while ((eol = pending_.find('\n')) != std::string::npos) {
        std::string line = pending_.substr(0, eol);
        pending_.erase(0, eol + 1);
        if (line.rfind(prefix, 0) == 0) {
          return line;
        }
      }
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
      pollfd pfd{out_, POLLIN, 0};
      if (out_ < 0 || left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return std::nullopt;
      }
      char buf[4096];
      const ssize_t n = ::read(out_, buf, sizeof(buf));
      if (n <= 0) {
        return std::nullopt;
      }
      pending_.append(buf, static_cast<size_t>(n));
    }
  }

  // Reaps the child, waiting up to `grace` for it to exit before SIGKILL.
  void Stop(std::chrono::milliseconds grace) {
    const auto deadline = Clock::now() + grace;
    while (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) != pid_) {
      if (Clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    if (out_ >= 0) {
      ::close(out_);
      out_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::string pending_;  // read but not yet returned as a line
};

int ThreadCount(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
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

// The integer after `"key": ` in audioload's --json line (0 if absent).
long long JsonInt(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t at = json.find(needle);
  return at == std::string::npos ? 0 : std::atoll(json.c_str() + at + needle.size());
}

double WindowP99(const obs::HistogramSnapshot& later,
                 const obs::HistogramSnapshot& earlier) {
  const obs::HistogramSnapshot window = obs::WindowDelta(later, earlier);
  return window.empty() ? 0.0 : window.Percentile(99);
}

struct StepResult {
  int clients = 0;
  int players = 0;
  int connected = 0;
  int died = 0;
  int threads_before = 0;   // audiond up, zero clients
  int threads_loaded = 0;   // all clients held
  double tick_p99_us = 0;
  double dispatch_p99_us = 0;
  double loop_dispatch_p99_us = 0;
  int64_t fds_watched = 0;
  uint64_t egress_disconnects = 0;
  uint64_t events_sent = 0;
  uint64_t events_received = 0;
  uint64_t errors = 0;
  uint64_t rate_limited = 0;
  uint64_t quota_denials = 0;
  bool pass = false;
};

// Runs the window against audiond at `port` while `load` holds, and fills
// `result` from the stats snapshots and audioload's --json line.
void Measure(uint16_t port, pid_t audiond, Child* load, int window_ms,
             StepResult* result) {
  auto conn = AudioConnection::OpenTcp("127.0.0.1", port, "bench_capacity");
  if (conn == nullptr || !load->ReadLine("audioload: hold:")) {
    return;
  }
  Result<ServerStatsReply> before = conn->GetServerStats(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  result->threads_loaded = ThreadCount(audiond);
  Result<ServerStatsReply> after = conn->GetServerStats(false);
  const std::optional<std::string> json = load->ReadLine("{");
  if (!before.ok() || !after.ok() || !json) {
    return;
  }
  const ServerStatsReply& stats = after.value();
  result->players = static_cast<int>(JsonInt(*json, "players"));
  result->connected = static_cast<int>(JsonInt(*json, "connected"));
  result->died = static_cast<int>(JsonInt(*json, "died"));
  result->events_received = static_cast<uint64_t>(JsonInt(*json, "events_seen"));
  result->errors = static_cast<uint64_t>(JsonInt(*json, "errors_seen"));
  result->tick_p99_us = WindowP99(stats.tick_us, before.value().tick_us);
  result->dispatch_p99_us = WindowP99(stats.dispatch_us, before.value().dispatch_us);
  result->loop_dispatch_p99_us =
      WindowP99(stats.loop_dispatch_us, before.value().loop_dispatch_us);
  result->fds_watched = stats.fds_watched;
  result->egress_disconnects = stats.egress_disconnects;
  result->events_sent = stats.events_sent;
  result->rate_limited = stats.rate_limited;
  result->quota_denials = stats.quota_denials;
  result->pass = result->connected == result->clients && result->died == 0 &&
                 result->egress_disconnects == 0 && result->errors == 0 &&
                 result->tick_p99_us <= kSloTickP99Us &&
                 result->dispatch_p99_us <= kSloDispatchP99Us &&
                 result->players > 0 &&
                 result->events_received >= static_cast<uint64_t>(result->players) &&
                 // With limits armed, compliant traffic must sail through.
                 result->rate_limited == 0 && result->quota_denials == 0 &&
                 stats.admission_rejects == 0;
}

// with_limits runs the identical workload against a server with overload
// protection armed (DESIGN.md decision 15). The limits are sized so a
// compliant capacity client never trips them — the chain build bursts ~12
// requests and one sound upload, the hold phase trickles syncs — so the
// step must pass the same SLOs *and* record zero refusals, proving the
// admission/bucket/quota checks cost compliant clients nothing.
StepResult RunStep(int clients, int window_ms, bool with_limits) {
  StepResult result;
  result.clients = clients;

  std::vector<std::string> daemon = {AUD_AUDIOD_PATH, "--port", "0"};
  if (with_limits) {
    const std::pair<const char*, long long> limits[] = {
        {"--max-connections", clients + 8}, {"--limit-rps", 2000},
        {"--limit-rps-burst", 256},         {"--limit-bps", 4 << 20},
        {"--limit-bps-burst", 1 << 20},     {"--quota-devices", 8},
        {"--quota-sound-bytes", 1 << 20},   {"--quota-plays", 4}};
    for (const auto& [flag, value] : limits) {
      daemon.push_back(flag);
      daemon.push_back(std::to_string(value));
    }
  }
  Child server(daemon);
  // The banner ends with the port that --port 0 picked: "... on 127.0.0.1:P".
  const std::optional<std::string> banner = server.ReadLine("audiond: serving");
  const uint16_t port =
      banner ? static_cast<uint16_t>(std::atoi(banner->c_str() + banner->rfind(':') + 1)) : 0;
  result.threads_before = ThreadCount(server.pid());

  if (port != 0) {
    Child load({AUD_AUDIOLOAD_PATH, "--port", std::to_string(port), "--clients",
                std::to_string(clients), "--workers", "4", "--ramp-ms", "0", "--hold-ms",
                std::to_string(window_ms + kHoldMarginMs), "--json"});
    Measure(port, server.pid(), &load, window_ms, &result);
    load.Stop(std::chrono::seconds(10));
  }
  server.Signal(SIGINT);
  server.Stop(std::chrono::seconds(10));
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

  // audiond and audioload each hold one end of every client socket, and
  // both inherit this limit: lift the fd ceiling so the ladder measures the
  // server, not the rlimit.
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
    const int thread_delta = r.threads_loaded - r.threads_before;
    std::printf(
        "capacity%s/%d: %s connected=%d players=%d died=%d tick_p99=%.0fus "
        "dispatch_p99=%.0fus loop_dispatch_p99=%.0fus threads=%d (+%d) "
        "fds=%lld events rx=%llu tx=%llu cuts=%llu errors=%llu ratelim=%llu quota=%llu\n",
        with_limits ? "+limits" : "", clients, r.pass ? "PASS" : "fail", r.connected,
        r.players, r.died, r.tick_p99_us, r.dispatch_p99_us, r.loop_dispatch_p99_us,
        r.threads_loaded, thread_delta, static_cast<long long>(r.fds_watched),
        static_cast<unsigned long long>(r.events_received),
        static_cast<unsigned long long>(r.events_sent),
        static_cast<unsigned long long>(r.egress_disconnects),
        static_cast<unsigned long long>(r.errors),
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
