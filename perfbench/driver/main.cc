// perfdriver: the repo benchmark. Launches the shipped audiond as its own
// process (deployment flags only: --port, plus --trace-sample in traced
// runs), loads it from this one process through at most nproc threads and
// nproc connections, checks what comes back, and prints one JSON result
// line. See perfbench/README.md for the workloads and metrics.
//
// usage: perfdriver --workload playback|control|churn --seed N --seconds S
//                   --trace 0|1 --audiond PATH --work-dir DIR
//                   [--build-type T] [--compiler C] [--commit ID]

#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/driver/analysis.h"
#include "perfbench/driver/conn.h"
#include "perfbench/driver/workers.h"
#include "src/common/logging.h"

namespace perfbench {
namespace {

// A run must end within 180 s; the watchdog fires well before that.
constexpr unsigned kWatchdogSeconds = 170;
constexpr int64_t kConnectTimeoutUs = 10000000;
// Host steal (CPU the hypervisor gave other guests) above this share of
// the window marks the run's latencies as taken on a noisy host.
constexpr double kNoisyStealPct = 5.0;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// audiond --trace-sample period of the traced half of a --trace 1 run.
constexpr uint32_t kTraceSample = 64;

volatile sig_atomic_t g_server_pid = 0;

void OnWatchdog(int) {
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
  }
  static const char msg[] = "perfdriver: watchdog expired\n";
  (void)!write(2, msg, sizeof(msg) - 1);
  _exit(3);
}

struct Options {
  Workload workload = Workload::kPlayback;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string audiond;
  std::string work_dir;
  std::string build_type = "unknown";
  std::string compiler = "unknown";
  std::string commit = "unknown";
};

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// -- audiond process -----------------------------------------------------------

uint16_t FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

struct Server {
  pid_t pid = -1;
  std::vector<std::string> argv;

  std::string CommandLine() const {
    std::string out;
    for (const std::string& a : argv) {
      out += (out.empty() ? "" : " ") + a;
    }
    return out;
  }
};

bool Launch(const Options& options, uint16_t port, uint32_t trace_every, Server* server) {
  server->argv = {options.audiond, "--port", std::to_string(port)};
  if (trace_every != 0) {
    server->argv.push_back("--trace-sample");
    server->argv.push_back(std::to_string(trace_every));
  }
  const std::string log = options.work_dir + "/audiond.log";
  const pid_t pid = fork();
  if (pid < 0) {
    return false;
  }
  if (pid == 0) {
    // Die with the driver, log into the work dir, and run there so any
    // flight-recorder dump stays inside the checkout.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    if (chdir(options.work_dir.c_str()) != 0) {
      _exit(126);
    }
    std::vector<char*> args;
    for (std::string& a : server->argv) {
      args.push_back(a.data());
    }
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  server->pid = pid;
  g_server_pid = pid;
  return true;
}

// SIGINT (the daemon's immediate stop), then SIGKILL if it lingers.
// Returns true when audiond exited cleanly.
bool Stop(Server* server) {
  if (server->pid <= 0) {
    return true;
  }
  kill(server->pid, SIGINT);
  int status = 0;
  bool exited = false;
  for (int i = 0; i < 1000; ++i) {
    const pid_t r = waitpid(server->pid, &status, WNOHANG);
    if (r == server->pid || (r < 0 && errno == ECHILD)) {
      exited = true;
      break;
    }
    usleep(10000);
  }
  if (!exited) {
    kill(server->pid, SIGKILL);
    waitpid(server->pid, &status, 0);
  }
  server->pid = -1;
  g_server_pid = 0;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool ServerAlive(const Server& server) {
  int status = 0;
  return waitpid(server.pid, &status, WNOHANG) == 0;
}

// -- one session: launch, set up, (optionally) measure, tear down --------------

struct Session {
  double setup_s = 0.0;
  bool ok = false;
  bool clean_exit = false;
  std::string command_line;
  std::vector<Results> results;  // [0] = probe, then the load workers
  uint64_t reply_order_violations = 0;
};

Session RunSession(const Options& options, uint32_t trace_every, bool setup_only,
                   int64_t window_us) {
  Session out;
  // One probe plus up to three load connections, each on its own thread, so
  // threads and connections both stay within nproc.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const Plan plan = PlanFor(options.workload);
  const int max_load = static_cast<int>(std::clamp(hw, 2u, 4u)) - 1;
  const int load_workers =
      plan.load_workers > 0 ? std::min(plan.load_workers, max_load) : max_load;

  Shared shared;
  shared.seed = options.seed;
  shared.trace_every = trace_every;
  shared.load_workers = load_workers;
  shared.window_us = window_us;
  shared.setup_only = setup_only;
  shared.port = FreePort();

  Server server;
  shared.launched_us = NowUs();
  if (shared.port == 0 || !Launch(options, shared.port, trace_every, &server)) {
    std::fprintf(stderr, "perfdriver: cannot launch %s\n", options.audiond.c_str());
    return out;
  }
  out.command_line = server.CommandLine();
  shared.server_pid = server.pid;

  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<Worker>(0, Worker::Role::kProbe, plan, &shared));
  for (int i = 1; i <= load_workers; ++i) {
    workers.push_back(std::make_unique<Worker>(i, Worker::Role::kLoad, plan, &shared));
  }

  bool ok = true;
  for (auto& w : workers) {
    const int64_t deadline = NowUs() + kConnectTimeoutUs;
    while (!w->Connect()) {
      if (NowUs() > deadline || !ServerAlive(server)) {
        std::fprintf(stderr, "perfdriver: cannot connect to audiond on port %u\n",
                     shared.port);
        ok = false;
        break;
      }
      usleep(5000);
    }
    if (!ok) {
      break;
    }
  }

  // Phase 1: every worker builds its population (the main thread is the
  // probe, so the driver never runs more than 1 + load_workers threads).
  if (ok) {
    std::vector<char> built(workers.size(), 0);
    std::vector<std::thread> threads;
    for (size_t i = 1; i < workers.size(); ++i) {
      threads.emplace_back([&, i] { built[i] = workers[i]->Build() ? 1 : 0; });
    }
    built[0] = workers[0]->Build() ? 1 : 0;
    for (std::thread& t : threads) {
      t.join();
    }
    ok = std::all_of(built.begin(), built.end(), [](char b) { return b != 0; });
  }
  // Phase 2: start, warm up, drain; then the window (unless setup-only).
  if (ok) {
    std::vector<std::thread> threads;
    for (size_t i = 1; i < workers.size(); ++i) {
      threads.emplace_back([&, i] { workers[i]->Run(); });
    }
    workers[0]->Run();
    for (std::thread& t : threads) {
      t.join();
    }
    const int64_t done = shared.setup_done_us.load();
    ok = done != 0;
    out.setup_s = static_cast<double>(done - shared.launched_us) / 1e6;
  }

  for (auto& w : workers) {
    out.reply_order_violations += w->conn().reply_order_violations();
    w->Close();
    out.results.push_back(std::move(w->results()));
  }
  out.clean_exit = Stop(&server);
  out.ok = ok;
  return out;
}

// -- metrics -------------------------------------------------------------------

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Merged {
  std::vector<TimedSample> probe_rtt, start, cycle;
  std::vector<std::pair<int64_t, int64_t>> marks;
  std::vector<double> send_late;
  uint64_t load_completed = 0, attempted = 0, failed = 0, violations = 0;
  std::vector<uint64_t> completed_per_slice;
  ClientLayers load_layers;
  MeanAcc span_request, span_dispatch, span_egress, span_write, span_client;
  uint64_t traces = 0;
  std::vector<std::string> notes;
};

Merged Merge(const Session& s) {
  Merged m;
  for (size_t i = 0; i < s.results.size(); ++i) {
    const Results& r = s.results[i];
    m.probe_rtt.insert(m.probe_rtt.end(), r.probe_rtt_us.begin(), r.probe_rtt_us.end());
    m.start.insert(m.start.end(), r.start_ms.begin(), r.start_ms.end());
    m.cycle.insert(m.cycle.end(), r.cycle_ms.begin(), r.cycle_ms.end());
    m.marks.insert(m.marks.end(), r.marks.begin(), r.marks.end());
    for (int64_t late : r.probe_send_late_us) {
      m.send_late.push_back(static_cast<double>(late));
    }
    m.load_completed += r.load_completed;
    if (m.completed_per_slice.size() < r.completed_per_slice.size()) {
      m.completed_per_slice.resize(r.completed_per_slice.size(), 0);
    }
    for (size_t j = 0; j < r.completed_per_slice.size(); ++j) {
      m.completed_per_slice[j] += r.completed_per_slice[j];
    }
    m.attempted += r.attempted;
    m.failed += r.failed;
    m.violations += r.violations;
    if (i > 0) {
      m.load_layers.Merge(r.layers);
    }
    m.span_request.Merge(r.span_request);
    m.span_dispatch.Merge(r.span_dispatch);
    m.span_egress.Merge(r.span_egress);
    m.span_write.Merge(r.span_write);
    m.span_client.Merge(r.span_client);
    m.traces += r.traces_fetched;
    m.notes.insert(m.notes.end(), r.notes.begin(), r.notes.end());
  }
  return m;
}

double WindowSeconds(const Results& probe) {
  return static_cast<double>(probe.close_sent_us - probe.open_sent_us) / 1e6;
}

double CpuPct(const ProcStat& a, const ProcStat& b, double window_s) {
  const double ticks = static_cast<double>((b.utime_ticks + b.stime_ticks) -
                                           (a.utime_ticks + a.stime_ticks));
  return Ratio(ticks / static_cast<double>(sysconf(_SC_CLK_TCK)), window_s) * 100.0;
}

// Share of the machine's CPU time in the window that the host stole.
double HostStealPct(const Results& probe) {
  const double ticks = static_cast<double>(probe.steal_close - probe.steal_open);
  return Ratio(ticks / static_cast<double>(sysconf(_SC_CLK_TCK)),
               WindowSeconds(probe) * std::thread::hardware_concurrency()) *
         100.0;
}

// Mark lateness: arrival minus the mark's server time, relative to the
// best-delivered mark emitted inside the window; t = arrival.
std::vector<TimedSample> MarkLateness(const Results& probe, const Merged& m) {
  const int64_t st0 = probe.stats_open.server_time;
  const int64_t st1 = probe.stats_close.server_time;
  int64_t best = INT64_MAX;
  for (const auto& [t, raw] : m.marks) {
    if (t >= st0 && t < st1) {
      best = std::min(best, raw);
    }
  }
  std::vector<TimedSample> late;
  for (const auto& [t, raw] : m.marks) {
    if (t >= st0 && t < st1) {
      late.push_back({t + raw, static_cast<double>(raw - best)});
    }
  }
  return late;
}

// Percentile over every sample, whatever its time.
double WholePct(const std::vector<TimedSample>& samples, double p) {
  std::vector<double> values;
  for (const TimedSample& s : samples) {
    values.push_back(s.value);
  }
  return Percentile(&values, p);
}

// The user-visible numbers of one measured session. Latency percentiles are
// medians over the one-second slices of the window (of the cycle phase, for
// cycles): see SlicedPercentile.
std::vector<Metric> EndToEnd(const Options& options, const Session& s, const Merged& m) {
  const Results& probe = s.results[0];
  const double window_s = WindowSeconds(probe);
  const int64_t open = probe.open_sent_us;
  const int64_t close = probe.close_sent_us;
  const int slices = std::max(1, static_cast<int>(std::lround(window_s * 1e6 / kSliceUs)));
  const int64_t phase_us = PlanFor(options.workload).cycle_phase_us;
  const double cycle_s = phase_us > 0 ? static_cast<double>(phase_us) / 1e6 : window_s;
  const int64_t cycle_from = phase_us > 0 ? close : open;
  const int64_t cycle_to = phase_us > 0 ? close + phase_us : close;
  const int cycle_slices = std::max(1, static_cast<int>(std::lround(cycle_s * 1e6 / kSliceUs)));
  auto sliced = [&](const std::vector<TimedSample>& v, double p) {
    return SlicedPercentile(v, open, close, slices, p);
  };
  auto sliced_cycle = [&](double p) {
    return SlicedPercentile(m.cycle, cycle_from, cycle_to, cycle_slices, p);
  };
  const std::vector<TimedSample> late = MarkLateness(probe, m);
  std::vector<Metric> out;
  out.push_back({"probe_rtt_p50_us", sliced(m.probe_rtt, 50), "us"});
  out.push_back({"probe_rtt_p99_us", sliced(m.probe_rtt, 99), "us"});
  out.push_back({"mark_late_p50_us", sliced(late, 50), "us"});
  out.push_back({"mark_late_p99_us", sliced(late, 99), "us"});
  out.push_back({"start_p50_ms", sliced(m.start, 50), "ms"});
  out.push_back({"start_p99_ms", sliced(m.start, 99), "ms"});
  out.push_back({"server_cpu_pct", CpuPct(probe.proc_open, probe.proc_close, window_s), "%"});
  // Load requests completed per second: the middle mean over the window's
  // whole slices.
  std::vector<double> rates;
  for (size_t j = 0; j < static_cast<size_t>(std::max(1.0, std::floor(window_s))); ++j) {
    const uint64_t n = j < m.completed_per_slice.size() ? m.completed_per_slice[j] : 0;
    rates.push_back(static_cast<double>(n) * 1e6 / kSliceUs);
  }
  out.push_back({"req_per_s", MiddleMean(std::move(rates)), "1/s"});
  // Cycles per second of the time the counted cycles spanned, from the
  // first one's start to the last one's completion.
  int64_t first = INT64_MAX, last = INT64_MIN;
  for (const TimedSample& c : m.cycle) {
    first = std::min<int64_t>(first, c.t_us - std::llround(c.value * 1000.0));
    last = std::max(last, c.t_us);
  }
  out.push_back({"cycles_per_s",
                 m.cycle.empty() ? 0.0
                                 : Ratio(static_cast<double>(m.cycle.size()),
                                         static_cast<double>(last - first) / 1e6),
                 "1/s"});
  out.push_back({"cycle_p50_ms", sliced_cycle(50), "ms"});
  out.push_back({"cycle_p99_ms", sliced_cycle(99), "ms"});
  return out;
}

// The user-visible numbers that BENCHMARK.json bounds end to end. The rest
// of EndToEnd's numbers -- round trips and mark lateness of a few hundred
// microseconds, and every p99 -- are set by how fast the shared host wakes
// and runs this machine's vCPUs, which swings between runs by more than any
// bound allows; they are reported with the per-layer metrics of the traced
// run (from its untraced half) instead.
bool Bounded(const Metric& metric) {
  for (const char* name :
       {"start_p50_ms", "server_cpu_pct", "req_per_s", "cycles_per_s", "cycle_p50_ms"}) {
    if (metric.name == name) {
      return true;
    }
  }
  return false;
}

// Opcodes whose mean dispatch time is reported (every opcode any workload
// or the probe sends).
constexpr aud::Opcode kReportedOpcodes[] = {
    aud::Opcode::kSync,           aud::Opcode::kGetServerStats,
    aud::Opcode::kGetRequestTrace, aud::Opcode::kEnqueueCommands,
    aud::Opcode::kStartQueue,     aud::Opcode::kStopQueue,
    aud::Opcode::kChangeProperty, aud::Opcode::kGetProperty,
    aud::Opcode::kImmediateCommand, aud::Opcode::kQueryQueue,
    aud::Opcode::kQueryLoud,      aud::Opcode::kCreateLoud,
    aud::Opcode::kCreateVirtualDevice, aud::Opcode::kCreateWire,
    aud::Opcode::kSelectEvents,   aud::Opcode::kCreateSound,
    aud::Opcode::kWriteSoundData, aud::Opcode::kMapLoud,
    aud::Opcode::kDestroyLoud,    aud::Opcode::kDestroySound,
};

// Server layers from the window's stats delta, plus the driver's own layers
// and the process readings.
std::vector<Metric> ServerLayers(const Session& s, const Merged& m) {
  const Results& probe = s.results[0];
  const aud::ServerStatsReply& a = probe.stats_open;
  const aud::ServerStatsReply& b = probe.stats_close;
  const double window_s = WindowSeconds(probe);
  auto d = [](uint64_t later, uint64_t earlier) {
    return static_cast<double>(later >= earlier ? later - earlier : 0);
  };
  const double requests = d(b.requests_total, a.requests_total);
  const HistogramSnapshot tick = HistogramDelta(b.tick_us, a.tick_us);
  const HistogramSnapshot commit = HistogramDelta(b.epoch_commit_us, a.epoch_commit_us);
  const HistogramSnapshot jitter = HistogramDelta(b.tick_jitter_us, a.tick_jitter_us);
  const HistogramSnapshot dispatch = HistogramDelta(b.dispatch_us, a.dispatch_us);
  const HistogramSnapshot lock_wait = HistogramDelta(b.lock_wait_us, a.lock_wait_us);
  const HistogramSnapshot loop = HistogramDelta(b.loop_dispatch_us, a.loop_dispatch_us);
  const double hits = d(b.decoded_cache_hits, a.decoded_cache_hits);
  const double misses = d(b.decoded_cache_misses, a.decoded_cache_misses);

  std::vector<Metric> out;
  out.push_back({"transport.bytes_in_per_req", Ratio(d(b.bytes_in, a.bytes_in), requests), "B"});
  out.push_back({"transport.bytes_out_per_s", Ratio(d(b.bytes_out, a.bytes_out), window_s), "B/s"});
  out.push_back({"transport.loop_dispatch_mean_us", loop.Mean(), "us"});
  out.push_back({"transport.epoll_waits_per_req",
                 Ratio(d(b.epoll_waits, a.epoll_waits), requests), "ratio"});
  out.push_back({"transport.spurious_ratio",
                 Ratio(d(b.readiness_spurious, a.readiness_spurious),
                       static_cast<double>(loop.count)),
                 "ratio"});
  out.push_back({"client.encode_us", m.load_layers.encode.MeanUs(), "us"});
  out.push_back({"client.write_us", m.load_layers.write.MeanUs(), "us"});
  out.push_back({"client.read_us", m.load_layers.read.MeanUs(), "us"});
  out.push_back({"client.decode_us", m.load_layers.decode.MeanUs(), "us"});
  out.push_back({"dispatch.mean_us", dispatch.Mean(), "us"});
  out.push_back({"dispatch.lock_wait_mean_us", lock_wait.Mean(), "us"});
  out.push_back({"dispatch.shard_contention_per_req",
                 Ratio(d(b.dispatch_shard_contention, a.dispatch_shard_contention), requests),
                 "ratio"});
  out.push_back({"dispatch.errors_per_req",
                 Ratio(d(b.request_errors_total, a.request_errors_total), requests), "ratio"});
  for (aud::Opcode op : kReportedOpcodes) {
    auto find = [op](const aud::ServerStatsReply& stats) {
      aud::OpcodeStats found;
      for (const aud::OpcodeStats& o : stats.opcodes) {
        if (o.opcode == static_cast<uint16_t>(op)) {
          found = o;
        }
      }
      return found;
    };
    const aud::OpcodeStats ob = find(b);
    const aud::OpcodeStats oa = find(a);
    out.push_back({"dispatch.op." + std::string(aud::OpcodeName(op)) + ".mean_us",
                   Ratio(d(ob.total_us, oa.total_us), d(ob.count, oa.count)), "us"});
  }
  const double ticks = d(b.ticks_run, a.ticks_run);
  out.push_back({"engine.tick_mean_us", tick.Mean(), "us"});
  out.push_back({"engine.tick_p99_us", HistogramPercentile(tick, 99), "us"});
  out.push_back({"engine.commit_mean_us", commit.Mean(), "us"});
  out.push_back({"engine.open_fanout_mean_us", tick.Mean() - commit.Mean(), "us"});
  out.push_back({"engine.jitter_p99_us", HistogramPercentile(jitter, 99), "us"});
  out.push_back({"engine.overruns", d(b.tick_overruns, a.tick_overruns), "count"});
  out.push_back({"engine.events_per_tick", Ratio(d(b.events_sent, a.events_sent), ticks),
                 "count"});
  out.push_back({"egress.events_sent_per_s", Ratio(d(b.events_sent, a.events_sent), window_s),
                 "1/s"});
  out.push_back({"egress.events_dropped", d(b.events_dropped, a.events_dropped), "count"});
  out.push_back({"egress.queued_bytes",
                 static_cast<double>(std::max(a.egress_queued_bytes, b.egress_queued_bytes)),
                 "B"});
  out.push_back({"queue.commands_done_per_s",
                 Ratio(d(b.commands_done, a.commands_done), window_s), "1/s"});
  out.push_back({"queue.commands_aborted", d(b.commands_aborted, a.commands_aborted), "count"});
  out.push_back({"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"});
  out.push_back({"cache.evictions_per_s",
                 Ratio(d(b.decoded_cache_evictions, a.decoded_cache_evictions), window_s),
                 "1/s"});
  out.push_back({"server.threads", static_cast<double>(probe.proc_close.threads), "count"});
  out.push_back({"server.rss_mb",
                 static_cast<double>(probe.proc_close.rss_pages) *
                     static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0),
                 "MB"});
  out.push_back({"failed_ratio", Ratio(static_cast<double>(m.failed),
                                       static_cast<double>(std::max<uint64_t>(1, m.attempted))),
                 "ratio"});
  return out;
}

// Output checks over one measured session; appends failures to `notes`.
bool Check(const Session& s, const Merged& m,
           std::vector<std::string>* notes) {
  bool ok = s.ok;
  auto require = [&](bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      notes->push_back("check: " + what);
    }
  };
  require(s.ok, "session did not complete");
  if (s.results.empty()) {
    return false;
  }
  const Results& probe = s.results[0];
  require(probe.have_open && probe.have_close && probe.have_after,
          "window stats snapshots missing");
  require(m.violations == 0, std::to_string(m.violations) + " output-check violations");
  require(m.failed == 0, std::to_string(m.failed) + " failed operations");
  require(s.reply_order_violations == 0, "replies arrived out of sequence order");
  require(!m.probe_rtt.empty(), "no probe round trips in the window");
  require(!m.marks.empty(), "no sync marks in the window");
  require(!m.start.empty(), "no probe play starts in the window");
  require(!m.cycle.empty(), "no cycles completed in the window");
  require(m.load_completed > 0, "no load requests completed in the window");
  require(s.clean_exit, "audiond did not exit cleanly");
  if (probe.have_open && probe.have_close) {
    require(probe.stats_close.events_dropped == probe.stats_open.events_dropped,
            "egress dropped events in the window");
    require(probe.stats_close.egress_disconnects == probe.stats_open.egress_disconnects,
            "egress disconnected a client in the window");
  }
  if (probe.have_open && probe.have_after) {
    // Cycles destroy what they create, so the registry must end where the
    // window began.
    require(probe.stats_after.objects == probe.stats_open.objects,
            "server objects did not return to the pre-window count (" +
                std::to_string(probe.stats_open.objects) + " -> " +
                std::to_string(probe.stats_after.objects) + ")");
  }
  return ok;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      if (val == "playback") {
        o->workload = Workload::kPlayback;
      } else if (val == "control") {
        o->workload = Workload::kControl;
      } else if (val == "churn") {
        o->workload = Workload::kChurn;
      } else {
        return false;
      }
    } else if (arg == "--seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::max(1, std::atoi(val.c_str()));
    } else if (arg == "--trace") {
      o->trace = std::atoi(val.c_str()) != 0 ? 1 : 0;
    } else if (arg == "--audiond") {
      o->audiond = val;
    } else if (arg == "--work-dir") {
      o->work_dir = val;
    } else if (arg == "--build-type") {
      o->build_type = val;
    } else if (arg == "--compiler") {
      o->compiler = val;
    } else if (arg == "--commit") {
      o->commit = val;
    } else {
      return false;
    }
  }
  return !o->audiond.empty() && !o->work_dir.empty();
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%s %-40s %14.4f %s\n", title, metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfdriver --workload playback|control|churn --seed N "
                 "--seconds S --trace 0|1 --audiond PATH --work-dir DIR "
                 "[--build-type T] [--compiler C] [--commit ID]\n");
    return 2;
  }
  // The probe is open-loop: wake it on time rather than within the default
  // 50 us timer slack. Transport retries while audiond starts are expected.
  prctl(PR_SET_TIMERSLACK, 1UL);
  aud::SetLogLevel(aud::LogLevel::kError);
  std::signal(SIGALRM, OnWatchdog);
  alarm(kWatchdogSeconds);
  std::signal(SIGPIPE, SIG_IGN);

  const int64_t window_us = static_cast<int64_t>(options.seconds) * 1000000;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> setups;
  std::vector<std::string> command_lines;
  const Session* measured = nullptr;
  Session untraced, traced;

  auto finish = [&](const Session& s, Merged* m) {
    correct = Check(s, *m, &notes) && correct;
    notes.insert(notes.end(), m->notes.begin(), m->notes.end());
    attempted += m->attempted;
    failed += m->failed;
  };

  if (options.trace == 0) {
    // Set up several times (all but the last torn down right away) and
    // report the median set-up; the last set-up is then measured.
    for (int i = 0; i < kSetups; ++i) {
      const bool last = i + 1 == kSetups;
      Session s = RunSession(options, 0, !last, window_us);
      setups.push_back(s.setup_s);
      command_lines.push_back(s.command_line);
      if (!s.ok) {
        notes.push_back("set-up " + std::to_string(i + 1) + " failed");
        correct = false;
      }
      if (last) {
        untraced = std::move(s);
      }
    }
    measured = &untraced;
    Merged m = Merge(untraced);
    finish(untraced, &m);
    if (correct) {
      metrics.push_back({"setup_s", Median(setups), "s"});
      for (const Metric& metric : EndToEnd(options, untraced, m)) {
        if (Bounded(metric)) {
          metrics.push_back(metric);
        }
      }
    }
  } else {
    // Half the window untraced, half against --trace-sample: per-layer
    // server numbers come from the untraced half (so the tracer's own cost
    // does not leak into them), spans from the traced half, and tracing
    // overhead is traced minus untraced end to end.
    untraced = RunSession(options, 0, false, window_us / 2);
    command_lines.push_back(untraced.command_line);
    Merged mu = Merge(untraced);
    finish(untraced, &mu);
    traced = RunSession(options, kTraceSample, false, window_us / 2);
    command_lines.push_back(traced.command_line);
    Merged mt = Merge(traced);
    finish(traced, &mt);
    measured = &traced;
    if (correct && mt.traces == 0) {
      notes.push_back("check: the traced run fetched no request traces");
      correct = false;
    }
    // The fetched span trees, for reading one request's path in detail.
    if (std::FILE* f = std::fopen((options.work_dir + "/spans.jsonl").c_str(), "w")) {
      for (const Results& r : traced.results) {
        for (const std::string& line : r.trace_lines) {
          std::fprintf(f, "%s\n", line.c_str());
        }
      }
      std::fclose(f);
    }
    if (correct) {
      metrics = ServerLayers(untraced, mu);
      metrics.push_back({"span.request_self_us", mt.span_request.Mean(), "us"});
      metrics.push_back({"span.dispatch_self_us", mt.span_dispatch.Mean(), "us"});
      metrics.push_back({"span.egress_self_us", mt.span_egress.Mean(), "us"});
      metrics.push_back({"span.write_self_us", mt.span_write.Mean(), "us"});
      metrics.push_back({"span.client_self_us", mt.span_client.Mean(), "us"});
      const Results& tp = traced.results[0];
      metrics.push_back(
          {"span.mouth_to_ear_us",
           HistogramDelta(tp.stats_close.mouth_to_ear_us, tp.stats_open.mouth_to_ear_us).Mean(),
           "us"});
      metrics.push_back({"span.traces_fetched", static_cast<double>(mt.traces), "count"});
      const std::vector<Metric> eu = EndToEnd(options, untraced, mu);
      const std::vector<Metric> et = EndToEnd(options, traced, mt);
      for (const Metric& metric : eu) {
        if (!Bounded(metric)) {
          metrics.push_back(metric);
        }
      }
      for (size_t i = 0; i < eu.size(); ++i) {
        metrics.push_back({"trace_overhead." + eu[i].name, et[i].value - eu[i].value,
                           eu[i].unit});
      }
    }
  }

  // Run metadata: everything needed to tell two runs' conditions apart.
  std::string meta = "{\"workload\": \"" + std::string(WorkloadName(options.workload)) +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"seconds\": " + std::to_string(options.seconds) +
                     ", \"trace\": " + std::to_string(options.trace) +
                     ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": \"" + JsonEscape(options.build_type) +
                     "\", \"compiler\": \"" + JsonEscape(options.compiler) +
                     "\", \"commit\": \"" + JsonEscape(options.commit) + "\"";
  meta += ", \"audiond_cmd\": [";
  for (size_t i = 0; i < command_lines.size(); ++i) {
    meta += (i ? ", \"" : "\"") + JsonEscape(command_lines[i]) + "\"";
  }
  meta += "], \"setup_s\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    meta += (i ? ", " : "") + Num(setups[i]);
  }
  meta += "]";
  if (measured != nullptr && !measured->results.empty()) {
    const Results& probe = measured->results[0];
    Merged m = Merge(*measured);
    meta += ", \"driver_threads\": " + std::to_string(probe.self_close.threads) +
            ", \"driver_connections\": " + std::to_string(measured->results.size()) +
            ", \"driver_cpu_pct\": " +
            Num(CpuPct(probe.self_open, probe.self_close, WindowSeconds(probe))) +
            ", \"host_steal_pct\": " + Num(HostStealPct(probe)) +
            ", \"probe_syncs\": " + std::to_string(m.probe_rtt.size()) +
            ", \"probe_rtt_window_p99_us\": " + Num(WholePct(m.probe_rtt, 99)) +
            ", \"mark_late_window_p99_us\": " + Num(WholePct(MarkLateness(probe, m), 99)) +
            ", \"probe_send_late_p50_us\": " + Num(Percentile(&m.send_late, 50)) +
            ", \"probe_send_late_p99_us\": " + Num(Percentile(&m.send_late, 99)) +
            ", \"probe_send_late_max_us\": " + Num(Percentile(&m.send_late, 100)) +
            ", \"marks\": " + std::to_string(m.marks.size()) +
            ", \"starts\": " + std::to_string(m.start.size()) +
            ", \"cycles\": " + std::to_string(m.cycle.size());
  }
  meta += "}";
  if (measured != nullptr && !measured->results.empty() &&
      HostStealPct(measured->results[0]) > kNoisyStealPct) {
    notes.push_back("the host stole " + Num(HostStealPct(measured->results[0])) +
                    "% of the CPU in the window; its latencies are not comparable");
  }

  for (const std::string& note : notes) {
    std::printf("note: %s\n", note.c_str());
  }
  PrintMetrics(options.trace == 0 ? "e2e" : "layer", metrics);
  std::printf("meta %s\n", meta.c_str());

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted)) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
