// The driver's connection workers. One worker owns one connection and runs
// on one thread:
//
//   * the probe: an open-loop, fixed-rate stream of Sync requests, a few
//     probe-owned chains restarted on a fixed schedule (play start latency),
//     the GetServerStats snapshots that bracket the window, and, in traced
//     runs, GetRequestTrace fetches of its sampled Syncs;
//   * load workers: the workload's population (playing chains, idle roots)
//     and its load — back-to-back plays, the closed-loop control mix, or
//     create→upload→map→play→done→destroy cycles.
//
// Every worker checks what it receives (mark continuity, CommandDone order,
// property read-after-write, reply order) and records failures.

#ifndef PERFBENCH_DRIVER_WORKERS_H_
#define PERFBENCH_DRIVER_WORKERS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/driver/analysis.h"
#include "perfbench/driver/conn.h"

namespace perfbench {

enum class Workload { kPlayback, kControl, kChurn };

const char* WorkloadName(Workload w);

// Population and load of one workload.
struct Plan {
  int load_workers = 0;    // load connections; 0 = nproc - 1
  int playing_chains = 0;  // spread over the load workers
  int idle_roots = 0;      // mapped, never started
  bool control_mix = false;
  int cycle_slots = 0;  // concurrent cycles per load worker in the window
  // When > 0, cycles run instead in a phase of this length right after the
  // window, one at a time per load worker, while the load goes on: a
  // structural write stalls every client, so it must not share the window
  // whose tail latencies it would dominate.
  int64_t cycle_phase_us = 0;
};

Plan PlanFor(Workload w);

// Engine constants the checks rely on (the server's defaults).
inline constexpr int64_t kRateHz = 8000;
inline constexpr int64_t kPeriodSamples = 160;   // 20 ms at 8 kHz
inline constexpr int64_t kPeriodUs = 20000;
inline constexpr uint32_t kMarkIntervalMs = 20;

// Windows are cut into slices of this length; latency percentiles are
// medians over the slices, and the request rate is their middle mean.
inline constexpr int64_t kSliceUs = 1000000;

// State shared by the driver's threads. Window bounds are set by the main
// thread once every worker reports ready; 0 means "not yet".
struct Shared {
  uint64_t seed = 1;
  uint16_t port = 0;
  int server_pid = 0;
  uint32_t trace_every = 0;  // server --trace-sample; 0 = untraced
  int load_workers = 0;
  int64_t window_us = 0;
  bool setup_only = false;  // stop once set up (a repeated set-up iteration)
  int64_t launched_us = 0;  // when audiond was started
  std::atomic<int> ready{0};
  std::atomic<int> load_done{0};
  std::atomic<bool> abort{false};  // ends a setup-only iteration
  std::atomic<int64_t> setup_done_us{0};
  std::atomic<int64_t> open_us{0};
  std::atomic<int64_t> close_us{0};
  std::atomic<bool> open_snapshot{false};  // the window-open stats are in
};

struct MeanAcc {
  double sum = 0.0;
  uint64_t count = 0;
  void Add(double v) {
    sum += v;
    ++count;
  }
  void Merge(const MeanAcc& o) {
    sum += o.sum;
    count += o.count;
  }
  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

// What one worker measured.
struct Results {
  std::vector<TimedSample> probe_rtt_us;  // t = due time; timed from it
  std::vector<int64_t> probe_send_late_us;
  // Sync marks: (server_time, arrival - server_time), both microseconds.
  std::vector<std::pair<int64_t, int64_t>> marks;
  std::vector<TimedSample> start_ms;  // t = StartQueue send time
  std::vector<TimedSample> cycle_ms;  // t = completion
  uint64_t load_completed = 0;  // load requests confirmed inside the window
  std::vector<uint64_t> completed_per_slice;  // the same, per kSliceUs slice
  uint64_t attempted = 0;       // operations issued inside the window
  uint64_t failed = 0;          // errors, refusals, aborts, never answered
  uint64_t violations = 0;      // output-check failures
  std::vector<std::string> notes;  // first few failure descriptions
  ClientLayers layers;
  MeanAcc span_request, span_dispatch, span_egress, span_write, span_client;
  uint64_t traces_fetched = 0;
  // One JSON line per fetched trace: the driver's round trip and the
  // server's spans, written out when the run ends.
  std::vector<std::string> trace_lines;

  // Probe only: the snapshots that bracket the window (and one after the
  // load has quiesced), with the server's /proc readings at the same time.
  aud::ServerStatsReply stats_open, stats_close, stats_after;
  ProcStat proc_open, proc_close;
  ProcStat self_open, self_close;  // the driver's own process
  uint64_t steal_open = 0, steal_close = 0;  // host steal, /proc/stat ticks
  int64_t open_sent_us = 0, close_sent_us = 0;
  bool have_open = false, have_close = false, have_after = false;
};

class Worker {
 public:
  enum class Role { kProbe, kLoad };

  Worker(int index, Role role, const Plan& plan, Shared* shared);

  bool Connect();
  // Creates this worker's population; blocks until the server confirmed it.
  bool Build();
  // Thread body: start, warm up, drain, report ready, then the window.
  void Run();
  void Close() { conn_.Close(); }

  Results& results() { return results_; }
  Conn& conn() { return conn_; }

 private:
  struct Chain {
    aud::ResourceId loud = 0, player = 0, output = 0;
    bool back_to_back = false;  // load chains replay forever; probe chains restart
    uint32_t next_tag = 1;      // tag of the next play to enqueue
    uint32_t done_tag = 1;      // tag the next CommandDone must carry
    MarkContinuity continuity{kPeriodSamples, kPeriodUs};
    uint64_t marks = 0;
    int64_t start_sent_us = 0;  // probe: StartQueue send time, 0 = none pending
  };
  enum class CycleStage { kIdle, kPlaying, kDestroying };
  struct Cycle {
    CycleStage stage = CycleStage::kIdle;
    int64_t started_us = 0;
    aud::ResourceId loud = 0, player = 0, sound = 0;
  };
  enum class PendingKind {
    kFence,       // Sync used as a barrier
    kProbeSync,   // measured probe round trip
    kStats,       // GetServerStats (which: 0 open, 1 close, 2 after)
    kTrace,       // GetRequestTrace of a sampled request
    kLoadRead,    // control read: GetProperty / QueryQueue / QueryLoud
    kCycleSync,   // end of a churn cycle
  };
  struct Pending {
    uint32_t seq = 0;
    PendingKind kind = PendingKind::kFence;
    aud::Opcode opcode = aud::Opcode::kSync;
    int64_t due_us = 0;
    int64_t sent_us = 0;
    int arg = 0;            // stats: which snapshot; cycle: slot; read: chain
    int prop = -1;          // GetProperty: property index
    uint64_t expect = 0;    // GetProperty: last value written (0 = never)
    uint32_t traced_seq = 0;  // trace fetch: the sampled request
    int64_t client_rtt_us = -1;
  };
  // A sampled request whose spans are fetched a little after its reply, so
  // the server's writer has recorded the write span, yet long before the
  // 256-entry per-thread trace rings wrap.
  struct TraceFetch {
    uint32_t seq = 0;
    int64_t client_rtt_us = -1;
    int64_t not_before_us = 0;
  };

  // Sending.
  uint32_t SendLoad(uint32_t seq);  // books a load request sent now
  bool Fence();  // Sync round trip, handling everything before it
  bool EnqueuePlay(Chain* chain);
  bool StartChain(Chain* chain);
  bool BuildChain(Chain* chain, bool with_events);
  bool CreateSharedSounds();
  void IssueControl();
  void StartCycle(size_t slot);
  void RestartProbeChain();
  void FetchTrace(uint32_t seq, int64_t client_rtt_us);

  // Receiving.
  bool Pump(int64_t timeout_us);
  void Handle(Conn::Message& msg);
  void OnReply(Conn::Message& msg);
  void OnError(Conn::Message& msg);
  void OnEvent(Conn::Message& msg);
  void Fail(const std::string& what);
  void Violation(const std::string& what);
  void ConfirmLoad(int64_t now_us);

  bool InWindow(int64_t t_us) const;
  bool WindowClosed(int64_t t_us) const;
  bool InCycleWindow(int64_t t_us) const;

  void RunProbe();
  void RunLoad();

  const int index_;
  const Role role_;
  const Plan plan_;
  Shared* shared_;
  Conn conn_;
  std::mt19937_64 rng_;
  Results results_;

  std::vector<Chain> chains_;
  std::unordered_map<aud::ResourceId, size_t> chain_by_loud_;
  std::unordered_map<aud::ResourceId, size_t> chain_by_player_;
  std::vector<aud::ResourceId> sounds_;  // shared by this worker's chains
  std::deque<Pending> pending_;
  std::deque<uint32_t> unconfirmed_load_;  // load requests not yet confirmed
  std::deque<TraceFetch> fetches_;
  std::vector<Cycle> cycles_;
  std::unordered_map<aud::ResourceId, size_t> cycle_by_player_;
  std::vector<uint64_t> props_;  // control: last value written, per chain x prop
  uint64_t prop_counter_ = 0;
  int reads_in_flight_ = 0;
  bool stopping_ = false;  // window closed: no new load
  uint32_t fence_seq_ = 0;
  bool fence_done_ = false;
  size_t next_probe_chain_ = 0;
  std::vector<uint8_t> noise_;  // churn upload content
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKERS_H_
