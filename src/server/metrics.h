// ServerMetrics: the one aggregate of every aud::obs counter, gauge and
// histogram the server maintains. Owned by ServerState and snapshotted into
// a ServerStatsReply under the big lock (GetServerStats).
//
// Thread-safety contract: counters and gauges are relaxed atomics, so any
// thread (loop threads counting transport bytes, the tick thread, the
// dispatcher) may bump them without holding the state lock. Histograms are
// built entirely from relaxed atomics too: recording needs no lock (loop
// threads record lock_wait_us while they are *waiting* for the state lock,
// and the tick thread records epoch/tick timings inside its commit
// section), and a snapshot taken concurrently never tears a bucket. See
// DESIGN.md ("Observability and thread safety").

#ifndef SRC_SERVER_METRICS_H_
#define SRC_SERVER_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/common/obs.h"
#include "src/wire/protocol.h"

namespace aud {

struct ServerMetrics {
  static constexpr size_t kOpcodes = static_cast<size_t>(Opcode::kOpcodeCount);

  // -- Request dispatch (per opcode, indexed by Opcode value) ----------------
  obs::Counter requests[kOpcodes];
  obs::Counter request_errors[kOpcodes];
  obs::Counter opcode_us[kOpcodes];  // cumulative dispatch time per opcode
  obs::Counter requests_total;       // includes unknown opcodes
  obs::Counter request_errors_total;
  obs::LatencyHistogram dispatch_us;

  // -- Engine tick -----------------------------------------------------------
  obs::LatencyHistogram tick_us;         // tick body duration
  obs::LatencyHistogram tick_jitter_us;  // realtime wakeup lateness
  obs::Counter tick_overruns;            // tick body exceeded the period

  // -- Epoch / lock instrumentation (DESIGN.md decision 12) -------------------
  obs::LatencyHistogram lock_wait_us;     // reader wait for the state lock or
                                          // a contended dispatch shard lock
  obs::LatencyHistogram epoch_commit_us;  // tick-boundary commit critical section
  obs::Counter epoch_commits;             // epochs published (== completed ticks)
  obs::Counter dispatch_shard_contention;  // shard TryLock misses in dispatch

  // -- Connections and transport --------------------------------------------
  obs::Gauge connections_open;
  obs::Counter connections_total;
  obs::Counter bytes_in;
  obs::Counter bytes_out;
  obs::Counter events_sent;     // counted at successful enqueue, not write
  obs::Counter events_dropped;  // egress overflow, drop-oldest-events policy
  obs::Counter egress_disconnects;  // slow clients cut off by overflow policy
  obs::Gauge egress_queued_bytes;   // sum of all connections' egress backlogs
  obs::Counter accept_retries;      // transient accept(2) failures retried

  // -- Event-loop connection plane (DESIGN.md decision 14) -------------------
  obs::Counter epoll_waits;         // wait syscalls across all loops
  obs::Counter loop_wakeups;        // eventfd wakeups consumed by loops
  obs::Counter readiness_spurious;  // readiness that yielded no work
  obs::Gauge fds_watched;           // fds currently registered with loops
  obs::LatencyHistogram loop_dispatch_us;  // one readiness handler run

  // -- Decoded-PCM cache -----------------------------------------------------
  obs::Counter decoded_cache_hits;
  obs::Counter decoded_cache_misses;
  obs::Counter decoded_cache_evictions;
  obs::Gauge decoded_cache_bytes;

  // -- Request tracing (DESIGN.md decision 13) -------------------------------
  obs::LatencyHistogram mouth_to_ear_us;  // play accept -> first mixed frame
  obs::Counter trace_spans;               // request-scoped spans recorded
  obs::Counter trace_requests_sampled;    // requests that got a root span
  std::atomic<uint64_t> last_trace_id{0}; // most recent sampled trace id

  // -- Overload protection (DESIGN.md decision 15) ---------------------------
  obs::Counter admission_rejects;        // connections closed at accept time
  obs::Counter rate_limited;             // requests refused by a token bucket
  obs::Counter rate_limit_disconnects;   // flooders cut by the hard policy
  obs::Counter quota_denials;            // requests refused by a client quota
  obs::Gauge draining;                   // 1 while a graceful drain runs
  obs::Counter drain_forced_closes;      // unflushed conns cut at the deadline
  obs::Gauge drain_duration_ms;          // wall time of the last drain

  // -- Command queues --------------------------------------------------------
  obs::Counter commands_enqueued;
  obs::Counter commands_done;
  obs::Counter commands_aborted;
  obs::Counter queue_events;  // queue-category events emitted

  std::chrono::steady_clock::time_point start_time =
      std::chrono::steady_clock::now();

  uint64_t uptime_ms() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                     std::chrono::steady_clock::now() - start_time)
                                     .count());
  }
};

}  // namespace aud

#endif  // SRC_SERVER_METRICS_H_
