// aud::obs — the server-wide observability core. Lock-cheap primitives the
// engine and dispatcher can touch on every request and every tick without
// measurably perturbing what they measure:
//
//   * Counter / Gauge: relaxed-atomic integers. Any thread may write; a
//     snapshot read is a single relaxed load. Relaxed ordering is enough
//     because each counter is an independent statistic — nothing is ever
//     inferred from the relative order of two counters.
//   * LatencyHistogram: fixed power-of-two buckets over uint64 values
//     (microseconds in practice). Bucket counts are relaxed atomics, so a
//     Snapshot taken while another thread records never tears a bucket;
//     percentiles come from the snapshot, never the live histogram.
//   * TraceRing: a bounded per-thread ring of fixed-size trace events with
//     reason codes. Writers are always single-threaded per ring (each
//     thread records only into its own ring); a per-ring mutex serializes
//     the writer against snapshot readers, so a trace snapshot can be
//     taken from any thread at any time — in particular while the tick
//     thread is tracing mid-fan-out without the server's state lock.
//
// The primitives are deliberately independent of the server so tests,
// benches and tools can use them stand-alone.

#ifndef SRC_COMMON_OBS_H_
#define SRC_COMMON_OBS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/thread_annotations.h"

namespace aud {
namespace obs {

// Monotonic event count. All operations are relaxed-atomic.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (connections open, queue depth, ...). Signed so
// transient Add/Sub imbalance during teardown can never wrap.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Point-in-time copy of a histogram, with derived statistics. This is also
// the wire-level shape of a histogram in GetServerStats replies.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // bucket b >= 1 covers [2^(b-1), 2^b - 1]

  bool operator==(const HistogramSnapshot&) const = default;

  bool empty() const { return count == 0; }
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }

  // Approximate p-th percentile (0 < p <= 100) by linear interpolation
  // inside the owning bucket, clamped to the observed [min, max].
  double Percentile(double p) const;
};

// The window between two snapshots of one histogram: `later`'s samples
// beyond `earlier`'s. Buckets subtract one by one, clamped at 0; count is
// the bucket sum, min/max the bounds of the outermost nonempty buckets.
HistogramSnapshot WindowDelta(const HistogramSnapshot& later,
                              const HistogramSnapshot& earlier);

// Fixed-bucket log-scale histogram. Value v lands in bucket bit_width(v)
// (0 stays in bucket 0), so bucket 1 holds {1}, bucket 2 holds {2,3},
// bucket 3 holds {4..7}, ... Recording is a handful of relaxed atomic
// operations; there is no lock on any path.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // covers > 12 days in microseconds

  static size_t BucketFor(uint64_t v);
  // Lower/upper value bound of bucket `b` (inclusive).
  static uint64_t BucketLow(size_t b) { return b == 0 ? 0 : uint64_t{1} << (b - 1); }
  static uint64_t BucketHigh(size_t b) { return b == 0 ? 0 : (uint64_t{1} << b) - 1; }

  void Record(uint64_t v);
  // `count` is the sum of the buckets read, so a snapshot taken while
  // other threads record is consistent: min, max and sum cover every
  // sample it counts (sum may also hold a few it does not yet count).
  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

// Times consecutive phases with one clock read per boundary: Lap records
// the time since the previous boundary (the start, at first) into `h`.
class PhaseClock {
 public:
  using Clock = std::chrono::steady_clock;

  PhaseClock() : start_(Clock::now()), last_(start_) {}

  void Lap(LatencyHistogram* h) {
    const Clock::time_point now = Clock::now();
    h->Record(Us(now - last_));
    last_ = now;
  }

  Clock::time_point start() const { return start_; }
  Clock::time_point last() const { return last_; }

  static uint64_t UsSince(Clock::time_point t) { return Us(Clock::now() - t); }

 private:
  static uint64_t Us(Clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  }

  const Clock::time_point start_;
  Clock::time_point last_;
};

// Why a trace event was recorded. Values are wire-visible (GetServerTrace);
// append only.
enum class TraceReason : uint16_t {
  kNone = 0,
  kTickStart = 1,      // arg0 = frames
  kTickEnd = 2,        // arg0 = duration us
  kTickOverrun = 3,    // arg0 = duration us, arg1 = period us
  kDispatch = 4,       // arg0 = opcode, arg1 = duration us
  kDispatchError = 5,  // arg0 = opcode, arg1 = error code
  // 6 is retired (island-run) and never reused.
  kEventFlush = 7,     // arg0 = events flushed at epoch commit
  kConnectionOpen = 8, // arg0 = connection index
  kConnectionClose = 9,// arg0 = connection index
  // Request-scoped spans (trace/parent/dur_us are meaningful from here on).
  kSpanRequest = 10,   // root span: whole request residency; arg0 = opcode
  kSpanDispatch = 11,  // lock wait + handler; arg0 = opcode, arg1 = duration us
  kSpanEpoch = 12,     // first engine epoch that mixed a traced play; arg0 = tick
  kSpanEgress = 13,    // reply/event enqueued on the egress queue; arg0 = code
  kSpanWrite = 14,     // socket write of a traced frame; arg0 = bytes
  kMouthToEar = 15,    // play accept -> first mixed frame; arg0 = latency us
  kTraceReasonCount = 16,
};

std::string_view TraceReasonName(TraceReason reason);

// One fixed-size trace record. `seq` is a process-global ordering stamp;
// `t_us` is microseconds on the shared trace clock (process start epoch).
// Span records additionally carry a request-scoped correlation id (`trace`),
// the seq of their parent span (`parent`, 0 = root) and a duration, turning
// the flat ring into a per-request span tree (DESIGN.md decision 13).
struct TraceEvent {
  int64_t t_us = 0;
  uint64_t seq = 0;
  uint32_t tid = 0;  // dense per-thread id assigned at first trace
  TraceReason reason = TraceReason::kNone;
  uint32_t arg0 = 0;
  uint32_t arg1 = 0;
  uint64_t trace = 0;   // correlation id; 0 = not request-scoped
  uint64_t parent = 0;  // seq of the parent span; 0 = root
  uint32_t dur_us = 0;  // span duration (0 for point events)
};

// Bounded single-writer ring of trace events. The owning thread records;
// snapshot readers may run concurrently from any thread (GetServerTrace no
// longer shares a lock with every recording path since the engine tick
// dropped the big lock for its fan-out), so each ring carries its own tiny
// mutex. The lock is per-ring and per-thread, hence uncontended on the
// record path except during the rare snapshot.
class TraceRing {
 public:
  // Sized for a connection-loop thread, whose one ring records the trace
  // events of every connection it serves (a point event per request at
  // >100k requests/s): 4096 events keep a sampled request's spans for
  // tens of milliseconds, long enough for a client to fetch them.
  static constexpr size_t kCapacity = 4096;
  // What GetServerTrace returns when the client names no limit.
  static constexpr size_t kDefaultSnapshotEvents = 256;

  explicit TraceRing(uint32_t tid) : tid_(tid) {}

  uint32_t tid() const { return tid_; }

  void Record(TraceReason reason, uint32_t arg0, uint32_t arg1, int64_t t_us, uint64_t seq,
              uint64_t trace = 0, uint64_t parent = 0, uint32_t dur_us = 0);

  // Appends the retained events (oldest first) to `out`; only those of
  // request trace `trace` when it is nonzero.
  void Collect(std::vector<TraceEvent>* out, uint64_t trace = 0) const;

 private:
  const uint32_t tid_;
  mutable Mutex mu_{LockRank::kTraceRing, "TraceRing::mu_"};
  TraceEvent events_[kCapacity] AUD_GUARDED_BY(mu_);
  uint64_t next_ AUD_GUARDED_BY(mu_) = 0;  // total records ever; slot = next_ % kCapacity
};

// Process-wide registry of per-thread trace rings. Threads get their ring
// lazily on first Trace() call; rings outlive their threads so the last
// events of a dead worker remain inspectable.
class TraceRegistry {
 public:
  static TraceRegistry& Instance();

  // Records into the calling thread's ring (created on first use).
  void Trace(TraceReason reason, uint32_t arg0 = 0, uint32_t arg1 = 0);

  // Reserves a global seq without recording, so a parent span's seq can be
  // handed to children before the parent itself (whose duration is only
  // known at the end) is written with SpanWithSeq.
  uint64_t ReserveSeq() { return next_seq_.fetch_add(1, std::memory_order_relaxed); }

  // Records a request-scoped span on the calling thread's ring and returns
  // its seq. `t_start_us` is the span's start on the trace clock (NowUs);
  // `parent` links to the enclosing span's seq (0 = root).
  uint64_t Span(TraceReason reason, uint64_t trace, uint64_t parent, int64_t t_start_us,
                uint32_t dur_us, uint32_t arg0 = 0, uint32_t arg1 = 0);

  // Same, with a pre-reserved seq (ReserveSeq).
  void SpanWithSeq(uint64_t seq, TraceReason reason, uint64_t trace, uint64_t parent,
                   int64_t t_start_us, uint32_t dur_us, uint32_t arg0 = 0,
                   uint32_t arg1 = 0);

  // Merged snapshot across every ring as one timeline: globally ordered by
  // timestamp (ties broken by seq, so the order is total and stable across
  // threads), truncated to the newest `max_events` (0 = no limit). A
  // nonzero `trace` keeps only that request trace's spans, filtered before
  // the sort.
  std::vector<TraceEvent> Snapshot(size_t max_events, uint64_t trace = 0) const;

  // Microseconds since the trace epoch (process start of tracing).
  int64_t NowUs() const;

 private:
  TraceRegistry();

  TraceRing* ThreadRing();

  mutable Mutex mu_{LockRank::kTraceRegistry, "TraceRegistry::mu_"};
  std::vector<std::unique_ptr<TraceRing>> rings_ AUD_GUARDED_BY(mu_);
  std::atomic<uint64_t> next_seq_{0};
  std::chrono::steady_clock::time_point epoch_;
};

// Convenience: record one trace event on the calling thread's ring.
inline void Trace(TraceReason reason, uint32_t arg0 = 0, uint32_t arg1 = 0) {
  TraceRegistry::Instance().Trace(reason, arg0, arg1);
}

}  // namespace obs
}  // namespace aud

#endif  // SRC_COMMON_OBS_H_
