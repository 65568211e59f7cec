#include "src/common/obs.h"

#include <algorithm>
#include <bit>

namespace aud {
namespace obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

size_t LatencyHistogram::BucketFor(uint64_t v) {
  size_t b = static_cast<size_t>(std::bit_width(v));
  return b < kBuckets ? b : kBuckets - 1;
}

void LatencyHistogram::Record(uint64_t v) {
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen && !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen && !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  // Last, with release: a snapshot that sees this bucket count also sees
  // the sum, min and max above.
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_release);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kBuckets);
  for (size_t b = 0; b < kBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_acquire);
    snap.count += snap.buckets[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = min == UINT64_MAX ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

HistogramSnapshot WindowDelta(const HistogramSnapshot& later,
                              const HistogramSnapshot& earlier) {
  HistogramSnapshot d;
  d.sum = later.sum > earlier.sum ? later.sum - earlier.sum : 0;
  d.buckets.assign(later.buckets.size(), 0);
  for (size_t b = 0; b < later.buckets.size(); ++b) {
    const uint64_t e = b < earlier.buckets.size() ? earlier.buckets[b] : 0;
    if (later.buckets[b] <= e) {
      continue;
    }
    if (d.count == 0) {
      d.min = LatencyHistogram::BucketLow(b);
    }
    d.buckets[b] = later.buckets[b] - e;
    d.count += d.buckets[b];
    d.max = LatencyHistogram::BucketHigh(b);
  }
  return d;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Continuous rank (1-based) of the target sample. Kept fractional so the
  // interpolation below does not truncate: with integer ranks a log2 bucket
  // at the high end quantized the answer by up to ~2x (the bucket spans
  // [2^(b-1), 2^b)), and a rank landing exactly on the bucket's last sample
  // returned the bucket's top instead of an interpolated position.
  double rank = p / 100.0 * static_cast<double>(count);
  if (rank < 1.0) {
    rank = 1.0;
  }
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      double low = static_cast<double>(LatencyHistogram::BucketLow(b));
      double high = static_cast<double>(LatencyHistogram::BucketHigh(b));
      // Midpoint rule: sample k of n in a bucket sits at fraction
      // (k - 0.5) / n of the bucket's width, assuming a uniform spread.
      double in_rank = rank - static_cast<double>(cumulative);
      double frac = (in_rank - 0.5) / static_cast<double>(in_bucket);
      double v = low + std::clamp(frac, 0.0, 1.0) * (high + 1.0 - low);
      v = std::clamp(v, low, high);
      return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

std::string_view TraceReasonName(TraceReason reason) {
  switch (reason) {
    case TraceReason::kNone:
      return "none";
    case TraceReason::kTickStart:
      return "tick-start";
    case TraceReason::kTickEnd:
      return "tick-end";
    case TraceReason::kTickOverrun:
      return "tick-overrun";
    case TraceReason::kDispatch:
      return "dispatch";
    case TraceReason::kDispatchError:
      return "dispatch-error";
    case TraceReason::kEventFlush:
      return "event-flush";
    case TraceReason::kConnectionOpen:
      return "conn-open";
    case TraceReason::kConnectionClose:
      return "conn-close";
    case TraceReason::kSpanRequest:
      return "span-request";
    case TraceReason::kSpanDispatch:
      return "span-dispatch";
    case TraceReason::kSpanEpoch:
      return "span-epoch";
    case TraceReason::kSpanEgress:
      return "span-egress";
    case TraceReason::kSpanWrite:
      return "span-write";
    case TraceReason::kMouthToEar:
      return "mouth-to-ear";
    case TraceReason::kTraceReasonCount:
      break;
  }
  return "?";
}

void TraceRing::Record(TraceReason reason, uint32_t arg0, uint32_t arg1, int64_t t_us,
                       uint64_t seq, uint64_t trace, uint64_t parent, uint32_t dur_us) {
  MutexLock lock(&mu_);
  TraceEvent& slot = events_[next_ % kCapacity];
  slot.t_us = t_us;
  slot.seq = seq;
  slot.tid = tid_;
  slot.reason = reason;
  slot.arg0 = arg0;
  slot.arg1 = arg1;
  slot.trace = trace;
  slot.parent = parent;
  slot.dur_us = dur_us;
  ++next_;
}

void TraceRing::Collect(std::vector<TraceEvent>* out, uint64_t trace) const {
  MutexLock lock(&mu_);
  uint64_t retained = std::min<uint64_t>(next_, kCapacity);
  for (uint64_t i = next_ - retained; i < next_; ++i) {
    const TraceEvent& e = events_[i % kCapacity];
    if (trace == 0 || e.trace == trace) {
      out->push_back(e);
    }
  }
}

TraceRegistry& TraceRegistry::Instance() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

TraceRegistry::TraceRegistry() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceRegistry::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRing* TraceRegistry::ThreadRing() {
  thread_local TraceRing* ring = nullptr;
  if (ring == nullptr) {
    MutexLock lock(&mu_);
    auto owned = std::make_unique<TraceRing>(static_cast<uint32_t>(rings_.size()));
    ring = owned.get();
    rings_.push_back(std::move(owned));
  }
  return ring;
}

void TraceRegistry::Trace(TraceReason reason, uint32_t arg0, uint32_t arg1) {
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  ThreadRing()->Record(reason, arg0, arg1, NowUs(), seq);
}

uint64_t TraceRegistry::Span(TraceReason reason, uint64_t trace, uint64_t parent,
                             int64_t t_start_us, uint32_t dur_us, uint32_t arg0,
                             uint32_t arg1) {
  uint64_t seq = ReserveSeq();
  SpanWithSeq(seq, reason, trace, parent, t_start_us, dur_us, arg0, arg1);
  return seq;
}

void TraceRegistry::SpanWithSeq(uint64_t seq, TraceReason reason, uint64_t trace,
                                uint64_t parent, int64_t t_start_us, uint32_t dur_us,
                                uint32_t arg0, uint32_t arg1) {
  ThreadRing()->Record(reason, arg0, arg1, t_start_us, seq, trace, parent, dur_us);
}

std::vector<TraceEvent> TraceRegistry::Snapshot(size_t max_events, uint64_t trace) const {
  std::vector<TraceEvent> events;
  {
    MutexLock lock(&mu_);
    for (const auto& ring : rings_) {
      ring->Collect(&events, trace);
    }
  }
  // One timeline: order by timestamp so interleaved threads read as they
  // happened; seq breaks timestamp ties, making the order total and stable
  // (spans backdate t_us to their start, so seq order alone would zig-zag).
  std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.t_us != b.t_us ? a.t_us < b.t_us : a.seq < b.seq;
  });
  if (max_events != 0 && events.size() > max_events) {
    events.erase(events.begin(), events.end() - static_cast<ptrdiff_t>(max_events));
  }
  return events;
}

}  // namespace obs
}  // namespace aud
