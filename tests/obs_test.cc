// aud::obs core: counters, gauges, log-scale histograms and trace rings
// (ISSUE: observability layer). Covers the bucket-boundary contract
// (bucket b >= 1 holds [2^(b-1), 2^b - 1]), snapshot consistency under
// concurrent increments, and trace-ring wraparound.

#include "src/common/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace aud {
namespace obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, AddSubSet) {
  Gauge g;
  g.Add(3);
  g.Sub(1);
  EXPECT_EQ(g.value(), 2);
  g.Sub(5);
  EXPECT_EQ(g.value(), -3);  // signed: transient imbalance cannot wrap
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
}

TEST(LatencyHistogram, BucketBoundaries) {
  // bucket 0 = {0}, 1 = {1}, 2 = {2,3}, 3 = {4..7}, 4 = {8..15}, ...
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketFor(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketFor(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketFor(7), 3u);
  EXPECT_EQ(LatencyHistogram::BucketFor(8), 4u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1024), 11u);
  // Values beyond the last bucket clamp into it instead of indexing out.
  EXPECT_EQ(LatencyHistogram::BucketFor(UINT64_MAX), LatencyHistogram::kBuckets - 1);

  for (size_t b = 1; b < 12; ++b) {
    EXPECT_EQ(LatencyHistogram::BucketFor(LatencyHistogram::BucketLow(b)), b);
    EXPECT_EQ(LatencyHistogram::BucketFor(LatencyHistogram::BucketHigh(b)), b);
  }
}

TEST(LatencyHistogram, SnapshotStatistics) {
  LatencyHistogram h;
  EXPECT_TRUE(h.Snapshot().empty());
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(100);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.Mean(), 26.5);
  EXPECT_EQ(s.buckets[1], 1u);  // {1}
  EXPECT_EQ(s.buckets[2], 2u);  // {2,3}
  EXPECT_EQ(s.buckets[7], 1u);  // {64..127}
}

TEST(LatencyHistogram, PercentilesOrderedAndClamped) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  HistogramSnapshot s = h.Snapshot();
  double p50 = s.Percentile(50);
  double p95 = s.Percentile(95);
  double p99 = s.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log buckets are coarse, but the medians of a uniform ramp must land in
  // the right region and inside the observed range.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);

  LatencyHistogram one;
  one.Record(42);
  HistogramSnapshot s1 = one.Snapshot();
  // Interpolation clamps to [min, max]: a single sample reports itself.
  EXPECT_DOUBLE_EQ(s1.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s1.Percentile(99), 42.0);
}

TEST(LatencyHistogram, WindowDeltaKeepsOnlyTheWindow) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(5000);  // a slow start the window must not see
  }
  const HistogramSnapshot before = h.Snapshot();
  for (int i = 0; i < 100; ++i) {
    h.Record(10);
  }
  const HistogramSnapshot after = h.Snapshot();
  EXPECT_GT(after.Percentile(99), 4000.0);

  const HistogramSnapshot window = WindowDelta(after, before);
  EXPECT_EQ(window.count, 100u);
  EXPECT_EQ(window.sum, 1000u);
  EXPECT_EQ(window.buckets[4], 100u);  // {8..15}
  EXPECT_EQ(window.min, 8u);
  EXPECT_EQ(window.max, 15u);
  EXPECT_LE(window.Percentile(99), 15.0);

  // From an empty snapshot the window is the whole histogram, and the
  // count is the bucket sum.
  EXPECT_EQ(WindowDelta(after, HistogramSnapshot{}).count, 1100u);
  // Buckets clamp at 0 when `earlier` holds more (a restarted server).
  const HistogramSnapshot backwards = WindowDelta(before, after);
  EXPECT_TRUE(backwards.empty());
  EXPECT_EQ(backwards.sum, 0u);
  EXPECT_EQ(backwards.buckets[4], 0u);
}

TEST(LatencyHistogram, SnapshotUnderConcurrentRecording) {
  LatencyHistogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&h, &stop, t] {
      uint64_t v = static_cast<uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(v);
        v = v % 1000 + 1;
      }
    });
  }
  // Snapshots taken mid-stream must always be internally consistent:
  // count is exactly the bucket total, and min, max and sum cover every
  // sample counted (each recorded value is 1..1000).
  for (int i = 0; i < 1000; ++i) {
    HistogramSnapshot s = h.Snapshot();
    uint64_t bucket_total = 0;
    for (uint64_t b : s.buckets) {
      bucket_total += b;
    }
    EXPECT_EQ(bucket_total, s.count);
    if (s.count > 0) {
      EXPECT_GE(s.min, 1u);
      EXPECT_LE(s.min, s.max);
      EXPECT_LE(s.max, 1000u);
      EXPECT_GE(s.sum, s.count);
    }
  }
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }
  HistogramSnapshot final = h.Snapshot();
  uint64_t bucket_total = 0;
  for (uint64_t b : final.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, final.count);
}

TEST(TraceRing, RecordAndCollect) {
  TraceRing ring(7);
  ring.Record(TraceReason::kTickStart, 160, 0, 100, 1);
  ring.Record(TraceReason::kTickEnd, 55, 2, 200, 2);
  std::vector<TraceEvent> events;
  ring.Collect(&events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].reason, TraceReason::kTickStart);
  EXPECT_EQ(events[0].arg0, 160u);
  EXPECT_EQ(events[0].tid, 7u);
  EXPECT_EQ(events[1].reason, TraceReason::kTickEnd);
  EXPECT_EQ(events[1].seq, 2u);
}

TEST(TraceRing, WrapKeepsNewestInOrder) {
  TraceRing ring(0);
  constexpr uint64_t kTotal = TraceRing::kCapacity + 50;
  for (uint64_t i = 0; i < kTotal; ++i) {
    ring.Record(TraceReason::kDispatch, static_cast<uint32_t>(i), 0,
                static_cast<int64_t>(i), i);
  }
  std::vector<TraceEvent> events;
  ring.Collect(&events);
  ASSERT_EQ(events.size(), TraceRing::kCapacity);
  // Oldest retained is kTotal - kCapacity; order is oldest-first.
  EXPECT_EQ(events.front().seq, kTotal - TraceRing::kCapacity);
  EXPECT_EQ(events.back().seq, kTotal - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(TraceRegistry, MergesThreadsAndTruncates) {
  TraceRegistry& reg = TraceRegistry::Instance();
  size_t before = reg.Snapshot(0).size();
  Trace(TraceReason::kConnectionOpen, 1);
  std::thread other([] { Trace(TraceReason::kConnectionClose, 2); });
  other.join();
  std::vector<TraceEvent> all = reg.Snapshot(0);
  EXPECT_GE(all.size(), before + 2);
  // seq-ordered merge.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].seq, all[i].seq);
  }
  // Truncation keeps the newest events.
  std::vector<TraceEvent> one = reg.Snapshot(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].seq, all.back().seq);
  EXPECT_NE(TraceReasonName(one[0].reason), "?");
}

TEST(TraceReasonNames, AllNamed) {
  for (uint16_t r = 0; r < static_cast<uint16_t>(TraceReason::kTraceReasonCount); ++r) {
    if (r == 6) {
      continue;  // retired code, never reused (obs.h)
    }
    EXPECT_NE(TraceReasonName(static_cast<TraceReason>(r)), "?") << "reason " << r;
  }
}

}  // namespace
}  // namespace obs
}  // namespace aud
