// Self-tests of the benchmark driver's own logic, on synthetic inputs:
// histogram window deltas and their percentiles, the sync-mark continuity
// checker, the /proc/<pid>/stat parser, sliced percentiles and span self
// times. Run with `python3 perfbench/run.py --selftest`; exits 1 on failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/driver/analysis.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, double tol, const std::string& what) {
  Expect(std::fabs(got - want) <= tol,
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

HistogramSnapshot Record(const std::vector<uint64_t>& values) {
  aud::obs::LatencyHistogram h;
  for (uint64_t v : values) {
    h.Record(v);
  }
  return h.Snapshot();
}

void TestHistogramDelta() {
  // Lifetime: a set-up spike of 300 ms samples, then a window of 100 us ticks.
  std::vector<uint64_t> before(50, 300000);
  std::vector<uint64_t> window(1000, 100);
  std::vector<uint64_t> all = before;
  all.insert(all.end(), window.begin(), window.end());
  const HistogramSnapshot earlier = Record(before);
  const HistogramSnapshot later = Record(all);
  const HistogramSnapshot d = HistogramDelta(later, earlier);
  Expect(d.count == 1000, "delta count is the window's");
  Expect(d.sum == 100000, "delta sum is the window's");
  ExpectNear(d.Mean(), 100.0, 1e-9, "delta mean");
  // 100 lands in bucket [64, 127]; the lifetime p99 would sit in the spike.
  const double p99 = HistogramPercentile(d, 99);
  Expect(p99 >= 64 && p99 <= 127, "delta p99 stays in the window's bucket");
  Expect(later.Percentile(99) > 100000, "lifetime p99 is dominated by the spike");
  Expect(d.min == 64 && d.max == 127, "delta min/max are bucket bounds");
  // Empty window.
  const HistogramSnapshot none = HistogramDelta(later, later);
  Expect(none.empty() && HistogramPercentile(none, 99) == 0.0, "empty delta");
  // Bucket vectors of different lengths.
  HistogramSnapshot shortv;
  HistogramSnapshot longv = Record({1, 1000});
  const HistogramSnapshot mixed = HistogramDelta(longv, shortv);
  Expect(mixed.count == 2 && mixed.buckets == longv.buckets, "delta pads short buckets");
}

void TestMarkContinuity() {
  // Two back-to-back plays of 3 periods: positions 160, 320, 480 | 160 ...
  MarkContinuity ok(160, 20000);
  int64_t t = 1000000;
  for (int play = 0; play < 3; ++play) {
    for (uint64_t pos = 160; pos <= 480; pos += 160) {
      Expect(ok.Feed(pos, 480, t), "continuous mark accepted");
      t += 20000;
    }
  }
  Expect(ok.violations() == 0 && ok.marks() == 9, "no violations on a continuous chain");

  MarkContinuity gap(160, 20000);
  gap.Feed(160, 800, 0);
  gap.Feed(320, 800, 20000);
  Expect(!gap.Feed(640, 800, 60000), "skipped period is a violation");

  MarkContinuity repeat(160, 20000);
  repeat.Feed(160, 800, 0);
  repeat.Feed(320, 800, 20000);
  Expect(!repeat.Feed(320, 800, 40000), "repeated position is a violation");

  MarkContinuity late(160, 20000);
  late.Feed(160, 800, 0);
  Expect(!late.Feed(320, 800, 60000), "a server-time gap is a violation");

  MarkContinuity cut(160, 20000);
  cut.Feed(160, 800, 0);
  cut.Feed(320, 800, 20000);
  Expect(!cut.Feed(160, 800, 40000), "a play that ends early is a violation");

  MarkContinuity restarted(160, 20000);
  restarted.Feed(160, 800, 0);
  restarted.Reset();
  Expect(restarted.Feed(160, 800, 500000), "after Reset the next play starts fresh");
  Expect(restarted.violations() == 0, "reset chain has no violations");
}

void TestProcStat() {
  // comm with spaces and parentheses; utime 1234, stime 567, 11 threads,
  // rss 2048 pages.
  const std::string line =
      "4242 (audio d) (x)) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 567 0 0 20 0 "
      "11 0 12345 104857600 2048 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 2 0 0";
  const std::optional<ProcStat> stat = ParseProcStat(line);
  Expect(stat.has_value(), "parses a stat line");
  if (stat) {
    Expect(stat->utime_ticks == 1234, "utime");
    Expect(stat->stime_ticks == 567, "stime");
    Expect(stat->threads == 11, "threads");
    Expect(stat->rss_pages == 2048, "rss");
  }
  Expect(!ParseProcStat("garbage").has_value(), "rejects a line without comm");
  Expect(!ParseProcStat("1 (x) S 1 2").has_value(), "rejects a truncated line");
  const std::optional<ProcStat> self = ReadProcStat(0);
  Expect(self.has_value() && self->threads >= 1, "reads /proc/self/stat");
}

void TestPercentiles() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  ExpectNear(Percentile(&v, 50), 3.0, 1e-12, "median of 1..5");
  ExpectNear(Percentile(&v, 100), 5.0, 1e-12, "p100");
  ExpectNear(Percentile(&v, 25), 2.0, 1e-12, "p25");
  std::vector<double> empty;
  Expect(Percentile(&empty, 50) == 0.0, "empty percentile");
  // 1..1000 with a ten-sample stall of 10000s: the stall is the p99 tail.
  std::vector<double> stall;
  for (int i = 1; i <= 990; ++i) {
    stall.push_back(static_cast<double>(i));
  }
  stall.insert(stall.end(), 10, 10000.0);
  ExpectNear(Percentile(&stall, 50), 500.5, 1e-9, "median ignores the stall");
  Expect(Percentile(&stall, 99.5) == 10000.0, "every sample counts in the tail");
  ExpectNear(Median({4, 1, 3, 2}), 2.5, 1e-12, "median of an even count");
  ExpectNear(MiddleMean({100, 7, 1, 6, 5, 9, 8, 0}), 6.5, 1e-12,
             "middle mean drops the lowest and highest quarter");
  ExpectNear(MiddleMean({3}), 3.0, 1e-12, "middle mean of one value");
  Expect(MiddleMean({}) == 0.0, "middle mean of nothing");

  // Ten 1 s slices of 1..100, in which the slices listed in `stalled` end
  // with a burst of ten 10000s instead of 91..100.
  auto window = [](std::vector<int> stalled) {
    std::vector<TimedSample> samples;
    for (int s = 0; s < 10; ++s) {
      const bool stall = std::find(stalled.begin(), stalled.end(), s) != stalled.end();
      for (int i = 1; i <= 100; ++i) {
        samples.push_back({s * 1000000 + i * 9000, stall && i > 90 ? 10000.0 : i});
      }
    }
    return samples;
  };
  ExpectNear(SlicedPercentile(window({}), 0, 10000000, 10, 50), 50.5, 1e-9,
             "sliced median of steady slices");
  ExpectNear(SlicedPercentile(window({3, 7}), 0, 10000000, 10, 95), 95.05, 1e-9,
             "a stall in a few slices leaves the sliced tail alone");
  ExpectNear(SlicedPercentile(window({0, 1, 2, 4, 5, 6, 8}), 0, 10000000, 10, 95), 10000.0,
             1e-9, "a stall in most slices is the sliced tail");
  ExpectNear(SlicedPercentile({{-5, 1.0}, {20000000, 3.0}}, 0, 10000000, 10, 50), 2.0, 1e-12,
             "samples outside the window fall into the edge slices");
  Expect(SlicedPercentile({}, 0, 10000000, 10, 99) == 0.0, "no samples");
}

aud::TraceEventWire Span(aud::obs::TraceReason reason, uint64_t seq, uint64_t parent,
                         int64_t t, uint32_t dur) {
  aud::TraceEventWire e;
  e.reason = static_cast<uint16_t>(reason);
  e.seq = seq;
  e.parent = parent;
  e.t_us = t;
  e.dur_us = dur;
  e.trace = 7;
  return e;
}

void TestSpanSelfTimes() {
  using aud::obs::TraceReason;
  // request [100, 150) with dispatch [110, 140) and an egress point at 141
  // whose write runs [160, 165).
  const std::vector<aud::TraceEventWire> spans = {
      Span(TraceReason::kSpanRequest, 1, 0, 100, 50),
      Span(TraceReason::kSpanDispatch, 2, 1, 110, 30),
      Span(TraceReason::kSpanEgress, 3, 1, 141, 0),
      Span(TraceReason::kSpanWrite, 4, 3, 160, 5),
  };
  const SpanSelfTimes self = ComputeSpanSelfTimes(spans);
  ExpectNear(self.request, 20.0, 1e-9, "request self = 50 - 30 dispatch");
  ExpectNear(self.dispatch, 30.0, 1e-9, "dispatch self");
  ExpectNear(self.egress, 19.0, 1e-9, "egress self = queue residency before the write");
  ExpectNear(self.write, 5.0, 1e-9, "write self");
  ExpectNear(self.request_dur, 50.0, 1e-9, "request duration");
  const SpanSelfTimes none = ComputeSpanSelfTimes({});
  Expect(none.request < 0 && none.write < 0, "missing spans are negative");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestHistogramDelta();
  perfbench::TestMarkContinuity();
  perfbench::TestProcStat();
  perfbench::TestPercentiles();
  perfbench::TestSpanSelfTimes();
  if (perfbench::g_failures != 0) {
    std::printf("perfbench selftest: %d failure(s)\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
