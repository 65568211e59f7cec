// Pure analysis helpers of the benchmark driver: window deltas of the
// server's histograms, percentiles over driver samples, the sync-mark
// continuity checker, the /proc/<pid>/stat parser and span self times.
// Everything here is deterministic and side-effect free so selftest.cc can
// feed it synthetic inputs.

#ifndef PERFBENCH_DRIVER_ANALYSIS_H_
#define PERFBENCH_DRIVER_ANALYSIS_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/obs.h"
#include "src/wire/messages.h"

namespace perfbench {

using aud::obs::HistogramSnapshot;

// The window's share of a server histogram: `later` minus `earlier`, bucket
// by bucket. min/max of the result are the bounds of its lowest and highest
// nonzero buckets (the exact extremes of a window are not recoverable).
HistogramSnapshot HistogramDelta(const HistogramSnapshot& later,
                                 const HistogramSnapshot& earlier);

// Percentile of a (delta) histogram; 0 when it is empty.
double HistogramPercentile(const HistogramSnapshot& h, double p);

// The fields of /proc/<pid>/stat the benchmark reads.
struct ProcStat {
  uint64_t utime_ticks = 0;  // field 14
  uint64_t stime_ticks = 0;  // field 15
  int64_t threads = 0;       // field 20
  int64_t rss_pages = 0;     // field 24
};

// Parses one /proc/<pid>/stat line. The command name (field 2) may hold
// spaces and parentheses, so fields are counted from the last ')'.
std::optional<ProcStat> ParseProcStat(std::string_view text);

// Reads /proc/<pid>/stat; pid 0 reads /proc/self/stat.
std::optional<ProcStat> ReadProcStat(int pid);

// Percentile of `values` by linear interpolation between closest ranks
// (numpy's default). Sorts in place; 0 when empty.
double Percentile(std::vector<double>* values, double p);

double Median(std::vector<double> values);

// Mean of the middle half of `values` (the interquartile mean): as robust to
// a few outliers as the median, yet not stuck on a few possible values when
// the inputs are counts. 0 when empty.
double MiddleMean(std::vector<double> values);

// One driver sample and when it was taken (driver clock).
struct TimedSample {
  int64_t t_us = 0;
  double value = 0.0;
};

// The window [from_us, to_us) cut into `slices` equal slices: the p-th
// percentile of each slice, then the median of those. Every slice counts
// alike, so behaviour that recurs through most of the window shows in full,
// while a host stall confined to a few slices cannot move the figure.
// Samples outside the window fall into its first or last slice; empty slices
// are skipped. 0 when there are no samples.
double SlicedPercentile(const std::vector<TimedSample>& samples, int64_t from_us,
                        int64_t to_us, int slices, double p);

// CPU time the hypervisor gave other guests while this one wanted to run
// (the "steal" column of /proc/stat), in clock ticks summed over all CPUs.
std::optional<uint64_t> ReadStealTicks();

// Checks that a chain's sync marks advance by exactly one period, in both
// audio position and server time, with no gap and no repeat. Back-to-back
// plays are stitched into one cumulative position: a play must end on its
// last sample (position == total) before the next play's marks restart.
class MarkContinuity {
 public:
  MarkContinuity(int64_t period_samples, int64_t period_us)
      : period_samples_(period_samples), period_us_(period_us) {}

  // Forgets the previous mark: the next one starts an independent play
  // (a stopped-and-restarted queue is allowed a gap).
  void Reset() { have_last_ = false; }

  // Feeds one mark; false (and a counted violation) when it does not
  // follow the previous one by exactly one period.
  bool Feed(uint64_t position, uint64_t total, int64_t server_time);

  uint64_t violations() const { return violations_; }
  uint64_t marks() const { return marks_; }

 private:
  const int64_t period_samples_;
  const int64_t period_us_;
  bool have_last_ = false;
  int64_t base_ = 0;  // summed totals of the plays before the current one
  int64_t last_position_ = 0;
  int64_t last_total_ = 0;
  int64_t last_server_time_ = 0;
  uint64_t violations_ = 0;
  uint64_t marks_ = 0;
};

// Self time of the four request-path spans of one fetched request trace,
// in microseconds; a negative value means the span was not in the trace.
// Self time is the span's extent minus what its child spans cover. The
// server records egress as a point span at enqueue whose child is the
// socket write, so a point span's extent runs to the end of its children
// and its self time is the queue residency before the write starts.
struct SpanSelfTimes {
  double request = -1.0;
  double dispatch = -1.0;
  double egress = -1.0;
  double write = -1.0;
  double request_dur = -1.0;  // the root span's full duration
  double write_dur = -1.0;
};

SpanSelfTimes ComputeSpanSelfTimes(const std::vector<aud::TraceEventWire>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_ANALYSIS_H_
