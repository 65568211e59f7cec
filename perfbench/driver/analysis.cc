#include "perfbench/driver/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

using aud::obs::LatencyHistogram;
using aud::obs::TraceReason;

HistogramSnapshot HistogramDelta(const HistogramSnapshot& later,
                                 const HistogramSnapshot& earlier) {
  HistogramSnapshot d;
  d.count = later.count >= earlier.count ? later.count - earlier.count : 0;
  d.sum = later.sum >= earlier.sum ? later.sum - earlier.sum : 0;
  d.buckets.assign(std::max(later.buckets.size(), earlier.buckets.size()), 0);
  for (size_t b = 0; b < d.buckets.size(); ++b) {
    const uint64_t l = b < later.buckets.size() ? later.buckets[b] : 0;
    const uint64_t e = b < earlier.buckets.size() ? earlier.buckets[b] : 0;
    d.buckets[b] = l >= e ? l - e : 0;
  }
  bool any = false;
  for (size_t b = 0; b < d.buckets.size(); ++b) {
    if (d.buckets[b] == 0) {
      continue;
    }
    if (!any) {
      d.min = LatencyHistogram::BucketLow(b);
      any = true;
    }
    d.max = LatencyHistogram::BucketHigh(b);
  }
  return d;
}

double HistogramPercentile(const HistogramSnapshot& h, double p) {
  return h.empty() ? 0.0 : h.Percentile(p);
}

std::optional<ProcStat> ParseProcStat(std::string_view text) {
  const size_t close = text.rfind(')');
  if (close == std::string_view::npos) {
    return std::nullopt;
  }
  // Field 3 (state) follows ") "; collect fields 3.. as tokens.
  std::istringstream in{std::string(text.substr(close + 1))};
  std::vector<std::string> fields;
  std::string token;
  while (in >> token) {
    fields.push_back(token);
  }
  // fields[0] is field 3, so field n sits at fields[n - 3].
  if (fields.size() < 22) {
    return std::nullopt;
  }
  ProcStat stat;
  try {
    stat.utime_ticks = std::stoull(fields[14 - 3]);
    stat.stime_ticks = std::stoull(fields[15 - 3]);
    stat.threads = std::stoll(fields[20 - 3]);
    stat.rss_pages = std::stoll(fields[24 - 3]);
  } catch (...) {
    return std::nullopt;
  }
  return stat;
}

std::optional<ProcStat> ReadProcStat(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/stat" : "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) {
    return std::nullopt;
  }
  return ParseProcStat(line);
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) {
    return 0.0;
  }
  std::sort(values->begin(), values->end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double Median(std::vector<double> values) { return Percentile(&values, 50.0); }

double MiddleMean(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t quarter = values.size() / 4;
  double sum = 0.0;
  for (size_t i = quarter; i < values.size() - quarter; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * quarter);
}

double SlicedPercentile(const std::vector<TimedSample>& samples, int64_t from_us,
                        int64_t to_us, int slices, double p) {
  slices = std::max(1, slices);
  const double width = static_cast<double>(std::max<int64_t>(1, to_us - from_us)) / slices;
  std::vector<std::vector<double>> by_slice(static_cast<size_t>(slices));
  for (const TimedSample& s : samples) {
    const double at = std::floor(static_cast<double>(s.t_us - from_us) / width);
    const int i = static_cast<int>(std::clamp(at, 0.0, static_cast<double>(slices - 1)));
    by_slice[static_cast<size_t>(i)].push_back(s.value);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& values : by_slice) {
    if (!values.empty()) {
      per_slice.push_back(Percentile(&values, p));
    }
  }
  return Median(std::move(per_slice));
}

std::optional<uint64_t> ReadStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") {
    return std::nullopt;
  }
  for (uint64_t& x : v) {
    if (!(in >> x)) {
      return std::nullopt;
    }
  }
  return v[7];  // user nice system idle iowait irq softirq steal
}

bool MarkContinuity::Feed(uint64_t position, uint64_t total, int64_t server_time) {
  ++marks_;
  const auto pos = static_cast<int64_t>(position);
  bool ok = true;
  if (have_last_) {
    int64_t base = base_;
    if (pos <= last_position_) {
      // A new play began. The previous one must have ended on its last
      // sample, or audio between its last mark and its end went missing.
      ok = last_position_ == last_total_;
      base += last_total_;
    }
    const int64_t advance = (base + pos) - (base_ + last_position_);
    ok = ok && advance == period_samples_ &&
         server_time - last_server_time_ == period_us_;
    base_ = base;
  } else {
    base_ = 0;
  }
  have_last_ = true;
  last_position_ = pos;
  last_total_ = static_cast<int64_t>(total);
  last_server_time_ = server_time;
  if (!ok) {
    ++violations_;
  }
  return ok;
}

namespace {

// Length of the union of [lo, hi) intervals clipped to [from, to).
double CoveredLength(std::vector<std::pair<double, double>> intervals, double from,
                     double to) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, from);
    iv.second = std::min(iv.second, to);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = from;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) {
      continue;
    }
    const double start = std::max(lo, reach);
    if (hi > start) {
      covered += hi - start;
      reach = hi;
    }
  }
  return covered;
}

}  // namespace

SpanSelfTimes ComputeSpanSelfTimes(const std::vector<aud::TraceEventWire>& spans) {
  SpanSelfTimes out;
  for (const aud::TraceEventWire& span : spans) {
    const auto reason = static_cast<TraceReason>(span.reason);
    double* slot = nullptr;
    switch (reason) {
      case TraceReason::kSpanRequest: slot = &out.request; break;
      case TraceReason::kSpanDispatch: slot = &out.dispatch; break;
      case TraceReason::kSpanEgress: slot = &out.egress; break;
      case TraceReason::kSpanWrite: slot = &out.write; break;
      default: continue;
    }
    const double start = static_cast<double>(span.t_us);
    double end = start + static_cast<double>(span.dur_us);
    std::vector<std::pair<double, double>> children;
    double children_end = end;
    for (const aud::TraceEventWire& child : spans) {
      if (child.parent != span.seq || child.seq == span.seq) {
        continue;
      }
      const double lo = static_cast<double>(child.t_us);
      const double hi = lo + static_cast<double>(child.dur_us);
      children.emplace_back(lo, hi);
      children_end = std::max(children_end, hi);
    }
    if (span.dur_us == 0) {
      end = children_end;  // point span: extends to the end of its children
    }
    *slot = (end - start) - CoveredLength(std::move(children), start, end);
    if (reason == TraceReason::kSpanRequest) {
      out.request_dur = static_cast<double>(span.dur_us);
    } else if (reason == TraceReason::kSpanWrite) {
      out.write_dur = static_cast<double>(span.dur_us);
    }
  }
  return out;
}

}  // namespace perfbench
