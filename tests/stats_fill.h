// A ServerStatsReply whose every row holds a value no other row holds, for
// the wire and rendering tests of the stats table. The i-th field filled
// (DistinctStatsReply: row i in wire order, after stats_version) gets:
//   uint16_t  1001 * (i + 1)
//   uint32_t  0x01000000 * (i % 8 + 1) + 1001 * (i + 1)
//   uint64_t  (i + 1) << 48, plus 1001 * (i + 1)
//   int64_t   the uint64_t value's negation, shifted 40 instead of 48
//   histogram i + 1 samples, each 100 * (i + 1)
//   opcodes   two entries, {1, 11, 2, 333} and {42, 5, 0, 77}

#ifndef TESTS_STATS_FILL_H_
#define TESTS_STATS_FILL_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/obs.h"
#include "src/wire/messages.h"

namespace aud {

inline void FillStat(int i, uint16_t* v) { *v = static_cast<uint16_t>(1001 * (i + 1)); }
inline void FillStat(int i, uint32_t* v) {
  *v = 0x01000000u * static_cast<uint32_t>(i % 8 + 1) + 1001u * static_cast<uint32_t>(i + 1);
}
inline void FillStat(int i, uint64_t* v) {
  *v = (static_cast<uint64_t>(i + 1) << 48) + 1001u * static_cast<uint64_t>(i + 1);
}
inline void FillStat(int i, int64_t* v) {
  *v = -((static_cast<int64_t>(i + 1) << 40) + 1001 * static_cast<int64_t>(i + 1));
}
inline void FillStat(int i, obs::HistogramSnapshot* h) {
  obs::LatencyHistogram samples;
  for (int n = 0; n <= i; ++n) {
    samples.Record(100 * static_cast<uint64_t>(i + 1));
  }
  *h = samples.Snapshot();
  // Only up to the bucket in use, so the wire form stays short.
  h->buckets.resize(obs::LatencyHistogram::BucketFor(100 * static_cast<uint64_t>(i + 1)) + 1);
}
inline void FillStat(int, std::vector<OpcodeStats>* ops) {
  *ops = {{1, 11, 2, 333}, {42, 5, 0, 77}};
}

inline ServerStatsReply DistinctStatsReply(uint32_t version = kServerStatsVersion) {
  ServerStatsReply reply;
  reply.stats_version = version;
  int i = 0;
  ForEachStatField(reply, [&i](const StatRow&, auto& value) { FillStat(i++, &value); });
  return reply;
}

}  // namespace aud

#endif  // TESTS_STATS_FILL_H_
