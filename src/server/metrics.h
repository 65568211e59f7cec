// ServerMetrics: the one aggregate of every aud::obs counter, gauge and
// histogram the server maintains, one member per kMetric row of the stats
// table (src/wire/server_stats_fields.h). Owned by ServerState and
// snapshotted into a ServerStatsReply under the big lock (GetServerStats).
//
// Thread-safety contract: counters and gauges are relaxed atomics, so any
// thread (loop threads counting transport bytes, the tick thread, the
// dispatcher) may bump them without holding the state lock. Histograms are
// built entirely from atomics too: recording needs no lock (loop threads
// record the lock wait while they are *waiting* for the state lock,
// and the tick thread records epoch/tick timings inside its commit
// section), and a snapshot taken concurrently never tears a bucket. See
// DESIGN.md ("Observability and thread safety").

#ifndef SRC_SERVER_METRICS_H_
#define SRC_SERVER_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <type_traits>

#include "src/common/obs.h"
#include "src/wire/messages.h"
#include "src/wire/protocol.h"

namespace aud {

// The obs type that records a kMetric row of kind K.
template <StatKind K>
using MetricFor =
    std::conditional_t<K == StatKind::kCounter, obs::Counter,
                       std::conditional_t<K == StatKind::kGauge, obs::Gauge,
                                          obs::LatencyHistogram>>;

inline uint64_t ReadMetric(const obs::Counter& c) { return c.value(); }
inline int64_t ReadMetric(const obs::Gauge& g) { return g.value(); }
inline obs::HistogramSnapshot ReadMetric(const obs::LatencyHistogram& h) {
  return h.Snapshot();
}

struct ServerMetrics {
  static constexpr size_t kOpcodes = static_cast<size_t>(Opcode::kOpcodeCount);

  // -- One member per kMetric row of the stats table, named as the row ------
#define AUD_STATS_METRIC_kMetric(kind, name) MetricFor<StatKind::kind> name;
#define AUD_STATS_METRIC_kState(kind, name)
#define AUD_STATS_METRIC(name, type, kind, source, ...) AUD_STATS_METRIC_##source(kind, name)
  AUD_SERVER_STATS_FIELDS(AUD_STATS_METRIC)
#undef AUD_STATS_METRIC
#undef AUD_STATS_METRIC_kState
#undef AUD_STATS_METRIC_kMetric

  // -- Request dispatch per opcode (the `opcodes` row), by Opcode value ------
  obs::Counter requests[kOpcodes];
  obs::Counter request_errors[kOpcodes];
  obs::Counter opcode_us[kOpcodes];  // cumulative dispatch time per opcode

  std::atomic<uint64_t> last_trace_id{0};  // most recent sampled trace id
  std::chrono::steady_clock::time_point start_time =
      std::chrono::steady_clock::now();

  uint64_t uptime_ms() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                     std::chrono::steady_clock::now() - start_time)
                                     .count());
  }

  // Copies every kMetric row into the reply.
  void CopyTo(ServerStatsReply* reply) const {
#define AUD_STATS_COPY_kMetric(name) \
  reply->name = static_cast<decltype(reply->name)>(ReadMetric(name));
#define AUD_STATS_COPY_kState(name)
#define AUD_STATS_COPY(name, type, kind, source, ...) AUD_STATS_COPY_##source(name)
    AUD_SERVER_STATS_FIELDS(AUD_STATS_COPY)
#undef AUD_STATS_COPY
#undef AUD_STATS_COPY_kState
#undef AUD_STATS_COPY_kMetric
  }
};

}  // namespace aud

#endif  // SRC_SERVER_METRICS_H_
