// The ServerStats table: every field of the GetServerStats reply, declared
// once. Every copy of a field is generated from its row:
//
//   * the ServerStatsReply member, its Encode and its Decode (messages.h/.cc);
//   * the ServerMetrics member that records it, and the copy into a reply
//     (src/server/metrics.h), for rows whose source is kMetric;
//   * its Prometheus series, its text line and its JSON key (stats_render.cc).
//
// Rows are in wire order and are append-only: a new field is a new row at
// the end with the next version, plus a line in docs/schema.lock (audlint
// reads this file to check both). The reply's leading `stats_version` is
// the envelope that versions the rows, so it is not a row itself.
//
// Columns of X(name, type, kind, source, version, show, json, prom, unit, help):
//   name     the member name on every surface that does not override it.
//   type     the wire and member type.
//   kind     kCounter, kGauge, kHistogram (a summary in Prometheus), or
//            kInfo (a configured or fixed value; a gauge in Prometheus).
//   source   kMetric: a ServerMetrics member of the same name records it
//            (obs::Counter, obs::Gauge or obs::LatencyHistogram by kind);
//            kState: ServerState::BuildServerStats computes it.
//   version  the stats_version that first carried it.
//   show     which surfaces render it: kAll (Prometheus, text and JSON),
//            kBrief (those plus the one-line summary of the audiond stats
//            log and `audioctl top`'s header), kNone (kept on the wire only).
//   json     where it sits in the JSON object: "" top level, "group" in
//            that group under its own name, "group.key" renamed.
//   prom     the Prometheus series when it is not aud_<name> (counters
//            add _total).
//   unit     appended to the Prometheus help text.
//
// The per-opcode `opcodes` table is the one row whose type is not a scalar
// or a histogram; its renderers are written out in stats_render.cc.

#ifndef SRC_WIRE_SERVER_STATS_FIELDS_H_
#define SRC_WIRE_SERVER_STATS_FIELDS_H_

#include <cstdint>
#include <vector>

#include "src/common/obs.h"

namespace aud {

using Histogram = obs::HistogramSnapshot;

enum class StatKind { kCounter, kGauge, kHistogram, kInfo };
enum class StatShow { kNone, kAll, kBrief };

inline constexpr uint32_t kServerStatsVersion = 8;

// clang-format off
#define AUD_SERVER_STATS_FIELDS(X)                                                            \
  /* v1: identity, engine, dispatcher, connections, objects and queues. */                    \
  X(proto_major, uint16_t, kInfo, kState, 1, kAll, "protocol.major", "", "",                  \
    "Protocol major version")                                                                 \
  X(proto_minor, uint16_t, kInfo, kState, 1, kAll, "protocol.minor", "", "",                  \
    "Protocol minor version")                                                                 \
  X(uptime_ms, uint64_t, kGauge, kState, 1, kBrief, "", "", "milliseconds",                   \
    "Wall time since server start")                                                           \
  X(server_time, int64_t, kGauge, kState, 1, kAll, "", "", "ticks", "Engine clock")           \
  X(engine_threads, uint32_t, kInfo, kState, 1, kNone, "", "", "",                            \
    "Retired: always 1, the tick runs on one thread")                                         \
  X(engine_rate_hz, uint32_t, kInfo, kState, 1, kAll, "engine.rate_hz", "", "hertz",          \
    "Engine sample rate")                                                                     \
  X(ticks_run, uint64_t, kCounter, kState, 1, kBrief, "engine", "", "", "Engine ticks run")   \
  X(tick_overruns, uint64_t, kCounter, kMetric, 1, kBrief, "engine", "", "",                  \
    "Ticks whose cost exceeded their period")                                                 \
  X(tick_us, Histogram, kHistogram, kMetric, 1, kBrief, "histograms", "", "microseconds",     \
    "Engine tick duration")                                                                   \
  X(tick_jitter_us, Histogram, kHistogram, kMetric, 1, kBrief, "histograms", "",              \
    "microseconds", "Realtime wakeup lateness")                                               \
  X(islands_per_tick, Histogram, kHistogram, kState, 1, kNone, "", "", "",                    \
    "Retired: always empty")                                                                  \
  X(worker_imbalance, Histogram, kHistogram, kState, 1, kNone, "", "", "",                    \
    "Retired: always empty")                                                                  \
  X(requests_total, uint64_t, kCounter, kMetric, 1, kBrief, "requests.total", "", "",         \
    "Protocol requests dispatched")                                                           \
  X(request_errors_total, uint64_t, kCounter, kMetric, 1, kBrief, "requests.errors", "", "",  \
    "Requests answered with an error")                                                        \
  X(dispatch_us, Histogram, kHistogram, kMetric, 1, kBrief, "histograms", "", "microseconds", \
    "Dispatch latency, lock wait included")                                                   \
  X(opcodes, std::vector<OpcodeStats>, kCounter, kState, 1, kAll, "", "aud_opcode", "",       \
    "Per-opcode requests, errors and dispatch time")                                          \
  X(connections_open, int64_t, kGauge, kMetric, 1, kBrief, "connections.open", "", "",        \
    "Client connections currently open")                                                      \
  X(connections_total, uint64_t, kCounter, kMetric, 1, kAll, "connections.total", "", "",     \
    "Client connections accepted")                                                            \
  X(bytes_in, uint64_t, kCounter, kMetric, 1, kBrief, "connections", "", "bytes",             \
    "Request bytes read")                                                                     \
  X(bytes_out, uint64_t, kCounter, kMetric, 1, kBrief, "connections", "", "bytes",            \
    "Reply and event bytes written")                                                          \
  X(events_sent, uint64_t, kCounter, kMetric, 1, kAll, "connections", "", "",                 \
    "Events delivered to clients")                                                            \
  X(objects, uint32_t, kGauge, kState, 1, kAll, "", "", "", "Live registry entries")          \
  X(active_louds, uint32_t, kGauge, kState, 1, kAll, "", "", "",                              \
    "Active entries of the active stack")                                                     \
  X(commands_enqueued, uint64_t, kCounter, kMetric, 1, kAll, "queues.enqueued", "", "",       \
    "Queue commands accepted")                                                                \
  X(commands_done, uint64_t, kCounter, kMetric, 1, kAll, "queues.done", "", "",               \
    "Queue commands completed")                                                               \
  X(commands_aborted, uint64_t, kCounter, kMetric, 1, kAll, "queues.aborted", "", "",         \
    "Queue commands aborted")                                                                 \
  X(queue_events, uint64_t, kCounter, kMetric, 1, kAll, "queues.events", "", "",              \
    "Queue lifecycle and CommandDone events emitted")                                         \
  /* v2: decoded-PCM cache. */                                                                \
  X(decoded_cache_hits, uint64_t, kCounter, kMetric, 2, kAll, "decoded_cache.hits", "", "",   \
    "Play lookups served from the decoded-PCM cache")                                         \
  X(decoded_cache_misses, uint64_t, kCounter, kMetric, 2, kAll, "decoded_cache.misses", "",   \
    "", "Play lookups that decoded")                                                          \
  X(decoded_cache_bytes, uint64_t, kGauge, kMetric, 2, kAll, "decoded_cache.bytes", "",       \
    "bytes", "Resident decoded-PCM payload")                                                  \
  X(decoded_cache_evictions, uint64_t, kCounter, kMetric, 2, kAll,                            \
    "decoded_cache.evictions", "", "", "Decoded-PCM cache LRU evictions")                     \
  /* v3: connection-lifecycle robustness. */                                                  \
  X(events_dropped, uint64_t, kCounter, kMetric, 3, kBrief, "egress", "", "",                 \
    "Events shed by the egress overflow policy")                                              \
  X(egress_disconnects, uint64_t, kCounter, kMetric, 3, kBrief, "egress.disconnects", "", "", \
    "Slow clients disconnected on egress overflow")                                           \
  X(egress_queued_bytes, int64_t, kGauge, kMetric, 3, kAll, "egress.queued_bytes", "",        \
    "bytes", "Current total egress backlog")                                                  \
  X(accept_retries, uint64_t, kCounter, kMetric, 3, kAll, "egress", "", "",                   \
    "Transient accept failures retried")                                                      \
  /* v4: epoch-snapshot engine. */                                                            \
  X(epoch_commits, uint64_t, kCounter, kMetric, 4, kBrief, "epoch.commits", "", "",           \
    "Engine epochs committed")                                                                \
  X(dispatch_shard_contention, uint64_t, kCounter, kMetric, 4, kBrief,                        \
    "epoch.shard_contention", "", "", "Dispatch waits on a root the tick was holding")        \
  X(lock_wait_us, Histogram, kHistogram, kMetric, 4, kBrief, "histograms", "",                \
    "microseconds", "State- plus shard-lock wait, one sample per request")                    \
  X(epoch_commit_us, Histogram, kHistogram, kMetric, 4, kBrief, "histograms", "",             \
    "microseconds", "Epoch commit critical section")                                          \
  /* v5: request tracing. */                                                                  \
  X(mouth_to_ear_us, Histogram, kHistogram, kMetric, 5, kBrief, "histograms", "",             \
    "microseconds", "Play accept to first mixed frame")                                       \
  X(trace_spans, uint64_t, kCounter, kMetric, 5, kAll, "tracing.spans", "", "",               \
    "Request-scoped trace spans recorded")                                                    \
  X(trace_requests_sampled, uint64_t, kCounter, kMetric, 5, kAll, "tracing.requests_sampled", \
    "", "", "Requests that got a root span")                                                  \
  X(trace_sample_every, uint32_t, kInfo, kState, 5, kBrief, "tracing.sample_every", "", "",   \
    "Trace sampling period (0 = tracing off)")                                                \
  /* v6: event-loop connection plane. */                                                      \
  X(loops, uint32_t, kInfo, kState, 6, kBrief, "loops.count", "aud_connection_loops", "",     \
    "Event-loop threads serving connections")                                                 \
  X(fds_watched, int64_t, kGauge, kMetric, 6, kBrief, "loops", "", "",                        \
    "Connection fds currently registered with event loops")                                   \
  X(epoll_waits, uint64_t, kCounter, kMetric, 6, kAll, "loops", "", "",                       \
    "Readiness wait syscalls across all loops")                                               \
  X(wakeups, uint64_t, kCounter, kMetric, 6, kAll, "loops", "aud_loop_wakeups_total", "",     \
    "Wakeups consumed by event loops")                                                        \
  X(readiness_spurious, uint64_t, kCounter, kMetric, 6, kAll, "loops", "", "",                \
    "Readiness events that yielded no work")                                                  \
  X(loop_dispatch_us, Histogram, kHistogram, kMetric, 6, kBrief, "histograms", "",            \
    "microseconds", "One readiness handler run on an event loop")                             \
  /* v7: overload protection. */                                                              \
  X(admission_rejects, uint64_t, kCounter, kMetric, 7, kBrief, "overload", "", "",            \
    "Connections closed at accept time by admission control")                                 \
  X(rate_limited, uint64_t, kCounter, kMetric, 7, kBrief, "overload", "", "",                 \
    "Requests refused by a per-connection token bucket")                                      \
  X(rate_limit_disconnects, uint64_t, kCounter, kState, 7, kNone, "", "", "",                 \
    "Retired: always 0")                                                                      \
  X(quota_denials, uint64_t, kCounter, kMetric, 7, kBrief, "overload", "", "",                \
    "Requests refused by a per-client resource quota")                                        \
  X(draining, uint32_t, kGauge, kMetric, 7, kAll, "overload", "", "",                         \
    "1 while a graceful drain is running")                                                    \
  X(drain_forced_closes, uint64_t, kCounter, kMetric, 7, kAll, "overload", "", "",            \
    "Connections with unflushed egress cut at the drain deadline")                            \
  X(drain_duration_ms, uint64_t, kGauge, kMetric, 7, kAll, "overload", "", "milliseconds",    \
    "Wall time of the last graceful drain")                                                   \
  /* v8: the tick's phases, each timed once per tick. */                                      \
  X(tick_open_us, Histogram, kHistogram, kMetric, 8, kAll, "tick_phases.open", "",            \
    "microseconds", "Tick phase: epoch open, state-lock wait included")                       \
  X(tick_fanout_us, Histogram, kHistogram, kMetric, 8, kAll, "tick_phases.fanout", "",        \
    "microseconds", "Tick phase: fan-out of the runnable roots")                              \
  X(tick_flush_us, Histogram, kHistogram, kMetric, 8, kAll, "tick_phases.flush", "",          \
    "microseconds", "Tick phase: event flush, commit state-lock wait included")               \
  X(tick_resolve_us, Histogram, kHistogram, kMetric, 8, kAll, "tick_phases.resolve", "",      \
    "microseconds", "Tick phase: mixer resolve into the codecs")                              \
  X(tick_advance_us, Histogram, kHistogram, kMetric, 8, kAll, "tick_phases.advance", "",      \
    "microseconds", "Tick phase: board advance")
// clang-format on

// One row's columns, as the visitor below hands them out.
struct StatRow {
  const char* name;
  StatKind kind;
  uint32_t version;
  StatShow show;
  const char* json;
  const char* prom;
  const char* unit;
  const char* help;
};

// Calls fn(row, reply.<name>) for every row in wire order; `Reply` is
// ServerStatsReply, const or not.
template <typename Reply, typename Fn>
void ForEachStatField(Reply& reply, Fn&& fn) {
#define AUD_STATS_VISIT(name, type, kind, source, version, show, json, prom, unit, help) \
  fn(StatRow{#name, StatKind::kind, version, StatShow::show, json, prom, unit, help}, reply.name);
  AUD_SERVER_STATS_FIELDS(AUD_STATS_VISIT)
#undef AUD_STATS_VISIT
}

}  // namespace aud

#endif  // SRC_WIRE_SERVER_STATS_FIELDS_H_
