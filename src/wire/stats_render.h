// Every rendering of a ServerStatsReply, generated from the stats table
// (src/wire/server_stats_fields.h): Prometheus text for --metrics-port,
// the text and JSON of `audioctl stats`, the one-line summary of the
// audiond stats log and `audioctl top`'s header, and the flight-recorder
// dump.
// All of them read one snapshot, so they always show the same numbers, and
// a row's `show` column decides which of them render it. The per-entity
// table of GetEntityStats renders here too.

#ifndef SRC_WIRE_STATS_RENDER_H_
#define SRC_WIRE_STATS_RENDER_H_

#include <string>
#include <vector>

#include "src/wire/messages.h"

namespace aud {

// Prometheus text exposition (version 0.0.4): counters and gauges named
// aud_*, histograms as summaries (p50/p90/p99 quantiles, _sum, _count),
// the opcode table as labelled aud_opcode_* counters.
std::string RenderPrometheusText(const ServerStatsReply& stats);

// One line per JSON group, `key=value` pairs; histograms get a line each
// in the `histograms` group and read mean/p99 inside any other group.
std::string RenderStatsText(const ServerStatsReply& stats);

// A JSON object: groups as nested objects, histograms as objects of
// count, sum, min, max, mean, p50, p95 and p99.
std::string RenderStatsJson(const ServerStatsReply& stats);

// The kBrief rows on one line: `name=value`, histograms as `name_p99=value`.
std::string RenderStatsLine(const ServerStatsReply& stats);

// The GetEntityStats table of `audioctl top`: one row per connection,
// heaviest (bytes in + out) first, then one row per root's device
// counters.
std::string RenderEntityStatsTable(EntityStatsReply stats);

// Human-oriented post-mortem dump: the stats text, the merged trace ring
// (timestamp order) and the recent log tail. `reason` names what
// triggered the dump (e.g. "SIGUSR2", "SIGSEGV").
std::string RenderFlightDumpText(const std::string& reason,
                                 const ServerStatsReply& stats,
                                 const std::vector<TraceEventWire>& trace,
                                 const std::vector<std::string>& log_tail);

}  // namespace aud

#endif  // SRC_WIRE_STATS_RENDER_H_
