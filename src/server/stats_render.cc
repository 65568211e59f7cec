#include "src/server/stats_render.h"

#include <sstream>

#include "src/common/obs.h"
#include "src/wire/protocol.h"

namespace aud {

namespace {

void EmitCounter(std::ostringstream& out, const char* name, uint64_t value,
                 const char* help) {
  out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " counter\n";
  out << name << " " << value << "\n";
}

void EmitGauge(std::ostringstream& out, const char* name, int64_t value,
               const char* help) {
  out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " gauge\n";
  out << name << " " << value << "\n";
}

void EmitHistogram(std::ostringstream& out, const char* name,
                   const obs::HistogramSnapshot& h, const char* help) {
  out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " summary\n";
  out << name << "{quantile=\"0.5\"} " << h.Percentile(50) << "\n";
  out << name << "{quantile=\"0.9\"} " << h.Percentile(90) << "\n";
  out << name << "{quantile=\"0.99\"} " << h.Percentile(99) << "\n";
  out << name << "_sum " << h.sum << "\n";
  out << name << "_count " << h.count << "\n";
}

void SummarizeHistogram(std::ostringstream& out, const char* label,
                        const obs::HistogramSnapshot& h) {
  out << "  " << label << ": count=" << h.count << " mean=" << h.Mean()
      << " p50=" << h.Percentile(50) << " p99=" << h.Percentile(99)
      << " max=" << h.max << "\n";
}

}  // namespace

std::string RenderPrometheusText(const ServerStatsReply& stats) {
  std::ostringstream out;
  EmitGauge(out, "aud_uptime_ms", static_cast<int64_t>(stats.uptime_ms),
            "Wall time since server start");
  EmitCounter(out, "aud_ticks_run_total", stats.ticks_run, "Engine ticks run");
  EmitCounter(out, "aud_tick_overruns_total", stats.tick_overruns,
              "Ticks whose cost exceeded their period");
  EmitCounter(out, "aud_epoch_commits_total", stats.epoch_commits,
              "Engine epochs committed");
  EmitCounter(out, "aud_requests_total", stats.requests_total,
              "Protocol requests dispatched");
  EmitCounter(out, "aud_request_errors_total", stats.request_errors_total,
              "Requests answered with an error");
  EmitCounter(out, "aud_connections_total", stats.connections_total,
              "Client connections accepted");
  EmitGauge(out, "aud_connections_open", stats.connections_open,
            "Client connections currently open");
  EmitCounter(out, "aud_bytes_in_total", stats.bytes_in, "Request bytes read");
  EmitCounter(out, "aud_bytes_out_total", stats.bytes_out,
              "Reply/event bytes written");
  EmitCounter(out, "aud_events_sent_total", stats.events_sent,
              "Events delivered to clients");
  EmitCounter(out, "aud_events_dropped_total", stats.events_dropped,
              "Events shed by the egress overflow policy");
  EmitCounter(out, "aud_egress_disconnects_total", stats.egress_disconnects,
              "Slow clients disconnected on egress overflow");
  EmitGauge(out, "aud_egress_queued_bytes", stats.egress_queued_bytes,
            "Current total egress backlog");
  EmitCounter(out, "aud_dispatch_shard_contention_total",
              stats.dispatch_shard_contention,
              "Dispatch waits on a root the tick was holding");
  EmitCounter(out, "aud_commands_enqueued_total", stats.commands_enqueued,
              "Queue commands accepted");
  EmitCounter(out, "aud_commands_done_total", stats.commands_done,
              "Queue commands completed");
  EmitGauge(out, "aud_objects", stats.objects, "Live registry entries");
  EmitCounter(out, "aud_trace_spans_total", stats.trace_spans,
              "Request-scoped trace spans recorded");
  EmitCounter(out, "aud_trace_requests_sampled_total",
              stats.trace_requests_sampled, "Requests that got a root span");
  EmitGauge(out, "aud_trace_sample_every", stats.trace_sample_every,
            "Trace sampling period (0 = tracing off)");
  EmitGauge(out, "aud_connection_loops", stats.loops,
            "Event-loop threads serving connections");
  EmitGauge(out, "aud_fds_watched", stats.fds_watched,
            "Connection fds currently registered with event loops");
  EmitCounter(out, "aud_epoll_waits_total", stats.epoll_waits,
              "Readiness wait syscalls across all loops");
  EmitCounter(out, "aud_loop_wakeups_total", stats.wakeups,
              "Self-pipe wakeups consumed by event loops");
  EmitCounter(out, "aud_readiness_spurious_total", stats.readiness_spurious,
              "Readiness events that yielded no work");
  EmitCounter(out, "aud_admission_rejects_total", stats.admission_rejects,
              "Connections closed at accept time by admission control");
  EmitCounter(out, "aud_rate_limited_total", stats.rate_limited,
              "Requests refused by a per-connection token bucket");
  EmitCounter(out, "aud_rate_limit_disconnects_total",
              stats.rate_limit_disconnects,
              "Flooders disconnected by the hard rate-limit policy");
  EmitCounter(out, "aud_quota_denials_total", stats.quota_denials,
              "Requests refused by a per-client resource quota");
  EmitGauge(out, "aud_draining", stats.draining,
            "1 while a graceful drain is running");
  EmitCounter(out, "aud_drain_forced_closes_total", stats.drain_forced_closes,
              "Connections with unflushed egress cut at the drain deadline");
  EmitGauge(out, "aud_drain_duration_ms",
            static_cast<int64_t>(stats.drain_duration_ms),
            "Wall time of the last graceful drain");
  EmitHistogram(out, "aud_dispatch_us", stats.dispatch_us,
                "Dispatch latency (lock wait + handling), microseconds");
  EmitHistogram(out, "aud_tick_us", stats.tick_us,
                "Engine tick duration, microseconds");
  EmitHistogram(out, "aud_tick_jitter_us", stats.tick_jitter_us,
                "Realtime wakeup lateness, microseconds");
  EmitHistogram(out, "aud_lock_wait_us", stats.lock_wait_us,
                "State/shard lock waits, microseconds");
  EmitHistogram(out, "aud_epoch_commit_us", stats.epoch_commit_us,
                "Epoch commit critical section, microseconds");
  EmitHistogram(out, "aud_mouth_to_ear_us", stats.mouth_to_ear_us,
                "Play accept to first mixed frame, microseconds");
  EmitHistogram(out, "aud_loop_dispatch_us", stats.loop_dispatch_us,
                "One readiness handler run on an event loop, microseconds");
  return out.str();
}

std::string RenderFlightDumpText(const std::string& reason,
                                 const ServerStatsReply& stats,
                                 const std::vector<TraceEventWire>& trace,
                                 const std::vector<std::string>& log_tail) {
  std::ostringstream out;
  out << "=== aud flight recorder dump (" << reason << ") ===\n";
  out << "proto " << stats.proto_major << "." << stats.proto_minor
      << " uptime_ms=" << stats.uptime_ms << " server_time=" << stats.server_time << "\n";
  out << "\n--- counters ---\n";
  out << "  ticks_run=" << stats.ticks_run << " tick_overruns=" << stats.tick_overruns
      << " epoch_commits=" << stats.epoch_commits << "\n";
  out << "  requests_total=" << stats.requests_total
      << " request_errors_total=" << stats.request_errors_total << "\n";
  out << "  connections_open=" << stats.connections_open
      << " connections_total=" << stats.connections_total << "\n";
  out << "  bytes_in=" << stats.bytes_in << " bytes_out=" << stats.bytes_out
      << " events_sent=" << stats.events_sent
      << " events_dropped=" << stats.events_dropped << "\n";
  out << "  objects=" << stats.objects << " active_louds=" << stats.active_louds
      << " commands_enqueued=" << stats.commands_enqueued
      << " commands_done=" << stats.commands_done << "\n";
  out << "  trace_spans=" << stats.trace_spans
      << " trace_requests_sampled=" << stats.trace_requests_sampled
      << " trace_sample_every=" << stats.trace_sample_every << "\n";
  out << "  loops=" << stats.loops << " fds_watched=" << stats.fds_watched
      << " epoll_waits=" << stats.epoll_waits
      << " loop_wakeups=" << stats.wakeups
      << " readiness_spurious=" << stats.readiness_spurious << "\n";
  out << "  admission_rejects=" << stats.admission_rejects
      << " rate_limited=" << stats.rate_limited
      << " rate_limit_disconnects=" << stats.rate_limit_disconnects
      << " quota_denials=" << stats.quota_denials << "\n";
  out << "  draining=" << stats.draining
      << " drain_forced_closes=" << stats.drain_forced_closes
      << " drain_duration_ms=" << stats.drain_duration_ms << "\n";
  out << "\n--- latencies (us) ---\n";
  SummarizeHistogram(out, "dispatch", stats.dispatch_us);
  SummarizeHistogram(out, "tick", stats.tick_us);
  SummarizeHistogram(out, "tick_jitter", stats.tick_jitter_us);
  SummarizeHistogram(out, "lock_wait", stats.lock_wait_us);
  SummarizeHistogram(out, "epoch_commit", stats.epoch_commit_us);
  SummarizeHistogram(out, "mouth_to_ear", stats.mouth_to_ear_us);
  SummarizeHistogram(out, "loop_dispatch", stats.loop_dispatch_us);
  out << "\n--- trace ring (" << trace.size() << " events, oldest first) ---\n";
  for (const TraceEventWire& e : trace) {
    out << "  t=" << e.t_us << " seq=" << e.seq << " tid=" << e.tid << " "
        << obs::TraceReasonName(static_cast<obs::TraceReason>(e.reason));
    if (e.trace != 0) {
      out << " trace=" << e.trace << " parent=" << e.parent << " dur_us=" << e.dur_us;
    }
    out << " arg0=" << e.arg0 << " arg1=" << e.arg1 << "\n";
  }
  out << "\n--- log tail (" << log_tail.size() << " lines) ---\n";
  for (const std::string& line : log_tail) {
    out << "  " << line << "\n";
  }
  out << "=== end of dump ===\n";
  return out.str();
}

}  // namespace aud
