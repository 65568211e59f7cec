#include "src/wire/stats_render.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <type_traits>
#include <utility>

#include "src/common/obs.h"
#include "src/wire/protocol.h"

namespace aud {

namespace {

using Opcodes = std::vector<OpcodeStats>;

// Formats in place; a second pass only for output longer than 255 bytes
// (a long client name in the entity table).
__attribute__((format(printf, 2, 3))) void Appendf(std::string* out, const char* fmt, ...) {
  constexpr size_t kFirstPass = 256;
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const size_t at = out->size();
  out->resize(at + kFirstPass);
  const int n = std::vsnprintf(out->data() + at, kFirstPass, fmt, args);
  va_end(args);
  if (n >= static_cast<int>(kFirstPass)) {
    out->resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + at, static_cast<size_t>(n) + 1, fmt, again);
  }
  va_end(again);
  out->resize(at + static_cast<size_t>(std::max(n, 0)));
}

// One row some surface shows, with its value: a formatted integer, a
// histogram or the opcode table. `group` and `key` place it in the JSON
// object and the text ("" group = top level).
struct Item {
  StatRow row;
  std::string group;
  std::string key;
  std::string scalar;
  const Histogram* histogram = nullptr;
  const Opcodes* opcodes = nullptr;
};

std::vector<Item> Items(const ServerStatsReply& stats) {
  std::vector<Item> items;
  ForEachStatField(stats, [&](const StatRow& row, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if (row.show == StatShow::kNone) {
      return;
    }
    Item item{row, row.json, row.name, "", nullptr, nullptr};
    if (const size_t dot = item.group.find('.'); dot != std::string::npos) {
      item.key = item.group.substr(dot + 1);
      item.group.resize(dot);
    }
    if constexpr (std::is_same_v<T, Histogram>) {
      item.histogram = &value;
    } else if constexpr (std::is_same_v<T, Opcodes>) {
      item.opcodes = &value;
    } else {
      item.scalar = std::to_string(value);
    }
    items.push_back(std::move(item));
  });
  return items;
}

// The groups, in the order their first row appears.
std::vector<std::string> Groups(const std::vector<Item>& items) {
  std::vector<std::string> groups;
  for (const Item& item : items) {
    if (!item.group.empty() &&
        std::find(groups.begin(), groups.end(), item.group) == groups.end()) {
      groups.push_back(item.group);
    }
  }
  return groups;
}

std::string NameOf(const OpcodeStats& op) {
  return std::string(OpcodeName(static_cast<Opcode>(op.opcode)));
}

std::string PromName(const StatRow& row) {
  if (*row.prom != '\0') {
    return row.prom;
  }
  std::string name = std::string("aud_") + row.name;
  if (row.kind == StatKind::kCounter && !name.ends_with("_total")) {
    name += "_total";
  }
  return name;
}

void EmitPromHeader(std::string* out, const std::string& name, const StatRow& row,
                    const char* type) {
  Appendf(out, "# HELP %s %s", name.c_str(), row.help);
  if (*row.unit != '\0') {
    Appendf(out, ", %s", row.unit);
  }
  Appendf(out, "\n# TYPE %s %s\n", name.c_str(), type);
}

std::string HistogramDetail(const Histogram& h) {
  std::string out;
  Appendf(&out, "count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f min=%llu max=%llu",
          static_cast<unsigned long long>(h.count), h.Mean(), h.Percentile(50),
          h.Percentile(95), h.Percentile(99), static_cast<unsigned long long>(h.min),
          static_cast<unsigned long long>(h.max));
  return out;
}

// A scalar as is, a histogram as mean/p99 (text) or as an object (JSON).
std::string TextValue(const Item& item) {
  if (item.histogram == nullptr) {
    return item.scalar;
  }
  std::string out;
  Appendf(&out, "%.1f/%.1f", item.histogram->Mean(), item.histogram->Percentile(99));
  return out;
}

std::string JsonValue(const Item& item) {
  if (item.histogram == nullptr) {
    return item.scalar;
  }
  const Histogram& h = *item.histogram;
  std::string out;
  Appendf(&out,
          "{\"count\": %llu, \"sum\": %llu, \"min\": %llu, \"max\": %llu, \"mean\": %.2f, "
          "\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f}",
          static_cast<unsigned long long>(h.count), static_cast<unsigned long long>(h.sum),
          static_cast<unsigned long long>(h.min), static_cast<unsigned long long>(h.max),
          h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99));
  return out;
}

}  // namespace

std::string RenderPrometheusText(const ServerStatsReply& stats) {
  std::string out;
  for (const Item& item : Items(stats)) {
    const std::string name = PromName(item.row);
    if (item.histogram != nullptr) {
      const Histogram& h = *item.histogram;
      EmitPromHeader(&out, name, item.row, "summary");
      for (double q : {0.5, 0.9, 0.99}) {
        Appendf(&out, "%s{quantile=\"%g\"} %g\n", name.c_str(), q, h.Percentile(q * 100));
      }
      out += name + "_sum " + std::to_string(h.sum) + "\n";
      out += name + "_count " + std::to_string(h.count) + "\n";
    } else if (item.opcodes != nullptr) {
      const std::pair<const char*, uint64_t OpcodeStats::*> families[] = {
          {"_requests_total", &OpcodeStats::count},
          {"_errors_total", &OpcodeStats::errors},
          {"_dispatch_us_total", &OpcodeStats::total_us}};
      for (const auto& [suffix, member] : families) {
        const std::string family = name + suffix;
        EmitPromHeader(&out, family, item.row, "counter");
        for (const OpcodeStats& op : *item.opcodes) {
          out += family + "{opcode=\"" + NameOf(op) + "\"} " + std::to_string(op.*member) + "\n";
        }
      }
    } else {
      EmitPromHeader(&out, name, item.row,
                     item.row.kind == StatKind::kCounter ? "counter" : "gauge");
      out += name + " " + item.scalar + "\n";
    }
  }
  return out;
}

std::string RenderStatsText(const ServerStatsReply& stats) {
  // The top-level scalars share the first line, each group gets a line (the
  // histograms group one per histogram), and the opcode table comes last.
  const std::vector<Item> items = Items(stats);
  std::string out = "stats_version=" + std::to_string(stats.stats_version);
  std::string opcodes;
  for (const Item& item : items) {
    if (item.opcodes != nullptr) {
      for (const OpcodeStats& op : *item.opcodes) {
        Appendf(&opcodes, "  %s: count=%llu errors=%llu total_us=%llu\n", NameOf(op).c_str(),
                static_cast<unsigned long long>(op.count),
                static_cast<unsigned long long>(op.errors),
                static_cast<unsigned long long>(op.total_us));
      }
      if (!opcodes.empty()) {
        opcodes = item.key + ":\n" + opcodes;
      }
    } else if (item.group.empty()) {
      out += " " + item.key + "=" + TextValue(item);
    }
  }
  out += "\n";
  for (const std::string& group : Groups(items)) {
    out += group + ":";
    for (const Item& item : items) {
      if (item.group != group) {
        continue;
      }
      if (group == "histograms") {
        out += "\n  " + item.key + ": " + HistogramDetail(*item.histogram);
      } else {
        out += " " + item.key + "=" + TextValue(item);
      }
    }
    out += "\n";
  }
  return out + opcodes;
}

std::string RenderStatsJson(const ServerStatsReply& stats) {
  // Top-level keys and groups in the order their first row appears; a
  // group with histograms puts each member on its own line.
  const std::vector<Item> items = Items(stats);
  std::string out = "{\n  \"stats_version\": " + std::to_string(stats.stats_version);
  std::vector<std::string> done;
  for (const Item& first : items) {
    if (first.group.empty()) {
      out += ",\n  \"" + first.key + "\": ";
      if (first.opcodes == nullptr) {
        out += JsonValue(first);
        continue;
      }
      const char* sep = "";
      out += "[";
      for (const OpcodeStats& op : *first.opcodes) {
        Appendf(&out,
                "%s\n    {\"opcode\": \"%s\", \"count\": %llu, \"errors\": %llu, "
                "\"total_us\": %llu}",
                sep, NameOf(op).c_str(), static_cast<unsigned long long>(op.count),
                static_cast<unsigned long long>(op.errors),
                static_cast<unsigned long long>(op.total_us));
        sep = ",";
      }
      out += first.opcodes->empty() ? "]" : "\n  ]";
      continue;
    }
    if (std::find(done.begin(), done.end(), first.group) != done.end()) {
      continue;
    }
    done.push_back(first.group);
    const bool multiline = std::any_of(items.begin(), items.end(), [&](const Item& item) {
      return item.group == first.group && item.histogram != nullptr;
    });
    const char* sep = multiline ? "\n    " : "";
    out += ",\n  \"" + first.group + "\": {";
    for (const Item& item : items) {
      if (item.group == first.group) {
        out += sep + ("\"" + item.key + "\": ") + JsonValue(item);
        sep = multiline ? ",\n    " : ", ";
      }
    }
    out += multiline ? "\n  }" : "}";
  }
  return out + "\n}\n";
}

std::string RenderStatsLine(const ServerStatsReply& stats) {
  std::string out;
  for (const Item& item : Items(stats)) {
    if (item.row.show != StatShow::kBrief) {
      continue;
    }
    out += out.empty() ? "" : " ";
    if (item.histogram != nullptr) {
      Appendf(&out, "%s_p99=%.0f", item.row.name, item.histogram->Percentile(99));
    } else {
      out += std::string(item.row.name) + "=" + item.scalar;
    }
  }
  return out;
}

std::string RenderFlightDumpText(const std::string& reason,
                                 const ServerStatsReply& stats,
                                 const std::vector<TraceEventWire>& trace,
                                 const std::vector<std::string>& log_tail) {
  std::string out = "=== aud flight recorder dump (" + reason + ") ===\n";
  out += "\n--- stats ---\n" + RenderStatsText(stats);
  Appendf(&out, "\n--- trace ring (%zu events, oldest first) ---\n", trace.size());
  for (const TraceEventWire& e : trace) {
    Appendf(&out, "  t=%lld seq=%llu tid=%u %s", static_cast<long long>(e.t_us),
            static_cast<unsigned long long>(e.seq), e.tid,
            std::string(obs::TraceReasonName(static_cast<obs::TraceReason>(e.reason))).c_str());
    if (e.trace != 0) {
      Appendf(&out, " trace=%llu parent=%llu dur_us=%u",
              static_cast<unsigned long long>(e.trace),
              static_cast<unsigned long long>(e.parent), e.dur_us);
    }
    Appendf(&out, " arg0=%u arg1=%u\n", e.arg0, e.arg1);
  }
  Appendf(&out, "\n--- log tail (%zu lines) ---\n", log_tail.size());
  for (const std::string& line : log_tail) {
    out += "  " + line + "\n";
  }
  return out + "=== end of dump ===\n";
}

std::string RenderEntityStatsTable(EntityStatsReply stats) {
  std::stable_sort(stats.connections.begin(), stats.connections.end(),
                   [](const ConnectionStatsWire& a, const ConnectionStatsWire& b) {
                     return a.bytes_in + a.bytes_out > b.bytes_in + b.bytes_out;
                   });
  std::string out;
  Appendf(&out, "%-4s %-16s %10s %6s %12s %12s %8s %8s %10s\n", "#", "client", "requests",
          "errors", "bytes_in", "bytes_out", "events", "dropped", "disp_p99");
  for (const ConnectionStatsWire& c : stats.connections) {
    Appendf(&out, "%-4u %-16s %10llu %6llu %12llu %12llu %8llu %8llu %9.0fus\n", c.index,
            c.name.empty() ? "?" : c.name.c_str(), static_cast<unsigned long long>(c.requests),
            static_cast<unsigned long long>(c.errors),
            static_cast<unsigned long long>(c.bytes_in),
            static_cast<unsigned long long>(c.bytes_out),
            static_cast<unsigned long long>(c.events_sent),
            static_cast<unsigned long long>(c.events_dropped),
            c.dispatch_us.empty() ? 0.0 : c.dispatch_us.Percentile(99));
  }
  if (stats.devices.empty()) {
    return out;
  }
  Appendf(&out, "\n%-10s %-10s %-8s %14s %14s\n", "root", "owner", "active", "frames_prod",
          "frames_cons");
  for (const DeviceStatsWire& d : stats.devices) {
    const std::string owner = d.owner == 0xFFFFFFFFu ? "server" : "#" + std::to_string(d.owner);
    Appendf(&out, "0x%-8x %-10s %-8s %14llu %14llu\n", d.root, owner.c_str(),
            d.active != 0 ? "yes" : "no", static_cast<unsigned long long>(d.frames_produced),
            static_cast<unsigned long long>(d.frames_consumed));
  }
  return out;
}

}  // namespace aud
