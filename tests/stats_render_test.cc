// The stats surfaces generated from the stats table: Prometheus, the text
// and JSON of `audioctl stats`, and the one-line summary. One reply in which
// every row holds a value no other row holds is rendered on each surface;
// every row a surface shows must appear there exactly once, under its own
// name and with its own value (so two swapped fields fail), and the retired
// rows must appear nowhere.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/wire/messages.h"
#include "src/wire/stats_render.h"
#include "tests/stats_fill.h"

namespace aud {
namespace {

using Opcodes = std::vector<OpcodeStats>;
using Entries = std::multimap<std::string, std::string>;

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::string Fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string OpName(const OpcodeStats& op) {
  return std::string(OpcodeName(static_cast<Opcode>(op.opcode)));
}

// The row's JSON group and key ("group.key", or "key" at the top level).
std::string PathOf(const StatRow& row) {
  const std::string json = row.json;
  if (json.empty()) {
    return row.name;
  }
  return json.find('.') != std::string::npos ? json : json + "." + row.name;
}

std::string PromNameOf(const StatRow& row) {
  if (*row.prom != '\0') {
    return row.prom;
  }
  std::string name = std::string("aud_") + row.name;
  if (row.kind == StatKind::kCounter && !name.ends_with("_total")) {
    name += "_total";
  }
  return name;
}

testing::AssertionResult HasOnce(const Entries& entries, const std::string& key,
                                 const std::string& value) {
  auto [begin, end] = entries.equal_range(key);
  if (std::distance(begin, end) != 1) {
    return testing::AssertionFailure()
           << key << " appears " << std::distance(begin, end) << " times";
  }
  if (begin->second != value) {
    return testing::AssertionFailure() << key << " = " << begin->second << ", want " << value;
  }
  return testing::AssertionSuccess();
}

// Every value shown at most once: a row's value under another row's name
// would show up twice.
testing::AssertionResult ValuesDistinct(const Entries& entries) {
  std::map<std::string, std::string> seen;
  for (const auto& [key, value] : entries) {
    auto [it, fresh] = seen.emplace(value, key);
    if (!fresh) {
      return testing::AssertionFailure() << value << " shown by " << it->second << " and " << key;
    }
  }
  return testing::AssertionSuccess();
}

// -- Prometheus ---------------------------------------------------------------

// Sample lines: series (labels included) -> value.
Entries PromSamples(const std::string& text) {
  Entries samples;
  for (const std::string& line : Lines(text)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t space = line.rfind(' ');
    samples.emplace(line.substr(0, space), line.substr(space + 1));
  }
  return samples;
}

TEST(StatsSurfaceTest, PrometheusShowsEveryRowOnceWithItsValue) {
  const ServerStatsReply s = DistinctStatsReply();
  const std::string text = RenderPrometheusText(s);
  const Entries samples = PromSamples(text);
  Entries values;  // the row values only, for the distinctness check
  ForEachStatField(s, [&](const StatRow& row, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if (row.show == StatShow::kNone) {
      return;
    }
    const std::string name = PromNameOf(row);
    if constexpr (std::is_same_v<T, Histogram>) {
      EXPECT_TRUE(HasOnce(samples, name + "_count", std::to_string(value.count)));
      EXPECT_TRUE(HasOnce(samples, name + "_sum", std::to_string(value.sum)));
      EXPECT_EQ(samples.count(name + "{quantile=\"0.99\"}"), 1u) << name;
      EXPECT_NE(text.find("# TYPE " + name + " summary\n"), std::string::npos) << name;
      values.emplace(name + "_sum", std::to_string(value.sum));
    } else if constexpr (std::is_same_v<T, Opcodes>) {
      ASSERT_EQ(value.size(), 2u);
      for (const OpcodeStats& op : value) {
        const std::string label = "{opcode=\"" + OpName(op) + "\"}";
        EXPECT_TRUE(HasOnce(samples, name + "_requests_total" + label, std::to_string(op.count)));
        EXPECT_TRUE(HasOnce(samples, name + "_errors_total" + label, std::to_string(op.errors)));
        EXPECT_TRUE(
            HasOnce(samples, name + "_dispatch_us_total" + label, std::to_string(op.total_us)));
      }
    } else {
      EXPECT_TRUE(HasOnce(samples, name, std::to_string(value)));
      const char* type = row.kind == StatKind::kCounter ? "counter" : "gauge";
      EXPECT_NE(text.find("# TYPE " + name + " " + type + "\n"), std::string::npos) << name;
      values.emplace(name, std::to_string(value));
    }
  });
  EXPECT_TRUE(ValuesDistinct(values));
}

// -- Text -------------------------------------------------------------------------

// "group.key" -> value: `k=v` pairs on the first line (top level) and on
// `group: k=v ...` lines, and `  key: rest` lines under a `group:` header.
Entries TextEntries(const std::string& text) {
  Entries entries;
  std::string block;
  const std::vector<std::string> lines = Lines(text);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("  ", 0) == 0) {
      const size_t colon = line.find(": ");
      entries.emplace(block + "." + line.substr(2, colon - 2), line.substr(colon + 2));
      continue;
    }
    std::string group;
    std::string pairs = line;
    const size_t colon = line.find(':');
    if (i > 0 && colon != std::string::npos) {
      group = line.substr(0, colon);
      pairs = line.substr(colon + 1);
      if (pairs.empty()) {
        block = group;
        continue;
      }
    }
    std::istringstream in(pairs);
    for (std::string pair; in >> pair;) {
      const size_t eq = pair.find('=');
      const std::string key = pair.substr(0, eq);
      entries.emplace(group.empty() ? key : group + "." + key, pair.substr(eq + 1));
    }
  }
  return entries;
}

TEST(StatsSurfaceTest, TextShowsEveryRowOnceWithItsValue) {
  const ServerStatsReply s = DistinctStatsReply();
  const Entries entries = TextEntries(RenderStatsText(s));
  EXPECT_TRUE(HasOnce(entries, "stats_version", std::to_string(kServerStatsVersion)));
  ForEachStatField(s, [&](const StatRow& row, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if (row.show == StatShow::kNone) {
      return;
    }
    const std::string path = PathOf(row);
    if constexpr (std::is_same_v<T, Histogram>) {
      if (path.rfind("histograms.", 0) == 0) {
        auto [begin, end] = entries.equal_range(path);
        ASSERT_EQ(std::distance(begin, end), 1) << path;
        EXPECT_EQ(begin->second.rfind("count=" + std::to_string(value.count) +
                                          " mean=" + Fixed(value.Mean()) + " ",
                                      0),
                  0u)
            << path << ": " << begin->second;
      } else {
        EXPECT_TRUE(
            HasOnce(entries, path, Fixed(value.Mean()) + "/" + Fixed(value.Percentile(99))));
      }
    } else if constexpr (std::is_same_v<T, Opcodes>) {
      for (const OpcodeStats& op : value) {
        EXPECT_TRUE(HasOnce(entries, std::string(row.name) + "." + OpName(op),
                            "count=" + std::to_string(op.count) +
                                " errors=" + std::to_string(op.errors) +
                                " total_us=" + std::to_string(op.total_us)));
      }
    } else {
      EXPECT_TRUE(HasOnce(entries, path, std::to_string(value)));
    }
  });
  EXPECT_TRUE(ValuesDistinct(entries));
}

// -- JSON -------------------------------------------------------------------------

// Flattens the JSON subset the renderer writes (objects, arrays, strings,
// numbers) into "a.b.c" -> scalar text; array elements are numbered.
class JsonFlattener {
 public:
  explicit JsonFlattener(const std::string& text) : text_(text) {}

  bool Flatten(Entries* out) {
    out_ = out;
    Value("");
    Space();
    return ok_ && pos_ == text_.size();
  }

 private:
  void Space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    Space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  std::string String() {
    if (!Eat('"')) {
      ok_ = false;
      return "";
    }
    const size_t end = text_.find('"', pos_);
    std::string s = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return s;
  }
  std::string Join(const std::string& prefix, const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  }
  void Value(const std::string& path) {
    Space();
    if (!ok_ || pos_ >= text_.size()) {
      ok_ = false;
    } else if (Eat('{')) {
      if (Eat('}')) {
        return;
      }
      do {
        const std::string key = String();
        ok_ = ok_ && Eat(':');
        Value(Join(path, key));
      } while (ok_ && Eat(','));
      ok_ = ok_ && Eat('}');
    } else if (Eat('[')) {
      if (Eat(']')) {
        return;
      }
      int i = 0;
      do {
        Value(Join(path, std::to_string(i++)));
      } while (ok_ && Eat(','));
      ok_ = ok_ && Eat(']');
    } else if (text_[pos_] == '"') {
      out_->emplace(path, String());
    } else {
      const size_t end = text_.find_first_of(",}] \n", pos_);
      out_->emplace(path, text_.substr(pos_, end - pos_));
      pos_ = end;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
  Entries* out_ = nullptr;
};

Entries JsonEntries(const std::string& text) {
  Entries entries;
  EXPECT_TRUE(JsonFlattener(text).Flatten(&entries)) << text;
  return entries;
}

TEST(StatsSurfaceTest, JsonShowsEveryRowOnceWithItsValue) {
  const ServerStatsReply s = DistinctStatsReply();
  const Entries entries = JsonEntries(RenderStatsJson(s));
  EXPECT_TRUE(HasOnce(entries, "stats_version", std::to_string(kServerStatsVersion)));
  Entries values;
  ForEachStatField(s, [&](const StatRow& row, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if (row.show == StatShow::kNone) {
      return;
    }
    const std::string path = PathOf(row);
    if constexpr (std::is_same_v<T, Histogram>) {
      EXPECT_TRUE(HasOnce(entries, path + ".count", std::to_string(value.count)));
      EXPECT_TRUE(HasOnce(entries, path + ".sum", std::to_string(value.sum)));
      EXPECT_TRUE(HasOnce(entries, path + ".max", std::to_string(value.max)));
      EXPECT_TRUE(HasOnce(entries, path + ".p99", Fixed(value.Percentile(99))));
      values.emplace(path, std::to_string(value.sum));
    } else if constexpr (std::is_same_v<T, Opcodes>) {
      for (size_t i = 0; i < value.size(); ++i) {
        const std::string at = path + "." + std::to_string(i);
        EXPECT_TRUE(HasOnce(entries, at + ".opcode", OpName(value[i])));
        EXPECT_TRUE(HasOnce(entries, at + ".count", std::to_string(value[i].count)));
        EXPECT_TRUE(HasOnce(entries, at + ".errors", std::to_string(value[i].errors)));
        EXPECT_TRUE(HasOnce(entries, at + ".total_us", std::to_string(value[i].total_us)));
      }
    } else {
      EXPECT_TRUE(HasOnce(entries, path, std::to_string(value)));
      values.emplace(path, std::to_string(value));
    }
  });
  EXPECT_TRUE(ValuesDistinct(values));
}

// -- The one-line summary -----------------------------------------------------------

TEST(StatsSurfaceTest, BriefLineShowsEveryBriefRowOnce) {
  const ServerStatsReply s = DistinctStatsReply();
  const std::string line = RenderStatsLine(s);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  Entries entries;
  std::istringstream in(line);
  for (std::string pair; in >> pair;) {
    const size_t eq = pair.find('=');
    entries.emplace(pair.substr(0, eq), pair.substr(eq + 1));
  }
  size_t brief = 0;
  ForEachStatField(s, [&](const StatRow& row, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if (row.show != StatShow::kBrief) {
      EXPECT_EQ(entries.count(row.name) + entries.count(std::string(row.name) + "_p99"), 0u)
          << row.name;
      return;
    }
    ++brief;
    if constexpr (std::is_same_v<T, Histogram>) {
      char p99[32];
      std::snprintf(p99, sizeof(p99), "%.0f", value.Percentile(99));
      EXPECT_TRUE(HasOnce(entries, std::string(row.name) + "_p99", p99));
    } else if constexpr (!std::is_same_v<T, Opcodes>) {
      EXPECT_TRUE(HasOnce(entries, row.name, std::to_string(value)));
    }
  });
  EXPECT_EQ(entries.size(), brief);
}

// -- Retired rows and the names clients already use -----------------------------------

TEST(StatsSurfaceTest, RetiredRowsAppearOnNoSurface) {
  const ServerStatsReply s = DistinctStatsReply();
  std::set<std::string> retired;
  ForEachStatField(s, [&](const StatRow& row, const auto&) {
    if (row.show == StatShow::kNone) {
      retired.insert(row.name);
    }
  });
  EXPECT_EQ(retired, (std::set<std::string>{"engine_threads", "islands_per_tick",
                                            "worker_imbalance", "rate_limit_disconnects"}));
  for (const std::string& surface :
       {RenderPrometheusText(s), RenderStatsText(s), RenderStatsJson(s), RenderStatsLine(s),
        RenderFlightDumpText("test", s, {}, {})}) {
    for (const std::string& name : retired) {
      EXPECT_EQ(surface.find(name), std::string::npos) << name << " in:\n" << surface;
    }
  }
  // engine_threads = 83891085 in this reply; its value is nowhere either.
  EXPECT_EQ(RenderStatsText(s).find(std::to_string(s.engine_threads)), std::string::npos);
}

// Every Prometheus series and JSON key that existed before the surfaces
// were generated still exists, spelled the same and showing the same field.
TEST(StatsSurfaceTest, ExistingSeriesAndJsonKeysShowTheirFields) {
  const ServerStatsReply s = DistinctStatsReply();
  auto v = [](auto value) { return std::to_string(value); };
  const Entries prom = PromSamples(RenderPrometheusText(s));
  const std::pair<const char*, std::string> series[] = {
      {"aud_uptime_ms", v(s.uptime_ms)},
      {"aud_ticks_run_total", v(s.ticks_run)},
      {"aud_tick_overruns_total", v(s.tick_overruns)},
      {"aud_epoch_commits_total", v(s.epoch_commits)},
      {"aud_requests_total", v(s.requests_total)},
      {"aud_request_errors_total", v(s.request_errors_total)},
      {"aud_connections_total", v(s.connections_total)},
      {"aud_connections_open", v(s.connections_open)},
      {"aud_bytes_in_total", v(s.bytes_in)},
      {"aud_bytes_out_total", v(s.bytes_out)},
      {"aud_events_sent_total", v(s.events_sent)},
      {"aud_events_dropped_total", v(s.events_dropped)},
      {"aud_egress_disconnects_total", v(s.egress_disconnects)},
      {"aud_egress_queued_bytes", v(s.egress_queued_bytes)},
      {"aud_dispatch_shard_contention_total", v(s.dispatch_shard_contention)},
      {"aud_commands_enqueued_total", v(s.commands_enqueued)},
      {"aud_commands_done_total", v(s.commands_done)},
      {"aud_objects", v(s.objects)},
      {"aud_trace_spans_total", v(s.trace_spans)},
      {"aud_trace_requests_sampled_total", v(s.trace_requests_sampled)},
      {"aud_trace_sample_every", v(s.trace_sample_every)},
      {"aud_connection_loops", v(s.loops)},
      {"aud_fds_watched", v(s.fds_watched)},
      {"aud_epoll_waits_total", v(s.epoll_waits)},
      {"aud_loop_wakeups_total", v(s.wakeups)},
      {"aud_readiness_spurious_total", v(s.readiness_spurious)},
      {"aud_admission_rejects_total", v(s.admission_rejects)},
      {"aud_rate_limited_total", v(s.rate_limited)},
      {"aud_quota_denials_total", v(s.quota_denials)},
      {"aud_draining", v(s.draining)},
      {"aud_drain_forced_closes_total", v(s.drain_forced_closes)},
      {"aud_drain_duration_ms", v(s.drain_duration_ms)},
      {"aud_dispatch_us_count", v(s.dispatch_us.count)},
      {"aud_tick_us_count", v(s.tick_us.count)},
      {"aud_tick_jitter_us_count", v(s.tick_jitter_us.count)},
      {"aud_lock_wait_us_count", v(s.lock_wait_us.count)},
      {"aud_epoch_commit_us_count", v(s.epoch_commit_us.count)},
      {"aud_mouth_to_ear_us_count", v(s.mouth_to_ear_us.count)},
      {"aud_loop_dispatch_us_count", v(s.loop_dispatch_us.count)},
  };
  for (const auto& [name, value] : series) {
    EXPECT_TRUE(HasOnce(prom, name, value));
  }
  const Entries json = JsonEntries(RenderStatsJson(s));
  const std::pair<const char*, std::string> keys[] = {
      {"stats_version", v(s.stats_version)},
      {"uptime_ms", v(s.uptime_ms)},
      {"engine.rate_hz", v(s.engine_rate_hz)},
      {"engine.ticks_run", v(s.ticks_run)},
      {"engine.tick_overruns", v(s.tick_overruns)},
      {"histograms.tick_us.count", v(s.tick_us.count)},
      {"histograms.tick_jitter_us.count", v(s.tick_jitter_us.count)},
      {"histograms.dispatch_us.count", v(s.dispatch_us.count)},
      {"histograms.lock_wait_us.count", v(s.lock_wait_us.count)},
      {"histograms.epoch_commit_us.count", v(s.epoch_commit_us.count)},
      {"histograms.mouth_to_ear_us.count", v(s.mouth_to_ear_us.count)},
      {"histograms.loop_dispatch_us.count", v(s.loop_dispatch_us.count)},
      {"requests.total", v(s.requests_total)},
      {"requests.errors", v(s.request_errors_total)},
      {"opcodes.0.count", v(s.opcodes[0].count)},
      {"connections.open", v(s.connections_open)},
      {"connections.total", v(s.connections_total)},
      {"connections.bytes_in", v(s.bytes_in)},
      {"connections.bytes_out", v(s.bytes_out)},
      {"connections.events_sent", v(s.events_sent)},
      {"objects", v(s.objects)},
      {"active_louds", v(s.active_louds)},
      {"queues.enqueued", v(s.commands_enqueued)},
      {"queues.done", v(s.commands_done)},
      {"queues.aborted", v(s.commands_aborted)},
      {"queues.events", v(s.queue_events)},
      {"decoded_cache.hits", v(s.decoded_cache_hits)},
      {"decoded_cache.misses", v(s.decoded_cache_misses)},
      {"decoded_cache.bytes", v(s.decoded_cache_bytes)},
      {"decoded_cache.evictions", v(s.decoded_cache_evictions)},
      {"egress.events_dropped", v(s.events_dropped)},
      {"egress.disconnects", v(s.egress_disconnects)},
      {"egress.queued_bytes", v(s.egress_queued_bytes)},
      {"egress.accept_retries", v(s.accept_retries)},
      {"epoch.commits", v(s.epoch_commits)},
      {"epoch.shard_contention", v(s.dispatch_shard_contention)},
      {"tracing.spans", v(s.trace_spans)},
      {"tracing.requests_sampled", v(s.trace_requests_sampled)},
      {"tracing.sample_every", v(s.trace_sample_every)},
      {"loops.count", v(s.loops)},
      {"loops.fds_watched", v(s.fds_watched)},
      {"loops.epoll_waits", v(s.epoll_waits)},
      {"loops.wakeups", v(s.wakeups)},
      {"loops.readiness_spurious", v(s.readiness_spurious)},
      {"overload.admission_rejects", v(s.admission_rejects)},
      {"overload.rate_limited", v(s.rate_limited)},
      {"overload.quota_denials", v(s.quota_denials)},
      {"overload.draining", v(s.draining)},
      {"overload.drain_forced_closes", v(s.drain_forced_closes)},
      {"overload.drain_duration_ms", v(s.drain_duration_ms)},
  };
  for (const auto& [key, value] : keys) {
    EXPECT_TRUE(HasOnce(json, key, value));
  }
}

// -- The GetEntityStats table (audioctl top) -----------------------------------

TEST(StatsSurfaceTest, EntityTableListsHeaviestConnectionFirst) {
  EntityStatsReply reply;
  ConnectionStatsWire light;
  light.index = 1;
  light.name = "light";
  light.requests = 3;
  light.bytes_in = 10;
  light.bytes_out = 20;
  ConnectionStatsWire heavy;
  heavy.index = 2;
  heavy.requests = 40;
  heavy.errors = 1;
  heavy.bytes_in = 4000;
  heavy.bytes_out = 5000;
  heavy.events_sent = 7;
  heavy.events_dropped = 2;
  obs::LatencyHistogram dispatch;
  dispatch.Record(50);
  heavy.dispatch_us = dispatch.Snapshot();
  reply.connections = {light, heavy};
  reply.devices.push_back({.root = 0x10, .owner = 0xFFFFFFFFu, .active = 1,
                           .frames_produced = 160, .frames_consumed = 320});
  reply.devices.push_back({.root = 0x2001, .owner = 2, .active = 0,
                           .frames_produced = 0, .frames_consumed = 0});

  const std::string connections =
      "#    client             requests errors     bytes_in    bytes_out   events  dropped   disp_p99\n"
      "2    ?                        40      1         4000         5000        7        2        50us\n"
      "1    light                     3      0           10           20        0        0         0us\n";
  EXPECT_EQ(RenderEntityStatsTable(reply),
            connections +
                "\n"
                "root       owner      active      frames_prod    frames_cons\n"
                "0x10       server     yes                 160            320\n"
                "0x2001     #2         no                    0              0\n");
  // No device section without devices.
  reply.devices.clear();
  EXPECT_EQ(RenderEntityStatsTable(reply), connections);
  // A client name longer than a line is printed whole.
  const std::string long_name(300, 'n');
  reply.connections[0].name = long_name;
  EXPECT_NE(RenderEntityStatsTable(reply).find(long_name + std::string(10, ' ') + "3"),
            std::string::npos);
}

}  // namespace
}  // namespace aud
