// audioctl: command-line client for a running audiond.
//
//   audioctl [--host H] [--port N] <command> [args]
//
//   info                     server name, uptime, device LOUD, active stack
//   catalogue                list server-side sounds
//   play <name>              play a catalogue sound to the speaker
//   play-wav <file.wav>      upload a WAV file and play it
//   say <text...>            speak text through the synthesizer
//   record <seconds> <file>  record the microphone to a WAV file
//   beep                     play the catalogue beep
//   dial <number>            place a call and report progress
//   stats [--json]           server counters and latency histograms
//   trace [N]                newest N engine/dispatcher trace events
//   trace --request [ID]     spans of one traced request (default: newest)
//   top                      per-connection and per-device stats, sorted
//                            by bytes (see also audiotop for a live view)
//
// Every subcommand is an ordinary Alib client; reading this file is the
// fastest tour of the client API.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "src/alib/alib.h"
#include "src/common/wav.h"
#include "src/dsp/encoding.h"
#include "src/toolkit/toolkit.h"

namespace {

using namespace aud;

int CmdInfo(AudioConnection& audio) {
  std::printf("server: %s\n", audio.server_name().c_str());
  if (auto stats = audio.GetServerStats(false); stats.ok()) {
    const ServerStatsReply& s = stats.value();
    std::printf("protocol: %u.%u (stats v%u)\n", s.proto_major, s.proto_minor,
                s.stats_version);
    std::printf("uptime: %llu.%03llu s  engine: %u Hz  ticks: %llu\n",
                static_cast<unsigned long long>(s.uptime_ms / 1000),
                static_cast<unsigned long long>(s.uptime_ms % 1000), s.engine_rate_hz,
                static_cast<unsigned long long>(s.ticks_run));
  }
  auto devices = audio.QueryDeviceLoud();
  if (!devices.ok()) {
    return 1;
  }
  std::printf("device LOUD 0x%x:\n", devices.value().root);
  for (const auto& dev : devices.value().devices) {
    std::printf("  0x%x %-18s %-14s domain %u", dev.id,
                std::string(DeviceClassName(dev.device_class)).c_str(),
                dev.attrs.GetString(AttrTag::kName).value_or("?").c_str(),
                dev.attrs.GetU32(AttrTag::kAmbientDomain).value_or(0));
    if (auto number = dev.attrs.GetString(AttrTag::kPhoneNumber)) {
      std::printf("  number %s", number->c_str());
    }
    std::printf("\n");
  }
  for (const auto& wire : devices.value().hard_wires) {
    std::printf("  hard-wired: 0x%x -> 0x%x\n", wire.src_device, wire.dst_device);
  }
  auto stack = audio.QueryActiveStack();
  if (stack.ok()) {
    std::printf("active stack (%zu):\n", stack.value().entries.size());
    for (const auto& entry : stack.value().entries) {
      std::printf("  0x%x %s\n", entry.loud, entry.active != 0 ? "active" : "waiting");
    }
  }
  return 0;
}

int CmdCatalogue(AudioConnection& audio) {
  auto catalogue = audio.ListCatalogue();
  if (!catalogue.ok()) {
    return 1;
  }
  for (const auto& entry : catalogue.value().entries) {
    std::printf("%-28s %8llu bytes  %s @ %u Hz\n", entry.name.c_str(),
                static_cast<unsigned long long>(entry.size_bytes),
                std::string(EncodingName(entry.format.encoding)).c_str(),
                entry.format.sample_rate_hz);
  }
  return 0;
}

int PlaySound(AudioConnection& audio, ResourceId sound) {
  AudioToolkit toolkit(&audio);
  auto chain = toolkit.BuildPlaybackChain();
  if (!toolkit.PlayAndWait(chain, sound, 120000)) {
    std::fprintf(stderr, "playback failed\n");
    return 1;
  }
  return 0;
}

int CmdPlay(AudioConnection& audio, const std::string& name) {
  ResourceId sound = audio.LoadCatalogueSound(name);
  Status status = audio.Sync();
  AsyncError error;
  if (!status.ok() || audio.NextError(&error)) {
    std::fprintf(stderr, "no catalogue sound \"%s\"\n", name.c_str());
    return 1;
  }
  return PlaySound(audio, sound);
}

int CmdPlayWav(AudioConnection& audio, const std::string& path) {
  auto wav = ReadWavFile(path);
  if (!wav.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 wav.status().ToString().c_str());
    return 1;
  }
  AudioToolkit toolkit(&audio);
  ResourceId sound = toolkit.UploadSound(wav.value().samples,
                                         {Encoding::kPcm16, wav.value().sample_rate_hz});
  std::printf("uploaded %zu samples @ %u Hz\n", wav.value().samples.size(),
              wav.value().sample_rate_hz);
  return PlaySound(audio, sound);
}

int CmdSay(AudioConnection& audio, const std::string& text) {
  AudioToolkit toolkit(&audio);
  return toolkit.SayAndWait(text, 300000) ? 0 : 1;
}

int CmdRecord(AudioConnection& audio, int seconds, const std::string& path) {
  AudioToolkit toolkit(&audio);
  auto chain = toolkit.BuildRecordChain();
  ResourceId sound = audio.CreateSound({Encoding::kPcm16, 8000});
  audio.Enqueue(chain.loud,
                {RecordCommand(chain.recorder, sound, kTerminateOnStop,
                               static_cast<uint32_t>(seconds) * 1000, 1)});
  audio.StartQueue(chain.loud);
  if (!audio.Sync().ok()) {
    std::fprintf(stderr, "server connection lost\n");
    return 1;
  }
  std::printf("recording %d s...\n", seconds);
  if (!toolkit.WaitCommandDone(1, seconds * 1000 + 10000)) {
    std::fprintf(stderr, "recording did not finish\n");
    return 1;
  }
  auto pcm = toolkit.DownloadSound(sound);
  if (!pcm.ok()) {
    return 1;
  }
  if (!WriteWavFile(path, pcm.value(), 8000)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu samples to %s\n", pcm.value().size(), path.c_str());
  return 0;
}

int CmdDial(AudioConnection& audio, const std::string& number) {
  AudioToolkit toolkit(&audio);
  ResourceId loud = audio.CreateLoud(kNoResource, {});
  ResourceId telephone = audio.CreateDevice(loud, DeviceClass::kTelephone, {});
  audio.SelectEvents(loud, kTelephoneEvents | kQueueEvents);
  audio.MapLoud(loud);
  audio.Enqueue(loud, {DialCommand(telephone, number, 1)});
  audio.StartQueue(loud);
  if (!audio.Sync().ok()) {
    std::fprintf(stderr, "server connection lost\n");
    return 1;
  }
  std::printf("dialing %s...\n", number.c_str());
  auto done = toolkit.WaitFor(
      [](const EventMessage& e) {
        if (e.type == EventType::kCallProgress) {
          std::printf("  call progress: %s\n",
                      std::string(CallStateName(CallProgressArgs::Decode(e.args).state))
                          .c_str());
        }
        return e.type == EventType::kTelephoneDialDone;
      },
      60000);
  if (!done) {
    std::fprintf(stderr, "dial timed out\n");
    return 1;
  }
  CallState state = CallProgressArgs::Decode(done->args).state;
  std::printf("dial finished: %s\n", std::string(CallStateName(state)).c_str());
  audio.Immediate(loud, HangUpCommand(telephone));
  // Best-effort flush of the hang-up; the exit code reflects the call.
  (void)audio.Sync();
  return state == CallState::kConnected ? 0 : 1;
}

void PrintHistogramLine(const char* name, const obs::HistogramSnapshot& h) {
  if (h.empty()) {
    std::printf("  %-18s (no samples)\n", name);
    return;
  }
  std::printf("  %-18s n=%-8llu mean=%-8.1f p50=%-7.0f p95=%-7.0f p99=%-7.0f "
              "min=%llu max=%llu\n",
              name, static_cast<unsigned long long>(h.count), h.Mean(), h.Percentile(50),
              h.Percentile(95), h.Percentile(99), static_cast<unsigned long long>(h.min),
              static_cast<unsigned long long>(h.max));
}

void PrintHistogramJson(const char* name, const obs::HistogramSnapshot& h, bool last) {
  std::printf("    \"%s\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
              "\"max\": %llu, \"mean\": %.2f, \"p50\": %.1f, \"p95\": %.1f, "
              "\"p99\": %.1f}%s\n",
              name, static_cast<unsigned long long>(h.count),
              static_cast<unsigned long long>(h.sum),
              static_cast<unsigned long long>(h.min),
              static_cast<unsigned long long>(h.max), h.Mean(),
              h.empty() ? 0.0 : h.Percentile(50), h.empty() ? 0.0 : h.Percentile(95),
              h.empty() ? 0.0 : h.Percentile(99), last ? "" : ",");
}

int CmdStats(AudioConnection& audio, bool json) {
  auto stats = audio.GetServerStats(true);
  if (!stats.ok()) {
    std::fprintf(stderr, "GetServerStats failed: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  const ServerStatsReply& s = stats.value();

  if (json) {
    std::printf("{\n");
    std::printf("  \"stats_version\": %u,\n", s.stats_version);
    std::printf("  \"protocol\": \"%u.%u\",\n", s.proto_major, s.proto_minor);
    std::printf("  \"uptime_ms\": %llu,\n", static_cast<unsigned long long>(s.uptime_ms));
    std::printf("  \"engine\": {\"rate_hz\": %u, \"ticks_run\": %llu, "
                "\"tick_overruns\": %llu},\n",
                s.engine_rate_hz, static_cast<unsigned long long>(s.ticks_run),
                static_cast<unsigned long long>(s.tick_overruns));
    std::printf("  \"histograms\": {\n");
    PrintHistogramJson("tick_us", s.tick_us, false);
    PrintHistogramJson("tick_jitter_us", s.tick_jitter_us, false);
    PrintHistogramJson("dispatch_us", s.dispatch_us, false);
    PrintHistogramJson("lock_wait_us", s.lock_wait_us, false);
    PrintHistogramJson("epoch_commit_us", s.epoch_commit_us, false);
    PrintHistogramJson("mouth_to_ear_us", s.mouth_to_ear_us, false);
    PrintHistogramJson("loop_dispatch_us", s.loop_dispatch_us, true);
    std::printf("  },\n");
    std::printf("  \"requests\": {\"total\": %llu, \"errors\": %llu},\n",
                static_cast<unsigned long long>(s.requests_total),
                static_cast<unsigned long long>(s.request_errors_total));
    std::printf("  \"opcodes\": [\n");
    for (size_t i = 0; i < s.opcodes.size(); ++i) {
      const OpcodeStats& op = s.opcodes[i];
      std::printf("    {\"opcode\": \"%s\", \"count\": %llu, \"errors\": %llu, "
                  "\"total_us\": %llu}%s\n",
                  std::string(OpcodeName(static_cast<Opcode>(op.opcode))).c_str(),
                  static_cast<unsigned long long>(op.count),
                  static_cast<unsigned long long>(op.errors),
                  static_cast<unsigned long long>(op.total_us),
                  i + 1 < s.opcodes.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"connections\": {\"open\": %lld, \"total\": %llu, \"bytes_in\": %llu, "
                "\"bytes_out\": %llu, \"events_sent\": %llu},\n",
                static_cast<long long>(s.connections_open),
                static_cast<unsigned long long>(s.connections_total),
                static_cast<unsigned long long>(s.bytes_in),
                static_cast<unsigned long long>(s.bytes_out),
                static_cast<unsigned long long>(s.events_sent));
    std::printf("  \"objects\": %u,\n", s.objects);
    std::printf("  \"active_louds\": %u,\n", s.active_louds);
    std::printf("  \"queues\": {\"enqueued\": %llu, \"done\": %llu, \"aborted\": %llu, "
                "\"events\": %llu},\n",
                static_cast<unsigned long long>(s.commands_enqueued),
                static_cast<unsigned long long>(s.commands_done),
                static_cast<unsigned long long>(s.commands_aborted),
                static_cast<unsigned long long>(s.queue_events));
    std::printf("  \"decoded_cache\": {\"hits\": %llu, \"misses\": %llu, "
                "\"bytes\": %llu, \"evictions\": %llu},\n",
                static_cast<unsigned long long>(s.decoded_cache_hits),
                static_cast<unsigned long long>(s.decoded_cache_misses),
                static_cast<unsigned long long>(s.decoded_cache_bytes),
                static_cast<unsigned long long>(s.decoded_cache_evictions));
    std::printf("  \"egress\": {\"events_dropped\": %llu, \"disconnects\": %llu, "
                "\"queued_bytes\": %lld, \"accept_retries\": %llu},\n",
                static_cast<unsigned long long>(s.events_dropped),
                static_cast<unsigned long long>(s.egress_disconnects),
                static_cast<long long>(s.egress_queued_bytes),
                static_cast<unsigned long long>(s.accept_retries));
    std::printf("  \"epoch\": {\"commits\": %llu, \"shard_contention\": %llu},\n",
                static_cast<unsigned long long>(s.epoch_commits),
                static_cast<unsigned long long>(s.dispatch_shard_contention));
    std::printf("  \"tracing\": {\"spans\": %llu, \"requests_sampled\": %llu, "
                "\"sample_every\": %u},\n",
                static_cast<unsigned long long>(s.trace_spans),
                static_cast<unsigned long long>(s.trace_requests_sampled),
                s.trace_sample_every);
    std::printf("  \"loops\": {\"count\": %u, \"fds_watched\": %lld, "
                "\"epoll_waits\": %llu, \"wakeups\": %llu, "
                "\"readiness_spurious\": %llu},\n",
                s.loops, static_cast<long long>(s.fds_watched),
                static_cast<unsigned long long>(s.epoll_waits),
                static_cast<unsigned long long>(s.wakeups),
                static_cast<unsigned long long>(s.readiness_spurious));
    std::printf("  \"overload\": {\"admission_rejects\": %llu, "
                "\"rate_limited\": %llu, \"rate_limit_disconnects\": %llu, "
                "\"quota_denials\": %llu, \"draining\": %u, "
                "\"drain_forced_closes\": %llu, \"drain_duration_ms\": %llu}\n",
                static_cast<unsigned long long>(s.admission_rejects),
                static_cast<unsigned long long>(s.rate_limited),
                static_cast<unsigned long long>(s.rate_limit_disconnects),
                static_cast<unsigned long long>(s.quota_denials), s.draining,
                static_cast<unsigned long long>(s.drain_forced_closes),
                static_cast<unsigned long long>(s.drain_duration_ms));
    std::printf("}\n");
    return 0;
  }

  std::printf("protocol %u.%u, stats v%u, uptime %llu.%03llu s\n", s.proto_major,
              s.proto_minor, s.stats_version,
              static_cast<unsigned long long>(s.uptime_ms / 1000),
              static_cast<unsigned long long>(s.uptime_ms % 1000));
  std::printf("engine: %u Hz, %llu ticks, %llu overruns\n", s.engine_rate_hz,
              static_cast<unsigned long long>(s.ticks_run),
              static_cast<unsigned long long>(s.tick_overruns));
  PrintHistogramLine("tick us", s.tick_us);
  PrintHistogramLine("tick jitter us", s.tick_jitter_us);
  std::printf("requests: %llu total, %llu errors\n",
              static_cast<unsigned long long>(s.requests_total),
              static_cast<unsigned long long>(s.request_errors_total));
  PrintHistogramLine("dispatch us", s.dispatch_us);
  for (const OpcodeStats& op : s.opcodes) {
    std::printf("  %-22s %8llu req %6llu err %10llu us\n",
                std::string(OpcodeName(static_cast<Opcode>(op.opcode))).c_str(),
                static_cast<unsigned long long>(op.count),
                static_cast<unsigned long long>(op.errors),
                static_cast<unsigned long long>(op.total_us));
  }
  std::printf("connections: %lld open, %llu total; bytes in %llu out %llu; "
              "events sent %llu\n",
              static_cast<long long>(s.connections_open),
              static_cast<unsigned long long>(s.connections_total),
              static_cast<unsigned long long>(s.bytes_in),
              static_cast<unsigned long long>(s.bytes_out),
              static_cast<unsigned long long>(s.events_sent));
  std::printf("objects: %u (%u active LOUDs)\n", s.objects, s.active_louds);
  std::printf("queues: %llu enqueued, %llu done, %llu aborted, %llu events\n",
              static_cast<unsigned long long>(s.commands_enqueued),
              static_cast<unsigned long long>(s.commands_done),
              static_cast<unsigned long long>(s.commands_aborted),
              static_cast<unsigned long long>(s.queue_events));
  std::printf("decoded cache: %llu hits, %llu misses, %llu bytes resident, "
              "%llu evictions\n",
              static_cast<unsigned long long>(s.decoded_cache_hits),
              static_cast<unsigned long long>(s.decoded_cache_misses),
              static_cast<unsigned long long>(s.decoded_cache_bytes),
              static_cast<unsigned long long>(s.decoded_cache_evictions));
  std::printf("egress: %llu events dropped, %llu slow-client disconnects, "
              "%lld bytes queued; accept retries %llu\n",
              static_cast<unsigned long long>(s.events_dropped),
              static_cast<unsigned long long>(s.egress_disconnects),
              static_cast<long long>(s.egress_queued_bytes),
              static_cast<unsigned long long>(s.accept_retries));
  std::printf("epoch: %llu commits, %llu shard-lock contentions\n",
              static_cast<unsigned long long>(s.epoch_commits),
              static_cast<unsigned long long>(s.dispatch_shard_contention));
  PrintHistogramLine("lock wait us", s.lock_wait_us);
  PrintHistogramLine("epoch commit us", s.epoch_commit_us);
  if (s.trace_sample_every > 0) {
    std::printf("tracing: every %uth request; %llu requests sampled, %llu spans\n",
                s.trace_sample_every,
                static_cast<unsigned long long>(s.trace_requests_sampled),
                static_cast<unsigned long long>(s.trace_spans));
  } else {
    std::printf("tracing: off (start audiond with --trace-sample N)\n");
  }
  PrintHistogramLine("mouth-to-ear us", s.mouth_to_ear_us);
  std::printf("loops: %u event loop%s, %lld fds watched; %llu waits, "
              "%llu wakeups, %llu spurious\n",
              s.loops, s.loops == 1 ? "" : "s", static_cast<long long>(s.fds_watched),
              static_cast<unsigned long long>(s.epoll_waits),
              static_cast<unsigned long long>(s.wakeups),
              static_cast<unsigned long long>(s.readiness_spurious));
  PrintHistogramLine("loop dispatch us", s.loop_dispatch_us);
  std::printf("overload: %llu admission rejects, %llu rate-limited, "
              "%llu rate-limit disconnects, %llu quota denials\n",
              static_cast<unsigned long long>(s.admission_rejects),
              static_cast<unsigned long long>(s.rate_limited),
              static_cast<unsigned long long>(s.rate_limit_disconnects),
              static_cast<unsigned long long>(s.quota_denials));
  if (s.draining != 0 || s.drain_duration_ms != 0 || s.drain_forced_closes != 0) {
    std::printf("drain: %s, %llu forced closes, last drain %llu ms\n",
                s.draining != 0 ? "in progress" : "done",
                static_cast<unsigned long long>(s.drain_forced_closes),
                static_cast<unsigned long long>(s.drain_duration_ms));
  }
  return 0;
}

int CmdTrace(AudioConnection& audio, uint32_t max_events) {
  auto trace = audio.GetServerTrace(max_events);
  if (!trace.ok()) {
    std::fprintf(stderr, "GetServerTrace failed: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  for (const TraceEventWire& e : trace.value().events) {
    std::printf("%12lld us  t%-3u seq %-8llu %-16s arg0=%u arg1=%u\n",
                static_cast<long long>(e.t_us), e.tid,
                static_cast<unsigned long long>(e.seq),
                std::string(obs::TraceReasonName(static_cast<obs::TraceReason>(e.reason)))
                    .c_str(),
                e.arg0, e.arg1);
  }
  std::printf("%zu events\n", trace.value().events.size());
  return 0;
}

int CmdRequestTrace(AudioConnection& audio, uint64_t trace_id) {
  auto trace = audio.GetRequestTrace(trace_id);
  if (!trace.ok()) {
    std::fprintf(stderr, "GetRequestTrace failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  const RequestTraceReply& reply = trace.value();
  if (reply.spans.empty()) {
    std::printf("no spans for trace 0x%llx (tracing off, or the request was "
                "not sampled / already aged out of the ring)\n",
                static_cast<unsigned long long>(reply.trace_id));
    return 1;
  }
  // trace id = (id-block base << 32) | sequence; the id base for client
  // index i is (i + 1) << 20, so the connection index falls out directly.
  const uint64_t id_base = reply.trace_id >> 32;
  std::printf("trace 0x%llx: client #%llu sequence %llu, %zu spans\n",
              static_cast<unsigned long long>(reply.trace_id),
              static_cast<unsigned long long>((id_base >> 20) - 1),
              static_cast<unsigned long long>(reply.trace_id & 0xFFFFFFFFull),
              reply.spans.size());
  // Indent children under their parent (spans arrive in timestamp order,
  // so a parent that *starts* earlier has already been assigned a depth —
  // except the backdated root, which always has parent 0).
  std::map<uint64_t, int> depth;
  const int64_t t0 = reply.spans.front().t_us;
  for (const TraceEventWire& e : reply.spans) {
    int d = 0;
    if (e.parent != 0) {
      auto it = depth.find(e.parent);
      d = it != depth.end() ? it->second + 1 : 1;
    }
    depth[e.seq] = d;
    std::printf("  +%-8lld %*s%-16s dur=%-7u us  arg0=%u arg1=%u  (seq %llu%s)\n",
                static_cast<long long>(e.t_us - t0), d * 2, "",
                std::string(obs::TraceReasonName(static_cast<obs::TraceReason>(e.reason)))
                    .c_str(),
                e.dur_us, e.arg0, e.arg1, static_cast<unsigned long long>(e.seq),
                e.parent != 0
                    ? (" parent " + std::to_string(e.parent)).c_str()
                    : "");
  }
  return 0;
}

int CmdTop(AudioConnection& audio) {
  auto stats = audio.GetEntityStats(true);
  if (!stats.ok()) {
    std::fprintf(stderr, "GetEntityStats failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  EntityStatsReply reply = stats.value();
  std::sort(reply.connections.begin(), reply.connections.end(),
            [](const ConnectionStatsWire& a, const ConnectionStatsWire& b) {
              return a.bytes_in + a.bytes_out > b.bytes_in + b.bytes_out;
            });
  std::printf("%-4s %-16s %10s %6s %12s %12s %8s %8s %10s\n", "#", "client", "requests",
              "errors", "bytes_in", "bytes_out", "events", "dropped", "disp_p99");
  for (const ConnectionStatsWire& c : reply.connections) {
    std::printf("%-4u %-16s %10llu %6llu %12llu %12llu %8llu %8llu %9.0fus\n", c.index,
                c.name.empty() ? "?" : c.name.c_str(),
                static_cast<unsigned long long>(c.requests),
                static_cast<unsigned long long>(c.errors),
                static_cast<unsigned long long>(c.bytes_in),
                static_cast<unsigned long long>(c.bytes_out),
                static_cast<unsigned long long>(c.events_sent),
                static_cast<unsigned long long>(c.events_dropped),
                c.dispatch_us.empty() ? 0.0 : c.dispatch_us.Percentile(99));
  }
  if (!reply.devices.empty()) {
    std::printf("\n%-10s %-10s %-8s %14s %14s\n", "root", "owner", "active",
                "frames_prod", "frames_cons");
    for (const DeviceStatsWire& d : reply.devices) {
      char owner[16];
      if (d.owner == 0xFFFFFFFFu) {
        std::snprintf(owner, sizeof(owner), "server");
      } else {
        std::snprintf(owner, sizeof(owner), "#%u", d.owner);
      }
      std::printf("0x%-8x %-10s %-8s %14llu %14llu\n", d.root, owner,
                  d.active != 0 ? "yes" : "no",
                  static_cast<unsigned long long>(d.frames_produced),
                  static_cast<unsigned long long>(d.frames_consumed));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7800;
  int arg = 1;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    std::string flag = argv[arg];
    if (flag == "--host" && arg + 1 < argc) {
      host = argv[++arg];
    } else if (flag == "--port" && arg + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++arg]));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 1;
    }
    ++arg;
  }
  if (arg >= argc) {
    std::fprintf(stderr,
                 "usage: audioctl [--host H] [--port N] "
                 "info|catalogue|play|play-wav|say|record|beep|dial|stats|trace|top ...\n");
    return 1;
  }

  auto audio = AudioConnection::OpenTcp(host, port, "audioctl");
  if (audio == nullptr) {
    std::fprintf(stderr, "audioctl: cannot connect to %s:%u (is audiond running?)\n",
                 host.c_str(), port);
    return 1;
  }

  std::string command = argv[arg++];
  auto rest = [&]() {
    std::string joined;
    for (; arg < argc; ++arg) {
      if (!joined.empty()) {
        joined += ' ';
      }
      joined += argv[arg];
    }
    return joined;
  };

  if (command == "info") {
    return CmdInfo(*audio);
  }
  if (command == "catalogue") {
    return CmdCatalogue(*audio);
  }
  if (command == "play" && arg < argc) {
    return CmdPlay(*audio, argv[arg]);
  }
  if (command == "play-wav" && arg < argc) {
    return CmdPlayWav(*audio, argv[arg]);
  }
  if (command == "say" && arg < argc) {
    return CmdSay(*audio, rest());
  }
  if (command == "record" && arg + 1 < argc) {
    int seconds = std::atoi(argv[arg]);
    return CmdRecord(*audio, seconds, argv[arg + 1]);
  }
  if (command == "beep") {
    return CmdPlay(*audio, "beep");
  }
  if (command == "dial" && arg < argc) {
    return CmdDial(*audio, argv[arg]);
  }
  if (command == "stats") {
    bool json = arg < argc && std::string(argv[arg]) == "--json";
    return CmdStats(*audio, json);
  }
  if (command == "trace") {
    if (arg < argc && std::string(argv[arg]) == "--request") {
      ++arg;
      // Accepts 0x-hex or decimal; no argument = most recently sampled.
      uint64_t trace_id =
          arg < argc ? std::strtoull(argv[arg], nullptr, 0) : 0;
      return CmdRequestTrace(*audio, trace_id);
    }
    uint32_t max_events = arg < argc ? static_cast<uint32_t>(std::atoi(argv[arg])) : 0;
    return CmdTrace(*audio, max_events);
  }
  if (command == "top") {
    return CmdTop(*audio);
  }
  std::fprintf(stderr, "audioctl: bad command or missing argument\n");
  return 1;
}
