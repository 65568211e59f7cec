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
//   top                      the stats line, then per-connection and
//                            per-device stats sorted by bytes (for a live
//                            view: watch -n1 audioctl top)
//
// Every subcommand is an ordinary Alib client; reading this file is the
// fastest tour of the client API.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "src/alib/alib.h"
#include "src/common/wav.h"
#include "src/dsp/encoding.h"
#include "src/toolkit/toolkit.h"
#include "src/wire/stats_render.h"

namespace {

using namespace aud;

int CmdInfo(AudioConnection& audio) {
  std::printf("server: %s\n", audio.server_name().c_str());
  if (auto stats = audio.GetServerStats(false); stats.ok()) {
    std::printf("stats: %s\n", RenderStatsLine(stats.value()).c_str());
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

int CmdStats(AudioConnection& audio, bool json) {
  auto stats = audio.GetServerStats(true);
  if (!stats.ok()) {
    std::fprintf(stderr, "GetServerStats failed: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::fputs((json ? RenderStatsJson(stats.value()) : RenderStatsText(stats.value())).c_str(),
             stdout);
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
  auto server = audio.GetServerStats(false);
  auto entities = audio.GetEntityStats(true);
  if (!server.ok() || !entities.ok()) {
    std::fprintf(stderr, "stats query failed: %s\n",
                 (server.ok() ? entities.status() : server.status()).ToString().c_str());
    return 1;
  }
  std::printf("%s\n\n", RenderStatsLine(server.value()).c_str());
  std::fputs(RenderEntityStatsTable(entities.value()).c_str(), stdout);
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
