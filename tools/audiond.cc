// audiond: the audio server daemon. Owns the (simulated) workstation audio
// board and serves the audio protocol over TCP, the way each workstation
// runs one controlling server (section 4.1).
//
// Usage:
//   audiond [--port N] [--speakers N] [--microphones N] [--lines N]
//           [--speakerphone]
//           [--wav-out FILE] [--stats-interval-ms N] [--trace-sample N]
//           [--metrics-port N] [--flight-dump FILE] [--verbose]
//
// --wav-out streams everything played on speaker0 into a WAV file so the
// simulated output is audible with ordinary tooling.
// --stats-interval-ms logs a one-line stats summary (ticks, tick p99,
// requests, connections) every N milliseconds.
// --trace-sample N samples every Nth request per connection for
// request-scoped tracing (GetRequestTrace / audioctl trace --request).
// --metrics-port serves Prometheus text at GET /metrics.
// --flight-dump names the flight-recorder output file (default
// audiond.flight); SIGUSR2 writes a dump on demand, and fatal signals
// (SIGSEGV & co.) write the last snapshot before the process dies.
//
// Overload protection (DESIGN.md decision 15): --max-connections caps
// accepted clients; --limit-rps/--limit-bps rate-limit each connection
// (an over-rate request is answered with RateLimited);
// --quota-devices/--quota-sound-bytes/--quota-plays bound what one client
// may hold. SIGTERM triggers a graceful drain bounded by --drain-ms
// (SIGINT remains the immediate stop).
//
// A numeric flag's value must be a whole number within the flag's range;
// anything else prints the usage line and exits 1.

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "src/dsp/encoding.h"

#include "src/common/logging.h"
#include "src/common/wav.h"
#include "src/hw/board.h"
#include "src/server/flight_recorder.h"
#include "src/server/server.h"
#include "src/wire/stats_render.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_dump = 0;

void HandleSignal(int) { g_stop = 1; }
// SIGTERM asks for a graceful drain (answer in-flight work, flush egress,
// hang up phone lines); SIGINT keeps the immediate hard stop.
void HandleDrainSignal(int) { g_drain = 1; }
void HandleDumpSignal(int) { g_dump = 1; }

void PrintUsage() {
  std::fprintf(stderr,
               "usage: audiond [--port N] [--speakers N] [--microphones N] "
               "[--lines N] [--speakerphone] "
               "[--wav-out FILE] [--catalogue DIR] [--stats-interval-ms N] "
               "[--trace-sample N] [--metrics-port N] [--flight-dump FILE] "
               "[--egress-buffer-bytes N] "
               "[--max-connections N] [--limit-rps N] [--limit-rps-burst N] "
               "[--limit-bps N] [--limit-bps-burst N] "
               "[--quota-devices N] [--quota-sound-bytes N] [--quota-plays N] "
               "[--drain-ms N] [--fault SPEC] [--verbose]\n");
}

// Parses all of `text` as a whole number within T's range and no less
// than `lo`. False, leaving `*out` as it was, for anything else: an empty
// string, a sign T cannot hold, trailing characters, or a value out of
// range.
template <typename T>
bool ParseNumber(const char* text, T* out, T lo = 0) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo) {
    return false;
  }
  *out = value;
  return true;
}

// Minimal HTTP/1.x responder for the metrics endpoint: one request per
// connection, GET /metrics only. Reuses the server's own socket transport.
void ServeMetricsClient(aud::ByteStream* stream, aud::AudioServer* server) {
  using namespace aud;
  // Read until the header terminator (or the peer stops sending).
  std::string request;
  uint8_t buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos && request.size() < 16384) {
    size_t n = stream->Read(std::span<uint8_t>(buf, sizeof(buf)));
    if (n == 0) {
      break;
    }
    request.append(reinterpret_cast<const char*>(buf), n);
  }
  std::string body;
  std::string status = "200 OK";
  std::string content_type = "text/plain; version=0.0.4";
  if (request.rfind("GET /metrics", 0) == 0) {
    ServerStatsReply stats;
    {
      MutexLock lock(&server->mutex());
      stats = server->state().BuildServerStats(true);
    }
    body = RenderPrometheusText(stats);
  } else {
    status = "404 Not Found";
    body = "only GET /metrics is served\n";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  stream->Write(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(response.data()), response.size()));
  stream->Close();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aud;
  // Line-buffered even into a pipe or file: a driver reads the banner
  // (with the port that --port 0 picked) while the daemon runs.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  uint16_t port = 7800;
  uint16_t metrics_port = 0;
  BoardConfig config;
  ServerOptions options;
  std::string wav_out;
  std::string catalogue_dir;
  std::string flight_dump = "audiond.flight";
  int stats_interval_ms = 0;
  int drain_ms = 5000;  // SIGTERM graceful-drain deadline
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // The flag's value, or "" when the flag ends the command line.
    auto next = [&] { return i + 1 < argc ? argv[++i] : ""; };
    bool ok = true;
    if (arg == "--port") {
      ok = ParseNumber(next(), &port);
    } else if (arg == "--speakers") {
      ok = ParseNumber(next(), &config.speakers);
    } else if (arg == "--microphones") {
      ok = ParseNumber(next(), &config.microphones);
    } else if (arg == "--lines") {
      ok = ParseNumber(next(), &config.phone_lines);
    } else if (arg == "--speakerphone") {
      config.speakerphone = true;
    } else if (arg == "--wav-out") {
      wav_out = next();
    } else if (arg == "--catalogue") {
      catalogue_dir = next();
    } else if (arg == "--stats-interval-ms") {
      ok = ParseNumber(next(), &stats_interval_ms);
    } else if (arg == "--trace-sample") {
      ok = ParseNumber(next(), &options.trace_sample_every);
    } else if (arg == "--metrics-port") {
      ok = ParseNumber(next(), &metrics_port);
    } else if (arg == "--flight-dump") {
      if (i + 1 < argc) {
        flight_dump = argv[++i];
      }
    } else if (arg == "--egress-buffer-bytes") {
      ok = ParseNumber(next(), &options.egress_buffer_bytes, size_t{1});
    } else if (arg == "--fault") {
      // Seeded transport fault injection on every accepted connection
      // (chaos testing): "seed=7,short_read=0.3,reset_write=0.01,...".
      options.fault = ParseFaultSpec(next());
    } else if (arg == "--max-connections") {
      ok = ParseNumber(next(), &options.max_connections);
    } else if (arg == "--limit-rps") {
      ok = ParseNumber(next(), &options.limit_rps);
    } else if (arg == "--limit-rps-burst") {
      ok = ParseNumber(next(), &options.limit_rps_burst);
    } else if (arg == "--limit-bps") {
      ok = ParseNumber(next(), &options.limit_bps);
    } else if (arg == "--limit-bps-burst") {
      ok = ParseNumber(next(), &options.limit_bps_burst);
    } else if (arg == "--quota-devices") {
      ok = ParseNumber(next(), &options.quota_devices);
    } else if (arg == "--quota-sound-bytes") {
      ok = ParseNumber(next(), &options.quota_sound_bytes);
    } else if (arg == "--quota-plays") {
      ok = ParseNumber(next(), &options.quota_plays);
    } else if (arg == "--drain-ms") {
      ok = ParseNumber(next(), &drain_ms);
    } else if (arg == "--verbose") {
      SetLogLevel(LogLevel::kDebug);
    } else {
      PrintUsage();
      return arg == "--help" ? 0 : 1;
    }
    if (!ok) {
      std::fprintf(stderr, "audiond: %s wants a whole number in its range\n", arg.c_str());
      PrintUsage();
      return 1;
    }
  }
  if (stats_interval_ms > 0 && GetLogLevel() > LogLevel::kInfo) {
    SetLogLevel(LogLevel::kInfo);  // the periodic stats line logs at Info
  }

  Board board(config);
  AudioServer server(&board, options);

  // Seed the server catalogue with WAV files from --catalogue DIR; each
  // file becomes a named sound ("greeting.wav" -> "greeting").
  if (!catalogue_dir.empty()) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(catalogue_dir, ec)) {
      if (entry.path().extension() != ".wav") {
        continue;
      }
      auto wav = ReadWavFile(entry.path().string());
      if (!wav.ok()) {
        std::fprintf(stderr, "audiond: skipping %s: %s\n", entry.path().c_str(),
                     wav.status().ToString().c_str());
        continue;
      }
      CatalogueSound sound;
      sound.format = {Encoding::kPcm16, wav.value().sample_rate_hz};
      StreamEncoder encoder(Encoding::kPcm16);
      encoder.Encode(wav.value().samples, &sound.data);
      std::string name = entry.path().stem().string();
      MutexLock lock(&server.mutex());
      server.state().catalogue()[name] = std::move(sound);
      std::printf("audiond: catalogue += \"%s\" (%zu samples @ %u Hz)\n", name.c_str(),
                  wav.value().samples.size(), wav.value().sample_rate_hz);
    }
    if (ec) {
      std::fprintf(stderr, "audiond: cannot read catalogue dir %s\n",
                   catalogue_dir.c_str());
    }
  }

  std::vector<Sample> wav_capture;
  if (!wav_out.empty()) {
    board.speakers()[0]->set_sink([&wav_capture](std::span<const Sample> block) {
      wav_capture.insert(wav_capture.end(), block.begin(), block.end());
    });
  }

  if (!server.ListenTcp(port)) {
    std::fprintf(stderr, "audiond: cannot listen on port %u\n", port);
    return 1;
  }
  server.StartRealtime();
  std::printf("audiond: serving \"netaudio\" on 127.0.0.1:%u\n", server.tcp_port());
  std::printf("audiond: board: %d speaker(s), %d microphone(s), %d line(s)%s\n",
              config.speakers, config.microphones, config.phone_lines,
              config.speakerphone ? " + speakerphone" : "");
  std::printf("audiond: connections: %zu event loop(s)\n", server.connection_loops());
  if (options.trace_sample_every > 0) {
    std::printf("audiond: tracing every %uth request per connection\n",
                options.trace_sample_every);
  }

  // Flight recorder: pre-render a first snapshot, then refresh in the main
  // loop so a fatal signal always has something recent to write.
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.set_dump_path(flight_dump);
  recorder.InstallFatalHandlers();

  // Metrics endpoint: Prometheus text over a one-request-per-connection
  // HTTP responder, reusing the server's socket transport.
  SocketListener metrics_listener;
  std::thread metrics_thread;
  if (metrics_port != 0) {
    if (!metrics_listener.Listen(metrics_port)) {
      std::fprintf(stderr, "audiond: cannot listen on metrics port %u\n", metrics_port);
      return 1;
    }
    metrics_thread = std::thread([&metrics_listener, &server] {
      while (true) {
        std::unique_ptr<ByteStream> stream = metrics_listener.Accept();
        if (stream == nullptr) {
          return;  // listener closed: shutting down
        }
        ServeMetricsClient(stream.get(), &server);
      }
    });
    std::printf("audiond: metrics on http://127.0.0.1:%u/metrics\n",
                metrics_listener.port());
  }
  for (PhoneLineUnit* line : board.phone_lines()) {
    std::printf("audiond: line %s is %s\n", line->name().c_str(),
                line->line()->number().c_str());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGUSR2, HandleDumpSignal);
  auto next_stats = std::chrono::steady_clock::now();
  auto next_snapshot = std::chrono::steady_clock::now();
  while (g_stop == 0 && g_drain == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Refresh the flight-recorder snapshot about once a second (and right
    // before an on-demand dump), so a crash dump is at most ~1 s stale.
    if (g_dump != 0 || std::chrono::steady_clock::now() >= next_snapshot) {
      next_snapshot = std::chrono::steady_clock::now() + std::chrono::seconds(1);
      ServerStatsReply stats;
      {
        MutexLock lock(&server.mutex());
        stats = server.state().BuildServerStats(false);
      }
      // The newest 1024 trace events: enough to see the last moments, and the
      // rendered dump stays well inside the recorder's 256 KB buffer (so its
      // end marker is never cut off).
      std::vector<TraceEventWire> trace;
      for (const obs::TraceEvent& e : obs::TraceRegistry::Instance().Snapshot(1024)) {
        TraceEventWire wire;
        wire.t_us = e.t_us;
        wire.seq = e.seq;
        wire.tid = e.tid;
        wire.reason = static_cast<uint16_t>(e.reason);
        wire.arg0 = e.arg0;
        wire.arg1 = e.arg1;
        wire.trace = e.trace;
        wire.parent = e.parent;
        wire.dur_us = e.dur_us;
        trace.push_back(wire);
      }
      recorder.SetSnapshot(RenderFlightDumpText(g_dump != 0 ? "SIGUSR2" : "periodic",
                                                stats, trace, RecentLogLines()));
      if (g_dump != 0) {
        g_dump = 0;
        if (recorder.WriteDump()) {
          std::printf("audiond: flight dump written to %s\n",
                      recorder.dump_path().c_str());
        }
      }
    }
    if (stats_interval_ms > 0 && std::chrono::steady_clock::now() >= next_stats) {
      next_stats = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(stats_interval_ms);
      ServerStatsReply stats;
      {
        MutexLock lock(&server.mutex());
        stats = server.state().BuildServerStats(false);
      }
      LogMessage(LogLevel::kInfo, "stats: " + RenderStatsLine(stats));
    }
  }

  if (g_drain != 0) {
    // SIGTERM: graceful drain — stop accepting, answer in-flight requests,
    // flush egress under the deadline, hang up any off-hook lines.
    std::printf("\naudiond: draining (deadline %d ms)\n", drain_ms);
    const bool flushed = server.Drain(std::chrono::milliseconds(drain_ms));
    std::printf("audiond: drain %s\n",
                flushed ? "complete" : "deadline expired (forced closes)");
  } else {
    std::printf("\naudiond: shutting down\n");
  }
  if (metrics_thread.joinable()) {
    metrics_listener.Close();
    metrics_thread.join();
  }
  server.Shutdown();
  if (g_drain != 0) {
    // Final flight-recorder dump: the drain's closing stats, written where
    // a post-mortem would look first.
    ServerStatsReply stats;
    {
      MutexLock lock(&server.mutex());
      stats = server.state().BuildServerStats(false);
    }
    recorder.SetSnapshot(
        RenderFlightDumpText("SIGTERM drain", stats, {}, RecentLogLines()));
    if (recorder.WriteDump()) {
      std::printf("audiond: flight dump written to %s\n",
                  recorder.dump_path().c_str());
    }
  }
  if (!wav_out.empty() && !wav_capture.empty()) {
    if (WriteWavFile(wav_out, wav_capture, board.sample_rate_hz())) {
      std::printf("audiond: wrote %zu samples to %s\n", wav_capture.size(),
                  wav_out.c_str());
    }
  }
  return 0;
}
