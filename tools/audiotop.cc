// audiotop: a live top(1)-style view of a running audiond, built on the
// GetEntityStats / GetServerStats opcodes. Redraws every --interval-ms
// (default 1000); per-connection rows are sorted by total bytes moved, so
// the heaviest client is always the first row.
//
//   audiotop [--host H] [--port N] [--interval-ms N] [--once]
//
// --once prints a single frame without clearing the screen (script-friendly;
// CI uses it as a smoke test).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "src/alib/alib.h"
#include "src/wire/stats_render.h"

namespace {

using namespace aud;

void PrintFrame(AudioConnection& audio, bool clear) {
  auto server = audio.GetServerStats(false);
  auto entities = audio.GetEntityStats(true);
  if (!server.ok() || !entities.ok()) {
    std::fprintf(stderr, "audiotop: stats query failed (server gone?)\n");
    return;
  }
  EntityStatsReply e = entities.value();
  std::sort(e.connections.begin(), e.connections.end(),
            [](const ConnectionStatsWire& a, const ConnectionStatsWire& b) {
              return a.bytes_in + a.bytes_out > b.bytes_in + b.bytes_out;
            });

  if (clear) {
    std::printf("\033[H\033[2J");  // cursor home + clear screen
  }
  std::printf("%s\n\n", RenderStatsLine(server.value()).c_str());

  std::printf("%-4s %-16s %10s %6s %12s %12s %8s %8s %10s\n", "#", "client", "requests",
              "errors", "bytes_in", "bytes_out", "events", "dropped", "disp_p99");
  for (const ConnectionStatsWire& c : e.connections) {
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
  if (!e.devices.empty()) {
    std::printf("\n%-10s %-10s %-8s %14s %14s\n", "root", "owner", "active",
                "frames_prod", "frames_cons");
    for (const DeviceStatsWire& d : e.devices) {
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
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7800;
  int interval_ms = 1000;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (flag == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (flag == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
      if (interval_ms < 100) {
        interval_ms = 100;
      }
    } else if (flag == "--once") {
      once = true;
    } else {
      std::fprintf(stderr,
                   "usage: audiotop [--host H] [--port N] [--interval-ms N] [--once]\n");
      return flag == "--help" ? 0 : 1;
    }
  }

  auto audio = AudioConnection::OpenTcp(host, port, "audiotop");
  if (audio == nullptr) {
    std::fprintf(stderr, "audiotop: cannot connect to %s:%u (is audiond running?)\n",
                 host.c_str(), port);
    return 1;
  }

  if (once) {
    PrintFrame(*audio, false);
    return 0;
  }
  while (audio->connected()) {
    PrintFrame(*audio, true);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}
