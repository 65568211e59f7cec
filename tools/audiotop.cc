// audiotop: a live top(1)-style view of a running audiond, built on the
// GetEntityStats / GetServerStats opcodes. Redraws every --interval-ms
// (default 1000); per-connection rows are sorted by total bytes moved, so
// the heaviest client is always the first row.
//
//   audiotop [--host H] [--port N] [--interval-ms N] [--once]
//
// --once prints a single frame without clearing the screen (script-friendly;
// CI uses it as a smoke test).

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
  if (clear) {
    std::printf("\033[H\033[2J");  // cursor home + clear screen
  }
  std::printf("%s\n\n", RenderStatsLine(server.value()).c_str());

  std::fputs(RenderEntityStatsTable(entities.value()).c_str(), stdout);
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
