// Shared scaffolding for the experiment binaries. Each bench reproduces one
// experiment from DESIGN.md's table and prints rows comparing the paper's
// stated goal with the measured value; EXPERIMENTS.md records the results.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>

#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/socket_stream.h"

namespace aud {

// An in-process server + one client, like the test fixture but bench-grade.
class BenchWorld {
 public:
  explicit BenchWorld(const BoardConfig& config = BoardConfig{},
                      ServerOptions options = ServerOptions{})
      : board_(config), server_(&board_, options) {
    client_ = Connect("bench");
    toolkit_ = std::make_unique<AudioToolkit>(client_.get());
    toolkit_->set_time_pump([this] { server_.StepFrames(160); });
  }

  ~BenchWorld() { server_.Shutdown(); }

  std::unique_ptr<AudioConnection> Connect(const std::string& name) {
    auto [client_end, server_end] = CreatePipePair();
    server_.AddConnection(std::move(server_end));
    return AudioConnection::Open(std::move(client_end), name);
  }

  Board& board() { return board_; }
  AudioServer& server() { return server_; }
  AudioConnection& client() { return *client_; }
  AudioToolkit& toolkit() { return *toolkit_; }

 private:
  Board board_;
  AudioServer server_;
  std::unique_ptr<AudioConnection> client_;
  std::unique_ptr<AudioToolkit> toolkit_;
};

inline void PrintHeader(const char* experiment, const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

// Flags every experiment binary accepts: --quick shrinks workloads for CI
// smoke lanes.
struct BenchFlags {
  bool quick = false;

  static BenchFlags Parse(int argc, char** argv) {
    BenchFlags flags;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--quick") {
        flags.quick = true;
      } else {
        std::fprintf(stderr, "unknown flag %s (supported: --quick)\n", arg.c_str());
      }
    }
    return flags;
  }
};

}  // namespace aud

#endif  // BENCH_BENCH_UTIL_H_
