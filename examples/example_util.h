// Shared scaffolding for the example programs: an in-process server over a
// simulated board with a connected client, driven in accelerated virtual
// time (pass --realtime to pace the engine against the wall clock).

#ifndef EXAMPLES_EXAMPLE_UTIL_H_
#define EXAMPLES_EXAMPLE_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>

#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/socket_stream.h"

namespace aud {

class ExampleWorld {
 public:
  ExampleWorld(const std::string& client_name, const BoardConfig& config, int argc,
               char** argv)
      : board_(config), server_(&board_) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--realtime") {
        realtime_ = true;
      }
    }
    auto [client_end, server_end] = CreatePipePair();
    server_.AddConnection(std::move(server_end));
    client_ = AudioConnection::Open(std::move(client_end), client_name);
    toolkit_ = std::make_unique<AudioToolkit>(client_.get());
    if (realtime_) {
      server_.StartRealtime();
    } else {
      toolkit_->set_time_pump([this] { server_.StepFrames(160); });
    }
  }

  ~ExampleWorld() { server_.Shutdown(); }

  Board& board() { return board_; }
  AudioServer& server() { return server_; }
  AudioConnection& client() { return *client_; }
  AudioToolkit& toolkit() { return *toolkit_; }
  bool realtime() const { return realtime_; }

 private:
  Board board_;
  AudioServer server_;
  std::unique_ptr<AudioConnection> client_;
  std::unique_ptr<AudioToolkit> toolkit_;
  bool realtime_ = false;
};

}  // namespace aud

#endif  // EXAMPLES_EXAMPLE_UTIL_H_
