// Shared test fixture: an in-process server over a simulated board with
// manually stepped (virtual) time, plus one connected Alib client and a
// toolkit whose time pump steps the engine.

#ifndef TESTS_SERVER_FIXTURE_H_
#define TESTS_SERVER_FIXTURE_H_

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/alib/alib.h"
#include "src/dsp/tone.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/socket_stream.h"

namespace aud {

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override { Init(BoardConfig{}); }

  void Init(const BoardConfig& config) { Init(config, ServerOptions{}); }

  void Init(const BoardConfig& config, const ServerOptions& options) {
    // Re-Init (tests that need custom options/boards): tear the old world
    // down in dependency order before the board goes away.
    toolkit_.reset();
    client_.reset();
    extra_clients_.clear();
    if (server_ != nullptr) {
      server_->Shutdown();
      server_.reset();
    }
    board_ = std::make_unique<Board>(config);
    server_ = std::make_unique<AudioServer>(board_.get(), options);
    client_ = Connect("test-client");
    ASSERT_NE(client_, nullptr);
    toolkit_ = std::make_unique<AudioToolkit>(client_.get());
    toolkit_->set_time_pump([this] { server_->StepFrames(160); });
  }

  void TearDown() override {
    toolkit_.reset();
    client_.reset();
    extra_clients_.clear();
    if (server_ != nullptr) {
      server_->Shutdown();
    }
  }

  // Opens an additional client connection.
  std::unique_ptr<AudioConnection> Connect(const std::string& name) {
    auto [client_end, server_end] = CreatePipePair();
    server_->AddConnection(std::move(server_end));
    return AudioConnection::Open(std::move(client_end), name);
  }

  // Steps engine time by `ms` of audio.
  void StepMs(int64_t ms) {
    server_->StepFrames(ms * board_->sample_rate_hz() / 1000);
  }

  // Round-trips the client so all prior requests are processed.
  void Flush() { ASSERT_TRUE(client_->Sync().ok()); }

  // Expects that no asynchronous errors are pending (after a Sync).
  void ExpectNoErrors() {
    ASSERT_TRUE(client_->Sync().ok());
    AsyncError error;
    while (client_->NextError(&error)) {
      ADD_FAILURE() << "unexpected protocol error: " << ErrorCodeName(error.error.code)
                    << " (" << error.error.detail << ") on request seq " << error.sequence
                    << " opcode " << error.error.opcode;
    }
  }

  // Expects exactly one pending error with `code` (drains it).
  void ExpectError(ErrorCode code) {
    ASSERT_TRUE(client_->Sync().ok());
    AsyncError error;
    ASSERT_TRUE(client_->NextError(&error)) << "expected error " << ErrorCodeName(code);
    EXPECT_EQ(error.error.code, code) << error.error.detail;
    while (client_->NextError(&error)) {
    }
  }

  // A second's worth of 440 Hz test tone at the board rate.
  std::vector<Sample> TestTone(int ms = 500, double freq = 440.0) {
    std::vector<Sample> tone;
    SineOscillator osc(freq, board_->sample_rate_hz(), 0.5);
    osc.Generate(static_cast<size_t>(board_->sample_rate_hz()) * ms / 1000, &tone);
    return tone;
  }

  std::unique_ptr<Board> board_;
  std::unique_ptr<AudioServer> server_;
  std::unique_ptr<AudioConnection> client_;
  std::unique_ptr<AudioToolkit> toolkit_;
  std::vector<std::unique_ptr<AudioConnection>> extra_clients_;
};

// RMS helper for asserting audible output.
inline double Rms(std::span<const Sample> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (Sample s : samples) {
    double x = s / 32768.0;
    acc += x * x;
  }
  return std::sqrt(acc / static_cast<double>(samples.size()));
}

// FNV-1a 64 over the little-endian bytes of a capture: pins recorded
// speaker output to a golden value without committing the samples.
inline uint64_t CaptureHash(std::span<const Sample> samples) {
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t hash = 14695981039346656037ull;
  for (Sample s : samples) {
    const auto bits = static_cast<uint16_t>(s);
    hash = (hash ^ (bits & 0xffu)) * kPrime;
    hash = (hash ^ (bits >> 8)) * kPrime;
  }
  return hash;
}

}  // namespace aud

#endif  // TESTS_SERVER_FIXTURE_H_
