// FaultStream: a deterministic fault-injecting decorator over any
// ByteStream. Chaos and soak tests wrap the server's accepted streams
// (ServerOptions::fault, audiond --fault) in one of these to prove that
// framing, reclamation and the engine tick survive the transport
// misbehaving — short reads, writes split into arbitrary chunks, injected
// latency, and abrupt mid-frame resets (the peer dying between a header
// and its payload).
//
// Everything is driven by a seeded SplitMix64 PRNG, so a failing chaos run
// replays exactly from its seed. With a default-constructed FaultOptions
// (enabled = false) MaybeWrapFault is the identity and costs one branch.

#ifndef SRC_TRANSPORT_FAULT_STREAM_H_
#define SRC_TRANSPORT_FAULT_STREAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/transport/stream.h"

namespace aud {

struct FaultOptions {
  bool enabled = false;
  uint64_t seed = 1;

  // Probabilities in [0, 1], evaluated independently per Read/Write call.
  double short_read = 0.0;   // deliver a 1-byte prefix of what is available
  double chop_write = 0.0;   // split the write into two inner writes
  double reset_read = 0.0;   // abrupt EOF: Read returns 0, stream closes
  double reset_write = 0.0;  // fail after writing a partial prefix (mid-frame)

  // Uniform random sleep in [0, delay_us] before each Read/Write.
  uint32_t delay_us = 0;

  // Derives a per-connection variant so each accepted stream replays its
  // own independent (but still seed-determined) fault schedule.
  FaultOptions ForInstance(uint64_t instance) const;
};

// Parses "seed=7,short_read=0.3,chop_write=0.5,reset_read=0.01,
// reset_write=0.01,delay_us=500" (audiond --fault). An empty spec yields
// {enabled = false}; unknown keys are ignored so old binaries tolerate new
// knobs.
FaultOptions ParseFaultSpec(const std::string& spec);

class FaultStream : public ByteStream {
 public:
  FaultStream(std::unique_ptr<ByteStream> inner, const FaultOptions& options);

  bool Write(std::span<const uint8_t> data) override;
  size_t Read(std::span<uint8_t> out) override;
  void Close() override;

  // Non-blocking variants apply the same seeded fault schedule (short
  // reads, chopped writes, sticky resets) so the server's event loops are
  // chaos-testable exactly like blocking clients.
  IoResult ReadSome(std::span<uint8_t> out) override;
  IoResult WriteSome(std::span<const uint8_t> data) override;
  int pollable_fd() const override { return inner_->pollable_fd(); }

  // Injected-fault accounting (test assertions).
  uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }

 private:
  // Returns the next PRNG draw as a double in [0, 1).
  double NextUniform();
  uint64_t NextU64();

  std::unique_ptr<ByteStream> inner_;
  FaultOptions options_;
  std::atomic<uint64_t> rng_;
  // Once a reset fired, the stream stays dead (like a real broken socket).
  std::atomic<bool> reset_{false};
  std::atomic<uint64_t> faults_{0};
};

// Wraps `stream` when options.enabled, otherwise returns it unchanged.
std::unique_ptr<ByteStream> MaybeWrapFault(std::unique_ptr<ByteStream> stream,
                                           const FaultOptions& options);

}  // namespace aud

#endif  // SRC_TRANSPORT_FAULT_STREAM_H_
