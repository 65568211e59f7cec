#include "src/transport/fault_stream.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

namespace aud {

namespace {

// SplitMix64 output mix. The state advance is a fetch_add of the golden
// gamma, so concurrent reader/writer threads each draw distinct values
// without a lock (order between threads does not matter for fault
// schedules; the schedule is still fully determined by the seed for any
// single-threaded replay).
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ull;

}  // namespace

FaultOptions FaultOptions::ForInstance(uint64_t instance) const {
  FaultOptions derived = *this;
  derived.seed = Mix64(seed + kGamma * (instance + 1));
  return derived;
}

FaultOptions ParseFaultSpec(const std::string& spec) {
  FaultOptions options;
  if (spec.empty()) {
    return options;
  }
  options.enabled = true;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);
    try {
      if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "short_read") {
        options.short_read = std::stod(value);
      } else if (key == "chop_write") {
        options.chop_write = std::stod(value);
      } else if (key == "reset_read") {
        options.reset_read = std::stod(value);
      } else if (key == "reset_write") {
        options.reset_write = std::stod(value);
      } else if (key == "delay_us") {
        options.delay_us = static_cast<uint32_t>(std::stoul(value));
      }
      // Unknown keys are ignored: forward compatibility with newer specs.
    } catch (...) {
      // Unparseable values keep the knob at its default.
    }
  }
  return options;
}

FaultStream::FaultStream(std::unique_ptr<ByteStream> inner, const FaultOptions& options)
    : inner_(std::move(inner)), options_(options), rng_(options.seed) {}

uint64_t FaultStream::NextU64() {
  return Mix64(rng_.fetch_add(kGamma, std::memory_order_relaxed) + kGamma);
}

double FaultStream::NextUniform() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool FaultStream::Write(std::span<const uint8_t> data) {
  if (reset_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (options_.delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(NextU64() % (options_.delay_us + 1)));
  }
  if (options_.reset_write > 0 && NextUniform() < options_.reset_write) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    reset_.store(true, std::memory_order_relaxed);
    // Mid-frame reset: a prefix escapes onto the wire, then the stream
    // dies — the peer sees a truncated frame followed by EOF.
    if (!data.empty()) {
      size_t prefix = NextU64() % data.size();
      if (prefix > 0) {
        inner_->Write(data.first(prefix));
      }
    }
    inner_->Close();
    return false;
  }
  if (options_.chop_write > 0 && data.size() > 1 && NextUniform() < options_.chop_write) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    size_t cut = 1 + NextU64() % (data.size() - 1);
    return inner_->Write(data.first(cut)) && inner_->Write(data.subspan(cut));
  }
  return inner_->Write(data);
}

size_t FaultStream::Read(std::span<uint8_t> out) {
  if (reset_.load(std::memory_order_relaxed)) {
    return 0;
  }
  if (options_.delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(NextU64() % (options_.delay_us + 1)));
  }
  if (options_.reset_read > 0 && NextUniform() < options_.reset_read) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    reset_.store(true, std::memory_order_relaxed);
    inner_->Close();
    return 0;
  }
  if (options_.short_read > 0 && out.size() > 1 && NextUniform() < options_.short_read) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Read(out.first(1));
  }
  return inner_->Read(out);
}

IoResult FaultStream::ReadSome(std::span<uint8_t> out) {
  if (reset_.load(std::memory_order_relaxed)) {
    return {IoStatus::kEof, 0};
  }
  if (options_.delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(NextU64() % (options_.delay_us + 1)));
  }
  if (options_.reset_read > 0 && NextUniform() < options_.reset_read) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    reset_.store(true, std::memory_order_relaxed);
    inner_->Close();
    return {IoStatus::kEof, 0};
  }
  if (options_.short_read > 0 && out.size() > 1 && NextUniform() < options_.short_read) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return inner_->ReadSome(out.first(1));
  }
  return inner_->ReadSome(out);
}

IoResult FaultStream::WriteSome(std::span<const uint8_t> data) {
  if (reset_.load(std::memory_order_relaxed)) {
    return {IoStatus::kError, 0};
  }
  if (options_.delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(NextU64() % (options_.delay_us + 1)));
  }
  if (options_.reset_write > 0 && NextUniform() < options_.reset_write) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    reset_.store(true, std::memory_order_relaxed);
    // Mid-frame reset: a best-effort prefix escapes, then the stream dies.
    if (!data.empty()) {
      size_t prefix = NextU64() % data.size();
      if (prefix > 0) {
        inner_->WriteSome(data.first(prefix));
      }
    }
    inner_->Close();
    return {IoStatus::kError, 0};
  }
  if (options_.chop_write > 0 && data.size() > 1 && NextUniform() < options_.chop_write) {
    // A partial transfer is already legal for WriteSome, so "chop" here
    // means capping the attempt — the caller resubmits the tail, giving
    // the same split-frame coverage as the blocking decorator.
    faults_.fetch_add(1, std::memory_order_relaxed);
    size_t cut = 1 + NextU64() % (data.size() - 1);
    return inner_->WriteSome(data.first(cut));
  }
  return inner_->WriteSome(data);
}

void FaultStream::Close() { inner_->Close(); }

std::unique_ptr<ByteStream> MaybeWrapFault(std::unique_ptr<ByteStream> stream,
                                           const FaultOptions& options) {
  if (!options.enabled || stream == nullptr) {
    return stream;
  }
  return std::make_unique<FaultStream>(std::move(stream), options);
}

}  // namespace aud
