#include "src/dsp/mixer_kernel.h"

#include <algorithm>

#include "src/dsp/gain.h"
#include "src/dsp/kernels.h"

namespace aud {

void MixAccumulator::Clear() {
  std::fill(acc_.begin(), acc_.end(), 0);
  input_count_ = 0;
}

void MixAccumulator::Reset(size_t block_size) {
  acc_.assign(block_size, 0);
  input_count_ = 0;
}

void MixAccumulator::Accumulate(std::span<const Sample> in, int32_t gain) {
  size_t n = std::min(in.size(), acc_.size());
  Kernels().mix_accumulate(acc_.data(), in.data(), n, gain);
  ++input_count_;
}

void MixAccumulator::Resolve(std::span<Sample> out) const {
  size_t n = std::min(out.size(), acc_.size());
  Kernels().mix_resolve(out.data(), acc_.data(), n);
}

void MixEqual(std::span<const std::span<const Sample>> inputs, std::span<Sample> out) {
  thread_local MixAccumulator acc;
  acc.Reset(out.size());
  for (const auto& in : inputs) {
    acc.Accumulate(in, kUnityGain);
  }
  acc.Resolve(out);
}

}  // namespace aud
