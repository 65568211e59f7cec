// Mixing kernels. The server mixes streams in two places: explicit Mixer
// virtual devices (section 5.1) and the transparent mixers it inserts when
// several applications play to one speaker (section 6.1). Both reduce to
// weighted saturating accumulation over 32-bit intermediates.

#ifndef SRC_DSP_MIXER_KERNEL_H_
#define SRC_DSP_MIXER_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/sample.h"

namespace aud {

// A mix accumulator sized for one engine block. Accumulate inputs, then
// Resolve to saturated 16-bit output. Reset() re-sizes for a new block
// while reusing the underlying capacity, so a long-lived accumulator
// allocates at most once per period-size change.
class MixAccumulator {
 public:
  MixAccumulator() = default;
  explicit MixAccumulator(size_t block_size) : acc_(block_size, 0) {}

  size_t size() const { return acc_.size(); }

  // Zeroes the accumulator for a new block of the same size.
  void Clear();

  // Re-sizes to `block_size` and zeroes, reusing capacity.
  void Reset(size_t block_size);

  // Adds `in` scaled by `gain` (centi-percent; kUnityGain = 1.0). Inputs
  // shorter than the block contribute silence for the remainder.
  void Accumulate(std::span<const Sample> in, int32_t gain);

  // Writes the saturated mix into `out` (must be at least size()).
  void Resolve(std::span<Sample> out) const;

  // Number of Accumulate calls since the last Clear/Reset.
  int input_count() const { return input_count_; }

 private:
  std::vector<int32_t> acc_;
  int input_count_ = 0;
};

// One-shot convenience: mixes equally weighted inputs into out. Uses a
// thread-local scratch accumulator, so repeated calls do not allocate.
void MixEqual(std::span<const std::span<const Sample>> inputs, std::span<Sample> out);

}  // namespace aud

#endif  // SRC_DSP_MIXER_KERNEL_H_
