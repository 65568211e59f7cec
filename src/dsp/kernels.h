// DSP kernels: the hot inner loops of the data plane (mix
// accumulate/resolve, gain, G.711 companding) behind one table of function
// pointers. The scalar implementations are table-driven and written so the
// compiler can auto-vectorize them. The kernel set is chosen at compile
// time: the SSE2 variant of the mix kernels on x86-64 and the NEON variant
// on ARM, both part of their architecture's baseline. Every variant is
// bit-identical to the scalar reference — the golden tests in
// tests/dsp_kernels_test.cc prove it exhaustively for the companding tables
// and over randomized blocks for the mix kernels, so engine output does not
// depend on the variant.

#ifndef SRC_DSP_KERNELS_H_
#define SRC_DSP_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/sample.h"

namespace aud {

// One dispatchable kernel set. All pointers are non-null in every variant
// (a variant that has no specialized form of an op points at the scalar
// implementation).
struct KernelOps {
  // Human-readable variant name ("scalar", "sse2", "neon").
  const char* name;

  // acc[i] += src[i] scaled by gain (centi-percent; kUnityGain passes
  // samples through unscaled). Matches MixAccumulator semantics.
  void (*mix_accumulate)(int32_t* acc, const Sample* src, size_t n, int32_t gain);

  // out[i] = saturate16(acc[i]).
  void (*mix_resolve)(Sample* out, const int32_t* acc, size_t n);

  // samples[i] = saturate16(samples[i] * gain / kUnityGain) in place.
  void (*apply_gain)(Sample* samples, size_t n, int32_t gain);

  // G.711 companding, table-driven (bit-identical to the per-sample
  // MulawEncode/MulawDecode/AlawEncode/AlawDecode reference functions).
  void (*mulaw_encode)(uint8_t* out, const Sample* in, size_t n);
  void (*mulaw_decode)(Sample* out, const uint8_t* in, size_t n);
  void (*alaw_encode)(uint8_t* out, const Sample* in, size_t n);
  void (*alaw_decode)(Sample* out, const uint8_t* in, size_t n);
};

// The portable scalar reference set (table-driven companding, plain loops).
const KernelOps& ScalarKernels();

// The SIMD set compiled for this target, or nullptr when none is.
const KernelOps* SimdKernels();

// The set the engine uses: the SIMD set when this target has one,
// otherwise scalar. Benchmarks and tests compare the two sets directly
// through ScalarKernels() and SimdKernels().
const KernelOps& Kernels();

}  // namespace aud

#endif  // SRC_DSP_KERNELS_H_
