#include "src/dsp/kernels.h"

#include "src/dsp/alaw.h"
#include "src/dsp/gain.h"
#include "src/dsp/mulaw.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace aud {

namespace {

// ---------------------------------------------------------------------------
// Companding tables, built once from the canonical per-sample functions so
// the table-driven path is bit-identical to the reference by construction.
// The encode direction maps every 16-bit sample value (64 KiB per law);
// the decode direction maps every byte (512 B per law).
// ---------------------------------------------------------------------------

struct CompandingTables {
  uint8_t mulaw_encode[65536];
  uint8_t alaw_encode[65536];
  Sample mulaw_decode[256];
  Sample alaw_decode[256];

  CompandingTables() {
    for (int i = 0; i < 65536; ++i) {
      Sample s = static_cast<Sample>(static_cast<uint16_t>(i));
      mulaw_encode[i] = MulawEncode(s);
      alaw_encode[i] = AlawEncode(s);
    }
    for (int i = 0; i < 256; ++i) {
      mulaw_decode[i] = MulawDecode(static_cast<uint8_t>(i));
      alaw_decode[i] = AlawDecode(static_cast<uint8_t>(i));
    }
  }
};

const CompandingTables& Tables() {
  static const CompandingTables tables;
  return tables;
}

// ---------------------------------------------------------------------------
// Scalar kernels. Tight index loops over __restrict pointers: the form the
// auto-vectorizer handles, and the reference every SIMD variant must match.
// ---------------------------------------------------------------------------

// Accumulator adds wrap like the SIMD paddd instruction does (the engine
// never gets near the rails -- 64k full-scale streams -- but the kernels
// must be UB-free and bit-identical for any input the tests throw).
inline int32_t WrapAdd(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) +
                              static_cast<uint32_t>(b));
}

void ScalarMixAccumulate(int32_t* __restrict acc, const Sample* __restrict src,
                         size_t n, int32_t gain) {
  if (gain == kUnityGain) {
    for (size_t i = 0; i < n; ++i) {
      acc[i] = WrapAdd(acc[i], src[i]);
    }
    return;
  }
  const int64_t g = gain;
  for (size_t i = 0; i < n; ++i) {
    acc[i] = WrapAdd(acc[i], static_cast<int32_t>(src[i] * g / kUnityGain));
  }
}

void ScalarMixResolve(Sample* __restrict out, const int32_t* __restrict acc, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SaturateSample(acc[i]);
  }
}

void ScalarApplyGain(Sample* samples, size_t n, int32_t gain) {
  if (gain == kUnityGain) {
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    int64_t v = static_cast<int64_t>(samples[i]) * gain / kUnityGain;
    samples[i] = SaturateSample(static_cast<int32_t>(v));
  }
}

void ScalarMulawEncode(uint8_t* __restrict out, const Sample* __restrict in, size_t n) {
  const uint8_t* table = Tables().mulaw_encode;
  for (size_t i = 0; i < n; ++i) {
    out[i] = table[static_cast<uint16_t>(in[i])];
  }
}

void ScalarMulawDecode(Sample* __restrict out, const uint8_t* __restrict in, size_t n) {
  const Sample* table = Tables().mulaw_decode;
  for (size_t i = 0; i < n; ++i) {
    out[i] = table[in[i]];
  }
}

void ScalarAlawEncode(uint8_t* __restrict out, const Sample* __restrict in, size_t n) {
  const uint8_t* table = Tables().alaw_encode;
  for (size_t i = 0; i < n; ++i) {
    out[i] = table[static_cast<uint16_t>(in[i])];
  }
}

void ScalarAlawDecode(Sample* __restrict out, const uint8_t* __restrict in, size_t n) {
  const Sample* table = Tables().alaw_decode;
  for (size_t i = 0; i < n; ++i) {
    out[i] = table[in[i]];
  }
}

constexpr KernelOps kScalarOps = {
    "scalar",          ScalarMixAccumulate, ScalarMixResolve, ScalarApplyGain,
    ScalarMulawEncode, ScalarMulawDecode,   ScalarAlawEncode, ScalarAlawDecode,
};

// ---------------------------------------------------------------------------
// SSE2 (x86-64 baseline). The widening add and the saturating narrow are
// the profitable ops: _mm_packs_epi32 is exactly SaturateSample on 8 lanes.
// The non-unity gain path divides a 48-bit product with C++ truncation
// semantics, which has no exact SSE2 counterpart, so it falls back to the
// scalar loop — bit-identity beats lane count there.
// ---------------------------------------------------------------------------

#if defined(__SSE2__)

void Sse2MixAccumulate(int32_t* acc, const Sample* src, size_t n, int32_t gain) {
  if (gain != kUnityGain) {
    ScalarMixAccumulate(acc, src, n, gain);
    return;
  }
  size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 8 <= n; i += 8) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i sign = _mm_cmpgt_epi16(zero, v);
    __m128i lo = _mm_unpacklo_epi16(v, sign);
    __m128i hi = _mm_unpackhi_epi16(v, sign);
    __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    __m128i a1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i + 4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i), _mm_add_epi32(a0, lo));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i + 4), _mm_add_epi32(a1, hi));
  }
  for (; i < n; ++i) {
    acc[i] = WrapAdd(acc[i], src[i]);
  }
}

void Sse2MixResolve(Sample* out, const int32_t* acc, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i + 4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_packs_epi32(lo, hi));
  }
  for (; i < n; ++i) {
    out[i] = SaturateSample(acc[i]);
  }
}

constexpr KernelOps kSse2Ops = {
    "sse2",            Sse2MixAccumulate, Sse2MixResolve,   ScalarApplyGain,
    ScalarMulawEncode, ScalarMulawDecode, ScalarAlawEncode, ScalarAlawDecode,
};

#endif  // __SSE2__

#if defined(__ARM_NEON)

void NeonMixAccumulate(int32_t* acc, const Sample* src, size_t n, int32_t gain) {
  if (gain != kUnityGain) {
    ScalarMixAccumulate(acc, src, n, gain);
    return;
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int16x8_t v = vld1q_s16(src + i);
    int32x4_t lo = vmovl_s16(vget_low_s16(v));
    int32x4_t hi = vmovl_s16(vget_high_s16(v));
    vst1q_s32(acc + i, vaddq_s32(vld1q_s32(acc + i), lo));
    vst1q_s32(acc + i + 4, vaddq_s32(vld1q_s32(acc + i + 4), hi));
  }
  for (; i < n; ++i) {
    acc[i] = WrapAdd(acc[i], src[i]);
  }
}

void NeonMixResolve(Sample* out, const int32_t* acc, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // vqmovn saturates int32 -> int16 exactly like SaturateSample.
    int16x4_t lo = vqmovn_s32(vld1q_s32(acc + i));
    int16x4_t hi = vqmovn_s32(vld1q_s32(acc + i + 4));
    vst1q_s16(out + i, vcombine_s16(lo, hi));
  }
  for (; i < n; ++i) {
    out[i] = SaturateSample(acc[i]);
  }
}

constexpr KernelOps kNeonOps = {
    "neon",            NeonMixAccumulate, NeonMixResolve,   ScalarApplyGain,
    ScalarMulawEncode, ScalarMulawDecode, ScalarAlawEncode, ScalarAlawDecode,
};

#endif  // __ARM_NEON

}  // namespace

const KernelOps& ScalarKernels() { return kScalarOps; }

const KernelOps* SimdKernels() {
#if defined(__SSE2__)
  return &kSse2Ops;
#elif defined(__ARM_NEON)
  return &kNeonOps;
#else
  return nullptr;
#endif
}

const KernelOps& Kernels() {
  const KernelOps* simd = SimdKernels();
  return simd != nullptr ? *simd : ScalarKernels();
}

}  // namespace aud
