// Golden-value tests for the dispatched DSP kernels: every variant
// (scalar table-driven, SSE2/NEON when compiled in) must be bit-identical
// to the per-sample reference functions, across the full 16-bit input
// domain for companding and over adversarial blocks (saturation extremes,
// odd lengths, unaligned tails) for the mix kernels. This is what lets the
// vectorized data plane keep PR 1's serial-vs-parallel determinism.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "src/dsp/alaw.h"
#include "src/dsp/encoding.h"
#include "src/dsp/gain.h"
#include "src/dsp/kernels.h"
#include "src/dsp/mixer_kernel.h"
#include "src/dsp/mulaw.h"

namespace aud {
namespace {

// All kernel sets compiled into this binary.
std::vector<const KernelOps*> AllVariants() {
  std::vector<const KernelOps*> variants = {&ScalarKernels()};
  if (SimdKernels() != nullptr) {
    variants.push_back(SimdKernels());
  }
  variants.push_back(&Kernels());
  return variants;
}

TEST(KernelGolden, MulawEncodeExhaustive) {
  for (const KernelOps* ops : AllVariants()) {
    std::vector<Sample> in(65536);
    for (int v = 0; v < 65536; ++v) {
      in[static_cast<size_t>(v)] = static_cast<Sample>(v - 32768);
    }
    std::vector<uint8_t> out(in.size());
    ops->mulaw_encode(out.data(), in.data(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(out[i], MulawEncode(in[i]))
          << ops->name << " input " << in[i];
    }
  }
}

TEST(KernelGolden, AlawEncodeExhaustive) {
  for (const KernelOps* ops : AllVariants()) {
    std::vector<Sample> in(65536);
    for (int v = 0; v < 65536; ++v) {
      in[static_cast<size_t>(v)] = static_cast<Sample>(v - 32768);
    }
    std::vector<uint8_t> out(in.size());
    ops->alaw_encode(out.data(), in.data(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(out[i], AlawEncode(in[i])) << ops->name << " input " << in[i];
    }
  }
}

TEST(KernelGolden, CompandingDecodeExhaustive) {
  for (const KernelOps* ops : AllVariants()) {
    std::vector<uint8_t> in(256);
    for (int v = 0; v < 256; ++v) {
      in[static_cast<size_t>(v)] = static_cast<uint8_t>(v);
    }
    std::vector<Sample> mu(256), a(256);
    ops->mulaw_decode(mu.data(), in.data(), in.size());
    ops->alaw_decode(a.data(), in.data(), in.size());
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(mu[static_cast<size_t>(v)], MulawDecode(static_cast<uint8_t>(v)))
          << ops->name;
      ASSERT_EQ(a[static_cast<size_t>(v)], AlawDecode(static_cast<uint8_t>(v)))
          << ops->name;
    }
  }
}

// Blocks that hit saturation rails, sign boundaries, and odd tail lengths.
std::vector<std::vector<Sample>> AdversarialBlocks() {
  std::vector<std::vector<Sample>> blocks;
  blocks.push_back({});
  blocks.push_back({32767});
  blocks.push_back({-32768, 32767, -1, 0, 1});
  std::mt19937 rng(12345);
  std::uniform_int_distribution<int> dist(-32768, 32767);
  for (size_t len : {7u, 8u, 15u, 16u, 17u, 160u, 1023u}) {
    std::vector<Sample> block(len);
    for (Sample& s : block) {
      s = static_cast<Sample>(dist(rng));
    }
    // Salt in rail values so accumulate/resolve saturation paths trigger.
    if (len >= 4) {
      block[0] = 32767;
      block[1] = -32768;
      block[len / 2] = 32767;
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

const int32_t kGains[] = {0, 1, 37, 5000, 9999, kUnityGain, 10001, 15000, 20000};

TEST(KernelGolden, MixAccumulateMatchesScalar) {
  const KernelOps& ref = ScalarKernels();
  for (const KernelOps* ops : AllVariants()) {
    for (const auto& block : AdversarialBlocks()) {
      for (int32_t gain : kGains) {
        // Pre-seed accumulators near the int32 midrange plus extremes so the
        // += path (not just from-zero) is compared.
        std::vector<int32_t> want(block.size(), 70000);
        std::vector<int32_t> got(block.size(), 70000);
        if (!block.empty()) {
          want[0] = got[0] = std::numeric_limits<int32_t>::max() - 32768;
        }
        ref.mix_accumulate(want.data(), block.data(), block.size(), gain);
        ops->mix_accumulate(got.data(), block.data(), block.size(), gain);
        ASSERT_EQ(got, want) << ops->name << " len " << block.size() << " gain " << gain;
      }
    }
  }
}

TEST(KernelGolden, MixResolveMatchesScalar) {
  const KernelOps& ref = ScalarKernels();
  std::mt19937 rng(999);
  std::uniform_int_distribution<int32_t> dist(-400000, 400000);
  for (const KernelOps* ops : AllVariants()) {
    for (size_t len : {0u, 1u, 7u, 8u, 9u, 160u, 1023u}) {
      std::vector<int32_t> acc(len);
      for (size_t i = 0; i < len; ++i) {
        acc[i] = dist(rng);
      }
      if (len >= 2) {
        acc[0] = 2000000000;  // resolve must saturate high
        acc[1] = -2000000000;  // ... and low
      }
      std::vector<Sample> want_out(len), got_out(len);
      ref.mix_resolve(want_out.data(), acc.data(), len);
      ops->mix_resolve(got_out.data(), acc.data(), len);
      ASSERT_EQ(got_out, want_out) << ops->name << " len " << len;
    }
  }
}

TEST(KernelGolden, ApplyGainMatchesScalar) {
  const KernelOps& ref = ScalarKernels();
  for (const KernelOps* ops : AllVariants()) {
    for (const auto& block : AdversarialBlocks()) {
      for (int32_t gain : kGains) {
        std::vector<Sample> want = block;
        std::vector<Sample> got = block;
        ref.apply_gain(want.data(), want.size(), gain);
        ops->apply_gain(got.data(), got.size(), gain);
        ASSERT_EQ(got, want) << ops->name << " len " << block.size() << " gain " << gain;
      }
    }
  }
}

// The MixAccumulator / ApplyGain public APIs ride the dispatched kernels;
// spot-check their semantics still match the documented formulas.
TEST(KernelGolden, MixAccumulatorSemanticsPreserved) {
  MixAccumulator acc;
  acc.Reset(4);
  std::vector<Sample> a = {1000, -32768, 32767, 5};
  std::vector<Sample> b = {1000, -32768, 32767, 5};
  acc.Accumulate(a, kUnityGain);
  acc.Accumulate(b, 5000);  // half gain, truncating division
  std::vector<Sample> out(4);
  acc.Resolve(out);
  EXPECT_EQ(out[0], 1500);
  EXPECT_EQ(out[1], -32768);  // -32768 + -16384 saturates
  EXPECT_EQ(out[2], 32767);
  EXPECT_EQ(out[3], 7);  // 5 + 5*5000/10000 = 5 + 2
}

// ---------------------------------------------------------------------------
// ADPCM byte-math boundaries (two samples per byte).
// ---------------------------------------------------------------------------

TEST(AdpcmBoundaries, OddSampleCountsRoundUpToWholeBytes) {
  EXPECT_EQ(BytesForSamples(Encoding::kAdpcm4, 0), 0);
  EXPECT_EQ(BytesForSamples(Encoding::kAdpcm4, 1), 1);
  EXPECT_EQ(BytesForSamples(Encoding::kAdpcm4, 7), 4);
  EXPECT_EQ(BytesForSamples(Encoding::kAdpcm4, 8), 4);
  EXPECT_EQ(SamplesInBytes(Encoding::kAdpcm4, 4), 8);

  // The streaming encoder holds a trailing odd sample pending until the
  // next call pairs it (chunk boundaries never pad mid-stream): an odd run
  // emits floor(n/2) bytes now, and one more sample completes the byte.
  for (size_t n : {1u, 3u, 7u, 159u}) {
    std::vector<Sample> in(n);
    for (size_t i = 0; i < n; ++i) {
      in[i] = static_cast<Sample>(1000 * (i % 3) - 500);
    }
    StreamEncoder enc(Encoding::kAdpcm4);
    std::vector<uint8_t> bytes;
    enc.Encode(in, &bytes);
    EXPECT_EQ(bytes.size(), n / 2) << "n=" << n;
    enc.Encode(std::vector<Sample>{0}, &bytes);
    EXPECT_EQ(bytes.size(), (n + 1) / 2) << "n=" << n;
    EXPECT_EQ(static_cast<int64_t>(bytes.size()),
              BytesForSamples(Encoding::kAdpcm4, static_cast<int64_t>(n + 1)));
    StreamDecoder dec(Encoding::kAdpcm4);
    std::vector<Sample> back;
    dec.Decode(bytes, &back);
    EXPECT_EQ(back.size(), (n + 1) / 2 * 2) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// StreamDecoder chunk invariance: decoding a byte stream in arbitrary-sized
// chunks must equal decoding it whole. This is the property the decoded-PCM
// cache relies on (a full-sound decode equals the tick-incremental decode),
// and kPcm16 must survive a chunk boundary splitting a sample.
// ---------------------------------------------------------------------------

TEST(StreamDecoderContinuity, ChunkSplitsAreInvisible) {
  std::vector<Sample> signal(1777);
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> dist(-32768, 32767);
  for (Sample& s : signal) {
    s = static_cast<Sample>(dist(rng));
  }
  for (Encoding encoding : {Encoding::kMulaw8, Encoding::kAlaw8, Encoding::kPcm8,
                            Encoding::kPcm16, Encoding::kAdpcm4}) {
    StreamEncoder enc(encoding);
    std::vector<uint8_t> bytes;
    enc.Encode(signal, &bytes);

    StreamDecoder whole(encoding);
    std::vector<Sample> expect;
    whole.Decode(bytes, &expect);

    // Chunk sizes chosen to land mid-sample for pcm16 (odd sizes) and
    // mid-tick for everything else.
    for (size_t chunk : {1u, 3u, 7u, 160u, 1024u}) {
      StreamDecoder dec(encoding);
      std::vector<Sample> got;
      for (size_t pos = 0; pos < bytes.size(); pos += chunk) {
        size_t n = std::min(chunk, bytes.size() - pos);
        dec.Decode(std::span<const uint8_t>(bytes).subspan(pos, n), &got);
      }
      ASSERT_EQ(got, expect) << "encoding " << static_cast<int>(encoding)
                             << " chunk " << chunk;
    }
  }
}

}  // namespace
}  // namespace aud
