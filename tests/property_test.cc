// Property-style parameterized sweeps over invariants: resampler rate
// pairs, every encoding end-to-end through the server, gain laws, DTW
// metric properties, and command-queue transition exactness at arbitrary
// lengths.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "src/dsp/encoding.h"
#include "src/dsp/gain.h"
#include "src/dsp/goertzel.h"
#include "src/dsp/resampler.h"
#include "src/recognize/dtw.h"
#include "src/synth/synthesizer.h"
#include "tests/server_fixture.h"

namespace aud {
namespace {

// ---------------------------------------------------------------------------
// Resampler: for any (in, out) rate pair, output count tracks the ratio and
// a pure tone stays at its frequency.
// ---------------------------------------------------------------------------

class ResamplerSweep
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(ResamplerSweep, CountAndFrequencyInvariants) {
  auto [in_rate, out_rate] = GetParam();
  std::vector<Sample> tone;
  SineOscillator osc(440.0, in_rate, 0.5);
  osc.Generate(in_rate, &tone);  // 1 s

  Resampler resampler(in_rate, out_rate);
  std::vector<Sample> out;
  resampler.Process(tone, &out);

  // Output count within a handful of samples of the exact ratio.
  EXPECT_NEAR(static_cast<double>(out.size()), static_cast<double>(out_rate), 8.0);

  // The tone is still 440 Hz (only checkable if 440 < Nyquist of both).
  if (out_rate > 1000) {
    double on = GoertzelPower(std::span<const Sample>(out).first(
                                  std::min<size_t>(out.size(), out_rate / 2)),
                              440, out_rate);
    double off = GoertzelPower(std::span<const Sample>(out).first(
                                   std::min<size_t>(out.size(), out_rate / 2)),
                               660, out_rate);
    EXPECT_GT(on, 0.05);
    EXPECT_LT(off, on / 5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatePairs, ResamplerSweep,
    ::testing::Values(std::pair{8000u, 8000u}, std::pair{8000u, 11025u},
                      std::pair{8000u, 16000u}, std::pair{8000u, 44100u},
                      std::pair{11025u, 8000u}, std::pair{16000u, 8000u},
                      std::pair{44100u, 8000u}, std::pair{44100u, 16000u},
                      std::pair{16000u, 44100u}),
    [](const auto& param_info) {
      return std::to_string(param_info.param.first) + "to" + std::to_string(param_info.param.second);
    });

// ---------------------------------------------------------------------------
// Server playback sweep: every encoding x rate survives the full path.
// ---------------------------------------------------------------------------

struct FormatCase {
  Encoding encoding;
  uint32_t rate;
};

// Without a printer gtest dumps the raw bytes, uninitialized padding included,
// and those bytes would leak into the parameter's test name.
void PrintTo(const FormatCase& format_case, std::ostream* os) {
  *os << EncodingName(format_case.encoding) << " at " << format_case.rate << " Hz";
}

class ServerFormatSweep : public ServerFixture,
                          public ::testing::WithParamInterface<FormatCase> {
 protected:
  void SetUp() override { ServerFixture::SetUp(); }
};

TEST_P(ServerFormatSweep, ToneSurvivesServerPath) {
  const FormatCase& format_case = GetParam();
  board_->speakers()[0]->set_capture_output(true);

  std::vector<Sample> tone;
  SineOscillator osc(440.0, format_case.rate, 0.4);
  osc.Generate(format_case.rate / 2, &tone);  // 0.5 s at the sound's rate
  ResourceId sound =
      toolkit_->UploadSound(tone, {format_case.encoding, format_case.rate});
  auto chain = toolkit_->BuildPlaybackChain();
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));
  StepMs(200);

  // 0.5 s of a 440 Hz tone at the board's 8 kHz: dominant bin is 440.
  const auto& played = board_->speakers()[0]->played();
  size_t start = 0;
  while (start < played.size() && std::abs(played[start]) < 500) {
    ++start;
  }
  ASSERT_LT(start + 2048, played.size()) << "no audible playback";
  auto window = std::span<const Sample>(played).subspan(start + 256, 2048);
  double on = GoertzelPower(window, 440, 8000);
  double off = GoertzelPower(window, 740, 8000);
  EXPECT_GT(on, 0.01);
  EXPECT_LT(off, on / 3);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, ServerFormatSweep,
    ::testing::Values(FormatCase{Encoding::kMulaw8, 8000},
                      FormatCase{Encoding::kAlaw8, 8000},
                      FormatCase{Encoding::kPcm8, 8000},
                      FormatCase{Encoding::kPcm16, 8000},
                      FormatCase{Encoding::kAdpcm4, 8000},
                      FormatCase{Encoding::kPcm16, 16000},
                      FormatCase{Encoding::kMulaw8, 16000},
                      FormatCase{Encoding::kPcm16, 44100}),
    [](const auto& param_info) {
      return std::string(EncodingName(param_info.param.encoding)) + "_" +
             std::to_string(param_info.param.rate);
    });

// ---------------------------------------------------------------------------
// Gain laws.
// ---------------------------------------------------------------------------

class GainSweep : public ::testing::TestWithParam<int32_t> {};

TEST_P(GainSweep, LinearityAndBounds) {
  int32_t gain = GetParam();
  std::vector<Sample> samples;
  for (int v = -32768; v < 32768; v += 257) {
    samples.push_back(static_cast<Sample>(v));
  }
  auto original = samples;
  ApplyGain(samples, gain);
  for (size_t i = 0; i < samples.size(); ++i) {
    int64_t expected = static_cast<int64_t>(original[i]) * gain / kUnityGain;
    expected = std::clamp<int64_t>(expected, -32768, 32767);
    EXPECT_EQ(samples[i], expected) << "input " << original[i] << " gain " << gain;
  }
}

INSTANTIATE_TEST_SUITE_P(Gains, GainSweep,
                         ::testing::Values(0, 1, 2500, 5000, 9999, 10000, 10001, 15000,
                                           20000, 100000));

// ---------------------------------------------------------------------------
// DTW metric-ish properties over synthesized words.
// ---------------------------------------------------------------------------

TEST(DtwProperties, SymmetryAndSelfIdentity) {
  TextToSpeech tts(8000);
  const char* words[] = {"one", "two", "three"};
  std::vector<std::vector<FeatureVector>> features;
  for (const char* word : words) {
    features.push_back(ExtractFeatures(tts.Synthesize(word), 8000));
  }
  for (const auto& f : features) {
    EXPECT_NEAR(DtwDistance(f, f), 0.0, 1e-9);
  }
  for (size_t i = 0; i < features.size(); ++i) {
    for (size_t j = 0; j < features.size(); ++j) {
      double d_ij = DtwDistance(features[i], features[j]);
      double d_ji = DtwDistance(features[j], features[i]);
      EXPECT_NEAR(d_ij, d_ji, 1e-9) << i << "," << j;
      if (i != j) {
        EXPECT_GT(d_ij, 0.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Queue-transition exactness at pseudo-random lengths (complements the
// fixed sweep in bench_queue_transition).
// ---------------------------------------------------------------------------

class TransitionSweep : public ServerFixture,
                        public ::testing::WithParamInterface<uint32_t> {};

TEST_P(TransitionSweep, RandomLengthsAreGapless) {
  // Deterministic LCG from the seed parameter.
  uint32_t state = GetParam();
  auto next = [&state](uint32_t lo, uint32_t hi) {
    state = state * 1664525u + 1013904223u;
    return lo + (state >> 8) % (hi - lo);
  };
  size_t a_len = next(50, 5000);
  size_t b_len = next(50, 5000);
  size_t c_len = next(50, 5000);

  board_->speakers()[0]->set_capture_output(true);
  std::vector<Sample> a(a_len, 1000);
  std::vector<Sample> b(b_len, 2000);
  std::vector<Sample> c(c_len, 3000);
  ResourceId sa = toolkit_->UploadSound(a, {Encoding::kPcm16, 8000});
  ResourceId sb = toolkit_->UploadSound(b, {Encoding::kPcm16, 8000});
  ResourceId sc = toolkit_->UploadSound(c, {Encoding::kPcm16, 8000});
  auto chain = toolkit_->BuildPlaybackChain();
  client_->Enqueue(chain.loud,
                   {PlayCommand(chain.player, sa, 1), PlayCommand(chain.player, sb, 2),
                    PlayCommand(chain.player, sc, 3)});
  client_->StartQueue(chain.loud);
  Flush();
  ASSERT_TRUE(toolkit_->WaitCommandDone(3, 60000));
  StepMs(2200);

  const auto& played = board_->speakers()[0]->played();
  size_t start = 0;
  while (start < played.size() && played[start] != 1000) {
    ++start;
  }
  ASSERT_LE(start + a_len + b_len + c_len, played.size());
  for (size_t i = 0; i < a_len; ++i) {
    ASSERT_EQ(played[start + i], 1000) << "A broken at " << i;
  }
  for (size_t i = 0; i < b_len; ++i) {
    ASSERT_EQ(played[start + a_len + i], 2000) << "B broken at " << i;
  }
  for (size_t i = 0; i < c_len; ++i) {
    ASSERT_EQ(played[start + a_len + b_len + i], 3000) << "C broken at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitionSweep,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 777777u));

}  // namespace
}  // namespace aud
