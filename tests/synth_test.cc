// Speech-synthesis tests: letter-to-sound rules, exception lists, the
// formant vocal-tract model, and the TextToSpeech front door.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "src/synth/lts_rules.h"
#include "src/synth/phonemes.h"
#include "src/synth/synthesizer.h"

namespace aud {
namespace {

double Rms(std::span<const Sample> s) {
  if (s.empty()) {
    return 0;
  }
  double acc = 0;
  for (Sample v : s) {
    acc += (v / 32768.0) * (v / 32768.0);
  }
  return std::sqrt(acc / s.size());
}

TEST(PhonemeTest, InventoryHasVowelsAndConsonants) {
  EXPECT_GT(PhonemeInventory().size(), 35u);
  ASSERT_NE(FindPhoneme("AA"), nullptr);
  ASSERT_NE(FindPhoneme("S"), nullptr);
  ASSERT_NE(FindPhoneme("SIL"), nullptr);
  EXPECT_EQ(FindPhoneme("QQ"), nullptr);
}

TEST(PhonemeTest, VowelsAreVoicedWithFormants) {
  const Phoneme* aa = FindPhoneme("AA");
  EXPECT_EQ(aa->phonation, PhonationType::kVoiced);
  EXPECT_GT(aa->f1, 0);
  EXPECT_GT(aa->f2, aa->f1);
}

TEST(PhonemeTest, ParsePhonemeStringSkipsUnknown) {
  auto seq = ParsePhonemeString("HH AH XX L OW");
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0]->symbol, "HH");
  EXPECT_EQ(seq[3]->symbol, "OW");
}

TEST(PhonemeTest, ParseIsCaseInsensitive) {
  auto seq = ParsePhonemeString("hh ah");
  ASSERT_EQ(seq.size(), 2u);
}

// std::string, not const char*: gtest prints a char pointer with its address,
// and that address would leak into the parameter's test name.
class LtsWords : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(LtsWords, KnownWordsConvert) {
  LetterToSound lts;
  EXPECT_EQ(lts.ConvertWord(GetParam().first), GetParam().second);
}

// Spot checks on common words covered by the rule set.
INSTANTIATE_TEST_SUITE_P(
    Common, LtsWords,
    ::testing::Values(std::pair{"the", "DH AH"}, std::pair{"this", "DH IH S"},
                      std::pair{"you", "Y UW"}, std::pair{"one", "W AH N"},
                      std::pair{"cat", "K AE T"}, std::pair{"dog", "D AA G"},
                      std::pair{"yes", "Y EH S"}, std::pair{"no", "N OW"}));

TEST(LtsTest, EveryLetterProducesSomething) {
  // Property: any alphabetic word converts to a nonempty phoneme string of
  // known phonemes.
  LetterToSound lts;
  const char* words[] = {"audio",   "server",   "telephone", "message", "play",
                         "record",  "stop",     "answer",    "machine", "greeting",
                         "number",  "workstation", "sound",  "beep",    "queue"};
  for (const char* word : words) {
    std::string phonemes = lts.ConvertWord(word);
    EXPECT_FALSE(phonemes.empty()) << word;
    auto seq = ParsePhonemeString(phonemes);
    // Everything the rules emit must be in the inventory.
    std::istringstream stream(phonemes);
    std::string tok;
    size_t count = 0;
    while (stream >> tok) {
      ++count;
    }
    EXPECT_EQ(seq.size(), count) << word << " -> " << phonemes;
  }
}

TEST(LtsTest, SilentFinalE) {
  LetterToSound lts;
  std::string phonemes = lts.ConvertWord("make");
  // Must not end with an EH/IY vowel for the final e.
  EXPECT_EQ(phonemes.substr(phonemes.size() - 1), "K");
}

TEST(LtsTest, ExceptionOverridesRules) {
  LetterToSound lts;
  lts.AddException("schmandt", "SH M AE N T");
  EXPECT_EQ(lts.ConvertWord("Schmandt"), "SH M AE N T");
  EXPECT_EQ(lts.exception_count(), 1u);
  lts.ClearExceptions();
  EXPECT_NE(lts.ConvertWord("Schmandt"), "SH M AE N T");
}

TEST(LtsTest, DigitsSpeakAsWords) {
  LetterToSound lts;
  std::string phonemes = lts.ConvertText("42");
  EXPECT_NE(phonemes.find("F AO R"), std::string::npos);
  EXPECT_NE(phonemes.find("T UW"), std::string::npos);
}

TEST(LtsTest, PunctuationInsertsPauses) {
  LetterToSound lts;
  std::string phonemes = lts.ConvertText("yes, no.");
  EXPECT_NE(phonemes.find("SIL"), std::string::npos);
  EXPECT_NE(phonemes.find("PAU"), std::string::npos);
}

TEST(LtsTest, AllDigitsHavePhonemes) {
  for (char d = '0'; d <= '9'; ++d) {
    EXPECT_FALSE(DigitPhonemes(d).empty()) << d;
  }
  EXPECT_TRUE(DigitPhonemes('x').empty());
}

TEST(FormantTest, VowelProducesPeriodicAudio) {
  FormantSynthesizer synth(8000);
  std::vector<Sample> out;
  VoiceParameters params;
  synth.Render({FindPhoneme("AA")}, params, &out);
  EXPECT_GT(out.size(), 800u);  // >= 100 ms
  EXPECT_GT(Rms(out), 0.02);
}

TEST(FormantTest, SilenceRendersZero) {
  FormantSynthesizer synth(8000);
  std::vector<Sample> out;
  synth.Render({FindPhoneme("SIL")}, VoiceParameters{}, &out);
  for (Sample s : out) {
    ASSERT_EQ(s, 0);
  }
}

TEST(FormantTest, SpeakingRateScalesDuration) {
  FormantSynthesizer synth(8000);
  VoiceParameters slow;
  slow.speaking_rate = 0.5;
  VoiceParameters fast;
  fast.speaking_rate = 2.0;
  std::vector<Sample> slow_out;
  std::vector<Sample> fast_out;
  auto seq = ParsePhonemeString("AA IY UW");
  synth.Render(seq, slow, &slow_out);
  synth.Render(seq, fast, &fast_out);
  EXPECT_NEAR(static_cast<double>(slow_out.size()) / fast_out.size(), 4.0, 0.3);
}

TEST(FormantTest, VolumeScalesAmplitude) {
  FormantSynthesizer synth(8000);
  VoiceParameters loud;
  loud.volume = 0.9;
  VoiceParameters quiet;
  quiet.volume = 0.2;
  std::vector<Sample> loud_out;
  std::vector<Sample> quiet_out;
  synth.Render({FindPhoneme("AA")}, loud, &loud_out);
  synth.Render({FindPhoneme("AA")}, quiet, &quiet_out);
  EXPECT_GT(Rms(loud_out), 2.0 * Rms(quiet_out));
}

TEST(TextToSpeechTest, SynthesizesAudibleSpeech) {
  TextToSpeech tts(8000);
  auto audio = tts.Synthesize("please leave a message after the beep");
  EXPECT_GT(audio.size(), 8000u);  // > 1 s
  EXPECT_GT(Rms(audio), 0.01);
}

TEST(TextToSpeechTest, EmptyTextIsShort) {
  TextToSpeech tts(8000);
  auto audio = tts.Synthesize("");
  EXPECT_LT(audio.size(), 100u);
}

TEST(TextToSpeechTest, LanguageGate) {
  TextToSpeech tts(8000);
  EXPECT_TRUE(tts.SetLanguage("en-US"));
  EXPECT_FALSE(tts.SetLanguage("fr-FR"));
  EXPECT_EQ(tts.language(), "en-US");
}

TEST(TextToSpeechTest, ExceptionListChangesOutput) {
  TextToSpeech tts(8000);
  auto before = tts.Synthesize("DECtalk");
  tts.AddException("DECtalk", "D EH K T AO K");
  auto after = tts.Synthesize("DECtalk");
  EXPECT_NE(before.size(), after.size());
}

TEST(TextToSpeechTest, PitchParameterShiftsF0) {
  // Render a long vowel at two pitches; autocorrelation period differs.
  TextToSpeech tts(8000);
  tts.parameters().pitch_hz = 100.0;
  auto low = tts.SynthesizePhonemes("AA AA AA AA AA AA");
  tts.parameters().pitch_hz = 200.0;
  auto high = tts.SynthesizePhonemes("AA AA AA AA AA AA");

  auto dominant_period = [](const std::vector<Sample>& audio) {
    size_t best_lag = 20;
    double best = -1e18;
    for (size_t lag = 20; lag < 160; ++lag) {
      double acc = 0;
      for (size_t i = 800; i + lag < std::min<size_t>(audio.size(), 4000); ++i) {
        acc += static_cast<double>(audio[i]) * audio[i + lag];
      }
      if (acc > best) {
        best = acc;
        best_lag = lag;
      }
    }
    return best_lag;
  };
  size_t low_period = dominant_period(low);
  size_t high_period = dominant_period(high);
  EXPECT_NEAR(static_cast<double>(low_period), 80.0, 10.0);    // 8000/100
  EXPECT_NEAR(static_cast<double>(high_period), 40.0, 8.0);    // 8000/200
}

}  // namespace
}  // namespace aud
