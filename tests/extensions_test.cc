// Tests for the extension features: WAV I/O, speaker-phone hard-wiring
// rules (section 5.2), recorder pause compression (section 5.1), partial
// plays (start/end samples), and exclusive-use error reporting.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/common/wav.h"
#include "tests/server_fixture.h"

namespace aud {
namespace {

TEST(WavTest, WriteReadRoundTrip) {
  std::vector<Sample> pcm;
  SineOscillator osc(440.0, 8000, 0.5);
  osc.Generate(800, &pcm);
  std::string path = ::testing::TempDir() + "/roundtrip.wav";
  ASSERT_TRUE(WriteWavFile(path, pcm, 8000));

  auto wav = ReadWavFile(path);
  ASSERT_TRUE(wav.ok()) << wav.status().ToString();
  EXPECT_EQ(wav.value().sample_rate_hz, 8000u);
  EXPECT_EQ(wav.value().samples, pcm);
  std::remove(path.c_str());
}

TEST(WavTest, MissingFileReportsError) {
  auto wav = ReadWavFile("/no/such/file.wav");
  EXPECT_FALSE(wav.ok());
}

TEST(WavTest, GarbageFileRejected) {
  std::string path = ::testing::TempDir() + "/garbage.wav";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 100; ++i) {
    std::fputc(i * 37, f);
  }
  std::fclose(f);
  EXPECT_FALSE(ReadWavFile(path).ok());
  std::remove(path.c_str());
}

class SpeakerphoneTest : public ServerFixture {
 protected:
  void SetUp() override { Init(BoardConfig{.speakerphone = true}); }

  ResourceId DeviceIdByName(const std::string& name) {
    auto reply = client_->QueryDeviceLoud();
    if (!reply.ok()) {
      return kNoResource;
    }
    for (const auto& dev : reply.value().devices) {
      if (dev.attrs.GetString(AttrTag::kName) == name) {
        return dev.id;
      }
    }
    return kNoResource;
  }
};

TEST_F(SpeakerphoneTest, DeviceLoudExposesHardWires) {
  auto reply = client_->QueryDeviceLoud();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().devices.size(), 6u);
  ASSERT_EQ(reply.value().hard_wires.size(), 2u);
  ResourceId sp_line = DeviceIdByName("speakerphone-line");
  ResourceId sp_speaker = DeviceIdByName("speakerphone-speaker");
  EXPECT_EQ(reply.value().hard_wires[0].src_device, sp_line);
  EXPECT_EQ(reply.value().hard_wires[0].dst_device, sp_speaker);
}

TEST_F(SpeakerphoneTest, WiringAcrossHardWireBoundaryRejected) {
  // A telephone pinned to the speaker-phone line may not be wired to an
  // output pinned to the *desktop* speaker (section 5.2's example).
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  AttrList phone_attrs;
  phone_attrs.SetU32(AttrTag::kDeviceId, DeviceIdByName("speakerphone-line"));
  ResourceId telephone = client_->CreateDevice(loud, DeviceClass::kTelephone, phone_attrs);
  AttrList out_attrs;
  out_attrs.SetU32(AttrTag::kDeviceId, DeviceIdByName("speaker0"));
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, out_attrs);

  client_->CreateWire(telephone, 0, output, 0);
  ExpectError(ErrorCode::kBadWiring);
}

TEST_F(SpeakerphoneTest, WiringWithinHardWireGroupAllowed) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  AttrList phone_attrs;
  phone_attrs.SetU32(AttrTag::kDeviceId, DeviceIdByName("speakerphone-line"));
  ResourceId telephone = client_->CreateDevice(loud, DeviceClass::kTelephone, phone_attrs);
  AttrList out_attrs;
  out_attrs.SetU32(AttrTag::kDeviceId, DeviceIdByName("speakerphone-speaker"));
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, out_attrs);

  client_->CreateWire(telephone, 0, output, 0);
  ExpectNoErrors();
}

TEST_F(SpeakerphoneTest, UnpinnedDevicesWireFreely) {
  // Devices without kDeviceId constraints are matched at activation, not
  // wiring, so no hard-wire error applies.
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId telephone = client_->CreateDevice(loud, DeviceClass::kTelephone, {});
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->CreateWire(telephone, 0, output, 0);
  ExpectNoErrors();
}

class ExtensionsTest : public ServerFixture {};

TEST_F(ExtensionsTest, PauseCompressionShrinksRecording) {
  // Two recorders, one with pause compression, both fed the same audio
  // (speech, long pause, speech).
  auto record_with = [&](bool compress) -> uint64_t {
    ResourceId loud = client_->CreateLoud(kNoResource, {});
    ResourceId input = client_->CreateDevice(loud, DeviceClass::kInput, {});
    AttrList attrs;
    attrs.SetBool(AttrTag::kPauseCompression, compress);
    ResourceId recorder = client_->CreateDevice(loud, DeviceClass::kRecorder, attrs);
    client_->CreateWire(input, 0, recorder, 0);
    client_->SelectEvents(loud, kQueueEvents | kRecorderEvents);
    client_->MapLoud(loud);

    auto speech = TestTone(400, 300.0);
    std::vector<Sample> feed = speech;
    feed.insert(feed.end(), 16000, 0);  // 2 s pause
    feed.insert(feed.end(), speech.begin(), speech.end());
    board_->microphones()[0]->AddPendingAudio(feed);

    ResourceId sound = client_->CreateSound({Encoding::kPcm16, 8000});
    client_->Enqueue(loud, {RecordCommand(recorder, sound, kTerminateOnStop, 2800, 1)});
    client_->StartQueue(loud);
    Flush();
    EXPECT_TRUE(toolkit_->WaitCommandDone(1));
    auto info = client_->QuerySound(sound);
    EXPECT_TRUE(info.ok());
    uint64_t samples = info.ok() ? info.value().samples : 0;
    client_->DestroyLoud(loud);
    return samples;
  };

  uint64_t plain = record_with(false);
  uint64_t compressed = record_with(true);
  EXPECT_GT(plain, 20000u);  // full 2.8 s
  EXPECT_LT(compressed, plain - 10000)
      << "pause compression should remove most of the 2 s silence";
}

TEST_F(ExtensionsTest, PartialPlayHonorsStartAndEnd) {
  board_->speakers()[0]->set_capture_output(true);
  // At the engine rate and at twice it, where start and end count sound
  // samples, not engine-rate ones.
  uint32_t tag = 0;
  for (uint32_t rate : {8000u, 16000u}) {
    SCOPED_TRACE(rate);
    // A staircase sound: 4 segments of 1000 engine-rate samples with
    // values 1..4.
    const int64_t step = rate / 8;
    std::vector<Sample> pcm;
    for (Sample v = 1; v <= 4; ++v) {
      pcm.insert(pcm.end(), static_cast<size_t>(step), static_cast<Sample>(v * 1000));
    }
    ResourceId sound = toolkit_->UploadSound(pcm, {Encoding::kPcm16, rate});
    auto chain = toolkit_->BuildPlaybackChain();
    board_->speakers()[0]->clear_played();

    // Play only sound samples [step, 3 * step): segments 2 and 3.
    client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, ++tag, step, 3 * step)});
    client_->StartQueue(chain.loud);
    Flush();
    ASSERT_TRUE(toolkit_->WaitCommandDone(tag));
    StepMs(600);

    int counts[5] = {0, 0, 0, 0, 0};
    for (Sample s : board_->speakers()[0]->played()) {
      if (s % 1000 == 0 && s >= 1000 && s <= 4000) {
        ++counts[s / 1000];
      }
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_EQ(counts[2], 1000);
    EXPECT_EQ(counts[3], 1000);
    EXPECT_EQ(counts[4], 0);
  }
}

TEST_F(ExtensionsTest, PartialPlayOfMulawUsesStatefulSkip) {
  // ADPCM-style stateful skip path: start offset on a mu-law sound decodes
  // from the beginning and discards exactly the right number of samples.
  board_->speakers()[0]->set_capture_output(true);
  std::vector<Sample> pcm(2000, 0);
  for (size_t i = 0; i < pcm.size(); ++i) {
    pcm[i] = static_cast<Sample>(i < 1000 ? 0 : 8000);
  }
  ResourceId sound = toolkit_->UploadSound(pcm, kTelephoneFormat);
  auto chain = toolkit_->BuildPlaybackChain();
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1, 1000, -1)});
  client_->StartQueue(chain.loud);
  Flush();
  ASSERT_TRUE(toolkit_->WaitCommandDone(1));
  StepMs(400);

  size_t loud_count = 0;
  for (Sample s : board_->speakers()[0]->played()) {
    if (std::abs(s) > 4000) {
      ++loud_count;
    }
  }
  EXPECT_NEAR(static_cast<double>(loud_count), 1000.0, 8.0);
}

TEST_F(ExtensionsTest, CatalogueSoundSurvivesSourceDestruction) {
  ResourceId original = client_->CreateSound(kTelephoneFormat);
  std::vector<uint8_t> data(64, 7);
  client_->WriteSound(original, 0, data);
  client_->SaveCatalogueSound(original, "keeper");
  client_->DestroySound(original);
  Flush();
  ResourceId restored = client_->LoadCatalogueSound("keeper");
  Flush();
  auto read = client_->ReadSound(restored, 0, 64);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data);
}


class DuplexTest : public ServerFixture {};

TEST_F(DuplexTest, FullDuplexCallAudio) {
  // Play to the far end while recording it, simultaneously (CoBegin): a
  // real conversation path, both directions verified sample-wise.
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId telephone = client_->CreateDevice(loud, DeviceClass::kTelephone, {});
  ResourceId player = client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ResourceId recorder = client_->CreateDevice(loud, DeviceClass::kRecorder, {});
  client_->CreateWire(player, 0, telephone, 0);
  client_->CreateWire(telephone, 0, recorder, 0);
  client_->SelectEvents(loud, kAllEvents);
  client_->MapLoud(loud);

  // Far end: answers, then speaks a constant while recording what it hears.
  FarEndParty* peer = board_->AddFarEnd("555-4444");
  std::vector<Sample> peer_voice(8000, 1111);  // 1 s of +1111
  peer->AnswerAfterRings(1).Speak(peer_voice).WaitMs(60000);

  std::vector<Sample> our_voice(8000, 2222);
  ResourceId our_sound = toolkit_->UploadSound(our_voice, {Encoding::kPcm16, 8000});
  ResourceId recording = client_->CreateSound({Encoding::kPcm16, 8000});

  client_->Enqueue(loud,
                   {DialCommand(telephone, "555-4444", 1), CoBeginCommand(),
                    PlayCommand(player, our_sound, 2),
                    RecordCommand(recorder, recording, kTerminateOnStop, 1500, 3),
                    CoEndCommand()});
  client_->StartQueue(loud);
  Flush();
  ASSERT_TRUE(toolkit_->WaitCommandDone(3, 30000));
  StepMs(2500);

  // We heard the peer...
  auto recorded = toolkit_->DownloadSound(recording);
  ASSERT_TRUE(recorded.ok());
  int heard_peer = 0;
  for (Sample s : recorded.value()) {
    if (s == 1111) {
      ++heard_peer;
    }
  }
  EXPECT_GT(heard_peer, 4000) << "far-end speech missing from our recording";

  // ...and the peer heard us at the same time (heard() logs all rx audio,
  // including what arrived while its script was still speaking).
  int peer_heard_us = 0;
  for (Sample s : peer->heard()) {
    if (s == 2222) {
      ++peer_heard_us;
    }
  }
  EXPECT_GT(peer_heard_us, 4000) << "our speech missing at the far end";
}

TEST_F(DuplexTest, OddEngineStepSizesStayExact) {
  // Driving the engine with non-period step sizes (StepFrames runs a
  // trailing partial tick) must not break sample exactness.
  board_->speakers()[0]->set_capture_output(true);
  std::vector<Sample> a(777, 1000);
  std::vector<Sample> b(333, 2000);
  ResourceId sa = toolkit_->UploadSound(a, {Encoding::kPcm16, 8000});
  ResourceId sb = toolkit_->UploadSound(b, {Encoding::kPcm16, 8000});
  auto chain = toolkit_->BuildPlaybackChain();
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sa, 1),
                                PlayCommand(chain.player, sb, 2)});
  client_->StartQueue(chain.loud);
  Flush();
  // Advance in awkward chunks: 1, 7, 33, 100, 159, 161 frames...
  const int64_t kSteps[] = {1, 7, 33, 100, 159, 161, 500, 123, 997};
  for (int round = 0; round < 5; ++round) {
    for (int64_t step : kSteps) {
      server_->StepFrames(step);
    }
  }
  server_->StepFrames(8000);

  const auto& played = board_->speakers()[0]->played();
  size_t start = 0;
  while (start < played.size() && played[start] != 1000) {
    ++start;
  }
  ASSERT_LE(start + a.size() + b.size(), played.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(played[start + i], 1000) << "A broken at " << i;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    ASSERT_EQ(played[start + a.size() + i], 2000) << "gap at " << i;
  }
}

}  // namespace
}  // namespace aud
