// Engine output determinism: the serial epoch tick's speaker output for a
// 64-player workload is pinned to golden hashes.
//
// The hashes were recorded when the tree still carried an island-parallel
// engine beside the serial one and both produced these exact captures (for
// 1, 2, 4 and 8 engine threads). Matching them keeps today's engine
// bit-identical to both, including with shared mixers, shared sounds and
// two physical outputs.

#include <gtest/gtest.h>

#include <vector>

#include "tests/server_fixture.h"

namespace aud {
namespace {

// One second of a deterministic, chain-specific waveform.
std::vector<Sample> ChainTone(int i) {
  std::vector<Sample> pcm(8000);
  for (int j = 0; j < 8000; ++j) {
    pcm[static_cast<size_t>(j)] = static_cast<Sample>(((i * 37 + j * 11) % 2001) - 1000);
  }
  return pcm;
}

// A two-speaker server playing the 64-player workload, capturing both
// speakers.
class ParallelDeterminismTest : public ServerFixture {
 protected:
  struct GoldenCapture {
    size_t samples;
    uint64_t hash;
  };

  void SetUp() override {
    BoardConfig config;
    config.speakers = 2;
    Init(config);
    for (SpeakerUnit* speaker : board_->speakers()) {
      speaker->set_capture_output(true);
    }
    BuildWorkload();
  }

  // 48 independent chains split across both speakers (some sharing sounds),
  // plus 8 shared-mixer groups of two players each.
  void BuildWorkload();

  // Runs `periods` 20 ms periods and checks each speaker's capture against
  // `golden`.
  void ExpectGoldenOutput(int periods, const GoldenCapture (&golden)[2]) {
    server_->StepFrames(160 * periods);
    for (size_t s = 0; s < 2; ++s) {
      const std::vector<Sample>& got = board_->speakers()[s]->played();
      EXPECT_GT(Rms(got), 0.0) << "speaker " << s << " silent — workload not audible";
      EXPECT_EQ(got.size(), golden[s].samples) << "speaker " << s;
      EXPECT_EQ(CaptureHash(got), golden[s].hash) << "speaker " << s << ": engine output changed";
    }
  }
};

void ParallelDeterminismTest::BuildWorkload() {
  AudioConnection& client = *client_;
  AudioToolkit& toolkit = *toolkit_;
  const char* positions[2] = {"left", "right"};

  ResourceId prev_sound = kNoResource;
  for (int i = 0; i < 48; ++i) {
    ResourceId sound = (i % 16 == 15)
                           ? prev_sound
                           : toolkit.UploadSound(ChainTone(i), {Encoding::kPcm16, 8000});
    prev_sound = sound;
    AttrList attrs;
    attrs.SetString(AttrTag::kPosition, positions[i % 2]);
    auto chain = toolkit.BuildPlaybackChain(attrs);
    client.Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
    client.StartQueue(chain.loud);
  }

  for (int g = 0; g < 8; ++g) {
    ResourceId root = client.CreateLoud(kNoResource, {});
    ResourceId child_a = client.CreateLoud(root, {});
    ResourceId child_b = client.CreateLoud(root, {});
    ResourceId player_a = client.CreateDevice(child_a, DeviceClass::kPlayer, {});
    ResourceId player_b = client.CreateDevice(child_b, DeviceClass::kPlayer, {});
    ResourceId mixer = client.CreateDevice(root, DeviceClass::kMixer, {});
    AttrList attrs;
    attrs.SetString(AttrTag::kPosition, positions[g % 2]);
    ResourceId output = client.CreateDevice(root, DeviceClass::kOutput, attrs);
    client.CreateWire(player_a, 0, mixer, 0);
    client.CreateWire(player_b, 0, mixer, 1);
    client.CreateWire(mixer, 0, output, 0);
    client.MapLoud(root);
    ResourceId sound_a = toolkit.UploadSound(ChainTone(100 + 2 * g), {Encoding::kPcm16, 8000});
    ResourceId sound_b = toolkit.UploadSound(ChainTone(101 + 2 * g), {Encoding::kPcm16, 8000});
    client.Enqueue(root, {PlayCommand(player_a, sound_a, 1), PlayCommand(player_b, sound_b, 2)});
    client.StartQueue(root);
  }
  ASSERT_TRUE(client.Sync().ok());
}

// 70 periods = 1.4 s: covers the full 1 s sounds plus their completions
// (queue advance + deferred event flush).
TEST_F(ParallelDeterminismTest, ParallelOutputBitIdenticalToSerial) {
  ExpectGoldenOutput(70, {{11200, 0xf5c4b470e32a304dull}, {11200, 0x1273c834412bc010ull}});
}

// 30 periods: mid-play, every chain still running.
TEST_F(ParallelDeterminismTest, WorkerCountDoesNotAffectOutput) {
  ExpectGoldenOutput(30, {{4800, 0xd7ac4a0e81c2c33full}, {4800, 0xa5e4447aadf7b126ull}});
}

}  // namespace
}  // namespace aud
