// Failure-injection and malformed-input robustness: resources destroyed
// mid-use, abusive clients, truncated request payloads, id-range
// violations. The server must degrade with protocol errors, never crash
// or corrupt other clients.

#include <gtest/gtest.h>

#include "tests/server_fixture.h"

namespace aud {
namespace {

class RobustnessTest : public ServerFixture {};

TEST_F(RobustnessTest, SoundDestroyedMidPlayAbortsCleanly) {
  SpeakerUnit* speaker = board_->speakers()[0];
  speaker->set_capture_output(true);
  auto tone = TestTone(2000);
  ResourceId sound = toolkit_->UploadSound(tone, kTelephoneFormat);
  auto chain = toolkit_->BuildPlaybackChain();
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  client_->StartQueue(chain.loud);
  Flush();
  StepMs(100);
  ASSERT_GE(speaker->played().size(), 160u);
  EXPECT_GT(Rms(std::span<const Sample>(speaker->played()).last(160)), 0.05);

  client_->DestroySound(sound);
  Flush();
  const size_t played_at_destroy = speaker->played().size();
  // The play command ends aborted on the first tick after the destroy
  // (the sound vanished under it).
  server_->StepFrames(160);
  Flush();
  std::optional<CommandDoneArgs> done;
  EventMessage event;
  while (client_->PollEvent(&event)) {
    if (event.type == EventType::kCommandDone) {
      done = CommandDoneArgs::Decode(event.args);
    }
  }
  ASSERT_TRUE(done.has_value()) << "no CommandDone within one period of the destroy";
  EXPECT_EQ(done->tag, 1u);
  EXPECT_EQ(done->aborted, 1);
  // Nothing of the sound is heard after it is gone.
  StepMs(200);
  const std::vector<Sample>& played = speaker->played();
  ASSERT_GT(played.size(), played_at_destroy);
  for (size_t i = played_at_destroy; i < played.size(); ++i) {
    ASSERT_EQ(played[i], 0) << "sample " << i - played_at_destroy << " after the destroy";
  }
  // The server remains healthy.
  ExpectNoErrors();
}

// Destroying some other sound mid-play changes nothing the playing chain
// produces: the player keeps its own sound, and the speaker capture is
// sample for sample the same as without the destroy.
TEST_F(RobustnessTest, UnrelatedSoundDestroyedMidPlayLeavesOutputUnchanged) {
  auto play = [this](bool destroy_unrelated) {
    Init(BoardConfig{});
    SpeakerUnit* speaker = board_->speakers()[0];
    speaker->set_capture_output(true);
    ResourceId sound = toolkit_->UploadSound(TestTone(1000), kTelephoneFormat);
    ResourceId unrelated = toolkit_->UploadSound(TestTone(300, 880.0), kTelephoneFormat);
    auto chain = toolkit_->BuildPlaybackChain();
    client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
    client_->StartQueue(chain.loud);
    Flush();
    StepMs(300);
    if (destroy_unrelated) {
      client_->DestroySound(unrelated);
      Flush();
    }
    StepMs(1000);
    Flush();
    std::optional<CommandDoneArgs> done;
    EventMessage event;
    while (client_->PollEvent(&event)) {
      if (event.type == EventType::kCommandDone) {
        done = CommandDoneArgs::Decode(event.args);
      }
    }
    EXPECT_TRUE(done.has_value() && done->tag == 1 && done->aborted == 0);
    ExpectNoErrors();
    return std::make_pair(speaker->played().size(), CaptureHash(speaker->played()));
  };
  const auto undisturbed = play(false);
  const auto disturbed = play(true);
  EXPECT_EQ(disturbed.first, undisturbed.first);
  EXPECT_EQ(disturbed.second, undisturbed.second);
}

TEST_F(RobustnessTest, WireDestroyedMidPlayJustSilences) {
  board_->speakers()[0]->set_capture_output(true);
  auto tone = TestTone(1000);
  ResourceId sound = toolkit_->UploadSound(tone, kTelephoneFormat);
  auto chain = toolkit_->BuildPlaybackChain();
  auto wires = client_->QueryWires(chain.player);
  ASSERT_TRUE(wires.ok());
  ResourceId wire = wires.value().wires[0].id;

  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  client_->StartQueue(chain.loud);
  Flush();
  StepMs(200);
  client_->DestroyWire(wire);
  Flush();
  // Playback still completes (producing into no wires).
  EXPECT_TRUE(toolkit_->WaitCommandDone(1, 20000));
  ExpectNoErrors();
}

TEST_F(RobustnessTest, DestroyLoudMidRecordingStopsEverything) {
  auto chain = toolkit_->BuildRecordChain();
  ResourceId sound = client_->CreateSound(kTelephoneFormat);
  board_->microphones()[0]->set_source([](std::span<Sample> block) {
    for (Sample& s : block) {
      s = 5000;
    }
  });
  client_->Enqueue(chain.loud,
                   {RecordCommand(chain.recorder, sound, kTerminateOnStop, 60000, 1)});
  client_->StartQueue(chain.loud);
  Flush();
  StepMs(200);
  client_->DestroyLoud(chain.loud);
  Flush();
  StepMs(200);
  // Gone from the registry; the sound still exists (client-owned).
  EXPECT_FALSE(client_->QueryLoud(chain.loud).ok());
  EXPECT_TRUE(client_->QuerySound(sound).ok());
  AsyncError e;
  while (client_->NextError(&e)) {
  }
}

// Destroying the sound a recorder is writing ends the record aborted, and
// the recorder never writes the destroyed sound again (under ASan a write
// through a stale sound pointer is a use-after-free).
TEST_F(RobustnessTest, SoundDestroyedMidRecordAbortsCleanly) {
  auto chain = toolkit_->BuildRecordChain();
  ResourceId sound = client_->CreateSound(kTelephoneFormat);
  board_->microphones()[0]->set_source([](std::span<Sample> block) {
    for (Sample& s : block) {
      s = 5000;
    }
  });
  client_->Enqueue(chain.loud,
                   {RecordCommand(chain.recorder, sound, kTerminateOnStop, 60000, 1)});
  client_->StartQueue(chain.loud);
  Flush();
  StepMs(200);
  auto recorded = client_->QuerySound(sound);
  ASSERT_TRUE(recorded.ok());
  EXPECT_GT(recorded.value().samples, 0u);

  client_->DestroySound(sound);
  Flush();
  // The recorder finds its sound gone on the next tick; the queue reports
  // the aborted command on the one after.
  StepMs(40);
  Flush();
  std::optional<CommandDoneArgs> done;
  EventMessage event;
  while (client_->PollEvent(&event)) {
    if (event.type == EventType::kCommandDone) {
      done = CommandDoneArgs::Decode(event.args);
    }
  }
  ASSERT_TRUE(done.has_value()) << "no CommandDone within two periods of the destroy";
  EXPECT_EQ(done->tag, 1u);
  EXPECT_EQ(done->aborted, 1);
  // Recording on into a fresh sound still works.
  ResourceId next = client_->CreateSound(kTelephoneFormat);
  client_->Enqueue(chain.loud,
                   {RecordCommand(chain.recorder, next, kTerminateOnStop, 100, 2)});
  EXPECT_TRUE(toolkit_->WaitCommandDone(2, 20000));
  auto second = client_->QuerySound(next);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value().samples, 0u);
  ExpectNoErrors();
}

TEST_F(RobustnessTest, DoubleMapAndDoubleUnmapAreIdempotent) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->MapLoud(loud);
  client_->MapLoud(loud);
  client_->UnmapLoud(loud);
  client_->UnmapLoud(loud);
  ExpectNoErrors();
  auto stack = client_->QueryActiveStack();
  ASSERT_TRUE(stack.ok());
  EXPECT_TRUE(stack.value().entries.empty());
}

TEST_F(RobustnessTest, IdOutsideClientBlockRejected) {
  CreateLoudReq req;
  req.id = 5;  // far below the client's block
  ByteWriter w;
  req.Encode(&w);
  client_->SendRequest(Opcode::kCreateLoud, w.bytes());
  ExpectError(ErrorCode::kBadIdChoice);

  req.id = kServerIdBase + 10;  // inside the server-reserved range
  ByteWriter w2;
  req.Encode(&w2);
  client_->SendRequest(Opcode::kCreateLoud, w2.bytes());
  ExpectError(ErrorCode::kBadIdChoice);
}

TEST_F(RobustnessTest, DuplicateIdRejected) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  Flush();
  CreateSoundReq req;
  req.id = loud;  // collides with the LOUD
  req.format = kTelephoneFormat;
  ByteWriter w;
  req.Encode(&w);
  client_->SendRequest(Opcode::kCreateSound, w.bytes());
  ExpectError(ErrorCode::kBadIdChoice);
}

TEST_F(RobustnessTest, TruncatedPayloadsYieldErrorsNotCrashes) {
  // Send every prefix of a valid CreateVirtualDevice request as the
  // payload; the server must answer each with an error (or accept a
  // trivially-valid prefix) and stay alive.
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  Flush();
  CreateVirtualDeviceReq req;
  req.id = client_->AllocId();
  req.loud = loud;
  req.device_class = DeviceClass::kMixer;
  req.attrs.SetString(AttrTag::kName, "m");
  ByteWriter w;
  req.Encode(&w);

  for (size_t len = 0; len < w.bytes().size(); ++len) {
    client_->SendRequest(Opcode::kCreateVirtualDevice,
                         std::span<const uint8_t>(w.bytes()).first(len));
  }
  ASSERT_TRUE(client_->Sync().ok());
  AsyncError error;
  while (client_->NextError(&error)) {
  }
  // Server is still fully functional.
  ResourceId after = client_->CreateLoud(kNoResource, {});
  Flush();
  EXPECT_TRUE(client_->QueryLoud(after).ok());
}

TEST_F(RobustnessTest, HostileOpcodeFloodSurvives) {
  for (uint16_t code = 0; code < 120; ++code) {
    client_->SendRequest(static_cast<Opcode>(code), {});
  }
  ASSERT_TRUE(client_->Sync().ok());
  AsyncError error;
  int errors = 0;
  while (client_->NextError(&error)) {
    ++errors;
  }
  EXPECT_GT(errors, 0);
  ExpectNoErrors();  // drained; still alive
}

TEST_F(RobustnessTest, OversizedSoundWriteRejected) {
  ResourceId sound = client_->CreateSound(kTelephoneFormat);
  WriteSoundDataReq req;
  req.id = sound;
  req.offset = 63ull << 20;
  req.data.assign(2 << 20, 0);  // pushes past the 64 MiB cap
  ByteWriter w;
  req.Encode(&w);
  client_->SendRequest(Opcode::kWriteSoundData, w.bytes());
  ExpectError(ErrorCode::kAlloc);
}

TEST_F(RobustnessTest, ForeignResourceOperationsRejected) {
  auto client2 = Connect("intruder");
  ASSERT_NE(client2, nullptr);
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  Flush();

  // Another client cannot destroy, map or enqueue on our LOUD.
  client2->DestroyLoud(loud);
  client2->MapLoud(loud);
  client2->StartQueue(loud);
  ASSERT_TRUE(client2->Sync().ok());
  AsyncError error;
  int errors = 0;
  while (client2->NextError(&error)) {
    EXPECT_EQ(error.error.code, ErrorCode::kBadResource);
    ++errors;
  }
  EXPECT_EQ(errors, 3);
  // Ours is untouched.
  EXPECT_TRUE(client_->QueryLoud(loud).ok());
}

TEST_F(RobustnessTest, EventMaskDeselectionStopsDelivery) {
  auto tone = TestTone(100);
  ResourceId sound = toolkit_->UploadSound(tone, kTelephoneFormat);
  auto chain = toolkit_->BuildPlaybackChain();
  // Deselect everything.
  client_->SelectEvents(chain.loud, 0);
  Flush();
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  client_->StartQueue(chain.loud);
  Flush();
  StepMs(500);
  EventMessage event;
  while (client_->PollEvent(&event)) {
    EXPECT_NE(event.type, EventType::kCommandDone) << "event delivered despite mask 0";
    EXPECT_NE(event.type, EventType::kQueueStarted);
  }
}

TEST_F(RobustnessTest, SelfWireIsHandled) {
  // Wiring a DSP's own output to its own input (a loop) is accepted
  // structurally but must not hang or explode the engine.
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId dsp = client_->CreateDevice(loud, DeviceClass::kDsp, {});
  client_->CreateWire(dsp, 0, dsp, 0);
  client_->MapLoud(loud);
  Flush();
  StepMs(500);  // engine survives the loop
  ExpectNoErrors();
}

TEST_F(RobustnessTest, ZeroLengthSoundPlaysInstantly) {
  ResourceId sound = client_->CreateSound(kTelephoneFormat);  // empty
  auto chain = toolkit_->BuildPlaybackChain();
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  client_->StartQueue(chain.loud);
  Flush();
  EXPECT_TRUE(toolkit_->WaitCommandDone(1, 5000));
}

TEST_F(RobustnessTest, PauseOfIdleQueueIsBadState) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  client_->PauseQueue(loud);
  ExpectError(ErrorCode::kBadState);
  client_->ResumeQueue(loud);
  ExpectError(ErrorCode::kBadState);
}

}  // namespace
}  // namespace aud
