// Protocol-object tests: resource lifecycle, id validation, wire type
// checking, sounds and the catalogue, properties, events selection, and
// asynchronous error semantics (section 4.1).

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <random>
#include <thread>

#include "tests/server_fixture.h"

namespace aud {
namespace {

class ObjectsTest : public ServerFixture {};

TEST_F(ObjectsTest, ConnectionSetupHandsOutIdsAndDeviceLoud) {
  EXPECT_EQ(client_->server_name(), "netaudio");
  EXPECT_NE(client_->device_loud(), kNoResource);
  ResourceId a = client_->AllocId();
  ResourceId b = client_->AllocId();
  EXPECT_NE(a, kNoResource);
  EXPECT_EQ(b, a + 1);
}

TEST_F(ObjectsTest, SecondClientGetsDisjointIdBlock) {
  auto client2 = Connect("second");
  ASSERT_NE(client2, nullptr);
  ResourceId a = client_->AllocId();
  ResourceId b = client2->AllocId();
  EXPECT_NE(a, b);
}

TEST_F(ObjectsTest, LoudTreeConstruction) {
  ResourceId root = client_->CreateLoud(kNoResource, {});
  ResourceId child = client_->CreateLoud(root, {});
  ExpectNoErrors();

  auto state = client_->QueryLoud(root);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().children, 1u);
  EXPECT_EQ(state.value().parent, kNoResource);

  auto child_state = client_->QueryLoud(child);
  ASSERT_TRUE(child_state.ok());
  EXPECT_EQ(child_state.value().parent, root);
}

TEST_F(ObjectsTest, CreateWithForeignParentFails) {
  ResourceId bogus = 0xDEAD;
  client_->CreateLoud(bogus, {});
  ExpectError(ErrorCode::kBadResource);
}

TEST_F(ObjectsTest, DeviceCreationAndQuery) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  AttrList attrs;
  attrs.SetBool(AttrTag::kAgc, true);
  ResourceId recorder = client_->CreateDevice(loud, DeviceClass::kRecorder, attrs);
  ExpectNoErrors();

  auto reply = client_->QueryDevice(recorder);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().device_class, DeviceClass::kRecorder);
  EXPECT_TRUE(reply.value().attrs.GetBool(AttrTag::kAgc));
  EXPECT_EQ(reply.value().mapped, 0);
}

TEST_F(ObjectsTest, ErrorsArriveAsynchronously) {
  // A bad request doesn't block the stream; the error is tagged with the
  // failing request's sequence (section 4.1).
  client_->DestroyLoud(0x12345);  // nonexistent
  ResourceId good = client_->CreateLoud(kNoResource, {});
  ASSERT_TRUE(client_->Sync().ok());

  AsyncError error;
  ASSERT_TRUE(client_->NextError(&error));
  EXPECT_EQ(error.error.code, ErrorCode::kBadResource);
  EXPECT_EQ(error.error.opcode, static_cast<uint16_t>(Opcode::kDestroyLoud));

  // The later request still succeeded.
  EXPECT_TRUE(client_->QueryLoud(good).ok());
}

TEST_F(ObjectsTest, WirePortValidation) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId player = client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, {});
  // Player has no sink ports; wiring output->player must fail.
  client_->CreateWire(output, 0, player, 0);
  ExpectError(ErrorCode::kBadValue);
}

TEST_F(ObjectsTest, WireEncodingMismatchIsBadMatch) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  AttrList mulaw;
  mulaw.SetU32(AttrTag::kEncoding, static_cast<uint32_t>(Encoding::kMulaw8));
  AttrList adpcm;
  adpcm.SetU32(AttrTag::kEncoding, static_cast<uint32_t>(Encoding::kAdpcm4));
  ResourceId player = client_->CreateDevice(loud, DeviceClass::kPlayer, mulaw);
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, adpcm);
  // Section 5.9: "if one end can only produce 8-bit u-law and the other
  // can only take ADPCM, a protocol error will be generated."
  client_->CreateWire(player, 0, output, 0);
  ExpectError(ErrorCode::kBadMatch);
}

TEST_F(ObjectsTest, WireAcrossLoudTreesIsBadWiring) {
  ResourceId loud1 = client_->CreateLoud(kNoResource, {});
  ResourceId loud2 = client_->CreateLoud(kNoResource, {});
  ResourceId player = client_->CreateDevice(loud1, DeviceClass::kPlayer, {});
  ResourceId output = client_->CreateDevice(loud2, DeviceClass::kOutput, {});
  client_->CreateWire(player, 0, output, 0);
  ExpectError(ErrorCode::kBadWiring);
}

TEST_F(ObjectsTest, QueryWiresSeesBothDirections) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId player = client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, {});
  ResourceId wire = client_->CreateWire(player, 0, output, 0);
  ExpectNoErrors();

  auto wires = client_->QueryWires(player);
  ASSERT_TRUE(wires.ok());
  ASSERT_EQ(wires.value().wires.size(), 1u);
  EXPECT_EQ(wires.value().wires[0].id, wire);
  EXPECT_EQ(wires.value().wires[0].src_device, player);
  EXPECT_EQ(wires.value().wires[0].dst_device, output);

  auto from_output = client_->QueryWires(output);
  ASSERT_TRUE(from_output.ok());
  EXPECT_EQ(from_output.value().wires.size(), 1u);
}

TEST_F(ObjectsTest, DestroyDeviceDestroysItsWires) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId player = client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->CreateWire(player, 0, output, 0);
  client_->DestroyDevice(player);
  ExpectNoErrors();

  auto wires = client_->QueryWires(output);
  ASSERT_TRUE(wires.ok());
  EXPECT_TRUE(wires.value().wires.empty());
}

TEST_F(ObjectsTest, DestroyLoudCascades) {
  ResourceId root = client_->CreateLoud(kNoResource, {});
  ResourceId child = client_->CreateLoud(root, {});
  ResourceId device = client_->CreateDevice(child, DeviceClass::kPlayer, {});
  client_->DestroyLoud(root);
  Flush();
  // Everything is gone: queries now error.
  EXPECT_FALSE(client_->QueryLoud(child).ok());
  EXPECT_FALSE(client_->QueryDevice(device).ok());
  // Drain the expected errors from the failed queries.
  AsyncError e;
  while (client_->NextError(&e)) {
  }
}

TEST_F(ObjectsTest, SoundWriteReadRoundTrip) {
  ResourceId sound = client_->CreateSound({Encoding::kPcm16, 8000});
  std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6};
  client_->WriteSound(sound, 0, data);
  ExpectNoErrors();

  auto info = client_->QuerySound(sound);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size_bytes, 6u);
  EXPECT_EQ(info.value().samples, 3u);  // 16-bit

  auto read = client_->ReadSound(sound, 2, 2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (std::vector<uint8_t>{3, 4}));
}

TEST_F(ObjectsTest, SoundWriteAtOffsetZeroFillsGap) {
  ResourceId sound = client_->CreateSound(kTelephoneFormat);
  std::vector<uint8_t> data = {9};
  client_->WriteSound(sound, 10, data);
  Flush();
  auto read = client_->ReadSound(sound, 0, 11);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 11u);
  EXPECT_EQ(read.value()[0], 0);
  EXPECT_EQ(read.value()[10], 9);
}

TEST_F(ObjectsTest, CatalogueListsSeededSounds) {
  auto catalogue = client_->ListCatalogue();
  ASSERT_TRUE(catalogue.ok());
  bool has_beep = false;
  for (const auto& entry : catalogue.value().entries) {
    if (entry.name == "beep") {
      has_beep = true;
      EXPECT_GT(entry.size_bytes, 0u);
    }
  }
  EXPECT_TRUE(has_beep);
}

TEST_F(ObjectsTest, CatalogueSaveThenLoad) {
  ResourceId sound = client_->CreateSound(kTelephoneFormat);
  std::vector<uint8_t> data(100, 42);
  client_->WriteSound(sound, 0, data);
  client_->SaveCatalogueSound(sound, "greeting");
  ExpectNoErrors();

  ResourceId loaded = client_->LoadCatalogueSound("greeting");
  Flush();
  auto read = client_->ReadSound(loaded, 0, 100);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data);
}

TEST_F(ObjectsTest, LoadUnknownCatalogueNameIsBadName) {
  client_->LoadCatalogueSound("no-such-sound");
  ExpectError(ErrorCode::kBadName);
}

TEST_F(ObjectsTest, PropertiesRoundTripAndNotify) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  client_->SelectEvents(loud, kPropertyEvents);
  std::vector<uint8_t> value = {'d', 'e', 's', 'k'};
  client_->ChangeProperty(loud, "DOMAIN", "STRING", value);
  Flush();

  auto got = client_->GetProperty(loud, "DOMAIN");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().found, 1);
  EXPECT_EQ(got.value().type, "STRING");
  EXPECT_EQ(got.value().value, value);

  auto names = client_->ListProperties(loud);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().names, std::vector<std::string>{"DOMAIN"});

  // PropertyNotify was delivered.
  EventMessage event;
  bool notified = false;
  while (client_->PollEvent(&event)) {
    if (event.type == EventType::kPropertyNotify) {
      notified = PropertyNotifyArgs::Decode(event.args).name == "DOMAIN";
    }
  }
  EXPECT_TRUE(notified);

  client_->DeleteProperty(loud, "DOMAIN");
  Flush();
  auto gone = client_->GetProperty(loud, "DOMAIN");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().found, 0);
}

TEST_F(ObjectsTest, DeviceLoudDescribesBoard) {
  auto reply = client_->QueryDeviceLoud();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().root, client_->device_loud());
  ASSERT_EQ(reply.value().devices.size(), 3u);  // speaker, mic, phone
  bool has_phone = false;
  for (const auto& dev : reply.value().devices) {
    if (dev.device_class == DeviceClass::kTelephone) {
      has_phone = true;
      EXPECT_EQ(dev.attrs.GetString(AttrTag::kPhoneNumber), "555-0100");
    }
  }
  EXPECT_TRUE(has_phone);
}

TEST_F(ObjectsTest, DisconnectDestroysClientObjects) {
  auto client2 = Connect("doomed");
  ASSERT_NE(client2, nullptr);
  AudioToolkit toolkit2(client2.get());
  toolkit2.set_time_pump([this] { server_->StepFrames(160); });
  auto chain = toolkit2.BuildPlaybackChain();
  ASSERT_TRUE(client2->Sync().ok());

  size_t before;
  {
    MutexLock lock(&server_->mutex());
    before = server_->state().object_count();
  }
  client2->Close();
  // Wait until the server reaped the connection's objects.
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    MutexLock lock(&server_->mutex());
    if (server_->state().object_count() < before) {
      break;
    }
  }
  MutexLock lock(&server_->mutex());
  EXPECT_LT(server_->state().object_count(), before);
  // The mapped LOUD left the active stack.
  for (Loud* loud : server_->state().active_stack()) {
    EXPECT_NE(loud->id(), chain.loud);
  }
}

TEST_F(ObjectsTest, ImmediateQueuedOnlyCommandRejected) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId player = client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ResourceId sound = client_->LoadCatalogueSound("beep");
  client_->Immediate(loud, PlayCommand(player, sound));
  ExpectError(ErrorCode::kBadValue);
}

TEST_F(ObjectsTest, UnknownOpcodeIsBadRequest) {
  client_->SendRequest(static_cast<Opcode>(999), {});
  ExpectError(ErrorCode::kBadRequest);
}

TEST_F(ObjectsTest, GetServerTimeAdvancesWithEngine) {
  auto t0 = client_->GetServerTime();
  ASSERT_TRUE(t0.ok());
  StepMs(500);
  auto t1 = client_->GetServerTime();
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value() - t0.value(), 500 * kTicksPerMillisecond);
}

// Event selection as a random walk: several connections set, change and
// clear their masks on one playing root, and some die and are replaced,
// while the root emits sync marks from the tick. After every step the
// root's flat mask list equals a std::map model (same entries, ascending
// by connection), every connection's events arrive in emission order, and
// a reclaimed connection's slot keeps no batch-size hint for the newcomer
// that takes it.
TEST_F(ObjectsTest, EventMasksFollowAMapModelThroughSelectionsAndDeaths) {
  constexpr int kSlots = 4;
  constexpr int kSteps = 300;
  auto chain = toolkit_->BuildPlaybackChain();
  client_->SetSyncMarks(chain.loud, 20);
  ResourceId sound = toolkit_->UploadSound(TestTone(8000), kTelephoneFormat);
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  client_->StartQueue(chain.loud);
  Flush();

  struct Slot {
    std::unique_ptr<AudioConnection> conn;
    uint32_t index = 0;
    int64_t last_time = -1;
    int64_t last_position = -1;
    uint64_t marks = 0;
  };
  std::vector<Slot> slots(kSlots);
  // The owner's own selection (BuildPlaybackChain) is connection 0's.
  std::map<uint32_t, uint32_t> model = {{0, kQueueEvents | kLifecycleEvents | kSyncEvents}};
  // A connection's index is its slot, which its id block names.
  auto connect = [&](Slot& slot) {
    slot.conn = Connect("selector");
    ASSERT_NE(slot.conn, nullptr);
    slot.index = (slot.conn->id_base() - kClientIdBase) / kClientIdBlockSize;
  };
  for (Slot& slot : slots) {
    connect(slot);
  }

  // Drains a slot's events: each arrives after the one before it.
  auto drain = [&](Slot& slot) {
    ASSERT_TRUE(slot.conn->Sync().ok());
    EventMessage event;
    while (slot.conn->PollEvent(&event)) {
      ASSERT_GE(event.server_time, slot.last_time) << "connection " << slot.index;
      slot.last_time = event.server_time;
      if (event.type == EventType::kSyncMark) {
        const auto position =
            static_cast<int64_t>(SyncMarkArgs::Decode(event.args).position_samples);
        ASSERT_GT(position, slot.last_position) << "connection " << slot.index;
        slot.last_position = position;
        ++slot.marks;
      }
    }
  };

  std::mt19937 rng(20261018);
  uint64_t marks_seen = 0;
  int deaths_with_hint = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    Slot& slot = slots[rng() % kSlots];
    switch (rng() % 6) {
      case 0:
      case 1: {  // set or change
        const uint32_t mask = 1 + rng() % kAllEvents;
        slot.conn->SelectEvents(chain.loud, mask);
        model[slot.index] = mask;
        break;
      }
      case 2:  // clear
        slot.conn->SelectEvents(chain.loud, 0);
        model.erase(slot.index);
        break;
      case 3: {  // death, and a newcomer in its place
        {
          MutexLock lock(&server_->mutex());
          deaths_with_hint += server_->state().batch_size_hint(slot.index) > 0 ? 1 : 0;
        }
        marks_seen += slot.marks;
        slot.conn->Close();
        model.erase(slot.index);
        const uint32_t dead = slot.index;
        // Wait for the server to reclaim the dead connection; the newcomer
        // then takes the slot it left.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
          int64_t open = 0;
          {
            MutexLock lock(&server_->mutex());
            open = server_->state().metrics().connections_open.value();
          }
          if (open == kSlots) {
            break;
          }
          ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "death not reclaimed";
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        slot = Slot{};
        connect(slot);
        ASSERT_EQ(slot.index, dead) << "the freed slot was not reused";
        MutexLock lock(&server_->mutex());
        ASSERT_EQ(server_->state().batch_size_hint(dead), 0u) << "connection " << dead;
        break;
      }
      default:  // ticks: sync marks fan out to the selected connections
        StepMs(20 * (1 + static_cast<int64_t>(rng() % 3)));
        break;
    }
    Flush();
    for (Slot& s : slots) {
      drain(s);
    }
    MutexLock lock(&server_->mutex());
    Loud* root = server_->state().FindLoud(chain.loud);
    ASSERT_NE(root, nullptr);
    std::vector<std::pair<uint32_t, uint32_t>> flat;
    for (const Loud::EventMask& m : root->event_masks()) {
      flat.emplace_back(m.conn, m.mask);
    }
    const std::vector<std::pair<uint32_t, uint32_t>> want(model.begin(), model.end());
    ASSERT_EQ(flat, want);
  }
  for (const Slot& s : slots) {
    marks_seen += s.marks;
  }
  // The walk did deliver marks from the tick, and connections that had
  // batches did die.
  EXPECT_GT(marks_seen, 0u);
  EXPECT_GT(deaths_with_hint, 0);
}

}  // namespace
}  // namespace aud
