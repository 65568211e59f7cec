// Active-stack and activation tests (sections 5.3, 5.4, 5.8): mapping,
// attribute matching, augmentation, telephone exclusivity, exclusive
// ambient domains, preemption with server-paused queues, redirection, and
// the incremental activation path held to the whole-stack walk.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>

#include "tests/server_fixture.h"

namespace aud {
namespace {

class ActivationTest : public ServerFixture {
 protected:
  // Whole-stack walks run so far.
  uint64_t Walks() {
    MutexLock lock(&server_->mutex());
    return server_->state().activation_walks();
  }

  size_t ObjectCount() {
    MutexLock lock(&server_->mutex());
    return server_->state().object_count();
  }

  // Waits for a closed client's teardown to bring the registry to `count`.
  bool WaitForObjectCount(size_t count) {
    for (int i = 0; i < 2000; ++i) {
      if (ObjectCount() == count) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }
};

TEST_F(ActivationTest, MapActivatesAndBindsByClass) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->SelectEvents(loud, kLifecycleEvents);
  client_->MapLoud(loud);
  Flush();

  auto reply = client_->QueryDevice(output);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().active, 1);
  EXPECT_NE(reply.value().bound_device, kNoResource);
  // Matched hardware attributes are visible (section 5.3).
  EXPECT_EQ(reply.value().attrs.GetString(AttrTag::kName), "speaker0");

  bool activated = false;
  EventMessage event;
  while (client_->PollEvent(&event)) {
    if (event.type == EventType::kActivateNotify) {
      activated = true;
    }
  }
  EXPECT_TRUE(activated);
}

TEST_F(ActivationTest, TightAttributeSelectsSpecificSpeaker) {
  Init(BoardConfig{.speakers = 2});
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  AttrList attrs;
  attrs.SetString(AttrTag::kPosition, "right");  // "give me the left speaker"-style
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, attrs);
  client_->MapLoud(loud);
  Flush();

  auto reply = client_->QueryDevice(output);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().active, 1);
  EXPECT_EQ(reply.value().attrs.GetString(AttrTag::kName), "speaker1");
}

TEST_F(ActivationTest, ImpossibleAttributesLeaveLoudInactive) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  AttrList attrs;
  attrs.SetString(AttrTag::kName, "no-such-device");
  client_->CreateDevice(loud, DeviceClass::kOutput, attrs);
  client_->MapLoud(loud);
  Flush();
  auto state = client_->QueryLoud(loud);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().mapped, 1);
  EXPECT_EQ(state.value().active, 0);
}

TEST_F(ActivationTest, AugmentPinsDeviceAcrossRemap) {
  // Section 5.3: query the selected device id, augment the vdev with it.
  Init(BoardConfig{.speakers = 2});
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId output = client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->MapLoud(loud);
  Flush();
  auto reply = client_->QueryDevice(output);
  ASSERT_TRUE(reply.ok());
  ResourceId chosen = reply.value().bound_device;
  ASSERT_NE(chosen, kNoResource);

  AttrList pin;
  pin.SetU32(AttrTag::kDeviceId, chosen);
  client_->AugmentDevice(output, pin);
  client_->UnmapLoud(loud);
  client_->MapLoud(loud);
  Flush();
  auto reply2 = client_->QueryDevice(output);
  ASSERT_TRUE(reply2.ok());
  EXPECT_EQ(reply2.value().bound_device, chosen);
}

TEST_F(ActivationTest, TelephoneIsExclusive) {
  // Two LOUDs both wanting the single phone line: only the top activates.
  ResourceId loud1 = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud1, DeviceClass::kTelephone, {});
  ResourceId loud2 = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud2, DeviceClass::kTelephone, {});
  client_->SelectEvents(loud1, kLifecycleEvents);
  client_->SelectEvents(loud2, kLifecycleEvents);

  client_->MapLoud(loud1);
  client_->MapLoud(loud2);  // mapped later: goes on top
  Flush();

  auto s1 = client_->QueryLoud(loud1);
  auto s2 = client_->QueryLoud(loud2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value().active, 1) << "top of stack gets the line";
  EXPECT_EQ(s1.value().active, 0) << "lower LOUD is denied the line";

  // Raising loud1 preempts loud2.
  client_->RaiseLoud(loud1);
  Flush();
  s1 = client_->QueryLoud(loud1);
  s2 = client_->QueryLoud(loud2);
  EXPECT_EQ(s1.value().active, 1);
  EXPECT_EQ(s2.value().active, 0);
}

TEST_F(ActivationTest, SpeakersShareByDefault) {
  ResourceId loud1 = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud1, DeviceClass::kOutput, {});
  ResourceId loud2 = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud2, DeviceClass::kOutput, {});
  client_->MapLoud(loud1);
  client_->MapLoud(loud2);
  Flush();
  EXPECT_EQ(client_->QueryLoud(loud1).value().active, 1);
  EXPECT_EQ(client_->QueryLoud(loud2).value().active, 1);
}

TEST_F(ActivationTest, ExclusiveInputPreemptsSameDomainInputs) {
  // Section 5.8: activating a microphone with exclusive input excludes
  // other inputs in the desktop domain, but not outputs.
  ResourceId listener = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(listener, DeviceClass::kInput, {});
  ResourceId speaker_loud = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(speaker_loud, DeviceClass::kOutput, {});
  client_->MapLoud(listener);
  client_->MapLoud(speaker_loud);
  Flush();
  EXPECT_EQ(client_->QueryLoud(listener).value().active, 1);

  ResourceId exclusive = client_->CreateLoud(kNoResource, {});
  AttrList attrs;
  attrs.SetBool(AttrTag::kExclusiveInput, true);
  client_->CreateDevice(exclusive, DeviceClass::kInput, attrs);
  client_->MapLoud(exclusive);  // top of stack
  Flush();

  EXPECT_EQ(client_->QueryLoud(exclusive).value().active, 1);
  EXPECT_EQ(client_->QueryLoud(listener).value().active, 0)
      << "plain input in the same ambient domain must be preempted";
  EXPECT_EQ(client_->QueryLoud(speaker_loud).value().active, 1)
      << "outputs are unaffected by exclusive *input*";

  // Unmapping the exclusive LOUD reactivates the listener.
  client_->UnmapLoud(exclusive);
  Flush();
  EXPECT_EQ(client_->QueryLoud(listener).value().active, 1);
}

TEST_F(ActivationTest, ExclusiveOutputPreemptsSameDomainOutputs) {
  ResourceId background = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(background, DeviceClass::kOutput, {});
  client_->MapLoud(background);
  Flush();

  ResourceId urgent = client_->CreateLoud(kNoResource, {});
  AttrList attrs;
  attrs.SetBool(AttrTag::kExclusiveOutput, true);
  client_->CreateDevice(urgent, DeviceClass::kOutput, attrs);
  client_->MapLoud(urgent);
  Flush();
  EXPECT_EQ(client_->QueryLoud(urgent).value().active, 1);
  EXPECT_EQ(client_->QueryLoud(background).value().active, 0);
}

TEST_F(ActivationTest, PhoneDomainDoesNotInterfereWithDesktop) {
  // A phone-line LOUD and an exclusive-output desktop LOUD coexist: they
  // are different ambient domains (section 5.8).
  ResourceId phone_loud = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(phone_loud, DeviceClass::kTelephone, {});
  client_->MapLoud(phone_loud);

  ResourceId desktop = client_->CreateLoud(kNoResource, {});
  AttrList attrs;
  attrs.SetBool(AttrTag::kExclusiveOutput, true);
  client_->CreateDevice(desktop, DeviceClass::kOutput, attrs);
  client_->MapLoud(desktop);
  Flush();
  EXPECT_EQ(client_->QueryLoud(phone_loud).value().active, 1);
  EXPECT_EQ(client_->QueryLoud(desktop).value().active, 1);
}

TEST_F(ActivationTest, DeactivationServerPausesQueueAndResumesOnReactivation) {
  board_->speakers()[0]->set_capture_output(true);

  // Lower LOUD playing a long sound through the phone line (exclusive), a
  // higher LOUD steals the line, then releases it.
  ResourceId victim = client_->CreateLoud(kNoResource, {});
  ResourceId phone1 = client_->CreateDevice(victim, DeviceClass::kTelephone, {});
  ResourceId player1 = client_->CreateDevice(victim, DeviceClass::kPlayer, {});
  client_->CreateWire(player1, 0, phone1, 0);
  client_->SelectEvents(victim, kQueueEvents | kLifecycleEvents);
  client_->MapLoud(victim);

  std::vector<Sample> pcm(8000, 1000);  // 1 s
  ResourceId sound = toolkit_->UploadSound(pcm, {Encoding::kPcm16, 8000});
  client_->Enqueue(victim, {PlayCommand(player1, sound, 1)});
  client_->StartQueue(victim);
  Flush();
  StepMs(200);

  // Preempt.
  ResourceId thief = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(thief, DeviceClass::kTelephone, {});
  client_->MapLoud(thief);
  Flush();
  EXPECT_EQ(client_->QueryLoud(victim).value().active, 0);
  auto queue_state = client_->QueryQueue(victim);
  ASSERT_TRUE(queue_state.ok());
  EXPECT_EQ(queue_state.value().state, QueueState::kServerPaused);

  // Paused event carried the server-initiated flag.
  auto paused = toolkit_->WaitFor(
      [](const EventMessage& e) { return e.type == EventType::kQueuePaused; }, 5000);
  ASSERT_TRUE(paused.has_value());
  EXPECT_EQ(QueuePausedArgs::Decode(paused->args).server_paused, 1);

  // Release: unmap the thief. The victim auto-resumes (section 5.5).
  client_->UnmapLoud(thief);
  Flush();
  EXPECT_EQ(client_->QueryLoud(victim).value().active, 1);
  EXPECT_EQ(client_->QueryQueue(victim).value().state, QueueState::kStarted);
  EXPECT_TRUE(toolkit_->WaitCommandDone(1, 30000));
}

TEST_F(ActivationTest, ActiveStackQueryShowsOrder) {
  ResourceId a = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(a, DeviceClass::kOutput, {});
  ResourceId b = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(b, DeviceClass::kOutput, {});
  client_->MapLoud(a);
  client_->MapLoud(b);
  Flush();
  auto stack = client_->QueryActiveStack();
  ASSERT_TRUE(stack.ok());
  ASSERT_EQ(stack.value().entries.size(), 2u);
  EXPECT_EQ(stack.value().entries[0].loud, b);  // most recent on top
  EXPECT_EQ(stack.value().entries[1].loud, a);

  client_->LowerLoud(b);
  Flush();
  stack = client_->QueryActiveStack();
  EXPECT_EQ(stack.value().entries[0].loud, a);
}

TEST_F(ActivationTest, RedirectionSendsMapRequestToManager) {
  auto manager_conn = Connect("audio-manager");
  ASSERT_NE(manager_conn, nullptr);
  manager_conn->SetRedirect(true);
  ASSERT_TRUE(manager_conn->Sync().ok());

  ResourceId loud = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->MapLoud(loud);  // redirected, not performed
  Flush();
  EXPECT_EQ(client_->QueryLoud(loud).value().mapped, 0);

  EventMessage event;
  ASSERT_TRUE(manager_conn->WaitEvent(&event, 2000));
  EXPECT_EQ(event.type, EventType::kMapRequest);
  EXPECT_EQ(MapRequestArgs::Decode(event.args).loud, loud);

  // The manager performs the map on the app's behalf.
  manager_conn->MapLoud(loud, /*override_redirect=*/true);
  ASSERT_TRUE(manager_conn->Sync().ok());
  EXPECT_EQ(client_->QueryLoud(loud).value().mapped, 1);
}

TEST_F(ActivationTest, SecondRedirectClaimRejected) {
  auto manager1 = Connect("manager1");
  auto manager2 = Connect("manager2");
  manager1->SetRedirect(true);
  ASSERT_TRUE(manager1->Sync().ok());
  manager2->SetRedirect(true);
  ASSERT_TRUE(manager2->Sync().ok());
  AsyncError error;
  ASSERT_TRUE(manager2->NextError(&error));
  EXPECT_EQ(error.error.code, ErrorCode::kDeviceBusy);
}

TEST_F(ActivationTest, ManagerDisconnectReleasesRedirect) {
  auto manager = Connect("manager");
  manager->SetRedirect(true);
  ASSERT_TRUE(manager->Sync().ok());
  manager->Close();
  // Wait for teardown.
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    MutexLock lock(&server_->mutex());
    if (!server_->state().redirect_conn().has_value()) {
      break;
    }
  }
  // Mapping works again without redirection.
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->MapLoud(loud);
  Flush();
  EXPECT_EQ(client_->QueryLoud(loud).value().mapped, 1);
}

TEST_F(ActivationTest, DestroyingTelephoneFreesLineForLowerRoot) {
  ResourceId low = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(low, DeviceClass::kTelephone, {});
  client_->MapLoud(low);
  ResourceId high = client_->CreateLoud(kNoResource, {});
  ResourceId high_phone = client_->CreateDevice(high, DeviceClass::kTelephone, {});
  ResourceId high_output = client_->CreateDevice(high, DeviceClass::kOutput, {});
  client_->MapLoud(high);
  Flush();
  ASSERT_EQ(client_->QueryLoud(high).value().active, 1);
  ASSERT_EQ(client_->QueryLoud(low).value().active, 0);

  // The high root gives up its line but keeps its output: it stays active,
  // and the line goes to the root below at once.
  client_->DestroyDevice(high_phone);
  ExpectNoErrors();
  EXPECT_EQ(client_->QueryLoud(high).value().active, 1);
  EXPECT_EQ(client_->QueryDevice(high_output).value().active, 1);
  EXPECT_EQ(client_->QueryLoud(low).value().active, 1);
}

TEST_F(ActivationTest, DestroyingExclusiveOutputReactivatesSameDomainOutput) {
  ResourceId background = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(background, DeviceClass::kOutput, {});
  client_->MapLoud(background);
  ResourceId urgent = client_->CreateLoud(kNoResource, {});
  AttrList exclusive;
  exclusive.SetBool(AttrTag::kExclusiveOutput, true);
  ResourceId urgent_output = client_->CreateDevice(urgent, DeviceClass::kOutput, exclusive);
  client_->CreateDevice(urgent, DeviceClass::kPlayer, {});
  client_->MapLoud(urgent);
  Flush();
  ASSERT_EQ(client_->QueryLoud(urgent).value().active, 1);
  ASSERT_EQ(client_->QueryLoud(background).value().active, 0);

  client_->DestroyDevice(urgent_output);
  ExpectNoErrors();
  EXPECT_EQ(client_->QueryLoud(urgent).value().active, 1);
  EXPECT_EQ(client_->QueryLoud(background).value().active, 1)
      << "the preempted same-domain output reactivates once the claim is gone";
}

TEST_F(ActivationTest, DestroyingMappedRootWalksAtMostOnce) {
  ResourceId plain = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(plain, DeviceClass::kOutput, {});
  ResourceId phone = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(phone, DeviceClass::kTelephone, {});
  client_->MapLoud(phone);
  client_->MapLoud(plain);
  Flush();

  // A root that holds no claim leaves without any whole-stack walk.
  uint64_t before = Walks();
  client_->DestroyLoud(plain);
  ExpectNoErrors();
  EXPECT_EQ(Walks(), before);

  // A root that held the line leaves with exactly one.
  before = Walks();
  client_->DestroyLoud(phone);
  ExpectNoErrors();
  EXPECT_EQ(Walks(), before + 1);
}

TEST_F(ActivationTest, OwnerDeathOf1024RootsActivatesOnce) {
  // Survivor 1 (the fixture client) and survivor 2 each play a long sound.
  std::vector<Sample> pcm(8000 * 30, 500);
  auto chain1 = toolkit_->BuildPlaybackChain();
  ResourceId sound1 = toolkit_->UploadSound(pcm, {Encoding::kPcm16, 8000});
  client_->SelectEvents(chain1.loud, kQueueEvents | kLifecycleEvents);
  client_->Enqueue(chain1.loud, {PlayCommand(chain1.player, sound1, 1)});
  client_->StartQueue(chain1.loud);
  Flush();

  auto survivor = Connect("survivor");
  ASSERT_NE(survivor, nullptr);
  AudioToolkit survivor_toolkit(survivor.get());
  survivor_toolkit.set_time_pump([this] { server_->StepFrames(160); });
  auto chain2 = survivor_toolkit.BuildPlaybackChain();
  ResourceId sound2 = survivor_toolkit.UploadSound(pcm, {Encoding::kPcm16, 8000});
  survivor->SelectEvents(chain2.loud, kQueueEvents | kLifecycleEvents);
  survivor->Enqueue(chain2.loud, {PlayCommand(chain2.player, sound2, 1)});
  survivor->StartQueue(chain2.loud);

  // A second client's telephone root waits at the bottom of the stack.
  auto waiter = Connect("waiter");
  ASSERT_NE(waiter, nullptr);
  ResourceId waiting = waiter->CreateLoud(kNoResource, {});
  waiter->CreateDevice(waiting, DeviceClass::kTelephone, {});
  waiter->SelectEvents(waiting, kLifecycleEvents);
  waiter->MapLoud(waiting);
  ASSERT_TRUE(survivor->Sync().ok());
  ASSERT_TRUE(waiter->Sync().ok());
  const size_t survivors_objects = ObjectCount();

  // The owner maps 1024 telephone roots over it. The topmost holds the
  // only line; the rest wait, mapped but inactive.
  auto owner = Connect("owner");
  ASSERT_NE(owner, nullptr);
  ResourceId top = kNoResource;
  for (int i = 0; i < 1024; ++i) {
    top = owner->CreateLoud(kNoResource, {});
    owner->CreateDevice(top, DeviceClass::kTelephone, {});
    owner->CreateDevice(top, DeviceClass::kPlayer, {});
    owner->MapLoud(top);
  }
  ASSERT_TRUE(owner->Sync().ok());
  ASSERT_EQ(owner->QueryLoud(top).value().active, 1);
  ASSERT_EQ(waiter->QueryLoud(waiting).value().active, 0);
  StepMs(100);
  ASSERT_TRUE(survivor->Sync().ok());

  // Drain everything the survivors saw so far.
  EventMessage event;
  while (client_->PollEvent(&event)) {
  }
  while (survivor->PollEvent(&event)) {
  }
  while (waiter->PollEvent(&event)) {
  }

  // Kill the owner while the engine keeps ticking.
  const uint64_t walks_before = Walks();
  std::atomic<bool> ticking{true};
  std::thread engine([this, &ticking] {
    while (ticking.load()) {
      server_->StepFrames(160);
    }
  });
  owner->Close();
  const bool reclaimed = WaitForObjectCount(survivors_objects);
  ticking.store(false);
  engine.join();
  ASSERT_TRUE(reclaimed) << "registry holds " << ObjectCount() << ", survivors own "
                         << survivors_objects;
  EXPECT_EQ(Walks(), walks_before + 1) << "one whole-stack walk for the whole teardown";

  // The waiter's root takes the freed line.
  EXPECT_EQ(waiter->QueryLoud(waiting).value().active, 1);
  bool waiter_activated = false;
  while (waiter->PollEvent(&event)) {
    waiter_activated = waiter_activated || event.type == EventType::kActivateNotify;
  }
  EXPECT_TRUE(waiter_activated);

  // The survivors never noticed: still active, still started, and no
  // lifecycle or server-pause event reached them.
  Flush();
  ASSERT_TRUE(survivor->Sync().ok());
  EXPECT_EQ(client_->QueryLoud(chain1.loud).value().active, 1);
  EXPECT_EQ(survivor->QueryLoud(chain2.loud).value().active, 1);
  EXPECT_EQ(client_->QueryQueue(chain1.loud).value().state, QueueState::kStarted);
  EXPECT_EQ(survivor->QueryQueue(chain2.loud).value().state, QueueState::kStarted);
  for (AudioConnection* conn : {client_.get(), survivor.get()}) {
    while (conn->PollEvent(&event)) {
      EXPECT_NE(event.type, EventType::kDeactivateNotify);
      EXPECT_NE(event.type, EventType::kActivateNotify);
      EXPECT_NE(event.type, EventType::kQueuePaused);
    }
  }
}

// ---------------------------------------------------------------------------
// Property: seeded random structural sequences, each step held to the
// whole-stack walk's dry run.
// ---------------------------------------------------------------------------

class ActivationPropertyTest : public ActivationTest,
                               public ::testing::WithParamInterface<uint32_t> {
 protected:
  struct RootModel {
    ResourceId id = kNoResource;
    ResourceId child = kNoResource;  // a child LOUD, or none
    std::vector<ResourceId> devices;
    bool mapped = false;
  };

  // Every mapped root's active flag and every device binding must equal
  // the oracle's; unmapped roots must be inactive.
  void ExpectMatchesOracle(const std::vector<RootModel>& roots, int step) {
    MutexLock lock(&server_->mutex());
    ServerState& state = server_->state();
    for (const ServerState::RootActivation& outcome : state.ActivationOracle()) {
      ASSERT_EQ(outcome.root->active(), outcome.active)
          << "step " << step << " root " << outcome.root->id();
      for (const auto& [vdev, physical] : outcome.bindings) {
        ASSERT_TRUE(vdev->active()) << "step " << step << " device " << vdev->id();
        ASSERT_EQ(vdev->bound_device(), physical) << "step " << step << " device " << vdev->id();
      }
      if (!outcome.active) {
        std::vector<VirtualDevice*> devices;
        outcome.root->CollectDevices(&devices);
        for (VirtualDevice* vdev : devices) {
          ASSERT_EQ(vdev->bound_device(), nullptr) << "step " << step << " device " << vdev->id();
        }
      }
    }
    for (const RootModel& root : roots) {
      Loud* loud = state.FindLoud(root.id);
      ASSERT_NE(loud, nullptr);
      ASSERT_EQ(loud->mapped(), root.mapped) << "step " << step << " root " << root.id;
      if (!root.mapped) {
        ASSERT_FALSE(loud->active()) << "step " << step << " root " << root.id;
      }
    }
  }
};

TEST_P(ActivationPropertyTest, IncrementalMatchesWholeStackWalk) {
  // Two desktop speakers and a microphone, two workstation lines, and the
  // speaker-phone's speaker, microphone and line in domain 2.
  Init(BoardConfig{.speakers = 2, .microphones = 1, .phone_lines = 2, .speakerphone = true});
  std::mt19937 rng(GetParam());
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  auto coin = [&rng](uint32_t percent) { return rng() % 100 < percent; };

  // Random attributes: sometimes an ambient-domain or exclusivity claim.
  auto random_attrs = [&](DeviceClass device_class) {
    AttrList attrs;
    if (coin(25)) {
      attrs.SetU32(AttrTag::kAmbientDomain, coin(50) ? kDesktopDomain : 2);
    }
    if (device_class == DeviceClass::kInput && coin(30)) {
      attrs.SetBool(AttrTag::kExclusiveInput, true);
    }
    if (device_class == DeviceClass::kOutput && coin(20)) {
      attrs.SetBool(AttrTag::kExclusiveOutput, true);
    }
    return attrs;
  };
  constexpr DeviceClass kClasses[] = {DeviceClass::kOutput, DeviceClass::kInput,
                                      DeviceClass::kTelephone, DeviceClass::kPlayer};

  std::vector<RootModel> roots;
  auto add_device = [&](RootModel& root, DeviceClass device_class, AttrList attrs) {
    ResourceId loud = root.child != kNoResource && coin(40) ? root.child : root.id;
    root.devices.push_back(client_->CreateDevice(loud, device_class, attrs));
  };
  auto create_root = [&] {
    RootModel root;
    root.id = client_->CreateLoud(kNoResource, {});
    if (coin(30)) {
      root.child = client_->CreateLoud(root.id, {});
    }
    switch (pick(5)) {
      case 0:  // plain output/player root
        add_device(root, DeviceClass::kOutput, random_attrs(DeviceClass::kOutput));
        add_device(root, DeviceClass::kPlayer, {});
        break;
      case 1:  // telephone root
        add_device(root, DeviceClass::kTelephone, {});
        add_device(root, DeviceClass::kPlayer, {});
        break;
      case 2: {  // exclusive input root
        AttrList attrs;
        attrs.SetBool(AttrTag::kExclusiveInput, true);
        add_device(root, DeviceClass::kInput, attrs);
        break;
      }
      case 3: {  // exclusive output root
        AttrList attrs;
        attrs.SetBool(AttrTag::kExclusiveOutput, true);
        add_device(root, DeviceClass::kOutput, attrs);
        break;
      }
      default:  // plain input root
        add_device(root, DeviceClass::kInput, random_attrs(DeviceClass::kInput));
        break;
    }
    roots.push_back(root);
  };
  auto random_root = [&](bool mapped) -> RootModel* {
    std::vector<RootModel*> matches;
    for (RootModel& root : roots) {
      if (root.mapped == mapped) {
        matches.push_back(&root);
      }
    }
    return matches.empty() ? nullptr : matches[pick(matches.size())];
  };

  constexpr int kSteps = 2000;
  for (int step = 0; step < kSteps; ++step) {
    switch (pick(9)) {
      case 0:
        if (roots.size() < 12) {
          create_root();
        }
        break;
      case 1:
        if (RootModel* root = random_root(false)) {
          client_->MapLoud(root->id);
          root->mapped = true;
        }
        break;
      case 2:
        if (RootModel* root = random_root(true); root != nullptr && coin(60)) {
          client_->UnmapLoud(root->id);
          root->mapped = false;
        }
        break;
      case 3:
        if (RootModel* root = random_root(true)) {
          client_->RaiseLoud(root->id);
        }
        break;
      case 4:
        if (RootModel* root = random_root(true)) {
          client_->LowerLoud(root->id);
        }
        break;
      case 5:
        if (!roots.empty() && coin(35)) {
          size_t index = pick(roots.size());
          client_->DestroyLoud(roots[index].id);
          roots.erase(roots.begin() + static_cast<std::ptrdiff_t>(index));
        }
        break;
      case 6:
        if (!roots.empty()) {
          DeviceClass device_class = kClasses[pick(std::size(kClasses))];
          add_device(roots[pick(roots.size())], device_class, random_attrs(device_class));
        }
        break;
      case 7:
        if (!roots.empty()) {
          RootModel& root = roots[pick(roots.size())];
          if (!root.devices.empty()) {
            AttrList attrs;
            switch (pick(3)) {
              case 0:
                attrs.SetBool(AttrTag::kExclusiveInput, coin(50));
                break;
              case 1:
                attrs.SetBool(AttrTag::kExclusiveOutput, coin(50));
                break;
              default:
                attrs.SetU32(AttrTag::kAmbientDomain, coin(50) ? kDesktopDomain : 2);
                break;
            }
            client_->AugmentDevice(root.devices[pick(root.devices.size())], attrs);
          }
        }
        break;
      default:
        if (!roots.empty()) {
          RootModel& root = roots[pick(roots.size())];
          if (!root.devices.empty()) {
            size_t index = pick(root.devices.size());
            client_->DestroyDevice(root.devices[index]);
            root.devices.erase(root.devices.begin() + static_cast<std::ptrdiff_t>(index));
          }
        }
        break;
    }
    ExpectNoErrors();
    ExpectMatchesOracle(roots, step);
    if (HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActivationPropertyTest, ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const ::testing::TestParamInfo<uint32_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Property: the epoch ticks exactly the roots with work. Seeded random
// structural, queue and preemption steps; after each one every root's
// runnable flag equals the predicate recomputed from scratch, and one
// epoch advances the frame counters of runnable roots only.
// ---------------------------------------------------------------------------

class TickFlagPropertyTest : public ActivationTest,
                             public ::testing::WithParamInterface<uint32_t> {
 protected:
  // Loud::runnable()'s contract, from scratch.
  static bool ExpectedRunnable(Loud* root) {
    if (!root->active()) {
      return false;
    }
    if (root->queue()->state() == QueueState::kStarted) {
      return true;
    }
    std::vector<VirtualDevice*> devices;
    root->CollectDevices(&devices);
    return std::any_of(devices.begin(), devices.end(), [](const VirtualDevice* dev) {
      switch (dev->device_class()) {
        case DeviceClass::kInput:
        case DeviceClass::kTelephone:
        case DeviceClass::kMixer:
        case DeviceClass::kCrossbar:
        case DeviceClass::kDsp:
        case DeviceClass::kRecorder:
        case DeviceClass::kSpeechRecognizer:
          return true;
        default:
          return false;
      }
    });
  }

  struct Frames {
    uint64_t produced = 0;
    uint64_t consumed = 0;
  };

  // Checks every root's flag; returns each root's frame counters and
  // whether the epoch should tick it.
  std::map<ResourceId, std::pair<Frames, bool>> CheckFlags(const std::vector<ResourceId>& roots,
                                                           int step) {
    MutexLock lock(&server_->mutex());
    std::map<ResourceId, std::pair<Frames, bool>> out;
    for (ResourceId id : roots) {
      Loud* root = server_->state().FindLoud(id);
      EXPECT_NE(root, nullptr) << "step " << step;
      if (root == nullptr) {
        continue;
      }
      const bool expected = ExpectedRunnable(root);
      EXPECT_EQ(root->runnable(), expected)
          << "step " << step << " root " << id << " active " << root->active() << " queue "
          << static_cast<int>(root->queue()->state());
      out[id] = {{root->frames_produced(), root->frames_consumed()}, expected};
    }
    return out;
  }
};

TEST_P(TickFlagPropertyTest, FlagMatchesPredicateAndGatesTheFanOut) {
  // One line and one speaker, so telephone and exclusive-output roots
  // preempt each other and server-pause their queues.
  Init(BoardConfig{.speakers = 1, .microphones = 1, .phone_lines = 1});
  std::mt19937 rng(GetParam());
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  auto coin = [&rng](uint32_t percent) { return rng() % 100 < percent; };
  constexpr DeviceClass kClasses[] = {
      DeviceClass::kOutput,      DeviceClass::kPlayer,           DeviceClass::kPlayer,
      DeviceClass::kOutput,      DeviceClass::kInput,            DeviceClass::kTelephone,
      DeviceClass::kMixer,       DeviceClass::kRecorder,         DeviceClass::kDsp,
      DeviceClass::kCrossbar,    DeviceClass::kSpeechRecognizer, DeviceClass::kSpeechSynthesizer,
      DeviceClass::kMusicSynthesizer};
  const ResourceId sound = toolkit_->UploadSound(TestTone(2000), kTelephoneFormat);

  struct RootModel {
    ResourceId id = kNoResource;
    ResourceId child = kNoResource;
    std::vector<ResourceId> devices;
    std::vector<ResourceId> players;
    bool mapped = false;
  };
  std::vector<RootModel> roots;
  auto add_device = [&](RootModel& root) {
    const DeviceClass device_class = kClasses[pick(std::size(kClasses))];
    AttrList attrs;
    if (device_class == DeviceClass::kOutput && coin(25)) {
      attrs.SetBool(AttrTag::kExclusiveOutput, true);
    }
    const ResourceId loud = root.child != kNoResource && coin(40) ? root.child : root.id;
    const ResourceId device = client_->CreateDevice(loud, device_class, attrs);
    root.devices.push_back(device);
    if (device_class == DeviceClass::kPlayer) {
      root.players.push_back(device);
    }
  };
  auto queue_state = [&](ResourceId id) {
    MutexLock lock(&server_->mutex());
    return server_->state().FindLoud(id)->queue()->state();
  };

  constexpr int kSteps = 2000;
  for (int step = 0; step < kSteps; ++step) {
    RootModel* root = roots.empty() ? nullptr : &roots[pick(roots.size())];
    switch (pick(12)) {
      case 0:
        if (roots.size() < 10) {
          RootModel created;
          created.id = client_->CreateLoud(kNoResource, {});
          if (coin(30)) {
            created.child = client_->CreateLoud(created.id, {});
          }
          for (size_t n = 1 + pick(3); n > 0; --n) {
            add_device(created);
          }
          roots.push_back(created);
        }
        break;
      case 1:
        if (root != nullptr) {
          add_device(*root);
        }
        break;
      case 2:
        if (root != nullptr && !root->devices.empty()) {
          const size_t index = pick(root->devices.size());
          const ResourceId device = root->devices[index];
          client_->DestroyDevice(device);
          root->devices.erase(root->devices.begin() + static_cast<std::ptrdiff_t>(index));
          std::erase(root->players, device);
        }
        break;
      case 3:
        if (root != nullptr && coin(30)) {
          client_->DestroyLoud(root->id);
          roots.erase(roots.begin() + (root - roots.data()));
        }
        break;
      case 4:
        if (root != nullptr) {
          client_->MapLoud(root->id);
          root->mapped = true;
        }
        break;
      case 5:
        if (root != nullptr && coin(50)) {
          client_->UnmapLoud(root->id);
          root->mapped = false;
        }
        break;
      case 6:  // restack: preempts, or lifts a preemption
        if (root != nullptr && root->mapped) {
          if (coin(50)) {
            client_->RaiseLoud(root->id);
          } else {
            client_->LowerLoud(root->id);
          }
        }
        break;
      case 7:
        if (root != nullptr) {
          if (!root->players.empty() && coin(50)) {
            client_->Enqueue(root->id, {PlayCommand(root->players[pick(root->players.size())],
                                                    sound, static_cast<uint32_t>(step))});
          }
          client_->StartQueue(root->id);
        }
        break;
      case 8:
        if (root != nullptr) {
          client_->StopQueue(root->id);
        }
        break;
      case 9:
        if (root != nullptr && queue_state(root->id) == QueueState::kStarted) {
          client_->PauseQueue(root->id);
        }
        break;
      case 10:
        if (root != nullptr) {
          const QueueState state = queue_state(root->id);
          if (state == QueueState::kClientPaused || state == QueueState::kServerPaused) {
            client_->ResumeQueue(root->id);
          }
        }
        break;
      default:
        StepMs(20);  // let queued plays run and finish
        break;
    }
    ExpectNoErrors();
    std::vector<ResourceId> ids;
    for (const RootModel& model : roots) {
      ids.push_back(model.id);
    }
    const auto before = CheckFlags(ids, step);
    if (HasFailure()) {
      return;
    }
    // One epoch: idle roots stay untouched; a started active queue
    // produces the whole period.
    server_->StepFrames(160);
    MutexLock lock(&server_->mutex());
    for (const auto& [id, entry] : before) {
      const auto& [frames, runnable] = entry;
      Loud* loud = server_->state().FindLoud(id);
      if (!runnable) {
        ASSERT_EQ(loud->frames_produced(), frames.produced) << "step " << step << " root " << id;
        ASSERT_EQ(loud->frames_consumed(), frames.consumed) << "step " << step << " root " << id;
      } else if (loud->queue()->state() == QueueState::kStarted) {
        ASSERT_GE(loud->frames_produced(), frames.produced + 160)
            << "step " << step << " root " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TickFlagPropertyTest, ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const ::testing::TestParamInfo<uint32_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

TEST_F(ActivationTest, IdleRootStartsSampleExactOnTheNextEpoch) {
  board_->speakers()[0]->set_capture_output(true);
  std::vector<Sample> pcm(1600);
  for (size_t i = 0; i < pcm.size(); ++i) {
    pcm[i] = static_cast<Sample>(static_cast<int>(i % 397) * 40 - 8000);
  }
  const ResourceId sound = toolkit_->UploadSound(pcm, {Encoding::kPcm16, 8000});
  auto chain = toolkit_->BuildPlaybackChain();
  client_->SetSyncMarks(chain.loud, 20);
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  Flush();

  // Mapped, active, queue stopped: the epoch leaves the root alone.
  auto frames = [&] {
    MutexLock lock(&server_->mutex());
    Loud* root = server_->state().FindLoud(chain.loud);
    EXPECT_TRUE(root->active());
    EXPECT_FALSE(root->runnable());
    return std::pair{root->frames_produced(), root->frames_consumed()};
  };
  const auto idle = frames();
  StepMs(100);
  EXPECT_EQ(frames(), idle);
  EventMessage event;
  while (client_->PollEvent(&event)) {
  }

  const size_t played_before = board_->speakers()[0]->played().size();
  const int64_t start_frame = [&] {
    MutexLock lock(&server_->mutex());
    return server_->state().engine_frame();
  }();
  client_->StartQueue(chain.loud);
  Flush();
  server_->StepFrames(160);
  Flush();

  // Heard on that very epoch, from its first sample.
  const std::vector<Sample>& played = board_->speakers()[0]->played();
  ASSERT_EQ(played.size(), played_before + 160);
  EXPECT_TRUE(std::equal(pcm.begin(), pcm.begin() + 160, played.begin() + played_before));
  bool started = false;
  int marks = 0;
  while (client_->PollEvent(&event)) {
    started = started || event.type == EventType::kQueueStarted;
    if (event.type == EventType::kSyncMark) {
      ++marks;
      SyncMarkArgs mark = SyncMarkArgs::Decode(event.args);
      EXPECT_EQ(mark.position_samples, 160u);
      EXPECT_EQ(mark.device_time, SamplesToTicks(start_frame, 8000));
      EXPECT_EQ(mark.total_samples, pcm.size());
    }
  }
  EXPECT_TRUE(started);
  EXPECT_EQ(marks, 1);
}

}  // namespace
}  // namespace aud
