// E11 -- active-stack operations (paper section 5.4): mapping puts a LOUD
// on the active stack; the server "activates as many LOUDs as it can at
// one time" walking top-down. Preemption must be cheap enough to happen
// on every map/unmap/restack.
//
// Measures: map->active latency (requests) vs stack depth up to capacity
// scale, the wall time of one client's death among 4096 mapped roots, and
// preemption/restore round trips on the exclusive phone line (with
// server-paused queues).

#include <chrono>
#include <memory>
#include <string>

#include "bench/bench_util.h"

namespace aud {
namespace {

int Run() {
  PrintHeader("E11: active stack and preemption",
              "activation/deactivation is the fundamental scheduling mechanism; it "
              "happens dynamically with device state restored (section 5.4)");

  // Part 1: map+activate cost vs stack depth.
  std::printf("%-14s %-22s\n", "stack depth", "map+activate cost");
  for (int depth : {1, 8, 32, 128, 1024, 4096}) {
    BenchWorld world;
    AudioConnection& client = world.client();
    std::vector<ResourceId> louds;
    for (int i = 0; i < depth; ++i) {
      ResourceId loud = client.CreateLoud(kNoResource, {});
      client.CreateDevice(loud, DeviceClass::kOutput, {});
      client.CreateDevice(loud, DeviceClass::kPlayer, {});
      louds.push_back(loud);
    }
    (void)client.Sync();
    // Map all, each on top of the ones before it.
    auto t0 = std::chrono::steady_clock::now();
    for (ResourceId loud : louds) {
      client.MapLoud(loud);
    }
    (void)client.Sync();
    auto t1 = std::chrono::steady_clock::now();
    double per_map_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / depth;
    std::printf("%-14d %18.1f us/map\n", depth, per_map_us);
  }

  // Part 2: owner death at capacity scale. Four clients map 1024 playback
  // roots each; one closes, and the clock runs until its objects are gone
  // from the registry (reader wake-up, teardown under the state lock, and
  // activation for the 3072 roots left).
  {
    BenchWorld world;
    constexpr int kOwners = 4;
    constexpr int kRootsEach = 1024;
    std::vector<std::unique_ptr<AudioConnection>> owners;
    for (int c = 0; c < kOwners; ++c) {
      owners.push_back(world.Connect("owner" + std::to_string(c)));
      AudioConnection& owner = *owners.back();
      for (int i = 0; i < kRootsEach; ++i) {
        ResourceId loud = owner.CreateLoud(kNoResource, {});
        owner.CreateDevice(loud, DeviceClass::kOutput, {});
        owner.CreateDevice(loud, DeviceClass::kPlayer, {});
        owner.MapLoud(loud);
      }
      (void)owner.Sync();
    }
    auto object_count = [&world] {
      MutexLock lock(&world.server().mutex());
      return world.server().state().object_count();
    };
    const size_t remaining = object_count() - kRootsEach * 3;
    auto t0 = std::chrono::steady_clock::now();
    owners.front()->Close();
    while (object_count() > remaining) {
    }
    auto t1 = std::chrono::steady_clock::now();
    std::printf("owner death (%d of %d mapped roots): %.2f ms\n", kRootsEach,
                kOwners * kRootsEach,
                std::chrono::duration<double, std::milli>(t1 - t0).count());
  }

  // Part 3: preemption/restore churn on the exclusive telephone.
  {
    BenchWorld world;
    AudioConnection& client = world.client();
    AudioToolkit& toolkit = world.toolkit();

    ResourceId victim = client.CreateLoud(kNoResource, {});
    ResourceId phone1 = client.CreateDevice(victim, DeviceClass::kTelephone, {});
    ResourceId player = client.CreateDevice(victim, DeviceClass::kPlayer, {});
    client.CreateWire(player, 0, phone1, 0);
    client.SelectEvents(victim, kQueueEvents | kLifecycleEvents);
    client.MapLoud(victim);

    std::vector<Sample> pcm(8000 * 30, 50);
    ResourceId sound = toolkit.UploadSound(pcm, {Encoding::kPcm16, 8000});
    client.Enqueue(victim, {PlayCommand(player, sound, 1)});
    client.StartQueue(victim);

    ResourceId thief = client.CreateLoud(kNoResource, {});
    client.CreateDevice(thief, DeviceClass::kTelephone, {});
    (void)client.Sync();

    constexpr int kCycles = 200;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCycles; ++i) {
      client.MapLoud(thief);    // victim deactivates, queue server-pauses
      client.UnmapLoud(thief);  // victim reactivates, queue auto-resumes
    }
    (void)client.Sync();
    auto t1 = std::chrono::steady_clock::now();
    double per_cycle_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kCycles;

    // After all that churn the victim must be active with a running queue.
    auto state = client.QueryLoud(victim);
    auto queue = client.QueryQueue(victim);
    bool healthy = state.ok() && state.value().active == 1 && queue.ok() &&
                   queue.value().state == QueueState::kStarted;
    // And playback still progresses.
    world.server().StepFrames(1600);
    bool playing = toolkit.WaitFor([](const EventMessage& e) {
                     return e.type == EventType::kQueuePaused ||
                            e.type == EventType::kQueueResumed;
                   },
                   10) == std::nullopt;  // no stray transitions pending
    (void)playing;

    std::printf("preempt+restore cycle: %.1f us (%d cycles)\n", per_cycle_us, kCycles);
    std::printf("victim after churn: active=%d queue=%s\n",
                state.ok() ? state.value().active : -1,
                queue.ok() ? std::string(QueueStateName(queue.value().state)).c_str()
                           : "?");
    std::printf("verdict (state restored exactly after preemption): %s\n",
                healthy ? "MET" : "MISSED");
    return healthy ? 0 : 1;
  }
}

}  // namespace
}  // namespace aud

int main() { return aud::Run(); }
