// E10 -- engine scaling ablation (paper section 6.1): the multi-threaded
// prototype manages "multiple simultaneous audio data streams"; our engine
// must keep per-tick cost well under the period as the active device graph
// grows, and — with the epoch-snapshot tick (DESIGN.md decision 12) — must
// keep request dispatch responsive while a tick storm runs.
//
// Two experiments:
//   1. tick cost vs active playback chains;
//   2. client-observed dispatch latency for an engine-plane request against
//      an idle root, measured idle, under a load-matched control (a second
//      server ticking identical chains flat out), and under a continuous
//      tick storm on the measured server itself. Acceptance (full runs):
//      storm p99 <= 1.25x control p99 — the control burns the same CPU
//      without sharing any lock with the probe, so the ratio isolates lock
//      interference, which is what "breaking the big lock" removes (the
//      pre-epoch engine held the state lock across the whole fan-out).
//
// The full run exits non-zero when the storm ratio misses 1.25x; --quick
// (the CI smoke) gates only on the tick beating its period. On a 4-vCPU VM
// (RelWithDebInfo) the storm gate is not met reliably: full runs of the
// serial engine have read 0.96x to 2.15x, so one build spreads from pass to
// fail. The serial storm runs 227k-296k epochs in the window, taking the
// state lock twice in each, and the probe's state-lock wait p99 is about
// 30 us.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "bench/bench_util.h"

namespace aud {
namespace {

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(values.size()));
  if (rank >= values.size()) {
    rank = values.size() - 1;
  }
  return values[rank];
}

// N independent playing chains (one uploaded sound each), each queueing
// `plays_each` back-to-back plays of a 60 s sound.
void BuildChains(BenchWorld& world, int n, int plays_each) {
  AudioToolkit& toolkit = world.toolkit();
  AudioConnection& client = world.client();
  std::vector<Sample> pcm(8000 * 60, 100);
  for (int i = 0; i < n; ++i) {
    ResourceId sound = toolkit.UploadSound(pcm, {Encoding::kPcm16, 8000});
    auto chain = toolkit.BuildPlaybackChain();
    std::vector<CommandSpec> program;
    for (int p = 0; p < plays_each; ++p) {
      program.push_back(PlayCommand(chain.player, sound, 1));
    }
    client.Enqueue(chain.loud, program);
    client.StartQueue(chain.loud);
  }
  (void)client.Sync();
  world.server().StepFrames(160);  // warm up: everything starts
}

// -- Experiment 1: tick cost vs chains ---------------------------------------

struct TickResult {
  double wall_us_per_tick = 0;
  double tick_p50_us = 0;
  double tick_p99_us = 0;
};

TickResult RunChainTicks(int chains, int ticks) {
  BenchWorld world;
  BuildChains(world, chains, /*plays_each=*/1);

  auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < ticks; ++t) {
    world.server().StepFrames(160);
  }
  auto t1 = std::chrono::steady_clock::now();

  TickResult result;
  result.wall_us_per_tick =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / ticks;
  auto stats = world.client().GetServerStats(false);
  if (stats.ok() && !stats.value().tick_us.empty()) {
    result.tick_p50_us = stats.value().tick_us.Percentile(50);
    result.tick_p99_us = stats.value().tick_us.Percentile(99);
  }
  return result;
}

void RunTickScaling(bool quick, bool* all_ok) {
  const int ticks = quick ? 100 : 500;
  const std::vector<int> chain_counts = quick ? std::vector<int>{4, 16}
                                              : std::vector<int>{16, 64};
  std::printf("\nTick cost vs active chains (20 ms of audio per tick):\n");
  std::printf("%-8s %-14s %-12s %-12s\n", "chains", "wall/tick", "tick p50", "tick p99");
  for (int n : chain_counts) {
    TickResult result = RunChainTicks(n, ticks);
    std::printf("%-8d %10.1f us %8.1f us %8.1f us\n", n, result.wall_us_per_tick,
                result.tick_p50_us, result.tick_p99_us);
    // Real-time requirement: the tick must beat its 20 ms period by a wide
    // margin.
    *all_ok = *all_ok && result.wall_us_per_tick < 20000.0;
  }
}

// -- Experiment 2: dispatch latency under a tick storm -----------------------

struct DispatchResult {
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t epoch_commits = 0;
  uint64_t shard_contention = 0;
  double commit_p99_us = 0;
  double lock_wait_p99_us = 0;
};

// What shares the machine with the measured server while we probe it.
enum class DispatchLoad {
  kIdle,     // nothing: the true floor for a request round-trip
  kControl,  // a SECOND, unconnected server ticks identical chains flat out
  kStorm,    // the MEASURED server itself ticks flat out (requests race epochs)
};

// Round-trips `requests` engine-plane queries (QueryQueue on an unmapped
// root — its shard lock is never held by the engine) and records each
// client-observed latency.
//
// The acceptance comparison is storm-vs-control, not storm-vs-idle: the
// control run burns exactly the same CPU (same chains, same tick cadence)
// but on a server the client never talks to, so the two
// runs see identical scheduling pressure and differ only in whether the
// probe's dispatch path shares locks with the ticking engine. That is the
// variable "breaking the big lock" changes: the pre-epoch engine held the
// state lock across the whole fan-out, so its storm tail would sit a full
// tick above control; the epoch engine's state-lock holds are bounded by
// epoch open/commit. (Storm-vs-idle also folds in raw single-core
// timesharing, which no locking scheme can remove; it is still reported.)
DispatchResult MeasureDispatch(DispatchLoad load, int requests) {
  BenchWorld world;
  // 5 x 60 s per chain: the storm cannot drain the queues mid-measurement.
  BuildChains(world, 8, /*plays_each=*/5);

  // The load-matched control: an identical second world whose server the
  // probing client never connects to.
  std::unique_ptr<BenchWorld> control_world;
  if (load == DispatchLoad::kControl) {
    control_world = std::make_unique<BenchWorld>();
    BuildChains(*control_world, 8, /*plays_each=*/5);
  }

  AudioConnection& client = world.client();
  ResourceId probe = client.CreateLoud(kNoResource, {});
  (void)client.Sync();

  std::atomic<bool> stop{false};
  std::thread pump;
  if (load != DispatchLoad::kIdle) {
    AudioServer* ticking = load == DispatchLoad::kStorm
                               ? &world.server()
                               : &control_world->server();
    pump = std::thread([ticking, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        ticking->StepFrames(160);
      }
    });
  }

  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto reply = client.QueryQueue(probe);
    auto t1 = std::chrono::steady_clock::now();
    if (!reply.ok()) {
      std::fprintf(stderr, "QueryQueue failed: %s\n",
                   reply.status().ToString().c_str());
      break;
    }
    latencies.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }

  stop.store(true);
  if (pump.joinable()) {
    pump.join();
  }

  DispatchResult result;
  if (!latencies.empty()) {
    result.mean_us = std::accumulate(latencies.begin(), latencies.end(), 0.0) /
                     static_cast<double>(latencies.size());
  }
  result.p50_us = PercentileOf(latencies, 50);
  result.p99_us = PercentileOf(latencies, 99);
  auto stats = client.GetServerStats(false);
  if (stats.ok()) {
    const ServerStatsReply& s = stats.value();
    result.epoch_commits = s.epoch_commits;
    result.shard_contention = s.dispatch_shard_contention;
    result.commit_p99_us = s.epoch_commit_us.empty() ? 0.0 : s.epoch_commit_us.Percentile(99);
    result.lock_wait_p99_us = s.lock_wait_us.empty() ? 0.0 : s.lock_wait_us.Percentile(99);
  }
  return result;
}

bool RunDispatchStorm(bool quick) {
  const int requests = quick ? 2000 : 20000;
  std::printf("\nDispatch latency under a tick storm "
              "(%d QueryQueue round-trips on an idle root):\n", requests);

  DispatchResult idle = MeasureDispatch(DispatchLoad::kIdle, requests);
  DispatchResult control = MeasureDispatch(DispatchLoad::kControl, requests);
  DispatchResult under_storm = MeasureDispatch(DispatchLoad::kStorm, requests);
  double ratio_vs_control =
      control.p99_us > 0 ? under_storm.p99_us / control.p99_us : 0.0;
  double ratio_vs_idle = idle.p99_us > 0 ? under_storm.p99_us / idle.p99_us : 0.0;

  std::printf("  idle    : mean %7.1f us   p50 %7.1f us   p99 %7.1f us\n",
              idle.mean_us, idle.p50_us, idle.p99_us);
  std::printf("  control : mean %7.1f us   p50 %7.1f us   p99 %7.1f us   "
              "(identical load on a second server: scheduling cost only)\n",
              control.mean_us, control.p50_us, control.p99_us);
  std::printf("  storm   : mean %7.1f us   p50 %7.1f us   p99 %7.1f us   "
              "(%llu epochs, %llu shard contentions, commit p99 %.0f us, "
              "lock wait p99 %.0f us)\n",
              under_storm.mean_us, under_storm.p50_us, under_storm.p99_us,
              static_cast<unsigned long long>(under_storm.epoch_commits),
              static_cast<unsigned long long>(under_storm.shard_contention),
              under_storm.commit_p99_us, under_storm.lock_wait_p99_us);
  std::printf("  p99 storm/control: %.2fx (acceptance <= 1.25x)   "
              "storm/idle: %.2fx (informative)\n",
              ratio_vs_control, ratio_vs_idle);

  // Quick (CI smoke) runs are too noisy to gate on the tail ratio; the full
  // run enforces the 1.25x acceptance bar.
  return quick || (ratio_vs_control > 0 && ratio_vs_control <= 1.25);
}

int Run(const BenchFlags& flags) {
  PrintHeader("E10: engine scaling + epoch-snapshot dispatch isolation",
              "multiple simultaneous audio data streams; request dispatch "
              "stays responsive while the engine ticks");

  bool all_ok = true;

  RunTickScaling(flags.quick, &all_ok);
  bool storm_ok = RunDispatchStorm(flags.quick);
  all_ok = all_ok && storm_ok;

  std::printf("paper expectation (real-time capable, dispatch isolated from "
              "the tick): %s\n", all_ok ? "MET" : "MISSED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace aud

int main(int argc, char** argv) {
  return aud::Run(aud::BenchFlags::Parse(argc, argv));
}
