// Epoch-snapshot engine tick + sharded dispatch (DESIGN.md decision 12).
//
// The contract under test (see server_state.h and server.h):
//   * Each tick is an epoch: the active graph is captured under the
//     state lock (EpochOpen), the fan-out runs with NO state lock (only
//     per-root engine locks), and results are published atomically at the
//     epoch boundary (EpochCommit). epoch_commits therefore always equals
//     ticks_run — a torn or aborted epoch would break the equality.
//   * Structural mutations (create/destroy/rewire/map) drain the in-flight
//     epoch via WaitEngineIdle before touching the graph; engine-plane
//     requests (queue control, properties) take only the target root's
//     shard lock. Neither may deadlock, tear an epoch, or race the fan-out
//     (this suite runs under TSan in CI with --gtest_repeat=3).
//   * Dispatch latency stays bounded while a tick storm runs — the big
//     lock is no longer held across the fan-out.
//   * The fan-out holds one root lock at a time, so a tick of hundreds of
//     playing roots races engine-plane requests on them without tripping
//     the lock-rank checker or TSan's held-lock ceiling.
//   * Output stays pinned to a recorded golden capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/socket_stream.h"
#include "tests/server_fixture.h"

namespace aud {
namespace {

// In-process server + client + toolkit over a board built from `config`.
class World {
 public:
  explicit World(const BoardConfig& config) : board_(config), server_(&board_) {
    auto [client_end, server_end] = CreatePipePair();
    server_.AddConnection(std::move(server_end));
    client_ = AudioConnection::Open(std::move(client_end), "epoch-test");
    toolkit_ = std::make_unique<AudioToolkit>(client_.get());
    toolkit_->set_time_pump([this] { server_.StepFrames(160); });
  }
  ~World() { server_.Shutdown(); }

  Board& board() { return board_; }
  AudioServer& server() { return server_; }
  AudioConnection& client() { return *client_; }
  AudioToolkit& toolkit() { return *toolkit_; }

 private:
  Board board_;
  AudioServer server_;
  std::unique_ptr<AudioConnection> client_;
  std::unique_ptr<AudioToolkit> toolkit_;
};

std::vector<Sample> Tone(int i, size_t samples) {
  std::vector<Sample> pcm(samples);
  for (size_t j = 0; j < samples; ++j) {
    pcm[j] = static_cast<Sample>(
        ((i * 37 + static_cast<int>(j) * 11) % 2001) - 1000);
  }
  return pcm;
}

// `n` independent playing chains, each looping a 1 s chain-specific tone
// `plays_each` times, so the tick has real fan-out work.
void BuildChains(World& world, int n, int plays_each) {
  AudioToolkit& toolkit = world.toolkit();
  AudioConnection& client = world.client();
  for (int i = 0; i < n; ++i) {
    ResourceId sound = toolkit.UploadSound(Tone(i, 8000), {Encoding::kPcm16, 8000});
    auto chain = toolkit.BuildPlaybackChain();
    std::vector<CommandSpec> program;
    for (int p = 0; p < plays_each; ++p) {
      program.push_back(PlayCommand(chain.player, sound, 1));
    }
    client.Enqueue(chain.loud, program);
    client.StartQueue(chain.loud);
  }
  ASSERT_TRUE(client.Sync().ok());
}

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

// -- Epoch accounting --------------------------------------------------------

// Every tick is exactly one committed epoch: a torn, aborted, or
// double-published epoch breaks the equality.
TEST(EpochAccountingTest, CommitsMatchTicksRun) {
  World world(BoardConfig{});
  BuildChains(world, 4, 1);

  auto before = world.client().GetServerStats(false);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().epoch_commits, before.value().ticks_run);

  for (int t = 0; t < 25; ++t) {
    world.server().StepFrames(160);
  }

  auto after = world.client().GetServerStats(false);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().epoch_commits, after.value().ticks_run);
  EXPECT_EQ(after.value().ticks_run - before.value().ticks_run, 25u);
  // The commit critical section is instrumented (one sample per epoch).
  EXPECT_GE(after.value().epoch_commit_us.count, after.value().epoch_commits);
}

// -- Dispatch during a tick storm --------------------------------------------

// Engine-plane requests against an idle root keep completing, promptly,
// while a tick storm runs back-to-back epochs. The latency bound
// is deliberately loose (shared CI runners); the tight 1.25x
// storm-vs-control acceptance is bench_engine_scaling's full run, which
// exits non-zero when it is missed. The probe root is unmapped, so its
// shard lock is never taken by the fan-out.
TEST(DispatchStormTest, RequestsStayResponsiveDuringTickStorm) {
  World world(BoardConfig{});
  BuildChains(world, 8, 5);  // 5 x 1 s per chain: outlives the storm

  AudioConnection& client = world.client();
  ResourceId probe = client.CreateLoud(kNoResource, {});
  ASSERT_TRUE(client.Sync().ok());

  auto before = client.GetServerStats(false);
  ASSERT_TRUE(before.ok());

  std::atomic<bool> stop{false};
  std::thread pump([&world, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      world.server().StepFrames(160);
    }
  });

  std::vector<double> latencies;
  for (int i = 0; i < 400; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto reply = client.QueryQueue(probe);
    auto t1 = std::chrono::steady_clock::now();
    ASSERT_TRUE(reply.ok()) << "request " << i << " failed mid-storm";
    latencies.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }

  stop.store(true);
  pump.join();

  auto after = client.GetServerStats(false);
  ASSERT_TRUE(after.ok());
  // The storm really ran epochs underneath the requests.
  EXPECT_GT(after.value().epoch_commits, before.value().epoch_commits);
  EXPECT_EQ(after.value().epoch_commits, after.value().ticks_run);
  // Loose, sanitizer-proof bound: pre-epoch, a request could queue behind
  // an unbounded run of whole-tick lock holds.
  EXPECT_LT(PercentileOf(latencies, 99), 100000.0) << "p99 above 100 ms";
}

// -- Structural mutations racing the storm -----------------------------------

// create/destroy/rewire/map while a storm ticks: every mutation
// drains the in-flight epoch first, so nothing tears. TSan (CI repeats
// this suite 3x under it) checks the no-data-race half of the contract;
// the stats equality checks the no-torn-epoch half.
TEST(EpochRaceTest, CreateDestroyRewireDuringStorm) {
  World world(BoardConfig{});
  BuildChains(world, 4, 5);

  AudioConnection& client = world.client();
  // Uploaded ahead of the storm: the mutation loop below avoids the
  // toolkit, whose event waits would pump ticks from this thread too.
  ResourceId sound =
      world.toolkit().UploadSound(Tone(99, 8000), {Encoding::kPcm16, 8000});
  ASSERT_TRUE(client.Sync().ok());

  std::atomic<bool> stop{false};
  std::thread pump([&world, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      world.server().StepFrames(160);
    }
  });

  for (int i = 0; i < 40; ++i) {
    ResourceId root = client.CreateLoud(kNoResource, {});
    ResourceId player = client.CreateDevice(root, DeviceClass::kPlayer, {});
    ResourceId output = client.CreateDevice(root, DeviceClass::kOutput, {});
    ResourceId wire = client.CreateWire(player, 0, output, 0);
    client.MapLoud(root);
    client.Enqueue(root, {PlayCommand(player, sound, 1)});
    client.StartQueue(root);
    const std::vector<uint8_t> prop_value = {'m', 'i', 'd'};
    client.ChangeProperty(root, "epoch-test", "string", prop_value);
    if (i % 2 == 0) {
      // Rewire live: tear the wire out from under the playing graph.
      client.DestroyWire(wire);
      client.CreateWire(player, 0, output, 0);
    }
    client.StopQueue(root);
    client.DestroyLoud(root);  // takes the whole subtree with it
    ASSERT_TRUE(client.Sync().ok()) << "iteration " << i;
  }

  stop.store(true);
  pump.join();

  auto stats = client.GetServerStats(false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().epoch_commits, stats.value().ticks_run);
}

// -- Capacity shape: many playing roots under engine-plane requests ----------

// 128 playing roots tick back to back, each emitting sync marks, while
// queue control, gain changes, event-selection toggles and destroys of
// unrelated sounds hit them. Each root is ticked under its own engine lock
// and released before the next, so the request on a root waits only while
// that root is ticked, and no thread ever holds more than one root lock
// (TSan tracks at most 64 held locks per thread). The fan-out reads each
// root's event masks under that lock, reads ahead only what drain-class
// requests change, and the players revalidate their sounds only after a
// (drain-class) sound destroy.
TEST(EpochCapacityTest, EngineRequestsRaceTickOf128PlayingRoots) {
  World world(BoardConfig{});
  AudioConnection& client = world.client();
  AudioToolkit& toolkit = world.toolkit();
  constexpr int kRoots = 128;
  const ResourceId sound = toolkit.UploadSound(Tone(3, 8000), {Encoding::kPcm16, 8000});
  std::vector<AudioToolkit::PlaybackChain> chains;
  for (int i = 0; i < kRoots; ++i) {
    chains.push_back(toolkit.BuildPlaybackChain());
    client.SetSyncMarks(chains.back().loud, 20);
    client.Enqueue(chains.back().loud, {PlayCommand(chains.back().player, sound, 1),
                                        PlayCommand(chains.back().player, sound, 2)});
    client.StartQueue(chains.back().loud);
  }
  ASSERT_TRUE(client.Sync().ok());
  auto before = client.GetServerStats(false);
  ASSERT_TRUE(before.ok());
  ASSERT_GE(before.value().active_louds, static_cast<uint32_t>(kRoots));

  std::atomic<bool> stop{false};
  std::thread pump([&world, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      world.server().StepFrames(160);
    }
  });
  for (int i = 0; i < 4 * kRoots; ++i) {
    const AudioToolkit::PlaybackChain& chain = chains[static_cast<size_t>(i * 37 % kRoots)];
    client.Immediate(chain.loud, ChangeGainCommand(chain.output, 5000 + i));
    client.StopQueue(chain.loud);
    client.Enqueue(chain.loud, {PlayCommand(chain.player, sound, static_cast<uint32_t>(i + 3))});
    client.StartQueue(chain.loud);
    client.SelectEvents(chain.loud, i % 2 == 0 ? kQueueEvents : kQueueEvents | kSyncEvents);
    if (i % 16 == 0) {
      client.DestroySound(toolkit.UploadSound(Tone(i, 800), {Encoding::kPcm16, 8000}));
    }
    if (i % 32 == 31) {
      ASSERT_TRUE(client.Sync().ok()) << "request batch " << i / 32;
    }
  }
  ASSERT_TRUE(client.Sync().ok());
  stop.store(true);
  pump.join();

  auto after = client.GetServerStats(false);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value().ticks_run, before.value().ticks_run);
  EXPECT_EQ(after.value().epoch_commits, after.value().ticks_run);
  AsyncError error;
  EXPECT_FALSE(client.NextError(&error)) << ErrorCodeName(error.error.code);
  // Every root was ticked throughout and is still playing.
  MutexLock lock(&world.server().mutex());
  for (const AudioToolkit::PlaybackChain& chain : chains) {
    Loud* root = world.server().state().FindLoud(chain.loud);
    ASSERT_NE(root, nullptr);
    EXPECT_TRUE(root->runnable()) << "root " << chain.loud;
    EXPECT_GT(root->frames_consumed(), 0u) << "root " << chain.loud;
  }
}

// -- Mutation visibility at the epoch boundary -------------------------------

// A fixed number of epochs runs on one thread while this thread mutates
// the graph: every epoch still commits exactly once (mutations wait for
// the boundary; they never abort or split a tick), and the mutations are
// fully visible afterwards.
TEST(EpochVisibilityTest, MutationsLandAtEpochBoundaries) {
  World world(BoardConfig{});
  BuildChains(world, 4, 5);

  AudioConnection& client = world.client();
  ResourceId sound =
      world.toolkit().UploadSound(Tone(7, 8000), {Encoding::kPcm16, 8000});
  ASSERT_TRUE(client.Sync().ok());

  auto before = client.GetServerStats(false);
  ASSERT_TRUE(before.ok());

  constexpr int kEpochs = 200;
  std::thread pump([&world] {
    for (int t = 0; t < kEpochs; ++t) {
      world.server().StepFrames(160);
    }
  });

  // Rack up mutations while the epochs run.
  ResourceId kept = kNoResource;
  ResourceId kept_player = kNoResource;
  for (int i = 0; i < 20; ++i) {
    ResourceId root = client.CreateLoud(kNoResource, {});
    ResourceId player = client.CreateDevice(root, DeviceClass::kPlayer, {});
    ResourceId output = client.CreateDevice(root, DeviceClass::kOutput, {});
    client.CreateWire(player, 0, output, 0);
    client.MapLoud(root);
    if (i + 1 < 20) {
      client.DestroyLoud(root);
    } else {
      kept = root;  // the last one survives the storm
      kept_player = player;
    }
  }
  ASSERT_TRUE(client.Sync().ok());
  pump.join();

  auto after = client.GetServerStats(false);
  ASSERT_TRUE(after.ok());
  // Exactly kEpochs epochs committed — none torn, none double-counted,
  // despite 20 drain-class mutation bursts racing them.
  EXPECT_EQ(after.value().ticks_run - before.value().ticks_run,
            static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(after.value().epoch_commits, after.value().ticks_run);

  // The surviving mutation is fully live: it can play through the engine.
  client.Enqueue(kept, {PlayCommand(kept_player, sound, 1)});
  client.StartQueue(kept);
  ASSERT_TRUE(client.Sync().ok());
  auto queue = client.QueryQueue(kept);
  ASSERT_TRUE(queue.ok());
  world.server().StepFrames(160);
  ASSERT_TRUE(client.Sync().ok());
}

// -- Bit-identity with the recorded output ----------------------------------

// The epoch fan-out must not change audible output for a workload that
// mixes independent chains with a shared mixer. The hashes were recorded
// when the tree still carried an island-parallel engine and 1, 2 and 4
// engine threads all produced these exact captures. (server_parallel_test
// covers the wider workload.)
TEST(EpochDeterminismTest, BitIdenticalAcrossEngineThreads124) {
  BoardConfig config;
  config.speakers = 2;
  World world(config);
  for (SpeakerUnit* speaker : world.board().speakers()) {
    speaker->set_capture_output(true);
  }
  AudioConnection& client = world.client();
  AudioToolkit& toolkit = world.toolkit();
  const char* positions[2] = {"left", "right"};

  for (int i = 0; i < 8; ++i) {
    ResourceId sound =
        toolkit.UploadSound(Tone(i, 4000), {Encoding::kPcm16, 8000});
    AttrList attrs;
    attrs.SetString(AttrTag::kPosition, positions[i % 2]);
    auto chain = toolkit.BuildPlaybackChain(attrs);
    client.Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
    client.StartQueue(chain.loud);
  }
  // One shared mixer on top of the independent chains.
  ResourceId root = client.CreateLoud(kNoResource, {});
  ResourceId child_a = client.CreateLoud(root, {});
  ResourceId child_b = client.CreateLoud(root, {});
  ResourceId player_a = client.CreateDevice(child_a, DeviceClass::kPlayer, {});
  ResourceId player_b = client.CreateDevice(child_b, DeviceClass::kPlayer, {});
  ResourceId mixer = client.CreateDevice(root, DeviceClass::kMixer, {});
  ResourceId output = client.CreateDevice(root, DeviceClass::kOutput, {});
  client.CreateWire(player_a, 0, mixer, 0);
  client.CreateWire(player_b, 0, mixer, 1);
  client.CreateWire(mixer, 0, output, 0);
  client.MapLoud(root);
  ResourceId sa = toolkit.UploadSound(Tone(50, 4000), {Encoding::kPcm16, 8000});
  ResourceId sb = toolkit.UploadSound(Tone(51, 4000), {Encoding::kPcm16, 8000});
  client.Enqueue(root, {PlayCommand(player_a, sa, 1), PlayCommand(player_b, sb, 2)});
  client.StartQueue(root);
  ASSERT_TRUE(client.Sync().ok());

  world.server().StepFrames(160 * 20);

  const uint64_t golden[2] = {0x56ea6f1d63623229ull, 0x3436c94d6a941344ull};
  for (size_t s = 0; s < 2; ++s) {
    const std::vector<Sample>& got = world.board().speakers()[s]->played();
    EXPECT_EQ(got.size(), 3200u) << "speaker " << s;
    EXPECT_EQ(CaptureHash(got), golden[s]) << "engine output changed, speaker " << s;
  }
}

}  // namespace
}  // namespace aud
