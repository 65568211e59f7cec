// GetServerStats / GetServerTrace over a real connection (ISSUE: in-
// protocol introspection). Verifies that playing a sound moves the
// per-opcode request counters, populates the tick histogram, and counts
// transport bytes; that the trace ring carries tick events; and that a
// client can poll stats concurrently with a multi-threaded engine.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/socket_stream.h"
#include "tests/server_fixture.h"

namespace aud {
namespace {

uint64_t OpcodeCount(const ServerStatsReply& stats, Opcode opcode) {
  for (const OpcodeStats& op : stats.opcodes) {
    if (op.opcode == static_cast<uint16_t>(opcode)) {
      return op.count;
    }
  }
  return 0;
}

class ServerStatsTest : public ServerFixture {};

TEST_F(ServerStatsTest, StatsReflectPlayback) {
  // Drive real work first so every counter the test checks has moved.
  auto chain = toolkit_->BuildPlaybackChain();
  ResourceId sound = toolkit_->UploadSound(TestTone(200), {Encoding::kPcm16, 8000});
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound, 30000));

  auto stats = client_->GetServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServerStatsReply& s = stats.value();

  EXPECT_EQ(s.stats_version, kServerStatsVersion);
  EXPECT_EQ(s.proto_major, kProtocolMajor);
  EXPECT_EQ(s.proto_minor, kProtocolMinor);
  EXPECT_EQ(s.engine_rate_hz, 8000u);
  EXPECT_EQ(s.engine_threads, 1u);

  // The playback chain issued these opcodes at least once each.
  EXPECT_GE(OpcodeCount(s, Opcode::kCreateLoud), 1u);
  EXPECT_GE(OpcodeCount(s, Opcode::kCreateVirtualDevice), 1u);
  EXPECT_GE(OpcodeCount(s, Opcode::kWriteSoundData), 1u);
  EXPECT_GE(OpcodeCount(s, Opcode::kEnqueueCommands), 1u);
  EXPECT_GE(OpcodeCount(s, Opcode::kGetServerStats), 1u);
  EXPECT_GE(s.requests_total, 8u);
  EXPECT_FALSE(s.dispatch_us.empty());

  // PlayAndWait pumped virtual time, so ticks ran and were timed.
  EXPECT_GT(s.ticks_run, 0u);
  EXPECT_FALSE(s.tick_us.empty());
  EXPECT_EQ(s.tick_us.count, s.ticks_run);
  EXPECT_GE(s.tick_us.Percentile(99), s.tick_us.Percentile(50));
  // Each tick times each of its phases once, and the phases fit in it.
  uint64_t phases_us = 0;
  for (const obs::HistogramSnapshot* phase : {&s.tick_open_us, &s.tick_fanout_us,
                                              &s.tick_flush_us, &s.tick_resolve_us,
                                              &s.tick_advance_us}) {
    EXPECT_EQ(phase->count, s.ticks_run);
    phases_us += phase->sum;
  }
  EXPECT_LE(phases_us, s.tick_us.sum);

  // Transport accounting: both directions carried real bytes.
  EXPECT_EQ(s.connections_open, 1);
  EXPECT_GE(s.connections_total, 1u);
  EXPECT_GT(s.bytes_in, 0u);
  EXPECT_GT(s.bytes_out, 0u);
  EXPECT_GT(s.events_sent, 0u);  // queue started/stopped, CommandDone

  EXPECT_GT(s.objects, 0u);
  EXPECT_GE(s.commands_enqueued, 1u);
  EXPECT_GE(s.commands_done, 1u);
  EXPECT_GE(s.queue_events, 1u);
}

TEST_F(ServerStatsTest, PerOpcodeErrorsAndTotalsAdvance) {
  auto before = client_->GetServerStats();
  ASSERT_TRUE(before.ok());

  // A query for a nonexistent LOUD produces an asynchronous error.
  auto bad = client_->QueryLoud(0xDEAD);
  EXPECT_FALSE(bad.ok());

  auto after = client_->GetServerStats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().request_errors_total,
            before.value().request_errors_total + 1);
  EXPECT_GT(after.value().requests_total, before.value().requests_total);
  EXPECT_GE(OpcodeCount(after.value(), Opcode::kQueryLoud), 1u);
}

TEST_F(ServerStatsTest, StatsWithoutOpcodeTableIsSmaller) {
  auto with = client_->GetServerStats(true);
  auto without = client_->GetServerStats(false);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(with.value().opcodes.empty());
  EXPECT_TRUE(without.value().opcodes.empty());
  EXPECT_GT(without.value().requests_total, 0u);
}

TEST_F(ServerStatsTest, TraceCarriesTickAndDispatchEvents) {
  StepMs(100);
  (void)client_->GetServerStats();  // guarantee at least one dispatch trace
  auto trace = client_->GetServerTrace();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_FALSE(trace.value().events.empty());

  bool saw_tick = false;
  bool saw_dispatch = false;
  uint64_t prev_seq = 0;
  bool first = true;
  for (const TraceEventWire& e : trace.value().events) {
    EXPECT_LT(e.reason, static_cast<uint16_t>(obs::TraceReason::kTraceReasonCount));
    if (!first) {
      EXPECT_GT(e.seq, prev_seq);  // merged snapshot is seq-ordered
    }
    prev_seq = e.seq;
    first = false;
    auto reason = static_cast<obs::TraceReason>(e.reason);
    saw_tick |= reason == obs::TraceReason::kTickStart ||
                reason == obs::TraceReason::kTickEnd;
    saw_dispatch |= reason == obs::TraceReason::kDispatch;
  }
  EXPECT_TRUE(saw_tick);
  EXPECT_TRUE(saw_dispatch);

  // max_events truncation keeps only the newest.
  auto few = client_->GetServerTrace(3);
  ASSERT_TRUE(few.ok());
  EXPECT_LE(few.value().events.size(), 3u);
}

// The tentpole end-to-end check: with sampling on, a traced play request
// produces a linked span tree — root kSpanRequest, kSpanDispatch and
// kSpanEgress parented on it, kSpanWrite parented on the egress span, and
// the mouth-to-ear pair (kSpanEpoch + kMouthToEar) closing the loop at the
// epoch that first mixed the sound.
TEST_F(ServerStatsTest, RequestTraceLinksSpansEndToEnd) {
  ServerOptions options;
  options.trace_sample_every = 1;  // every request gets a root span
  Init(BoardConfig{}, options);
  // Drive time manually: the toolkit's spinning time pump would tick the
  // engine thousands of times per round-trip, flooding the bounded trace
  // rings with tick events and evicting the very spans under test.
  toolkit_->set_time_pump({});

  auto chain = toolkit_->BuildPlaybackChain();
  ResourceId sound = toolkit_->UploadSound(TestTone(100), {Encoding::kPcm16, 8000});
  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  client_->StartQueue(chain.loud);
  ASSERT_TRUE(client_->Sync().ok());
  StepMs(200);  // play the whole sound; the first epoch commits mouth-to-ear

  // The raw ring now carries the StartQueue request's root span; its trace
  // id embeds this client's id base and the request sequence. Ask for an
  // unbounded snapshot — the default cap keeps only the newest ring-full.
  auto raw = client_->GetServerTrace(1u << 20);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  uint64_t want = 0;
  for (const TraceEventWire& e : raw.value().events) {
    if (e.reason == static_cast<uint16_t>(obs::TraceReason::kSpanRequest) &&
        e.arg0 == static_cast<uint32_t>(Opcode::kStartQueue)) {
      want = e.trace;
    }
  }
  ASSERT_NE(want, 0u) << "no sampled StartQueue root span in the ring";
  EXPECT_EQ(want >> 32, static_cast<uint64_t>(client_->id_base()));
  EXPECT_EQ(client_->TraceIdFor(static_cast<uint32_t>(want & 0xFFFFFFFFu)), want);

  auto traced = client_->GetRequestTrace(want);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  const RequestTraceReply& t = traced.value();
  EXPECT_EQ(t.trace_version, kRequestTraceVersion);
  EXPECT_EQ(t.trace_id, want);
  ASSERT_FALSE(t.spans.empty());

  uint64_t root_seq = 0;
  bool saw_dispatch = false;
  bool saw_epoch = false;
  bool saw_mouth_to_ear = false;
  for (const TraceEventWire& e : t.spans) {
    EXPECT_EQ(e.trace, want) << "span from a foreign trace leaked in";
    switch (static_cast<obs::TraceReason>(e.reason)) {
      case obs::TraceReason::kSpanRequest:
        root_seq = e.seq;
        EXPECT_EQ(e.parent, 0u) << "request span must be the root";
        EXPECT_EQ(e.arg0, static_cast<uint32_t>(Opcode::kStartQueue));
        break;
      case obs::TraceReason::kSpanDispatch:
        saw_dispatch = true;
        EXPECT_EQ(e.parent, root_seq);
        break;
      case obs::TraceReason::kSpanEpoch:
        saw_epoch = true;
        EXPECT_EQ(e.parent, root_seq);
        break;
      case obs::TraceReason::kMouthToEar:
        saw_mouth_to_ear = true;
        EXPECT_EQ(e.parent, root_seq);
        EXPECT_EQ(e.dur_us, e.arg0) << "mouth-to-ear span duration is the latency";
        break;
      default:
        break;
    }
  }
  ASSERT_NE(root_seq, 0u);
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_epoch);
  EXPECT_TRUE(saw_mouth_to_ear);

  // The spans arrive in timestamp order (satellite: globally ordered merge).
  for (size_t i = 1; i < t.spans.size(); ++i) {
    EXPECT_LE(t.spans[i - 1].t_us, t.spans[i].t_us);
  }

  // A successful StartQueue is fire-and-forget, so its trace has no reply
  // leg. The egress -> write linkage shows up on round-trip requests: walk
  // the Sync request's trace for it.
  uint64_t sync_trace = 0;
  for (const TraceEventWire& e : raw.value().events) {
    if (e.reason == static_cast<uint16_t>(obs::TraceReason::kSpanRequest) &&
        e.arg0 == static_cast<uint32_t>(Opcode::kSync)) {
      sync_trace = e.trace;
    }
  }
  ASSERT_NE(sync_trace, 0u) << "no sampled Sync root span in the ring";
  auto sync_traced = client_->GetRequestTrace(sync_trace);
  ASSERT_TRUE(sync_traced.ok());
  uint64_t sync_root = 0;
  uint64_t egress_seq = 0;
  bool saw_write = false;
  for (const TraceEventWire& e : sync_traced.value().spans) {
    switch (static_cast<obs::TraceReason>(e.reason)) {
      case obs::TraceReason::kSpanRequest:
        sync_root = e.seq;
        break;
      case obs::TraceReason::kSpanEgress:
        egress_seq = e.seq;
        EXPECT_EQ(e.parent, sync_root);
        break;
      case obs::TraceReason::kSpanWrite:
        saw_write = true;
        EXPECT_EQ(e.parent, egress_seq) << "write span must link to its enqueue";
        break;
      default:
        break;
    }
  }
  ASSERT_NE(sync_root, 0u);
  EXPECT_NE(egress_seq, 0u) << "Sync reply never produced an egress span";
  EXPECT_TRUE(saw_write);

  // The sampling counters moved, and the histogram saw the play.
  auto stats = client_->GetServerStats(false);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().trace_requests_sampled, 0u);
  EXPECT_GT(stats.value().trace_spans, 0u);
  EXPECT_EQ(stats.value().trace_sample_every, 1u);
  EXPECT_FALSE(stats.value().mouth_to_ear_us.empty());

  // trace_id 0 resolves to the most recently sampled request.
  auto newest = client_->GetRequestTrace(0);
  ASSERT_TRUE(newest.ok());
  EXPECT_NE(newest.value().trace_id, 0u);

  // max_spans truncates but keeps the trace filter.
  auto few = client_->GetRequestTrace(want, 2);
  ASSERT_TRUE(few.ok());
  EXPECT_LE(few.value().spans.size(), 2u);
  for (const TraceEventWire& e : few.value().spans) {
    EXPECT_EQ(e.trace, want);
  }
}

// GetEntityStats must rank the heavy client first (what `audioctl top` shows) and
// attribute device frame counters to the owning connection.
TEST_F(ServerStatsTest, EntityStatsIdentifyTopClientAndDevices) {
  // client_ does real work; a second connection stays nearly idle.
  auto idle = Connect("idle-client");
  ASSERT_NE(idle, nullptr);
  ASSERT_TRUE(idle->Sync().ok());

  auto chain = toolkit_->BuildPlaybackChain();
  ResourceId sound = toolkit_->UploadSound(TestTone(200), {Encoding::kPcm16, 8000});
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound, 30000));

  auto entities = client_->GetEntityStats(true);
  ASSERT_TRUE(entities.ok()) << entities.status().ToString();
  const EntityStatsReply& e = entities.value();
  EXPECT_EQ(e.entity_version, kEntityStatsVersion);
  ASSERT_GE(e.connections.size(), 2u);

  const ConnectionStatsWire* heavy = nullptr;
  const ConnectionStatsWire* light = nullptr;
  for (const ConnectionStatsWire& c : e.connections) {
    if (c.name == "test-client") {
      heavy = &c;
    } else if (c.name == "idle-client") {
      light = &c;
    }
  }
  ASSERT_NE(heavy, nullptr);
  ASSERT_NE(light, nullptr);
  // The uploader moved far more bytes than the idler — that ordering is
  // exactly what `audioctl top` sorts by.
  EXPECT_GT(heavy->bytes_in, light->bytes_in);
  EXPECT_GT(heavy->requests, light->requests);
  EXPECT_GE(heavy->bytes_in, heavy->requests * kHeaderSize);
  EXPECT_FALSE(heavy->dispatch_us.empty());

  // The playback chain's root LOUD appears in the device table, owned by
  // this connection, with frames attributed.
  ASSERT_FALSE(e.devices.empty());
  bool found_root = false;
  for (const DeviceStatsWire& d : e.devices) {
    if (d.root == chain.loud) {
      found_root = true;
      EXPECT_GT(d.frames_produced + d.frames_consumed, 0u);
    }
  }
  EXPECT_TRUE(found_root) << "playback chain root missing from device stats";

  // include_devices = false suppresses the device table.
  auto no_devices = client_->GetEntityStats(false);
  ASSERT_TRUE(no_devices.ok());
  EXPECT_TRUE(no_devices.value().devices.empty());
  EXPECT_FALSE(no_devices.value().connections.empty());
  idle->Close();
}

TEST_F(ServerStatsTest, UptimeAndServerTimeAdvance) {
  auto a = client_->GetServerStats(false);
  ASSERT_TRUE(a.ok());
  StepMs(40);
  auto b = client_->GetServerStats(false);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b.value().server_time, a.value().server_time);
  EXPECT_GE(b.value().uptime_ms, a.value().uptime_ms);
  EXPECT_EQ(b.value().ticks_run, a.value().ticks_run + 2);  // 40 ms = 2 periods
}

TEST(ServerStatsTcp, StatsOverTcpConnection) {
  Board board{BoardConfig{}};
  AudioServer server(&board);
  ASSERT_TRUE(server.ListenTcp(0));
  auto client = AudioConnection::OpenTcp("127.0.0.1", server.tcp_port(), "stats-tcp");
  ASSERT_NE(client, nullptr);
  server.StepFrames(320);
  auto stats = client->GetServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().connections_total, 1u);
  EXPECT_GT(stats.value().bytes_in, 0u);
  EXPECT_EQ(stats.value().ticks_run, 2u);
  client->Close();
  server.Shutdown();
}

// The TSan target: a client hammers GetServerStats/GetServerTrace in
// parallel with the engine ticking while another client plays audio. All
// snapshots happen under the big lock; this test exists to let the
// sanitizer prove that claim.
TEST(ServerStatsParallel, PollStatsWhileParallelEngineTicks) {
  BoardConfig config;
  config.speakers = 2;
  Board board{config};
  AudioServer server(&board);

  auto [client_end, server_end] = CreatePipePair();
  server.AddConnection(std::move(server_end));
  auto player = AudioConnection::Open(std::move(client_end), "player");
  ASSERT_NE(player, nullptr);
  auto [poll_client_end, poll_server_end] = CreatePipePair();
  server.AddConnection(std::move(poll_server_end));
  auto poller = AudioConnection::Open(std::move(poll_client_end), "poller");
  ASSERT_NE(poller, nullptr);

  // Two independent playback chains.
  AudioToolkit toolkit(player.get());
  std::atomic<bool> stop{false};
  toolkit.set_time_pump([&server] { server.StepFrames(160); });
  auto chain_a = toolkit.BuildPlaybackChain();
  auto chain_b = toolkit.BuildPlaybackChain();
  std::vector<Sample> tone(8000, 2000);
  ResourceId sound_a = toolkit.UploadSound(tone, {Encoding::kPcm16, 8000});
  ResourceId sound_b = toolkit.UploadSound(tone, {Encoding::kPcm16, 8000});
  player->Enqueue(chain_a.loud, {PlayCommand(chain_a.player, sound_a, 1)});
  player->Enqueue(chain_b.loud, {PlayCommand(chain_b.player, sound_b, 2)});
  player->StartQueue(chain_a.loud);
  player->StartQueue(chain_b.loud);
  ASSERT_TRUE(player->Sync().ok());

  std::thread poll_thread([&poller, &stop] {
    while (!stop.load()) {
      auto stats = poller->GetServerStats();
      ASSERT_TRUE(stats.ok());
      auto trace = poller->GetServerTrace(64);
      ASSERT_TRUE(trace.ok());
    }
  });

  // ~1.2 s of audio in 20 ms steps, polled the whole way.
  for (int i = 0; i < 60; ++i) {
    server.StepFrames(160);
  }
  stop.store(true);
  poll_thread.join();

  auto stats = poller->GetServerStats();
  ASSERT_TRUE(stats.ok());
  // The retired parallel-engine fields stay on the wire with fixed values.
  EXPECT_EQ(stats.value().engine_threads, 1u);
  EXPECT_TRUE(stats.value().islands_per_tick.empty());
  EXPECT_TRUE(stats.value().worker_imbalance.empty());
  EXPECT_FALSE(stats.value().tick_us.empty());

  player->Close();
  poller->Close();
  server.Shutdown();
}

}  // namespace
}  // namespace aud
