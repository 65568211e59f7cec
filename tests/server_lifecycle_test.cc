// Connection-lifecycle robustness: the bounded egress queue and its
// event shedding, transient accept(2) retry, telephone hang-up when the
// owning client dies, and Alib's resilience knobs (connect retry, RPC
// deadlines, clean errors when the server goes away). One sick or dead
// client must never take the server — or the phone line — down with it.
// The overload-protection suite (DESIGN.md decision 15) exercises
// admission control, token-bucket rate limiting, per-client quotas,
// connection teardown, and the SIGTERM graceful drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <set>
#include <thread>

#include "src/server/connection.h"
#include "src/server/egress_queue.h"
#include "src/transport/socket_stream.h"
#include "tests/server_fixture.h"

namespace aud {
namespace {

// kHeaderSize is 12; a 38-byte payload makes every frame exactly 50 bytes,
// so a 100-byte budget fits two frames.
EgressFrame Frame(MessageType type, uint16_t code, size_t payload_bytes = 38) {
  EgressFrame frame;
  frame.type = type;
  frame.code = code;
  frame.payload.assign(payload_bytes, 0xCD);
  return frame;
}

TEST(EgressQueueTest, DeliversInOrderThenDrains) {
  EgressQueue queue(1024);
  EXPECT_EQ(queue.Push(Frame(MessageType::kReply, 1)).status,
            EgressPushStatus::kQueued);
  EXPECT_EQ(queue.Push(Frame(MessageType::kEvent, 2)).status,
            EgressPushStatus::kQueued);
  EXPECT_EQ(queue.Push(Frame(MessageType::kError, 3)).status,
            EgressPushStatus::kQueued);
  queue.BeginDrain();
  // Push after drain is rejected, but the backlog still flushes in order.
  EXPECT_EQ(queue.Push(Frame(MessageType::kReply, 4)).status,
            EgressPushStatus::kClosed);
  EgressFrame out;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 1);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 2);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 3);
  EXPECT_FALSE(queue.TryPop(&out));  // drained
  EXPECT_EQ(queue.queued_bytes(), 0u);
}

TEST(EgressQueueTest, ShedsOldestEventsToFitNewFrames) {
  EgressQueue queue(100);
  ASSERT_EQ(queue.Push(Frame(MessageType::kEvent, 1)).status,
            EgressPushStatus::kQueued);
  ASSERT_EQ(queue.Push(Frame(MessageType::kEvent, 2)).status,
            EgressPushStatus::kQueued);
  // Budget full (2 x 50 bytes). A reply pushes out the oldest event only.
  EgressPushResult result = queue.Push(Frame(MessageType::kReply, 3));
  EXPECT_EQ(result.status, EgressPushStatus::kQueued);
  EXPECT_EQ(result.dropped_events, 1u);
  EXPECT_EQ(queue.dropped_events_total(), 1u);
  EgressFrame out;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 2);  // event 1 was shed
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 3);
}

TEST(EgressQueueTest, ReplyBacklogOverflowsEvenWhenDroppingEvents) {
  EgressQueue queue(100);
  ASSERT_EQ(queue.Push(Frame(MessageType::kReply, 1)).status,
            EgressPushStatus::kQueued);
  ASSERT_EQ(queue.Push(Frame(MessageType::kReply, 2)).status,
            EgressPushStatus::kQueued);
  // Nothing sheddable: the client has stopped reading replies.
  EgressPushResult result = queue.Push(Frame(MessageType::kReply, 3));
  EXPECT_EQ(result.status, EgressPushStatus::kOverflow);
  EXPECT_EQ(result.dropped_events, 0u);
}

TEST(EgressQueueTest, OversizedEventDropsItself) {
  EgressQueue queue(100);
  // An event bigger than the whole budget can never fit; it is shed on
  // arrival (counted) without failing the connection.
  EgressPushResult result = queue.Push(Frame(MessageType::kEvent, 1, 200));
  EXPECT_EQ(result.status, EgressPushStatus::kQueued);
  EXPECT_EQ(result.dropped_events, 1u);
  EXPECT_EQ(queue.dropped_events_total(), 1u);
  EXPECT_EQ(queue.queued_bytes(), 0u);
}

TEST(EgressQueueTest, CloseNowDiscardsBacklog) {
  EgressQueue queue(1024);
  ASSERT_EQ(queue.Push(Frame(MessageType::kReply, 1)).status,
            EgressPushStatus::kQueued);
  queue.CloseNow();
  EgressFrame out;
  EXPECT_FALSE(queue.TryPop(&out));
  EXPECT_EQ(queue.Push(Frame(MessageType::kReply, 2)).status,
            EgressPushStatus::kClosed);
  EXPECT_EQ(queue.queued_bytes(), 0u);
}

TEST(EgressQueueTest, GaugeMirrorsBacklog) {
  obs::Gauge gauge;
  EgressQueue queue(1024, &gauge);
  queue.Push(Frame(MessageType::kReply, 1));
  queue.Push(Frame(MessageType::kEvent, 2));
  EXPECT_EQ(gauge.value(), 100);
  EgressFrame out;
  queue.TryPop(&out);
  EXPECT_EQ(gauge.value(), 50);
  queue.CloseNow();  // discard zeroes the gauge
  EXPECT_EQ(gauge.value(), 0);
}

// -- Event frames written in place -------------------------------------------

// One event frame as the generic encoders write it: MessageHeader::Encode
// then EventMessage::Encode, through ByteWriter.
std::vector<uint8_t> GenericEventFrame(const EventMessage& event) {
  ByteWriter payload;
  event.Encode(&payload);
  MessageHeader header;
  header.type = MessageType::kEvent;
  header.code = static_cast<uint16_t>(event.type);
  header.length = static_cast<uint32_t>(payload.size());
  ByteWriter frame;
  header.Encode(&frame);
  frame.WriteBytes(payload.bytes());
  return frame.Take();
}

// Every event type, with no args, the 7-byte CommandDone and 24-byte
// SyncMark args written straight into the frame, and one large blob: the
// in-place frame equals the generic encoders' bytes, and reads back
// through the framer as the same event.
TEST(EventFrameTest, InPlaceFramesMatchGenericEncodersForEveryEventType) {
  CommandDoneArgs done;
  done.tag = 0xA1B2C3D4;
  done.command = static_cast<uint16_t>(DeviceCommand::kPlay);
  done.aborted = 1;
  SyncMarkArgs mark;
  mark.position_samples = 0x0102030405060708ull;
  mark.device_time = -1234567890123;
  mark.total_samples = 0xFFFFFFFF00000001ull;
  std::vector<uint8_t> blob(3000);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  ASSERT_EQ(done.Encode().size(), 7u);
  ASSERT_EQ(mark.Encode().size(), 24u);

  auto [client_end, server_end] = CreatePipePair();
  for (uint16_t code = 0; code < static_cast<uint16_t>(EventType::kEventTypeCount); ++code) {
    const EventType type = static_cast<EventType>(code);
    const ResourceId resource = 0x00C0FFEE + code;
    const int64_t time = (int64_t{1} << 40) + code;
    struct Case {
      const char* args_name;
      std::vector<uint8_t> args;
      std::vector<uint8_t> frame;
    };
    std::vector<Case> cases(4);
    cases[0].args_name = "none";
    AppendEventFrame(&cases[0].frame, type, resource, time, {});
    cases[1].args_name = "CommandDone";
    cases[1].args = done.Encode();
    AppendEventFrame(&cases[1].frame, type, resource, time, done);
    cases[2].args_name = "SyncMark";
    cases[2].args = mark.Encode();
    AppendEventFrame(&cases[2].frame, type, resource, time, mark);
    cases[3].args_name = "blob";
    cases[3].args = blob;
    AppendEventFrame(&cases[3].frame, type, resource, time, std::span<const uint8_t>(blob));
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "event type " << code << ", args " << c.args_name);
      const EventMessage event{type, resource, time, c.args};
      EXPECT_EQ(c.frame, GenericEventFrame(event));
      ASSERT_EQ(BatchedFrameBytes(c.frame, 0), c.frame.size());

      ASSERT_TRUE(server_end->Write(c.frame));
      std::optional<FramedMessage> read = ReadMessage(client_end.get());
      ASSERT_TRUE(read.has_value());
      EXPECT_EQ(read->header.type, MessageType::kEvent);
      EXPECT_EQ(read->header.code, code);
      ByteReader r(read->payload);
      const EventMessage decoded = EventMessage::Decode(&r);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_EQ(decoded.type, type);
      EXPECT_EQ(decoded.resource, resource);
      EXPECT_EQ(decoded.server_time, time);
      EXPECT_EQ(decoded.args, c.args);
    }
  }
}

// A batch mixing every args size: SendEvents stamps the last request's
// sequence into each frame's header, and the frames reach the wire in
// order with their args intact.
TEST(EventFrameTest, SendEventsStampsEveryFrameOfAMixedBatch) {
  auto [client_end, server_end] = CreatePipePair();
  ServerMetrics metrics;
  ClientConnection conn(0, std::move(server_end), metrics);
  conn.set_last_sequence(0x01020304);
  CommandDoneArgs done;
  done.tag = 9;
  SyncMarkArgs mark;
  mark.position_samples = 160;
  const std::vector<uint8_t> blob(2000, 0x5A);
  std::vector<uint8_t> frames;
  AppendEventFrame(&frames, EventType::kQueueStarted, 1, 10, {});
  AppendEventFrame(&frames, EventType::kCommandDone, 2, 20, done);
  AppendEventFrame(&frames, EventType::kSyncMark, 3, 30, mark);
  AppendEventFrame(&frames, EventType::kRecognition, 4, 40, std::span<const uint8_t>(blob));
  ASSERT_TRUE(conn.SendEvents(std::move(frames), 4));
  ASSERT_EQ(conn.DrainEgress(), ClientConnection::DrainStatus::kIdle);

  const std::vector<std::vector<uint8_t>> want_args = {{}, done.Encode(), mark.Encode(), blob};
  for (uint32_t i = 0; i < 4; ++i) {
    std::optional<FramedMessage> read = ReadMessage(client_end.get());
    ASSERT_TRUE(read.has_value()) << "frame " << i;
    EXPECT_EQ(read->header.sequence, 0x01020304u) << "frame " << i;
    ByteReader r(read->payload);
    const EventMessage event = EventMessage::Decode(&r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(event.resource, i + 1);
    EXPECT_EQ(event.server_time, 10 * (i + 1));
    EXPECT_EQ(event.args, want_args[i]);
  }
}

// -- Event batches: per-event shedding ---------------------------------------

// A batch of `count` SyncMark events for resources first, first+1, ...;
// each encoded event frame is 30 bytes (12-byte header, 18-byte payload).
EgressFrame Batch(ResourceId first, uint32_t count) {
  EgressFrame batch;
  batch.type = MessageType::kEvent;
  for (uint32_t i = 0; i < count; ++i) {
    AppendEventFrame(&batch.payload, EventType::kSyncMark, first + i, 0, {});
  }
  batch.batched_events = count;
  return batch;
}

// The resources of a popped batch's events, in order.
std::vector<ResourceId> BatchResources(const EgressFrame& batch) {
  std::vector<ResourceId> out;
  for (size_t offset = 0; offset < batch.payload.size();
       offset += BatchedFrameBytes(batch.payload, offset)) {
    ByteReader r(std::span<const uint8_t>(batch.payload).subspan(offset + kHeaderSize));
    out.push_back(EventMessage::Decode(&r).resource);
  }
  return out;
}

TEST(EgressQueueTest, QueuedBatchShedsOldestEventsOneAtATime) {
  obs::Gauge gauge;
  EgressQueue queue(200, &gauge);
  ASSERT_EQ(queue.Push(Batch(100, 5)).status, EgressPushStatus::kQueued);  // 150 B
  ASSERT_EQ(queue.Push(Frame(MessageType::kReply, 1)).status,
            EgressPushStatus::kQueued);  // 200 B: full
  EXPECT_EQ(gauge.value(), 200);

  // 50 more bytes free two 30-byte events, the batch's oldest two, not
  // the whole batch and never the reply.
  EgressPushResult result = queue.Push(Frame(MessageType::kReply, 2));
  EXPECT_EQ(result.status, EgressPushStatus::kQueued);
  EXPECT_EQ(result.dropped_events, 2u);
  EXPECT_EQ(queue.dropped_events_total(), 2u);
  EXPECT_EQ(queue.queued_bytes(), 190u);
  EXPECT_EQ(gauge.value(), 190);

  EgressFrame out;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.batched_events, 3u);
  EXPECT_EQ(BatchResources(out), (std::vector<ResourceId>{102, 103, 104}));
  EXPECT_EQ(gauge.value(), 100);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 1);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 2);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(EgressQueueTest, IncomingBatchShedsItsOwnOldestEvents) {
  obs::Gauge gauge;
  EgressQueue queue(100, &gauge);
  ASSERT_EQ(queue.Push(Batch(1, 1)).status, EgressPushStatus::kQueued);  // 30 B
  ASSERT_EQ(queue.Push(Frame(MessageType::kReply, 1)).status,
            EgressPushStatus::kQueued);  // 80 B
  // 150 B of new events: the queued event goes first, then the batch's
  // own oldest, until the newest events fit beside the reply.
  EgressPushResult result = queue.Push(Batch(10, 5));
  EXPECT_EQ(result.status, EgressPushStatus::kQueued);
  EXPECT_EQ(result.dropped_events, 1u + 4u);
  EXPECT_EQ(queue.queued_bytes(), 80u);
  EXPECT_EQ(gauge.value(), 80);

  EgressFrame out;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.code, 1);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(BatchResources(out), (std::vector<ResourceId>{14}));

  // A reply backlog still overflows; the incoming batch does not rescue it.
  EgressQueue full(100);
  ASSERT_EQ(full.Push(Frame(MessageType::kReply, 1)).status, EgressPushStatus::kQueued);
  ASSERT_EQ(full.Push(Frame(MessageType::kReply, 2)).status, EgressPushStatus::kQueued);
  result = full.Push(Batch(20, 2));
  EXPECT_EQ(result.status, EgressPushStatus::kQueued);
  EXPECT_EQ(result.dropped_events, 2u);  // shed whole, counted per event
  EXPECT_EQ(full.queued_bytes(), 100u);
  EXPECT_EQ(full.Push(Frame(MessageType::kReply, 3)).status, EgressPushStatus::kOverflow);
}

// -- ClientConnection: overflow wiring ---------------------------------------

TEST(ConnectionEgressTest, SlowClientDisconnectPolicyCutsConnection) {
  // No loop attached: frames pile up as they would behind a client that
  // never reads.
  auto [client_end, server_end] = CreatePipePair();
  ServerMetrics metrics;
  ClientConnection conn(0, std::move(server_end), metrics, /*egress_budget_bytes=*/128);

  std::vector<uint8_t> payload(52);  // 64-byte frames; two fit in 128
  EXPECT_TRUE(conn.Send(MessageType::kReply, 1, 1, payload));
  EXPECT_TRUE(conn.Send(MessageType::kReply, 1, 2, payload));
  EXPECT_FALSE(conn.Send(MessageType::kReply, 1, 3, payload));
  EXPECT_TRUE(conn.closed());
  EXPECT_EQ(metrics.egress_disconnects.value(), 1u);
  // Once cut, further sends fail fast without touching the queue.
  EXPECT_FALSE(conn.Send(MessageType::kReply, 1, 4, payload));
  EXPECT_EQ(metrics.egress_disconnects.value(), 1u);
}

TEST(ConnectionEgressTest, EventSheddingCountsButNeverFailsSend) {
  auto [client_end, server_end] = CreatePipePair();
  ServerMetrics metrics;
  ClientConnection conn(0, std::move(server_end), metrics, /*egress_budget_bytes=*/128);

  std::vector<uint8_t> payload(52);
  // A reply occupies half the budget and is undroppable.
  EXPECT_TRUE(conn.Send(MessageType::kReply, 1, 1, payload));
  // Events beyond the remaining budget shed older events, never fail.
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(conn.Send(MessageType::kEvent, 7, i, payload));
  }
  EXPECT_EQ(conn.events_dropped(), 9u);  // one event still queued
  EXPECT_EQ(metrics.events_dropped.value(), 9u);
  EXPECT_EQ(metrics.egress_disconnects.value(), 0u);
  EXPECT_FALSE(conn.closed());
}

TEST(ConnectionEgressTest, EventBatchesStampSequenceAndKeepDropsWithinSent) {
  auto [client_end, server_end] = CreatePipePair();
  ServerMetrics metrics;
  ClientConnection conn(0, std::move(server_end), metrics, /*egress_budget_bytes=*/512);
  conn.set_last_sequence(41);

  // Far more events than the budget holds, beside undroppable replies.
  std::vector<uint8_t> payload(52);
  for (uint32_t round = 0; round < 20; ++round) {
    std::vector<uint8_t> frames;
    for (uint32_t i = 0; i < 7; ++i) {
      AppendEventFrame(&frames, EventType::kSyncMark, round * 7 + i, round, {});
    }
    EXPECT_TRUE(conn.SendEvents(std::move(frames), 7));
    if (round % 5 == 0) {
      EXPECT_TRUE(conn.Send(MessageType::kReply, 1, round, payload));
    }
  }
  EXPECT_EQ(conn.stats().events_sent.value(), 140u);
  EXPECT_EQ(metrics.events_sent.value(), 140u);
  EXPECT_GT(metrics.events_dropped.value(), 0u);
  EXPECT_LE(metrics.events_dropped.value(), metrics.events_sent.value());
  EXPECT_EQ(metrics.egress_queued_bytes.value(), static_cast<int64_t>(conn.egress_queued_bytes()));
  EXPECT_FALSE(conn.closed());

  // What survives reaches the wire: every reply, then the newest events in
  // order, each stamped with the last request's sequence.
  ASSERT_FALSE(conn.closed());
  ASSERT_EQ(conn.DrainEgress(), ClientConnection::DrainStatus::kIdle);
  EXPECT_EQ(metrics.egress_queued_bytes.value(), 0);
  conn.HardClose();  // a short read below fails instead of blocking
  int replies = 0;
  std::vector<ResourceId> events;
  const uint64_t delivered = 140 - metrics.events_dropped.value();
  while (replies < 4 || events.size() < delivered) {
    std::optional<FramedMessage> message = ReadMessage(client_end.get());
    ASSERT_TRUE(message.has_value());
    if (message->header.type == MessageType::kReply) {
      ++replies;
      continue;
    }
    ASSERT_EQ(message->header.type, MessageType::kEvent);
    EXPECT_EQ(message->header.sequence, 41u);
    EXPECT_EQ(message->header.code, static_cast<uint16_t>(EventType::kSyncMark));
    ByteReader r(message->payload);
    events.push_back(EventMessage::Decode(&r).resource);
  }
  ASSERT_EQ(events.size(), delivered);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end()));
  EXPECT_EQ(events.back(), 139u);
}

// -- Server-level lifecycle ---------------------------------------------------

class LifecycleTest : public ServerFixture {};

TEST_F(LifecycleTest, AcceptRetriesTransientErrnosAndSurvives) {
  // Inject a burst of transient accept failures before the accept thread
  // starts; the listener must retry through all of them and then accept a
  // real client.
  server_->listener_for_test().InjectAcceptErrnosForTest(
      {EINTR, ECONNABORTED, EMFILE, ENFILE, ENOBUFS});
  ASSERT_TRUE(server_->ListenTcp(0));
  auto client = AudioConnection::OpenTcp("127.0.0.1", server_->tcp_port(), "survivor");
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Sync().ok());
  EXPECT_EQ(server_->listener_for_test().accept_retries(), 5u);
  // The retry counter is mirrored into the stats reply.
  auto stats = client->GetServerStats(false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().accept_retries, 5u);
}

TEST_F(LifecycleTest, ClientDeathHangsUpOwnedTelephone) {
  FarEndParty* callee = board_->AddFarEnd("555-9999");
  callee->AnswerAfterRings(1);

  auto owner = Connect("phone-owner");
  ASSERT_NE(owner, nullptr);
  ResourceId loud = owner->CreateLoud(kNoResource, {});
  ResourceId telephone = owner->CreateDevice(loud, DeviceClass::kTelephone, {});
  owner->MapLoud(loud);
  owner->Enqueue(loud, {DialCommand(telephone, "555-9999", 1)});
  owner->StartQueue(loud);
  ASSERT_TRUE(owner->Sync().ok());

  PhoneLineUnit* line = board_->phone_lines()[0];
  // Line state is mutated under the big lock (engine tick and disconnect
  // reclamation both hold it), so observe it the same way.
  auto line_state = [&] {
    MutexLock lock(&server_->mutex());
    return line->line_state();
  };
  for (int i = 0; i < 600 && line_state() != LineState::kConnected; ++i) {
    StepMs(20);
  }
  ASSERT_EQ(line_state(), LineState::kConnected);

  // The owner dies mid-call. Disconnect reclamation must put the line
  // back on hook — a dead client cannot hold a phone call open.
  owner->Close();
  for (int i = 0; i < 200 && line_state() != LineState::kOnHook; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    StepMs(20);
  }
  EXPECT_EQ(line_state(), LineState::kOnHook);
}

// 4,096 clients come and go one after another beside the live fixture
// client: more than the 3,839 blocks of 2^20 ids that fit below the server
// range, and past the point where a 32-bit base computed from an index that
// only grew would wrap. Each closed client's slot, and its id block, goes to the next:
// no block reaches the server range, the live client's block is never
// handed out again, and the successor in a recycled slot starts clean —
// it gets none of the device-LOUD events its predecessor selected.
TEST_F(LifecycleTest, RecycledSlotsReuseIdBlocksAndStartClean) {
  constexpr int kCycles = 4096;
  const ResourceId device_loud = client_->device_loud();
  const ResourceId live_base = client_->id_base();
  // The fixture client watches the device LOUD too: its notify proves each
  // probe event was emitted.
  client_->SelectEvents(device_loud, kPropertyEvents);
  ASSERT_TRUE(client_->Sync().ok());

  std::set<ResourceId> bases;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    SCOPED_TRACE(testing::Message() << "cycle " << cycle);
    auto conn = Connect("cycler");
    ASSERT_NE(conn, nullptr);
    const ResourceId base = conn->id_base();
    ASSERT_FALSE(IsServerId(base + kClientIdBlockSize - 1));
    ASSERT_NE(base, live_base);
    bases.insert(base);

    // A probe event on the device LOUD reaches the watcher, not the
    // newcomer, whatever its slot's last client selected.
    const uint8_t value[] = {static_cast<uint8_t>(cycle)};
    client_->ChangeProperty(device_loud, "probe", "INTEGER", value);
    ASSERT_TRUE(client_->Sync().ok());
    EventMessage event;
    ASSERT_TRUE(client_->PollEvent(&event));
    ASSERT_EQ(event.type, EventType::kPropertyNotify);
    ASSERT_FALSE(client_->PollEvent(&event));
    ASSERT_TRUE(conn->Sync().ok());
    ASSERT_FALSE(conn->PollEvent(&event)) << "inherited a dead client's selection";

    // Select everything on the device LOUD, then leave.
    conn->SelectEvents(device_loud, kAllEvents);
    ASSERT_TRUE(conn->Sync().ok());
    conn->Close();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->connection_objects_for_test() != 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "teardown never ran";
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    MutexLock lock(&server_->mutex());
    ASSERT_EQ(server_->state().FindLoud(device_loud)->event_masks().size(), 1u);
  }
  // Every cycler found the slot its predecessor left.
  EXPECT_EQ(bases.size(), 1u);
  EXPECT_TRUE(client_->Sync().ok());
}

TEST_F(LifecycleTest, RpcDeadlineSurfacesTimeout) {
  client_->set_rpc_deadline_ms(50);
  Result<ServerStatsReply> result = [&] {
    // Stall the dispatcher by holding the big lock across the round-trip;
    // the client-side deadline must fire instead of blocking forever.
    MutexLock lock(&server_->mutex());
    return client_->GetServerStats(false);
  }();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
  // The connection itself is still healthy once the server catches up.
  client_->set_rpc_deadline_ms(0);
  EXPECT_TRUE(client_->Sync().ok());
}

TEST_F(LifecycleTest, ServerShutdownSurfacesConnectionError) {
  auto doomed = Connect("doomed");
  ASSERT_NE(doomed, nullptr);
  ASSERT_TRUE(doomed->Sync().ok());
  server_->Shutdown();
  // In-flight and future round-trips fail with kConnection, not a hang.
  Status status = doomed->Sync();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kConnection);
}

// -- Overload protection (DESIGN.md decision 15) ------------------------------

class OverloadTest : public ServerFixture {
 protected:
  // Stats fetches retry briefly: the fixture client shares the server's
  // rate limits, so a snapshot right after a flood may itself be refused.
  ServerStatsReply Stats() {
    Result<ServerStatsReply> stats = client_->GetServerStats(false);
    for (int i = 0; i < 100 && !stats.ok(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      stats = client_->GetServerStats(false);
    }
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? stats.value() : ServerStatsReply{};
  }
};

TEST_F(OverloadTest, AdmissionControlRejectsOverCap) {
  ServerOptions options;
  options.max_connections = 2;  // the fixture client plus one more
  Init(BoardConfig{}, options);
  auto second = Connect("second");
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(second->Sync().ok());
  // Over the cap the stream is closed before setup ever answers, so Open
  // fails cleanly — and the server keeps serving the admitted clients.
  EXPECT_EQ(Connect("third"), nullptr);
  EXPECT_TRUE(client_->Sync().ok());
  EXPECT_GE(Stats().admission_rejects, 1u);
  // A slot frees up when an admitted connection dies.
  second->Close();
  std::unique_ptr<AudioConnection> fourth;
  for (int i = 0; i < 500 && fourth == nullptr; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    fourth = Connect("fourth");
  }
  ASSERT_NE(fourth, nullptr);
  EXPECT_TRUE(fourth->Sync().ok());
}

TEST_F(OverloadTest, SoftRateLimitRefusesWithoutDisconnecting) {
  ServerOptions options;
  options.limit_rps = 50;
  options.limit_rps_burst = 5;
  Init(BoardConfig{}, options);
  for (int i = 0; i < 200; ++i) {
    client_->NoOp();
  }
  // The bucket is long dry by the time the Sync frame is parsed, so even
  // the Sync is refused — on its own sequence, which still completes the
  // round trip: a refused request never cuts the connection.
  Status dry = client_->Sync();
  ASSERT_FALSE(dry.ok());
  EXPECT_EQ(dry.code(), ErrorCode::kRateLimited);
  uint64_t refused = 0;
  AsyncError error;
  while (client_->NextError(&error)) {
    EXPECT_EQ(error.error.code, ErrorCode::kRateLimited);
    ++refused;
  }
  EXPECT_GT(refused, 100u);
  // Each connection has its own buckets: a second client is served at once.
  auto other = Connect("other");
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(other->Sync().ok());
  // Refill restores service on the same connection.
  Status after = dry;
  for (int i = 0; i < 200 && !after.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    after = client_->Sync();
  }
  EXPECT_TRUE(after.ok());
  EXPECT_GE(Stats().rate_limited, refused);
}

TEST_F(OverloadTest, DeviceQuotaDeniesCreationUntilAReleasedSlot) {
  ServerOptions options;
  options.quota_devices = 2;
  Init(BoardConfig{}, options);
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId first = client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ExpectNoErrors();
  client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ExpectError(ErrorCode::kQuotaExceeded);
  // On-demand counting has nothing to unwind: destroying a device frees
  // its slot immediately.
  client_->DestroyDevice(first);
  client_->CreateDevice(loud, DeviceClass::kPlayer, {});
  ExpectNoErrors();
  EXPECT_GE(Stats().quota_denials, 1u);
}

TEST_F(OverloadTest, SoundByteQuotaChargesGrowthOnly) {
  ServerOptions options;
  options.quota_sound_bytes = 8192;
  Init(BoardConfig{}, options);
  ResourceId sound = client_->CreateSound({Encoding::kPcm16, 8000});
  std::vector<uint8_t> block(4096, 0x7F);
  client_->WriteSound(sound, 0, block);
  client_->WriteSound(sound, 4096, block);  // exactly at the quota
  ExpectNoErrors();
  // One byte of growth past the quota is refused...
  client_->WriteSound(sound, 8192, std::vector<uint8_t>(1, 0x00));
  ExpectError(ErrorCode::kQuotaExceeded);
  // ...but rewriting in place is free: the quota charges growth, not I/O.
  client_->WriteSound(sound, 0, block);
  ExpectNoErrors();
}

TEST_F(OverloadTest, PlayQuotaBoundsConcurrentlyRunningQueues) {
  ServerOptions options;
  options.quota_plays = 1;
  Init(BoardConfig{}, options);
  ResourceId first = client_->CreateLoud(kNoResource, {});
  ResourceId second = client_->CreateLoud(kNoResource, {});
  // A long delay keeps each queue running for as long as the test needs
  // (virtual time only moves when the test steps it).
  client_->Enqueue(first, {DelayCommand(60000), DelayEndCommand()});
  client_->Enqueue(second, {DelayCommand(60000), DelayEndCommand()});
  client_->StartQueue(first);
  ExpectNoErrors();
  client_->StartQueue(second);
  ExpectError(ErrorCode::kQuotaExceeded);
  // Stopping the running queue releases the play slot.
  client_->StopQueue(first);
  client_->StartQueue(second);
  ExpectNoErrors();
  EXPECT_GE(Stats().quota_denials, 1u);
}

TEST_F(OverloadTest, TeardownDestroysTheConnection) {
  auto ephemeral = Connect("ephemeral");
  ASSERT_NE(ephemeral, nullptr);
  ASSERT_TRUE(ephemeral->Sync().ok());
  EXPECT_EQ(server_->connection_objects_for_test(), 2u);
  ephemeral->Close();
  // The owning loop sees EOF and tears the connection down: the teardown
  // itself empties the slot and destroys the object, with no later sweep.
  size_t remaining = 2;
  for (int i = 0; i < 500 && remaining != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    remaining = server_->connection_objects_for_test();
  }
  EXPECT_EQ(remaining, 1u);
  EXPECT_TRUE(client_->Sync().ok());
}

TEST_F(OverloadTest, DrainHangsUpLinesAndRefusesNewClients) {
  FarEndParty* callee = board_->AddFarEnd("555-8888");
  callee->AnswerAfterRings(1);
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  ResourceId telephone = client_->CreateDevice(loud, DeviceClass::kTelephone, {});
  client_->MapLoud(loud);
  client_->Enqueue(loud, {DialCommand(telephone, "555-8888", 1)});
  client_->StartQueue(loud);
  ASSERT_TRUE(client_->Sync().ok());

  PhoneLineUnit* line = board_->phone_lines()[0];
  auto line_state = [&] {
    MutexLock lock(&server_->mutex());
    return line->line_state();
  };
  for (int i = 0; i < 600 && line_state() != LineState::kConnected; ++i) {
    StepMs(20);
  }
  ASSERT_EQ(line_state(), LineState::kConnected);

  // SIGTERM path: in-flight work answers, egress flushes, the off-hook
  // line goes back on hook, and the server ends shut down.
  EXPECT_TRUE(server_->Drain(std::chrono::milliseconds(2000)));
  EXPECT_TRUE(server_->draining());
  EXPECT_EQ(line_state(), LineState::kOnHook);
  {
    MutexLock lock(&server_->mutex());
    ServerMetrics& metrics = server_->state().metrics();
    EXPECT_EQ(metrics.draining.value(), 1);
    EXPECT_EQ(metrics.drain_forced_closes.value(), 0u);
    EXPECT_GE(metrics.drain_duration_ms.value(), 0);
  }
  // The drained server refuses round trips like any shut-down server.
  EXPECT_FALSE(client_->Sync().ok());
}

TEST(ConnectRetryTest, GivesUpAfterConfiguredAttempts) {
  // Reserve an ephemeral port, then close the listener: connects now fail
  // fast with ECONNREFUSED.
  uint16_t dead_port;
  {
    SocketListener probe;
    ASSERT_TRUE(probe.Listen(0));
    dead_port = probe.port();
  }
  ConnectRetryOptions retry;
  retry.attempts = 3;
  retry.backoff_ms = 2;
  retry.max_backoff_ms = 4;
  auto conn = AudioConnection::OpenTcpRetry("127.0.0.1", dead_port, "late", retry);
  EXPECT_EQ(conn, nullptr);
}

TEST(ConnectRetryTest, ConnectsOnceServerComesUp) {
  // Reserve a port, bring the server up on it only after a delay, and let
  // the retry loop ride out the refused connects in between.
  uint16_t port;
  {
    SocketListener probe;
    ASSERT_TRUE(probe.Listen(0));
    port = probe.port();
  }
  Board board{BoardConfig{}};
  AudioServer server(&board);
  std::thread late_start([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    server.ListenTcp(port);
    server.StartRealtime();
  });
  ConnectRetryOptions retry;
  retry.attempts = 50;
  retry.backoff_ms = 20;
  retry.max_backoff_ms = 40;
  auto conn = AudioConnection::OpenTcpRetry("127.0.0.1", port, "early-bird", retry);
  late_start.join();
  if (server.tcp_port() == 0) {
    GTEST_SKIP() << "reserved port was taken by another process";
  }
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->Sync().ok());
  conn.reset();
  server.Shutdown();
}

}  // namespace
}  // namespace aud
