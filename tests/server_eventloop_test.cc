// Event-loop connection plane (DESIGN.md decision 14): the server's
// connection contracts — hostile-client survival, full resource
// reclamation, engine-output bit-identity, slow-client overflow policies,
// prompt delivery of events one client's request emits for another — with
// every connection multiplexed onto the fixed pool of event-loop threads,
// plus a thread count that does not grow with the client count.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/event_loop.h"
#include "src/transport/framer.h"
#include "src/transport/socket_stream.h"
#include "tests/server_fixture.h"

namespace aud {

namespace {

constexpr uint64_t kSeed = 20260808;  // fixed: failures replay exactly

// -- Raw protocol helpers (hostile clients do not get the comfort of Alib) --

// The server's setup reply; success == 0 when the stream failed or the
// server refused.
SetupReply FullSetup(ByteStream* stream, const std::string& name) {
  SetupRequest request;
  request.client_name = name;
  ByteWriter w;
  request.Encode(&w);
  if (!WriteMessage(stream, MessageType::kRequest, kSetupOpcode, 0, w.bytes())) {
    return {};
  }
  std::optional<FramedMessage> reply = ReadMessage(stream);
  if (!reply) {
    return {};
  }
  ByteReader r(reply->payload);
  SetupReply setup = SetupReply::Decode(&r);
  return r.ok() ? setup : SetupReply{};
}

ResourceId RawSetup(ByteStream* stream, const std::string& name) {
  const SetupReply setup = FullSetup(stream, name);
  return setup.success != 0 ? setup.id_base : kNoResource;
}

void SendReq(ByteStream* stream, Opcode opcode, uint32_t seq,
             std::span<const uint8_t> payload) {
  // Failures are expected (the server may have cut us off); ignored.
  WriteMessage(stream, MessageType::kRequest, static_cast<uint16_t>(opcode), seq,
               payload);
}

// Builds up a reply backlog it never reads on a set-up stream, making the
// sound `sound` to read from, then hangs up: the overflow policy must cut
// it (and only it) off first.
void StallOnReplies(ByteStream* stream, ResourceId sound) {
  CreateSoundReq create;
  create.id = sound;
  create.format = kTelephoneFormat;
  ByteWriter cw;
  create.Encode(&cw);
  SendReq(stream, Opcode::kCreateSound, 1, cw.bytes());

  WriteSoundDataReq write;
  write.id = sound;
  write.data.assign(32 * 1024, 0x55);
  ByteWriter ww;
  write.Encode(&ww);
  SendReq(stream, Opcode::kWriteSoundData, 2, ww.bytes());

  ReadSoundDataReq read;
  read.id = sound;
  read.length = 32 * 1024;
  ByteWriter rw;
  read.Encode(&rw);
  for (uint32_t i = 0; i < 200; ++i) {
    SendReq(stream, Opcode::kReadSoundData, 3 + i, rw.bytes());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stream->Close();
}

void StallerClient(uint16_t port, int index) {
  auto stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) {
    return;
  }
  ResourceId id_base = RawSetup(stream.get(), "staller-" + std::to_string(index));
  if (id_base == kNoResource) {
    return;
  }
  StallOnReplies(stream.get(), id_base);
}

void FlooderClient(uint16_t port, int index) {
  auto stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) {
    return;
  }
  if (RawSetup(stream.get(), "flooder-" + std::to_string(index)) == kNoResource) {
    return;
  }
  std::vector<uint8_t> junk(64, static_cast<uint8_t>(index));
  for (uint32_t i = 0; i < 400; ++i) {
    SendReq(stream.get(), static_cast<Opcode>(200 + i % 17), i, junk);
  }
  stream->Close();
}

void TruncatorClient(uint16_t port, int index) {
  auto stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) {
    return;
  }
  std::vector<uint8_t> garbage(7 + index % 11, 0xEE);
  stream->Write(garbage);
  stream->Close();
}

// Dies between a header and its payload (the loop's Framer is left
// mid-frame), then again after a partial payload.
void MidFrameKillerClient(uint16_t port, int index) {
  for (size_t cut : {size_t{0}, size_t{5}}) {
    auto stream = ConnectTcp("127.0.0.1", port);
    if (stream == nullptr) {
      return;
    }
    if (RawSetup(stream.get(), "killer-" + std::to_string(index)) == kNoResource) {
      return;
    }
    std::vector<uint8_t> frame =
        FrameMessage(MessageType::kRequest, 3, 1, std::vector<uint8_t>(64, 0xAA));
    stream->Write(std::span<const uint8_t>(frame).first(kHeaderSize + cut));
    stream->Close();
  }
}

void NormalClient(uint16_t port, int index) {
  ConnectRetryOptions retry;
  retry.attempts = 10;
  retry.backoff_ms = 10;
  retry.jitter_seed = kSeed + static_cast<uint64_t>(index);
  auto conn = AudioConnection::OpenTcpRetry("127.0.0.1", port,
                                            "normal-" + std::to_string(index), retry);
  if (conn == nullptr) {
    return;
  }
  conn->set_rpc_deadline_ms(5000);
  for (int round = 0; round < 3; ++round) {
    ResourceId loud = conn->CreateLoud(kNoResource, {});
    conn->CreateDevice(loud, DeviceClass::kOutput, {});
    if (!conn->Sync().ok()) {
      break;  // server cut us off under pressure; acceptable
    }
    conn->DestroyLoud(loud);
  }
  conn->Close();
}

// Current thread count of this process, or -1 when /proc is unavailable.
int ProcessThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  int threads = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

ServerStatsReply StatsOf(AudioServer* server) {
  MutexLock lock(&server->mutex());
  return server->state().BuildServerStats(false);
}

bool WaitForReclaim(AudioServer* server, size_t want_objects) {
  for (int i = 0; i < 500; ++i) {
    size_t objects;
    int64_t open;
    {
      MutexLock lock(&server->mutex());
      objects = server->state().object_count();
      open = server->state().BuildServerStats(false).connections_open;
    }
    if (open == 0 && objects == want_objects) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// ---------------------------------------------------------------------------
// EventLoop unit coverage through the bare interface.

TEST(EventLoopTest, DispatchesReadinessAndInterestChanges) {
  EventLoopOptions options;
  options.wait_timeout_ms = 10;
  EventLoop loop(options);
  ASSERT_TRUE(loop.Start());

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::atomic<int> readable{0};
  std::atomic<int> writable{0};
  loop.Add(fds[0], [&](uint32_t events) {
    if ((events & kLoopReadable) != 0) {
      uint8_t buf[16];
      while (::recv(fds[0], buf, sizeof(buf), MSG_DONTWAIT) > 0) {
      }
      readable.fetch_add(1);
    }
    if ((events & kLoopWritable) != 0) {
      writable.fetch_add(1);
      loop.SetWantWrite(fds[0], false);  // one-shot, from the handler itself
    }
  });

  // Readability: a byte from the peer must reach the handler.
  uint8_t one = 1;
  ASSERT_EQ(::send(fds[1], &one, 1, 0), 1);
  for (int i = 0; i < 200 && readable.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(readable.load(), 1);

  // Cross-thread write arming: an idle socket is immediately writable.
  loop.SetWantWrite(fds[0], true);
  for (int i = 0; i < 200 && writable.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(writable.load(), 1);

  // After Remove, further readiness must not reach the handler.
  loop.Remove(fds[0]);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int readable_after_remove = readable.load();
  ASSERT_EQ(::send(fds[1], &one, 1, 0), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(readable.load(), readable_after_remove);

  loop.Stop();
  loop.Stop();  // idempotent
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Loop-plane server behavior.

TEST(EventLoopPlane, ServesClientsAndReportsLoopStats) {
  Board board{BoardConfig{}};
  AudioServer server(&board);
  ASSERT_EQ(server.connection_loops(), kConnectionLoops);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  std::vector<std::unique_ptr<AudioConnection>> clients;
  for (int i = 0; i < 6; ++i) {
    auto conn =
        AudioConnection::OpenTcp("127.0.0.1", port, "loop-" + std::to_string(i));
    ASSERT_NE(conn, nullptr);
    ResourceId loud = conn->CreateLoud(kNoResource, {});
    conn->CreateDevice(loud, DeviceClass::kOutput, {});
    ASSERT_TRUE(conn->Sync().ok());
    clients.push_back(std::move(conn));
  }

  // The stats reply carries the v6 loop plane: both loops up, every client
  // fd watched, wait syscalls accumulating.
  auto wire = clients[0]->GetServerStats(false);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const ServerStatsReply& s = wire.value();
  EXPECT_EQ(s.stats_version, kServerStatsVersion);
  EXPECT_EQ(s.loops, kConnectionLoops);
  EXPECT_GE(s.fds_watched, 6);
  EXPECT_GT(s.epoll_waits, 0u);
  EXPECT_EQ(s.connections_open, 6);
  EXPECT_GT(s.loop_dispatch_us.count, 0u);

  for (auto& conn : clients) {
    conn->Close();
  }
  clients.clear();
  bool drained = false;
  for (int i = 0; i < 500 && !drained; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const ServerStatsReply now = StatsOf(&server);
    drained = now.connections_open == 0 && now.fds_watched == 0;
  }
  const ServerStatsReply end = StatsOf(&server);
  EXPECT_TRUE(drained) << "open=" << end.connections_open
                       << " fds_watched=" << end.fds_watched;
  server.Shutdown();
}

TEST(EventLoopPlane, ThreadCountDoesNotGrowWithClients) {
  const int probe = ProcessThreadCount();
  if (probe < 0) {
    GTEST_SKIP() << "/proc/self/status unavailable";
  }
  Board board{BoardConfig{}};
  AudioServer server(&board);  // default options: the shipped plane
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  // Raw clients (no Alib reader threads in this process), TCP and
  // in-process socket pairs alike: every connection must be multiplexed,
  // not given threads of its own.
  std::vector<std::unique_ptr<ByteStream>> clients;
  auto connect_up_to = [&](size_t n) {
    while (clients.size() < n) {
      std::unique_ptr<ByteStream> stream;
      if (clients.size() % 2 == 0) {
        stream = ConnectTcp("127.0.0.1", port);
      } else {
        auto [server_end, client_end] = CreatePipePair();
        server.AddConnection(std::move(server_end));
        stream = std::move(client_end);
      }
      ASSERT_NE(stream, nullptr);
      ASSERT_NE(RawSetup(stream.get(), "counted-" + std::to_string(clients.size())),
                kNoResource);
      clients.push_back(std::move(stream));
    }
  };
  connect_up_to(4);
  EXPECT_EQ(StatsOf(&server).connections_open, 4);
  const int threads_at_4 = ProcessThreadCount();
  ASSERT_GT(threads_at_4, 0);
  connect_up_to(64);
  EXPECT_EQ(StatsOf(&server).connections_open, 64);
  EXPECT_EQ(ProcessThreadCount(), threads_at_4)
      << "going from 4 to 64 clients changed the process thread count";

  for (auto& stream : clients) {
    stream->Close();
  }
  clients.clear();
  server.Shutdown();
}

// Events one client's request emits for another connection — here the
// kMapRequest that redirection sends the audio manager — must be flushed
// promptly whichever loop the target lives on, including the loop that is
// dispatching the request (sharding is by connection index, so the apps
// at indices 1 and 2 cover both cases for the manager at index 0).
TEST(EventLoopPlane, RedirectedMapRequestReachesManagerOnEveryLoop) {
  Board board{BoardConfig{}};
  AudioServer server(&board);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  auto manager = AudioConnection::OpenTcp("127.0.0.1", port, "audio-manager");
  ASSERT_NE(manager, nullptr);
  manager->SetRedirect(true);
  ASSERT_TRUE(manager->Sync().ok());

  std::vector<std::unique_ptr<AudioConnection>> apps;
  for (int i = 0; i < static_cast<int>(kConnectionLoops); ++i) {
    auto app = AudioConnection::OpenTcp("127.0.0.1", port, "app-" + std::to_string(i));
    ASSERT_NE(app, nullptr);
    ResourceId loud = app->CreateLoud(kNoResource, {});
    app->CreateDevice(loud, DeviceClass::kOutput, {});
    app->MapLoud(loud);  // redirected to the manager, not performed
    ASSERT_TRUE(app->Sync().ok());

    EventMessage event;
    ASSERT_TRUE(manager->WaitEvent(&event, 2000)) << "no MapRequest for app " << i;
    EXPECT_EQ(event.type, EventType::kMapRequest);
    EXPECT_EQ(MapRequestArgs::Decode(event.args).loud, loud);
    apps.push_back(std::move(app));
  }
  for (auto& app : apps) {
    app->Close();
  }
  manager->Close();
  server.Shutdown();
}

// Sends from other threads to one connection arm its write once while the
// arm is pending: with the owning loop held in another connection's
// dispatch, a burst of events leaves one op queued, and once the loop runs
// every event arrives, in order, with the next send arming anew.
TEST(EventLoopPlane, CrossThreadSendsToOneConnectionQueueOneWriteArm) {
  Board board{BoardConfig{}};
  AudioServer server(&board);
  ASSERT_EQ(server.connection_loops(), 2u);
  // Indices 0 and 2 share a loop: 0 blocks it, 2 is the target.
  auto [blocker_end, blocker_server_end] = CreatePipePair();
  const int blocker_fd = blocker_server_end->pollable_fd();
  server.AddConnection(std::move(blocker_server_end));
  ASSERT_NE(RawSetup(blocker_end.get(), "blocker"), kNoResource);
  auto [other_end, other_server_end] = CreatePipePair();
  server.AddConnection(std::move(other_server_end));
  ASSERT_NE(RawSetup(other_end.get(), "other-loop"), kNoResource);
  auto [target_end, target_server_end] = CreatePipePair();
  server.AddConnection(std::move(target_server_end));
  auto target = AudioConnection::Open(std::move(target_end), "target");
  ASSERT_NE(target, nullptr);
  const ResourceId loud = target->CreateLoud(kNoResource, {});
  target->SelectEvents(loud, kSyncEvents);
  ASSERT_TRUE(target->Sync().ok());

  constexpr int kEvents = 64;
  EventLoop& loop = server.loop_for_test(2);
  auto emit = [loud](ServerState& state, int position) {
    SyncMarkArgs mark;
    mark.position_samples = static_cast<uint64_t>(position);
    state.EmitEvent(state.FindLoud(loud), EventType::kSyncMark, loud, mark);
  };
  {
    MutexLock lock(&server.mutex());
    // The blocker's request holds the loop in its dispatch, waiting for
    // the lock held here, once the loop has read it off the socket.
    SendReq(blocker_end.get(), Opcode::kSync, 1, {});
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int unread = 1;
    while (unread != 0) {
      ASSERT_EQ(::ioctl(blocker_fd, FIONREAD, &unread), 0);
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "loop never read the request";
      std::this_thread::yield();
    }
    for (int i = 0; i < kEvents; ++i) {
      emit(server.state(), i);
    }
    EXPECT_EQ(loop.pending_ops(), 1u);
  }
  for (int i = 0; i < kEvents; ++i) {
    EventMessage event;
    ASSERT_TRUE(target->WaitEvent(&event, 5000)) << "event " << i << " never arrived";
    ASSERT_EQ(event.type, EventType::kSyncMark);
    EXPECT_EQ(SyncMarkArgs::Decode(event.args).position_samples, static_cast<uint64_t>(i));
  }
  // The loop released the arm when it flushed: a later send arms again,
  // and its event arrives without the target sending anything.
  {
    MutexLock lock(&server.mutex());
    emit(server.state(), kEvents);
  }
  EventMessage event;
  ASSERT_TRUE(target->WaitEvent(&event, 5000));
  EXPECT_EQ(SyncMarkArgs::Decode(event.args).position_samples, static_cast<uint64_t>(kEvents));
  ASSERT_TRUE(ReadMessage(blocker_end.get()).has_value());  // the blocker's reply

  target->Close();
  server.Shutdown();
}

TEST(EventLoopPlane, MidReadinessClientDeathReclaimsEverything) {
  Board board{BoardConfig{}};
  AudioServer server(&board);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();
  size_t objects_before;
  {
    MutexLock lock(&server.mutex());
    objects_before = server.state().object_count();
  }

  // A client that creates a server-side object, then dies mid-frame: the
  // loop sees EOF with the Framer mid-payload and must reclaim the sound.
  auto stream = ConnectTcp("127.0.0.1", port);
  ASSERT_NE(stream, nullptr);
  ResourceId id_base = RawSetup(stream.get(), "doomed");
  ASSERT_NE(id_base, kNoResource);
  CreateSoundReq create;
  create.id = id_base;
  create.format = kTelephoneFormat;
  ByteWriter cw;
  create.Encode(&cw);
  SendReq(stream.get(), Opcode::kCreateSound, 1, cw.bytes());
  std::vector<uint8_t> frame =
      FrameMessage(MessageType::kRequest, 3, 2, std::vector<uint8_t>(128, 0xAB));
  stream->Write(std::span<const uint8_t>(frame).first(kHeaderSize + 17));
  stream->Close();
  stream.reset();

  EXPECT_TRUE(WaitForReclaim(&server, objects_before))
      << "open=" << StatsOf(&server).connections_open;
  server.Shutdown();
}

// What a staller's egress queue holds when its reply backlog passes the
// budget. kDropEvents: a flood of events fills the queue first, and the
// queue sheds them, never cutting on events alone. kDisconnect: replies
// only, so there is nothing to shed and the cut comes straight away.
enum class Backlog { kDropEvents, kDisconnect };

void PrintTo(Backlog backlog, std::ostream* os) {
  *os << (backlog == Backlog::kDropEvents ? "DropEvents" : "Disconnect");
}

// Floods a set-up staller with sync-mark events on a LOUD it watches until
// its queue sheds some. False if it never did.
bool FloodEventsUntilShed(AudioServer* server, ByteStream* stream, ResourceId loud) {
  CreateLoudReq create;
  create.id = loud;
  ByteWriter cw;
  create.Encode(&cw);
  SendReq(stream, Opcode::kCreateLoud, 1, cw.bytes());
  SelectEventsReq select;
  select.resource = loud;
  select.mask = kSyncEvents;
  ByteWriter sw;
  select.Encode(&sw);
  SendReq(stream, Opcode::kSelectEvents, 2, sw.bytes());
  SendReq(stream, Opcode::kSync, 3, {});
  for (;;) {  // the sync's reply: both requests before it are done
    std::optional<FramedMessage> message = ReadMessage(stream);
    if (!message) {
      return false;
    }
    if (message->header.type == MessageType::kReply && message->header.sequence == 3) {
      break;
    }
  }
  // Far more than the kernel's socket buffers and the budget hold together.
  for (int batch = 0; batch < 2000; ++batch) {
    {
      MutexLock lock(&server->mutex());
      ServerState& state = server->state();
      for (int i = 0; i < 256; ++i) {
        SyncMarkArgs mark;
        mark.position_samples = static_cast<uint64_t>(batch * 256 + i);
        state.EmitEvent(state.FindLoud(loud), EventType::kSyncMark, loud, mark);
      }
    }
    if (StatsOf(server).events_dropped > 0) {
      return true;
    }
  }
  return false;
}

class EventLoopOverflow : public ::testing::TestWithParam<Backlog> {};

TEST_P(EventLoopOverflow, SlowClientIsCutOffAndReclaimed) {
  // Replies are never shed, so a reply backlog past the budget must
  // disconnect the staller on the loop path once the queued events are
  // shed.
  ServerOptions options;
  options.egress_buffer_bytes = 8 * 1024;
  Board board{BoardConfig{}};
  AudioServer server(&board, options);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();
  size_t objects_before;
  {
    MutexLock lock(&server.mutex());
    objects_before = server.state().object_count();
  }

  auto stream = ConnectTcp("127.0.0.1", port);
  ASSERT_NE(stream, nullptr);
  const ResourceId id_base = RawSetup(stream.get(), "staller");
  ASSERT_NE(id_base, kNoResource);
  if (GetParam() == Backlog::kDropEvents) {
    ASSERT_TRUE(FloodEventsUntilShed(&server, stream.get(), id_base));
    EXPECT_EQ(StatsOf(&server).egress_disconnects, 0u) << "events alone never cut";
  }
  StallOnReplies(stream.get(), id_base + 1);

  const ServerStatsReply after = StatsOf(&server);
  EXPECT_GE(after.egress_disconnects, 1u);
  if (GetParam() == Backlog::kDisconnect) {
    EXPECT_EQ(after.events_dropped, 0u);
  }
  EXPECT_TRUE(WaitForReclaim(&server, objects_before))
      << "open=" << StatsOf(&server).connections_open;

  // The cut-off was surgical: a fresh client is served normally.
  auto fresh = AudioConnection::OpenTcp("127.0.0.1", port, "fresh");
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Sync().ok());
  fresh->Close();
  server.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Policies, EventLoopOverflow,
                         ::testing::Values(Backlog::kDropEvents, Backlog::kDisconnect),
                         ::testing::PrintToStringParamName());

// The decision-11 chaos contract with the connection plane multiplexed:
// 25 hostile clients against the loop threads.
TEST(EventLoopPlane, SurvivesHostileClientMixLevelTriggered) {
  ServerOptions options;
  options.egress_buffer_bytes = 8 * 1024;  // small: overflow must trigger
  Board board{BoardConfig{}};
  AudioServer server(&board, options);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ServerStatsReply idle = StatsOf(&server);
  ASSERT_GT(idle.ticks_run, 0u);
  const double idle_p99 = idle.tick_us.empty() ? 0.0 : idle.tick_us.Percentile(99);
  size_t objects_before;
  {
    MutexLock lock(&server.mutex());
    objects_before = server.state().object_count();
  }

  constexpr int kClients = 25;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([port, i] {
      switch (i % 5) {
        case 0: NormalClient(port, i); break;
        case 1: StallerClient(port, i); break;
        case 2: FlooderClient(port, i); break;
        case 3: TruncatorClient(port, i); break;
        case 4: MidFrameKillerClient(port, i); break;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  const ServerStatsReply after = StatsOf(&server);
  EXPECT_GT(after.ticks_run, idle.ticks_run);
  EXPECT_GE(after.egress_disconnects, 1u);
  EXPECT_GT(after.requests_total, idle.requests_total);
  EXPECT_GT(after.request_errors_total, 0u);
  EXPECT_EQ(after.loops, kConnectionLoops);

  // Still serving; the loop plane reports over the wire.
  ConnectRetryOptions retry;
  retry.attempts = 20;
  retry.backoff_ms = 10;
  auto fresh = AudioConnection::OpenTcpRetry("127.0.0.1", port, "survivor", retry);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Sync().ok());
  auto wire_stats = fresh->GetServerStats(false);
  ASSERT_TRUE(wire_stats.ok()) << wire_stats.status().ToString();
  EXPECT_GE(wire_stats.value().egress_disconnects, 1u);
  fresh->Close();

  // Full reclamation: gauge to zero, registry back to its pre-chaos size,
  // and no fd left watched by any loop.
  bool reclaimed = false;
  for (int i = 0; i < 500 && !reclaimed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const ServerStatsReply now = StatsOf(&server);
    size_t objects;
    {
      MutexLock lock(&server.mutex());
      objects = server.state().object_count();
    }
    reclaimed = now.connections_open == 0 && now.fds_watched == 0 &&
                objects == objects_before;
  }
  EXPECT_TRUE(reclaimed) << "open=" << StatsOf(&server).connections_open
                         << " fds_watched=" << StatsOf(&server).fds_watched;

  const double p99 = after.tick_us.empty() ? 0.0 : after.tick_us.Percentile(99);
  EXPECT_LE(p99, std::max(2.0 * idle_p99, 20000.0));

  server.Shutdown();
}

TEST(EventLoopPlane, SerialAndParallelEnginesStayBitIdentical) {
  // The engine's bit-identity contract, with requests arriving through the
  // loop plane: a hostile flooder riding along on the second run may not
  // perturb engine output. Both captures equal the one recorded when the serial and
  // island-parallel engines still ran side by side and agreed.
  std::vector<Sample> captures[2];
  for (bool hostile_run : {false, true}) {
    Board board{BoardConfig{}};
    AudioServer server(&board);
    board.speakers()[0]->set_capture_output(true);
    ASSERT_TRUE(server.ListenTcp(0));
    const uint16_t port = server.tcp_port();

    auto client = AudioConnection::OpenTcp("127.0.0.1", port, "player");
    ASSERT_NE(client, nullptr);
    AudioToolkit toolkit(client.get());
    toolkit.set_time_pump([&] { server.StepFrames(160); });

    std::vector<Sample> pcm(4000);
    for (size_t i = 0; i < pcm.size(); ++i) {
      pcm[i] = static_cast<Sample>(6000.0 * std::sin(0.2 * static_cast<double>(i)));
    }
    ResourceId sound = toolkit.UploadSound(pcm, {Encoding::kPcm16, 8000});
    auto chain = toolkit.BuildPlaybackChain();
    client->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
    client->StartQueue(chain.loud);
    ASSERT_TRUE(client->Sync().ok());

    std::unique_ptr<ByteStream> hostile;
    std::atomic<bool> stop{false};
    std::thread hostile_thread;
    if (hostile_run) {
      hostile = ConnectTcp("127.0.0.1", port);
      ASSERT_NE(hostile, nullptr);
      ASSERT_NE(RawSetup(hostile.get(), "hostile"), kNoResource);
      hostile_thread = std::thread([&] {
        std::vector<uint8_t> junk(32, 0xBD);
        uint32_t seq = 1;
        while (!stop.load()) {
          SendReq(hostile.get(), static_cast<Opcode>(230 + seq % 7), seq, junk);
          ++seq;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }

    server.StepFrames(160 * 40);  // 800 ms: the whole sound plus completion

    if (hostile_run) {
      stop.store(true);
      hostile_thread.join();
      hostile->Close();
    }
    captures[hostile_run ? 1 : 0] = board.speakers()[0]->played();
    client->Close();
    server.Shutdown();
  }
  EXPECT_GT(Rms(captures[0]), 0.0) << "workload was silent";
  ASSERT_EQ(captures[0].size(), captures[1].size());
  EXPECT_TRUE(captures[0] == captures[1]) << "hostile load changed engine output";
  EXPECT_EQ(CaptureHash(captures[0]), 0xcb4fb3e56e166bf7ull) << "engine output changed";
}

// ---------------------------------------------------------------------------
// Batched ingress: one read per readiness round, one state-lock hold per
// batch of up to kHoldFrames buffered requests.

// Reads one frame, failing instead of hanging when none arrives in time.
std::optional<FramedMessage> ReadFrameWithin(ByteStream* stream, int timeout_ms) {
  pollfd pfd{stream->pollable_fd(), POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) {
    return std::nullopt;
  }
  return ReadMessage(stream);
}

// Writes `count` pipelined requests in one write: Syncs alternating with
// GetProperty on the device LOUD, sequences 1..count.
void WriteBurst(ByteStream* stream, ResourceId device_loud, uint32_t count) {
  NamedPropertyReq get;
  get.resource = device_loud;
  get.name = "absent";
  ByteWriter gw;
  get.Encode(&gw);
  std::vector<uint8_t> burst;
  for (uint32_t seq = 1; seq <= count; ++seq) {
    const bool sync = seq % 2 == 1;
    std::vector<uint8_t> frame =
        FrameMessage(MessageType::kRequest,
                     static_cast<uint16_t>(sync ? Opcode::kSync : Opcode::kGetProperty), seq,
                     sync ? std::span<const uint8_t>() : gw.bytes());
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(stream->Write(burst));
}

// Every request of the burst is answered, in order: a complete frame left
// in the server's input buffer at the end of a round would never be
// reported readable again, and its reply would never come.
void ExpectBurstAnswered(ByteStream* stream, uint32_t count) {
  for (uint32_t seq = 1; seq <= count; ++seq) {
    std::optional<FramedMessage> reply = ReadFrameWithin(stream, 10000);
    ASSERT_TRUE(reply.has_value()) << "no reply to request " << seq << " of " << count;
    EXPECT_EQ(reply->header.type, MessageType::kReply) << "request " << seq;
    ASSERT_EQ(reply->header.sequence, seq);
  }
}

class PipelinedBurst : public ::testing::TestWithParam<bool> {};

TEST_P(PipelinedBurst, EveryRequestOfOneWriteIsAnswered) {
  constexpr uint32_t kRequests = 1000;
  ServerOptions options;
  if (GetParam()) {
    // Half the server's reads deliver one byte: rounds end mid-frame and
    // mid-header, and the rest must still be re-reported.
    options.fault.enabled = true;
    options.fault.seed = kSeed;
    options.fault.short_read = 0.5;
  }
  Board board{BoardConfig{}};
  AudioServer server(&board, options);
  ASSERT_TRUE(server.ListenTcp(0));
  auto stream = ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_NE(stream, nullptr);
  const SetupReply setup = FullSetup(stream.get(), "burst");
  ASSERT_EQ(setup.success, 1);

  WriteBurst(stream.get(), setup.device_loud, kRequests);
  ExpectBurstAnswered(stream.get(), kRequests);
  stream->Close();
  server.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Transports, PipelinedBurst, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return std::string(param.param ? "FaultShortRead" : "Tcp");
                         });

TEST(EventLoopPlane, EpochCommitsBetweenHoldsOfOneBurst) {
  // Manual time: the only epochs are the ones the hook below runs, on the
  // loop thread, in the gap the loop leaves between two holds.
  constexpr uint32_t kRequests = 4000;
  Board board{BoardConfig{}};
  AudioServer server(&board);
  std::atomic<int> holds_released{0};
  std::atomic<uint64_t> dispatched_at_commit{0};
  std::atomic<uint64_t> commits_before{0};
  std::atomic<uint64_t> commits_after{0};
  server.set_hold_released_for_test([&] {
    if (holds_released.fetch_add(1) != 0) {
      return;
    }
    commits_before = StatsOf(&server).epoch_commits;
    server.StepFrames(static_cast<int64_t>(server.options().period_frames));
    const ServerStatsReply stats = StatsOf(&server);
    commits_after = stats.epoch_commits;
    dispatched_at_commit = stats.requests_total;
  });
  auto [client_end, server_end] = CreatePipePair();
  server.AddConnection(std::move(server_end));
  const SetupReply setup = FullSetup(client_end.get(), "burst");
  ASSERT_EQ(setup.success, 1);

  WriteBurst(client_end.get(), setup.device_loud, kRequests);
  ExpectBurstAnswered(client_end.get(), kRequests);

  ASSERT_GT(holds_released.load(), 0) << "the burst ran in one hold";
  EXPECT_EQ(commits_after.load(), commits_before.load() + 1);
  EXPECT_GE(dispatched_at_commit.load(), kHoldFrames);
  EXPECT_LT(dispatched_at_commit.load(), kRequests) << "the epoch waited out the whole burst";
  client_end->Close();
  server.Shutdown();
}

TEST(EventLoopPlane, LockWaitRecordsOneSamplePerRequest) {
  // The first request of a hold carries the hold's wait and the rest record
  // zero, so lock_wait_us keeps one sample per dispatched request.
  constexpr uint32_t kRequests = 3000;
  Board board{BoardConfig{}};
  AudioServer server(&board);
  auto [client_end, server_end] = CreatePipePair();
  server.AddConnection(std::move(server_end));
  const SetupReply setup = FullSetup(client_end.get(), "burst");
  ASSERT_EQ(setup.success, 1);

  WriteBurst(client_end.get(), setup.device_loud, kRequests);
  ExpectBurstAnswered(client_end.get(), kRequests);

  const ServerStatsReply stats = StatsOf(&server);
  EXPECT_EQ(stats.requests_total, kRequests);
  EXPECT_EQ(stats.lock_wait_us.count, stats.requests_total);
  EXPECT_EQ(stats.dispatch_us.count, stats.requests_total);
  client_end->Close();
  server.Shutdown();
}

}  // namespace
}  // namespace aud
