// Seeded chaos/soak: a realtime TCP server under a mix of hostile clients —
// stallers that stop reading, flooders, clients that send truncated frames,
// and clients that die mid-frame — all with fixed seeds so a failure replays
// exactly. The server must keep accepting, keep ticking within latency
// bounds, reclaim every dead client's resources, and keep its engine output
// bit-identical to a quiet run while under fire.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/fault_stream.h"
#include "src/transport/framer.h"
#include "src/transport/socket_stream.h"
#include "tests/server_fixture.h"

namespace aud {
namespace {

constexpr uint64_t kChaosSeed = 20260805;  // fixed: failures replay exactly

// Sanitizer builds run instrumented code 5-20x slower, and the ctest
// scheduler may co-run another soak on the same cores, so wall-clock latency
// floors widen there. GCC defines __SANITIZE_*; clang uses __has_feature.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define AUD_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define AUD_SANITIZED 1
#endif
#endif
#ifndef AUD_SANITIZED
#define AUD_SANITIZED 0
#endif

// Absolute floor for the soak tick-p99 bound: one 20 ms engine period on a
// clean build, ten under a sanitizer.
constexpr double kTickSoakFloorUs = AUD_SANITIZED ? 200000.0 : 20000.0;

// -- Raw protocol helpers (hostile clients do not get the comfort of Alib) --

// Performs the setup handshake; returns the client's id base, or
// kNoResource when the server refused or the transport died.
ResourceId RawSetup(ByteStream* stream, const std::string& name) {
  SetupRequest request;
  request.client_name = name;
  ByteWriter w;
  request.Encode(&w);
  if (!WriteMessage(stream, MessageType::kRequest, kSetupOpcode, 0, w.bytes())) {
    return kNoResource;
  }
  std::optional<FramedMessage> reply = ReadMessage(stream);
  if (!reply) {
    return kNoResource;
  }
  ByteReader r(reply->payload);
  SetupReply setup = SetupReply::Decode(&r);
  return (r.ok() && setup.success != 0) ? setup.id_base : kNoResource;
}

void SendReq(ByteStream* stream, Opcode opcode, uint32_t seq,
             std::span<const uint8_t> payload) {
  // Failures are expected (the server may have cut us off); ignored.
  WriteMessage(stream, MessageType::kRequest, static_cast<uint16_t>(opcode), seq, payload);
}

// A client that builds up a large reply backlog and never reads it: uploads
// a sound, then requests it back over and over. The server's egress drain
// fills the socket buffers, the egress queue hits its budget, and the overflow policy
// must cut this client — and only this client — off.
void StallerClient(uint16_t port, int index) {
  auto stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) {
    return;
  }
  ResourceId id_base = RawSetup(stream.get(), "staller-" + std::to_string(index));
  if (id_base == kNoResource) {
    return;
  }
  CreateSoundReq create;
  create.id = id_base;
  create.format = kTelephoneFormat;
  ByteWriter cw;
  create.Encode(&cw);
  SendReq(stream.get(), Opcode::kCreateSound, 1, cw.bytes());

  WriteSoundDataReq write;
  write.id = id_base;
  write.data.assign(32 * 1024, 0x55);
  ByteWriter ww;
  write.Encode(&ww);
  SendReq(stream.get(), Opcode::kWriteSoundData, 2, ww.bytes());

  ReadSoundDataReq read;
  read.id = id_base;
  read.length = 32 * 1024;
  ByteWriter rw;
  read.Encode(&rw);
  // ~6 MB of replies we will never read — far past any socket buffer plus
  // the test's 8 KiB egress budget.
  for (uint32_t i = 0; i < 200; ++i) {
    SendReq(stream.get(), Opcode::kReadSoundData, 3 + i, rw.bytes());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stream->Close();
}

// Blasts unknown opcodes (every one earns an error reply) without reading.
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

// Never even speaks the protocol: raw garbage, then gone.
void TruncatorClient(uint16_t port, int index) {
  auto stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) {
    return;
  }
  std::vector<uint8_t> garbage(7 + index % 11, 0xEE);
  stream->Write(garbage);
  stream->Close();
}

// Sets up correctly, then dies between a header and its payload — and on a
// second connection, after a partial payload.
void MidFrameKillerClient(uint16_t port, int index) {
  for (size_t cut : {size_t{0}, size_t{5}}) {
    auto stream = ConnectTcp("127.0.0.1", port);
    if (stream == nullptr) {
      return;
    }
    if (RawSetup(stream.get(), "killer-" + std::to_string(index)) == kNoResource) {
      return;
    }
    // A header promising 64 payload bytes, then only `cut` of them.
    std::vector<uint8_t> frame =
        FrameMessage(MessageType::kRequest, 3, 1, std::vector<uint8_t>(64, 0xAA));
    stream->Write(std::span<const uint8_t>(frame).first(kHeaderSize + cut));
    stream->Close();
  }
}

// A well-behaved client doing real (small) work through Alib, with its own
// client-side seeded fault stream chopping its writes — the server sees
// legitimately fragmented traffic, not just hostile garbage.
void NormalClient(uint16_t port, int index) {
  ConnectRetryOptions retry;
  retry.attempts = 10;
  retry.backoff_ms = 10;
  retry.jitter_seed = kChaosSeed + static_cast<uint64_t>(index);
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
      break;  // server cut us off under chaos pressure; acceptable
    }
    conn->DestroyLoud(loud);
  }
  conn->Close();
}

TEST(ChaosTest, ServerSurvivesHostileClientMix) {
  BoardConfig config;
  ServerOptions options;
  options.egress_buffer_bytes = 8 * 1024;  // small: overflow must trigger
  Board board(config);
  AudioServer server(&board, options);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  auto stats = [&] {
    MutexLock lock(&server.mutex());
    return server.state().BuildServerStats(false);
  };
  auto object_count = [&] {
    MutexLock lock(&server.mutex());
    return server.state().object_count();
  };

  // Idle baseline: the tick latency yardstick for the soak assertion.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ServerStatsReply idle = stats();
  ASSERT_GT(idle.ticks_run, 0u);
  const double idle_p99 = idle.tick_us.empty() ? 0.0 : idle.tick_us.Percentile(99);
  const size_t objects_before = object_count();

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

  // The engine never stopped ticking.
  const ServerStatsReply after = stats();
  EXPECT_GT(after.ticks_run, idle.ticks_run);
  // At least one staller hit the overflow policy and was cut off.
  EXPECT_GE(after.egress_disconnects, 1u);
  // Requests flowed and the error path was exercised, not crashed through.
  EXPECT_GT(after.requests_total, idle.requests_total);
  EXPECT_GT(after.request_errors_total, 0u);

  // The server still accepts and serves a fresh client.
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

  // Every dead client's connection and resources get reclaimed: the open-
  // connection gauge returns to zero and the object registry returns to its
  // pre-chaos size (the stallers' sounds are destroyed with their owners).
  bool reclaimed = false;
  for (int i = 0; i < 500 && !reclaimed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reclaimed = stats().connections_open == 0 && object_count() == objects_before;
  }
  EXPECT_TRUE(reclaimed) << "open=" << stats().connections_open
                         << " objects=" << object_count() << " (want "
                         << objects_before << ")";

  // Soak latency bound: chaos may slow ticks, but p99 stays within 2x the
  // idle baseline (with an absolute floor of one engine period — see
  // kTickSoakFloorUs — so a sub-microsecond idle baseline does not make the
  // bound vacuous).
  const double p99 = after.tick_us.empty() ? 0.0 : after.tick_us.Percentile(99);
  EXPECT_LE(p99, std::max(2.0 * idle_p99, kTickSoakFloorUs));

  server.Shutdown();
}

TEST(ChaosTest, SurvivesServerSideFaultInjection) {
  // The accept-path fault stream: every accepted connection misbehaves with
  // its own seed-derived schedule. Individual clients may die mid-setup or
  // mid-call — all acceptable — but the server must outlive all of them and
  // still serve clean stats afterwards (read directly, not over the faulty
  // transport).
  ServerOptions options;
  options.fault.enabled = true;
  options.fault.seed = kChaosSeed;
  options.fault.short_read = 0.05;
  options.fault.chop_write = 0.3;
  options.fault.reset_read = 0.02;
  options.fault.reset_write = 0.02;
  Board board{BoardConfig{}};
  AudioServer server(&board, options);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  std::atomic<int> attempts{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 12; ++i) {
    clients.emplace_back([port, i, &attempts] {
      for (int round = 0; round < 3; ++round) {
        attempts.fetch_add(1);
        auto conn = AudioConnection::OpenTcp("127.0.0.1", port,
                                             "chaos-" + std::to_string(i));
        if (conn == nullptr) {
          continue;  // injected reset during setup
        }
        conn->set_rpc_deadline_ms(2000);  // injected resets must not hang us
        ResourceId loud = conn->CreateLoud(kNoResource, {});
        conn->CreateDevice(loud, DeviceClass::kOutput, {});
        (void)conn->Sync();  // ok or kTimeout/kConnection — never a hang
        conn->Close();
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(attempts.load(), 36);

  // The server survived; the engine still ticks and all connections die.
  uint64_t ticks;
  {
    MutexLock lock(&server.mutex());
    ticks = server.state().BuildServerStats(false).ticks_run;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  bool drained = false;
  for (int i = 0; i < 500 && !drained; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(&server.mutex());
    drained = server.state().BuildServerStats(false).connections_open == 0;
  }
  EXPECT_TRUE(drained);
  {
    MutexLock lock(&server.mutex());
    EXPECT_GT(server.state().BuildServerStats(false).ticks_run, ticks);
  }
  server.Shutdown();
}

TEST(ChaosTest, StatsStayCoherentUnderChaos) {
  // Observability must not lie under fire: pollers hammer the stats path —
  // both in-process (BuildServerStats under the lock) and over the wire
  // (GetServerStats/GetEntityStats) — while the hostile client mix runs, and
  // every snapshot must satisfy the cross-field invariants. A torn read
  // (e.g. ticks_run from one epoch, epoch_commits from another) or a
  // non-monotone counter is a bug even if nothing crashes.
  BoardConfig config;
  ServerOptions options;
  options.egress_buffer_bytes = 8 * 1024;  // small: overflow must trigger
  options.trace_sample_every = 4;  // tracing counters move under chaos too
  Board board(config);
  AudioServer server(&board, options);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  // gtest assertion macros are not thread-safe; pollers record violations
  // here and the main thread asserts once at the end.
  Mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& who, const std::string& what) {
    MutexLock lock(&failures_mu);
    if (failures.size() < 20) {
      failures.push_back(who + ": " + what);
    }
  };
  auto check_snapshot = [&](const std::string& who, const ServerStatsReply& s,
                            uint64_t prev_ticks, uint64_t prev_uptime) {
    if (s.stats_version != kServerStatsVersion) {
      fail(who, "stats_version " + std::to_string(s.stats_version));
    }
    if (s.proto_major != kProtocolMajor) {
      fail(who, "proto_major " + std::to_string(s.proto_major));
    }
    if (s.trace_sample_every != 4) {
      fail(who, "trace_sample_every " + std::to_string(s.trace_sample_every));
    }
    // ticks_run and epoch_commits move together inside the commit critical
    // section; any snapshot where they differ is a torn read.
    if (s.epoch_commits != s.ticks_run) {
      fail(who, "epoch_commits " + std::to_string(s.epoch_commits) +
                    " != ticks_run " + std::to_string(s.ticks_run));
    }
    // Every dispatched request arrived in a framed message, so the ingress
    // byte counter can never lag the request counter's header bytes.
    if (s.bytes_in < s.requests_total * kHeaderSize) {
      fail(who, "bytes_in " + std::to_string(s.bytes_in) + " < " +
                    std::to_string(s.requests_total) + " requests * header");
    }
    // The overflow policy only drops events that were already counted as
    // sent at enqueue time.
    if (s.events_dropped > s.events_sent) {
      fail(who, "events_dropped " + std::to_string(s.events_dropped) +
                    " > events_sent " + std::to_string(s.events_sent));
    }
    if (s.connections_open < 0) {
      fail(who, "connections_open " + std::to_string(s.connections_open));
    }
    if (s.ticks_run < prev_ticks) {
      fail(who, "ticks_run went backwards: " + std::to_string(s.ticks_run) +
                    " after " + std::to_string(prev_ticks));
    }
    if (s.uptime_ms < prev_uptime) {
      fail(who, "uptime_ms went backwards: " + std::to_string(s.uptime_ms) +
                    " after " + std::to_string(prev_uptime));
    }
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polls{0};
  std::vector<std::thread> pollers;

  // In-process pollers: straight into BuildServerStats under the lock.
  for (int p = 0; p < 2; ++p) {
    pollers.emplace_back([&, p] {
      const std::string who = "lock-poller-" + std::to_string(p);
      uint64_t prev_ticks = 0;
      uint64_t prev_uptime = 0;
      while (!stop.load()) {
        ServerStatsReply s;
        {
          MutexLock lock(&server.mutex());
          s = server.state().BuildServerStats(false);
        }
        check_snapshot(who, s, prev_ticks, prev_uptime);
        prev_ticks = s.ticks_run;
        prev_uptime = s.uptime_ms;
        polls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // Wire poller: the same invariants must survive encode/decode and the
  // dispatcher path, plus the per-connection breakdown from GetEntityStats.
  pollers.emplace_back([&] {
    const std::string who = "wire-poller";
    ConnectRetryOptions retry;
    retry.attempts = 10;
    retry.backoff_ms = 10;
    auto conn = AudioConnection::OpenTcpRetry("127.0.0.1", port, who, retry);
    if (conn == nullptr) {
      fail(who, "could not connect");
      return;
    }
    conn->set_rpc_deadline_ms(5000);
    uint64_t prev_ticks = 0;
    uint64_t prev_uptime = 0;
    while (!stop.load()) {
      auto s = conn->GetServerStats(false);
      if (!s.ok()) {
        fail(who, "GetServerStats failed: " + s.status().ToString());
        break;
      }
      check_snapshot(who, s.value(), prev_ticks, prev_uptime);
      prev_ticks = s.value().ticks_run;
      prev_uptime = s.value().uptime_ms;
      auto e = conn->GetEntityStats(true);
      if (!e.ok()) {
        fail(who, "GetEntityStats failed: " + e.status().ToString());
        break;
      }
      for (const ConnectionStatsWire& c : e.value().connections) {
        if (c.bytes_in < c.requests * kHeaderSize) {
          fail(who, "conn #" + std::to_string(c.index) + " bytes_in " +
                        std::to_string(c.bytes_in) + " < " +
                        std::to_string(c.requests) + " requests * header");
        }
        if (c.events_dropped > c.events_sent) {
          fail(who, "conn #" + std::to_string(c.index) + " dropped " +
                        std::to_string(c.events_dropped) + " > sent " +
                        std::to_string(c.events_sent));
        }
      }
      polls.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    conn->Close();
  });

  // The same hostile mix as ServerSurvivesHostileClientMix, polled live.
  constexpr int kClients = 15;
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
  // Keep polling briefly after the chaos drains so reclamation is covered.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : pollers) {
    t.join();
  }

  EXPECT_GT(polls.load(), 50u) << "pollers barely ran; the test proved nothing";
  std::string joined;
  for (const std::string& f : failures) {
    joined += "  " + f + "\n";
  }
  EXPECT_TRUE(failures.empty()) << failures.size() << " violations:\n" << joined;
  server.Shutdown();
}

TEST(ChaosTest, NoisyNeighborsAreThrottledWhileGoodClientsServe) {
  // Overload protection under fire (DESIGN.md decision 15): flooders,
  // device hogs, and sound hogs share a realtime TCP server with polite
  // clients. The limits must bite (rate-limit and quota counters move),
  // the abusers must stay *connected* (soft policy refuses, never cuts),
  // and every well-behaved round trip must keep completing.
  ServerOptions options;
  options.max_connections = 32;
  options.limit_rps = 200;
  options.limit_rps_burst = 50;
  options.quota_devices = 4;
  options.quota_sound_bytes = 16 * 1024;
  options.quota_plays = 2;
  Board board{BoardConfig{}};
  AudioServer server(&board, options);
  ASSERT_TRUE(server.ListenTcp(0));
  server.StartRealtime();
  const uint16_t port = server.tcp_port();

  std::atomic<uint64_t> rate_limited{0};
  std::atomic<uint64_t> quota_denied{0};
  std::atomic<uint64_t> good_failures{0};
  std::atomic<int64_t> worst_good_rtt_us{0};
  auto drain_errors = [&](AudioConnection* conn) {
    AsyncError e;
    while (conn->NextError(&e)) {
      if (e.error.code == ErrorCode::kRateLimited) {
        rate_limited.fetch_add(1);
      } else if (e.error.code == ErrorCode::kQuotaExceeded) {
        quota_denied.fetch_add(1);
      }
    }
  };
  auto open = [&](const std::string& name) {
    ConnectRetryOptions retry;
    retry.attempts = 10;
    retry.backoff_ms = 10;
    auto conn = AudioConnection::OpenTcpRetry("127.0.0.1", port, name, retry);
    if (conn != nullptr) {
      conn->set_rpc_deadline_ms(10000);
    }
    return conn;
  };

  constexpr int kGood = 3;
  std::vector<std::thread> clients;
  for (int i = 0; i < kGood; ++i) {
    clients.emplace_back([&, i] {
      auto conn = open("good-" + std::to_string(i));
      if (conn == nullptr) {
        good_failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 20; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!conn->Sync().ok()) {
          good_failures.fetch_add(1);
          break;
        }
        const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        int64_t seen = worst_good_rtt_us.load();
        while (us > seen && !worst_good_rtt_us.compare_exchange_weak(seen, us)) {
        }
        // Polite pacing: far under the 200 rps limit.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      conn->Close();
    });
  }
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {  // flooder: bursts far past the rps bucket
      auto conn = open("flood-" + std::to_string(i));
      if (conn == nullptr) {
        return;
      }
      for (int round = 0; round < 5; ++round) {
        for (int k = 0; k < 200; ++k) {
          conn->NoOp();
        }
        // The Sync itself may be refused — soft policy answers on its own
        // sequence, so the round trip completes either way. Its refusal is
        // counted once, via the async error list like every other refusal.
        (void)conn->Sync();
        drain_errors(conn.get());
      }
      conn->Close();
    });
    clients.emplace_back([&, i] {  // device hog: 20 creates against quota 4
      auto conn = open("devhog-" + std::to_string(i));
      if (conn == nullptr) {
        return;
      }
      ResourceId loud = conn->CreateLoud(kNoResource, {});
      for (int k = 0; k < 20; ++k) {
        conn->CreateDevice(loud, DeviceClass::kPlayer, {});
      }
      (void)conn->Sync();
      drain_errors(conn.get());
      conn->Close();
    });
    clients.emplace_back([&, i] {  // sound hog: 80 KiB against a 16 KiB quota
      auto conn = open("sndhog-" + std::to_string(i));
      if (conn == nullptr) {
        return;
      }
      ResourceId sound = conn->CreateSound(kTelephoneFormat);
      std::vector<uint8_t> block(8 * 1024, 0x42);
      for (int k = 0; k < 10; ++k) {
        conn->WriteSound(sound, static_cast<uint64_t>(k) * block.size(), block);
      }
      (void)conn->Sync();
      drain_errors(conn.get());
      conn->Close();
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  // The abuse registered, the polite clients never noticed, and the soft
  // policy refused without disconnecting anyone (no egress cuts either).
  EXPECT_GT(rate_limited.load(), 0u);
  EXPECT_GT(quota_denied.load(), 0u);
  EXPECT_EQ(good_failures.load(), 0u);
  EXPECT_LT(worst_good_rtt_us.load(), 10'000'000);
  ServerStatsReply stats;
  {
    MutexLock lock(&server.mutex());
    stats = server.state().BuildServerStats(false);
  }
  EXPECT_GE(stats.rate_limited, rate_limited.load());
  EXPECT_GE(stats.quota_denials, quota_denied.load());
  EXPECT_EQ(stats.rate_limit_disconnects, 0u);
  EXPECT_EQ(stats.admission_rejects, 0u);

  // Everyone hung up; reclamation completes as ever.
  bool drained = false;
  for (int i = 0; i < 500 && !drained; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(&server.mutex());
    drained = server.state().BuildServerStats(false).connections_open == 0;
  }
  EXPECT_TRUE(drained);
  server.Shutdown();
}

TEST(ChaosTest, HostileTrafficDoesNotPerturbEngineOutput) {
  // Two servers run the same playback workload; a hostile in-process
  // client floods the second with unknown opcodes. Error handling shares
  // the big lock with the tick, but must never change what comes out of the
  // speaker: both captures equal the one recorded when the serial and
  // island-parallel engines still ran side by side and agreed.
  std::vector<Sample> captures[2];
  for (bool hostile_run : {false, true}) {
    BoardConfig config;
    Board board(config);
    AudioServer server(&board);
    board.speakers()[0]->set_capture_output(true);

    auto [client_end, server_end] = CreatePipePair();
    server.AddConnection(std::move(server_end));
    auto client = AudioConnection::Open(std::move(client_end), "player");
    ASSERT_NE(client, nullptr);
    AudioToolkit toolkit(client.get());
    toolkit.set_time_pump([&] { server.StepFrames(160); });

    // A deterministic 500 ms tone, queued but not yet run.
    std::vector<Sample> pcm(4000);
    for (size_t i = 0; i < pcm.size(); ++i) {
      pcm[i] = static_cast<Sample>(6000.0 * std::sin(0.2 * static_cast<double>(i)));
    }
    ResourceId sound = toolkit.UploadSound(pcm, {Encoding::kPcm16, 8000});
    auto chain = toolkit.BuildPlaybackChain();
    client->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
    client->StartQueue(chain.loud);
    ASSERT_TRUE(client->Sync().ok());

    // In the hostile run a second client hammers the dispatcher while the
    // engine runs.
    std::unique_ptr<ByteStream> hostile_client_end;
    std::atomic<bool> stop{false};
    std::thread hostile;
    if (hostile_run) {
      auto [hostile_end, hostile_server_end] = CreatePipePair();
      server.AddConnection(std::move(hostile_server_end));
      hostile_client_end = std::move(hostile_end);
      ASSERT_NE(RawSetup(hostile_client_end.get(), "hostile"), kNoResource);
      hostile = std::thread([&] {
        std::vector<uint8_t> junk(32, 0xBD);
        uint32_t seq = 1;
        while (!stop.load()) {
          SendReq(hostile_client_end.get(), static_cast<Opcode>(230 + seq % 7), seq, junk);
          ++seq;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }

    server.StepFrames(160 * 40);  // 800 ms: the whole sound plus completion

    if (hostile_run) {
      stop.store(true);
      hostile.join();
      hostile_client_end->Close();
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

}  // namespace
}  // namespace aud
