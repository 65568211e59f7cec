// Concurrency stress: a real-time engine plus several client threads
// churning resources, playback and the active stack simultaneously. Under
// TSan/ASan builds this is the main data-race detector; in normal builds
// it verifies nothing deadlocks or corrupts.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/alib/alib.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/transport/socket_stream.h"

namespace aud {
namespace {

TEST(StressTest, ConcurrentClientsUnderRealtimeEngine) {
  Board board(BoardConfig{.speakers = 2, .phone_lines = 2});
  AudioServer server(&board);
  server.StartRealtime();

  constexpr int kThreads = 6;
  constexpr auto kDuration = std::chrono::milliseconds(1500);
  std::atomic<int> operations{0};
  std::atomic<bool> failed{false};

  auto worker = [&](int index) {
    auto [client_end, server_end] = CreatePipePair();
    server.AddConnection(std::move(server_end));
    auto client = AudioConnection::Open(std::move(client_end), "stress-" + std::to_string(index));
    if (client == nullptr) {
      failed.store(true);
      return;
    }
    AudioToolkit toolkit(client.get());

    auto deadline = std::chrono::steady_clock::now() + kDuration;
    uint32_t round = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      ++round;
      switch ((index + round) % 4) {
        case 0: {  // build/play/tear down a chain
          std::vector<Sample> pcm(400, static_cast<Sample>(100 * index));
          ResourceId sound = toolkit.UploadSound(pcm, {Encoding::kPcm16, 8000});
          auto chain = toolkit.BuildPlaybackChain();
          client->Enqueue(chain.loud, {PlayCommand(chain.player, sound, round)});
          client->StartQueue(chain.loud);
          (void)client->Sync();
          client->DestroyLoud(chain.loud);
          client->DestroySound(sound);
          break;
        }
        case 1: {  // map/unmap churn on a phone LOUD
          ResourceId loud = client->CreateLoud(kNoResource, {});
          client->CreateDevice(loud, DeviceClass::kTelephone, {});
          client->MapLoud(loud);
          client->UnmapLoud(loud);
          client->DestroyLoud(loud);
          break;
        }
        case 2: {  // queries and properties
          (void)client->QueryDeviceLoud();
          (void)client->QueryActiveStack();
          ResourceId loud = client->CreateLoud(kNoResource, {});
          std::vector<uint8_t> value = {1, 2, 3};
          client->ChangeProperty(loud, "P", "T", value);
          (void)client->GetProperty(loud, "P");
          client->DestroyLoud(loud);
          break;
        }
        default: {  // error-path hammering
          client->DestroyLoud(0xDEADBEEF);
          client->StartQueue(0x12345);
          AsyncError error;
          (void)client->Sync();
          while (client->NextError(&error)) {
          }
          break;
        }
      }
      if (!client->Sync().ok()) {
        failed.store(true);
        return;
      }
      operations.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(worker, i);
  }
  for (auto& t : threads) {
    t.join();
  }
  server.StopRealtime();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(operations.load(), kThreads * 5);
  // The server is still coherent: a fresh client can do real work.
  auto [client_end, server_end] = CreatePipePair();
  server.AddConnection(std::move(server_end));
  auto survivor = AudioConnection::Open(std::move(client_end), "survivor");
  ASSERT_NE(survivor, nullptr);
  EXPECT_TRUE(survivor->Sync().ok());
  server.Shutdown();
}

}  // namespace
}  // namespace aud
