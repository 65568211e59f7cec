// FaultStream: the deterministic chaos transport. These tests pin down the
// fault semantics the chaos suite relies on — seeded determinism, short
// reads that only fragment (never corrupt), chopped writes that still
// deliver every byte, and resets that look exactly like a peer dying
// mid-frame. The framer must reassemble perfectly over any of it.

#include "src/transport/fault_stream.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/transport/framer.h"
#include "src/transport/socket_stream.h"

namespace aud {
namespace {

FaultOptions Faulty() {
  FaultOptions options;
  options.enabled = true;
  options.seed = 42;
  return options;
}

TEST(FaultSpecTest, ParsesEveryKnob) {
  FaultOptions options = ParseFaultSpec(
      "seed=7,short_read=0.25,chop_write=0.5,reset_read=0.01,"
      "reset_write=0.02,delay_us=300");
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.seed, 7u);
  EXPECT_DOUBLE_EQ(options.short_read, 0.25);
  EXPECT_DOUBLE_EQ(options.chop_write, 0.5);
  EXPECT_DOUBLE_EQ(options.reset_read, 0.01);
  EXPECT_DOUBLE_EQ(options.reset_write, 0.02);
  EXPECT_EQ(options.delay_us, 300u);
}

TEST(FaultSpecTest, EmptySpecDisabled) {
  EXPECT_FALSE(ParseFaultSpec("").enabled);
}

TEST(FaultSpecTest, UnknownKeysIgnored) {
  FaultOptions options = ParseFaultSpec("seed=9,future_knob=1.0");
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.seed, 9u);
}

TEST(FaultSpecTest, ForInstanceDerivesDistinctSchedules) {
  FaultOptions base = Faulty();
  FaultOptions a = base.ForInstance(1);
  FaultOptions b = base.ForInstance(2);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.seed, base.seed);
  // Same instance, same derived seed: replays are exact.
  EXPECT_EQ(a.seed, base.ForInstance(1).seed);
}

TEST(FaultStreamTest, MaybeWrapIsIdentityWhenDisabled) {
  auto [a, b] = CreatePipePair();
  ByteStream* raw = a.get();
  auto wrapped = MaybeWrapFault(std::move(a), FaultOptions{});
  EXPECT_EQ(wrapped.get(), raw);
}

TEST(FaultStreamTest, ShortReadDeliversOneBytePrefix) {
  auto [a, b] = CreatePipePair();
  FaultOptions options = Faulty();
  options.short_read = 1.0;
  FaultStream faulty(std::move(a), options);

  const std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(b->Write(data));
  std::vector<uint8_t> got;
  uint8_t buf[16];
  while (got.size() < data.size()) {
    size_t n = faulty.Read(std::span<uint8_t>(buf, sizeof(buf)));
    ASSERT_EQ(n, 1u);  // every read is shortened to a 1-byte prefix
    got.push_back(buf[0]);
  }
  EXPECT_EQ(got, data);  // fragmented, never corrupted
  EXPECT_GE(faulty.faults_injected(), data.size());
}

TEST(FaultStreamTest, ResetReadActsLikePeerDeath) {
  auto [a, b] = CreatePipePair();
  FaultOptions options = Faulty();
  options.reset_read = 1.0;
  FaultStream faulty(std::move(a), options);

  const std::vector<uint8_t> data = {1, 2, 3};
  ASSERT_TRUE(b->Write(data));
  uint8_t buf[8];
  EXPECT_EQ(faulty.Read(buf), 0u);  // EOF despite pending bytes
  EXPECT_EQ(faulty.Read(buf), 0u);  // and the stream stays dead
  EXPECT_FALSE(faulty.Write(data));
}

TEST(FaultStreamTest, ResetWriteFailsAndStaysDead) {
  auto [a, b] = CreatePipePair();
  FaultOptions options = Faulty();
  options.reset_write = 1.0;
  FaultStream faulty(std::move(a), options);

  std::vector<uint8_t> frame(64, 0xAB);
  EXPECT_FALSE(faulty.Write(frame));
  EXPECT_FALSE(faulty.Write(frame));  // still dead
  // The peer sees at most a partial prefix followed by EOF — a mid-frame
  // death, exactly what the server's framer must tolerate.
  std::vector<uint8_t> got(128);
  size_t total = 0;
  while (true) {
    size_t n = b->Read(std::span<uint8_t>(got.data() + total, got.size() - total));
    if (n == 0) {
      break;
    }
    total += n;
  }
  EXPECT_LT(total, frame.size());
}

TEST(FaultStreamTest, ChopWriteDeliversEveryByte) {
  auto [a, b] = CreatePipePair();
  FaultOptions options = Faulty();
  options.chop_write = 1.0;
  FaultStream faulty(std::move(a), options);

  std::vector<uint8_t> data(257);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(faulty.Write(data));
  EXPECT_GE(faulty.faults_injected(), 1u);

  std::vector<uint8_t> got(data.size());
  size_t total = 0;
  while (total < got.size()) {
    size_t n = b->Read(std::span<uint8_t>(got.data() + total, got.size() - total));
    ASSERT_GT(n, 0u);
    total += n;
  }
  EXPECT_EQ(got, data);
}

TEST(FaultStreamTest, SameSeedReplaysSameSchedule) {
  // Two streams with identical options over identical traffic inject the
  // same faults — the property that makes chaos failures replayable.
  auto run = [](uint64_t seed) {
    auto [a, b] = CreatePipePair();
    FaultOptions options;
    options.enabled = true;
    options.seed = seed;
    options.short_read = 0.5;
    options.chop_write = 0.5;
    FaultStream faulty(std::move(a), options);
    std::vector<size_t> trace;
    uint8_t buf[64];
    for (int i = 0; i < 32; ++i) {
      std::vector<uint8_t> data(16, static_cast<uint8_t>(i));
      // Inbound: the peer writes, we drain through the faulty end and
      // record the (short-read-shaped) chunk sizes.
      EXPECT_TRUE(b->Write(data));
      size_t pending = 0;
      while (pending < data.size()) {
        size_t n = faulty.Read(buf);
        if (n == 0) {
          break;
        }
        trace.push_back(n);
        pending += n;
      }
      // Outbound: exercise the chop-write schedule (counted below).
      EXPECT_TRUE(faulty.Write(data));
      pending = 0;
      while (pending < data.size()) {
        pending += b->Read(buf);
      }
    }
    trace.push_back(faulty.faults_injected());
    return trace;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(FaultStreamTest, FramerReassemblesOverChoppyTransport) {
  // 50 frames of varying size through short reads + chopped writes: the
  // framer must deliver every frame intact and in order.
  auto [a, b] = CreatePipePair();
  FaultOptions write_faults = Faulty();
  write_faults.chop_write = 0.6;
  FaultStream faulty_writer(std::move(a), write_faults);
  FaultOptions read_faults = Faulty();
  read_faults.seed = 43;
  read_faults.short_read = 0.4;
  FaultStream faulty_reader(std::move(b), read_faults);

  std::thread writer([&] {
    for (uint32_t i = 0; i < 50; ++i) {
      std::vector<uint8_t> payload(i * 11 % 97, static_cast<uint8_t>(i));
      ASSERT_TRUE(WriteMessage(&faulty_writer, MessageType::kRequest,
                               static_cast<uint16_t>(i), i, payload));
    }
  });
  for (uint32_t i = 0; i < 50; ++i) {
    std::optional<FramedMessage> msg = ReadMessage(&faulty_reader);
    ASSERT_TRUE(msg.has_value()) << "frame " << i;
    EXPECT_EQ(msg->header.code, static_cast<uint16_t>(i));
    EXPECT_EQ(msg->header.sequence, i);
    ASSERT_EQ(msg->payload.size(), i * 11 % 97);
    for (uint8_t byte : msg->payload) {
      EXPECT_EQ(byte, static_cast<uint8_t>(i));
    }
  }
  writer.join();
}

}  // namespace
}  // namespace aud
