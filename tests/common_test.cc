// Unit tests for src/common: Status/Result, clocks, ring buffer, byte I/O.

#include <gtest/gtest.h>

#include <thread>

#include "src/common/byte_io.h"
#include "src/common/clock.h"
#include "src/common/ids.h"
#include "src/common/ring_buffer.h"
#include "src/common/status.h"

namespace aud {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kBadMatch, "encodings differ");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kBadMatch);
  EXPECT_EQ(s.ToString(), "BadMatch: encodings differ");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kTimeout); ++i) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(i)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status(ErrorCode::kNoDevice, "none");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNoDevice);
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = r.take();
  EXPECT_EQ(v, "hello");
}

// Every slot a server can hand out gets a block of its own below the
// server range: consecutive, never wrapping, and roomy enough for the
// C10k ladder's 8,192 clients.
TEST(IdsTest, ClientBlocksDontOverlapServerRange) {
  EXPECT_GE(kMaxClientConnections, 8192u);
  ResourceId next = kClientIdBase;
  for (uint32_t i = 0; i < kMaxClientConnections; ++i) {
    const ResourceId base = ClientIdBaseFor(i);
    ASSERT_EQ(base, next) << "slot " << i;
    ASSERT_FALSE(IsServerId(base)) << "slot " << i;
    ASSERT_FALSE(IsServerId(base + kClientIdBlockSize - 1)) << "slot " << i;
    next = base + kClientIdBlockSize;
  }
  EXPECT_TRUE(IsServerId(kServerIdBase));
}

TEST(ClockTest, SampleTickConversionsRoundTrip) {
  EXPECT_EQ(SamplesToTicks(8000, 8000), kTicksPerSecond);
  EXPECT_EQ(TicksToSamples(kTicksPerSecond, 8000), 8000);
  EXPECT_EQ(SamplesToTicks(160, 8000), 20 * kTicksPerMillisecond);
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.Advance(500);
  EXPECT_EQ(clock.Now(), 500);
  clock.AdvanceTo(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.AdvanceTo(400);  // no going back
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(ClockTest, VirtualClockSkewRunsFast) {
  VirtualClock fast(/*skew_ppm=*/100000);  // +10%
  fast.Advance(1000000);
  EXPECT_EQ(fast.Now(), 1100000);
}

TEST(ClockTest, VirtualClockSkewRunsSlow) {
  VirtualClock slow(/*skew_ppm=*/-100000);
  slow.Advance(1000000);
  EXPECT_EQ(slow.Now(), 900000);
}

TEST(ClockTest, VirtualClockWakesSleepers) {
  VirtualClock clock;
  std::thread waiter([&] { clock.SleepUntil(1000); });
  clock.Advance(1000);
  waiter.join();
  EXPECT_GE(clock.Now(), 1000);
}

TEST(ClockTest, RealClockIsMonotonic) {
  RealClock clock;
  Ticks a = clock.Now();
  Ticks b = clock.Now();
  EXPECT_GE(b, a);
}

TEST(RingBufferTest, WriteThenRead) {
  RingBuffer<int16_t> ring(8);
  std::vector<int16_t> in = {1, 2, 3, 4};
  EXPECT_EQ(ring.Write(in), 4u);
  EXPECT_EQ(ring.size(), 4u);
  std::vector<int16_t> out(4);
  EXPECT_EQ(ring.Read(out), 4u);
  EXPECT_EQ(out, in);
  EXPECT_TRUE(ring.empty());
}

TEST(RingBufferTest, CapacityRoundsUpToPowerOfTwo) {
  RingBuffer<int16_t> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(RingBufferTest, WriteStopsWhenFull) {
  RingBuffer<int16_t> ring(4);
  std::vector<int16_t> in = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.Write(in), 4u);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.Write(in), 0u);
}

TEST(RingBufferTest, WrapAroundPreservesOrder) {
  RingBuffer<int16_t> ring(4);
  std::vector<int16_t> chunk = {1, 2, 3};
  std::vector<int16_t> out(3);
  for (int pass = 0; pass < 10; ++pass) {
    ASSERT_EQ(ring.Write(chunk), 3u);
    ASSERT_EQ(ring.Read(out), 3u);
    ASSERT_EQ(out, chunk) << "pass " << pass;
  }
  EXPECT_EQ(ring.total_written(), 30u);
  EXPECT_EQ(ring.total_read(), 30u);
}

TEST(RingBufferTest, DiscardDropsOldest) {
  RingBuffer<int16_t> ring(8);
  std::vector<int16_t> in = {1, 2, 3, 4};
  ring.Write(in);
  EXPECT_EQ(ring.Discard(2), 2u);
  std::vector<int16_t> out(2);
  ring.Read(out);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 4);
}

TEST(RingBufferTest, ConcurrentSpscTransfersAllData) {
  RingBuffer<int16_t> ring(1024);
  constexpr int kTotal = 100000;
  std::thread producer([&] {
    int sent = 0;
    while (sent < kTotal) {
      int16_t v = static_cast<int16_t>(sent % 1000);
      if (ring.Write(std::span<const int16_t>(&v, 1)) == 1) {
        ++sent;
      }
    }
  });
  int received = 0;
  bool in_order = true;
  while (received < kTotal) {
    int16_t v;
    if (ring.Read(std::span<int16_t>(&v, 1)) == 1) {
      if (v != static_cast<int16_t>(received % 1000)) {
        in_order = false;
      }
      ++received;
    }
  }
  producer.join();
  EXPECT_TRUE(in_order);
}

TEST(ByteIoTest, ScalarsRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteI64(-1234567890123ll);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI32(), -42);
  EXPECT_EQ(r.ReadI64(), -1234567890123ll);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIoTest, LittleEndianOnTheWire) {
  ByteWriter w;
  w.WriteU32(0x01020304);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(ByteIoTest, StringsAndBlobsRoundTrip) {
  ByteWriter w;
  w.WriteString("hello, audio");
  std::vector<uint8_t> blob = {9, 8, 7};
  w.WriteBlob(blob);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadString(), "hello, audio");
  EXPECT_EQ(r.ReadBlob(), blob);
  EXPECT_TRUE(r.ok());
}

TEST(ByteIoTest, OverReadSaturatesSafely) {
  std::vector<uint8_t> two = {1, 2};
  ByteReader r(two);
  r.ReadU32();  // over-reads: flags the reader
  EXPECT_FALSE(r.ok());
  // Once failed, further reads return zeros, never throw/UB.
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_EQ(r.ReadU8(), 0u);
  EXPECT_EQ(r.ReadString(), "");
}

TEST(ByteIoTest, MalformedStringLengthIsRejected) {
  ByteWriter w;
  w.WriteU32(1000000);  // length prefix far beyond the buffer
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_FALSE(r.ok());
}

TEST(ByteIoTest, PatchU32BackFillsLength) {
  ByteWriter w;
  w.WriteU32(0);  // placeholder
  w.WriteU8(1);
  w.WriteU8(2);
  w.PatchU32(0, 2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU32(), 2u);
}

}  // namespace
}  // namespace aud
