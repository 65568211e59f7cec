// Transport tests: in-process socket pairs, TCP sockets, framing.

#include <fcntl.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/transport/framer.h"
#include "src/transport/socket_stream.h"

namespace aud {
namespace {

TEST(PipePairTest, BytesFlowBothWays) {
  auto [a, b] = CreatePipePair();
  std::vector<uint8_t> ping = {1, 2, 3};
  ASSERT_TRUE(a->Write(ping));
  std::vector<uint8_t> buf(3);
  ASSERT_TRUE(ReadFully(b.get(), buf));
  EXPECT_EQ(buf, ping);

  std::vector<uint8_t> pong = {9, 8};
  ASSERT_TRUE(b->Write(pong));
  buf.resize(2);
  ASSERT_TRUE(ReadFully(a.get(), buf));
  EXPECT_EQ(buf, pong);
}

TEST(PipePairTest, CloseUnblocksReader) {
  auto [a, b] = CreatePipePair();
  std::thread reader([&] {
    std::vector<uint8_t> buf(10);
    EXPECT_EQ(b->Read(buf), 0u);  // EOF
  });
  a->Close();
  reader.join();
}

TEST(PipePairTest, DrainsBufferedDataAfterClose) {
  auto [a, b] = CreatePipePair();
  std::vector<uint8_t> data = {5, 6, 7};
  a->Write(data);
  a->Close();
  std::vector<uint8_t> buf(3);
  EXPECT_TRUE(ReadFully(b.get(), buf));
  EXPECT_EQ(buf, data);
  EXPECT_EQ(b->Read(buf), 0u);
}

TEST(PipePairTest, WriteAfterCloseFails) {
  auto [a, b] = CreatePipePair();
  b->Close();
  std::vector<uint8_t> data = {1};
  EXPECT_FALSE(a->Write(data));
}

TEST(PipePairTest, LargeTransferSurvivesChunking) {
  auto [a, b] = CreatePipePair();
  std::vector<uint8_t> big(100000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7);
  }
  std::thread writer([&] { a->Write(big); });
  std::vector<uint8_t> got(big.size());
  ASSERT_TRUE(ReadFully(b.get(), got));
  writer.join();
  EXPECT_EQ(got, big);
}

TEST(SocketStreamTest, LoopbackRoundTrip) {
  SocketListener listener;
  ASSERT_TRUE(listener.Listen(0));
  ASSERT_NE(listener.port(), 0);

  std::unique_ptr<ByteStream> server_side;
  std::thread acceptor([&] { server_side = listener.Accept(); });
  auto client_side = ConnectTcp("127.0.0.1", listener.port());
  acceptor.join();
  ASSERT_NE(client_side, nullptr);
  ASSERT_NE(server_side, nullptr);

  std::vector<uint8_t> msg = {42, 43, 44};
  ASSERT_TRUE(client_side->Write(msg));
  std::vector<uint8_t> buf(3);
  ASSERT_TRUE(ReadFully(server_side.get(), buf));
  EXPECT_EQ(buf, msg);

  ASSERT_TRUE(server_side->Write(msg));
  ASSERT_TRUE(ReadFully(client_side.get(), buf));
  EXPECT_EQ(buf, msg);
}

TEST(SocketStreamTest, ConnectToClosedPortFails) {
  SocketListener listener;
  ASSERT_TRUE(listener.Listen(0));
  uint16_t port = listener.port();
  listener.Close();
  EXPECT_EQ(ConnectTcp("127.0.0.1", port), nullptr);
}

TEST(SocketStreamTest, ListenerQueuesAConnectBurst) {
  // Nobody accepts yet: every connect must complete from the kernel's
  // accept queue instead of stalling on SYN retransmits (a backlog of 16
  // left most of these waiting a second or more).
  SocketListener listener;
  ASSERT_TRUE(listener.Listen(0));
  std::vector<std::unique_ptr<ByteStream>> clients;
  for (int i = 0; i < 64; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto client = ConnectTcp("127.0.0.1", listener.port());
    const auto took = std::chrono::steady_clock::now() - t0;
    ASSERT_NE(client, nullptr) << "connect " << i;
    EXPECT_LT(took, std::chrono::milliseconds(300)) << "connect " << i;
    clients.push_back(std::move(client));
  }
}

TEST(SocketStreamTest, EverySocketIsCloseOnExec) {
  auto cloexec = [](const std::unique_ptr<ByteStream>& stream) {
    return (::fcntl(stream->pollable_fd(), F_GETFD) & FD_CLOEXEC) != 0;
  };
  SocketListener listener;
  ASSERT_TRUE(listener.Listen(0));
  auto client = ConnectTcp("127.0.0.1", listener.port());
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(cloexec(client));
  auto accepted = listener.Accept();
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(cloexec(accepted));

  auto [a, b] = CreatePipePair();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(cloexec(a));
  EXPECT_TRUE(cloexec(b));
}

TEST(FramerTest, MessageRoundTrip) {
  auto [a, b] = CreatePipePair();
  std::vector<uint8_t> payload = {10, 20, 30, 40};
  ASSERT_TRUE(WriteMessage(a.get(), MessageType::kEvent, 5, 99, payload));
  auto msg = ReadMessage(b.get());
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->header.type, MessageType::kEvent);
  EXPECT_EQ(msg->header.code, 5);
  EXPECT_EQ(msg->header.sequence, 99u);
  EXPECT_EQ(msg->payload, payload);
}

TEST(FramerTest, EmptyPayloadOk) {
  auto [a, b] = CreatePipePair();
  ASSERT_TRUE(WriteMessage(a.get(), MessageType::kRequest, 0, 1, {}));
  auto msg = ReadMessage(b.get());
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->payload.empty());
}

TEST(FramerTest, SequentialMessagesStayFramed) {
  auto [a, b] = CreatePipePair();
  for (uint32_t i = 0; i < 50; ++i) {
    std::vector<uint8_t> payload(i, static_cast<uint8_t>(i));
    ASSERT_TRUE(WriteMessage(a.get(), MessageType::kRequest, static_cast<uint16_t>(i), i,
                             payload));
  }
  for (uint32_t i = 0; i < 50; ++i) {
    auto msg = ReadMessage(b.get());
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.code, i);
    EXPECT_EQ(msg->payload.size(), i);
  }
}

TEST(FramerTest, OversizedLengthRejected) {
  auto [a, b] = CreatePipePair();
  MessageHeader h;
  h.type = MessageType::kRequest;
  h.length = kMaxPayload + 1;
  ByteWriter w;
  h.Encode(&w);
  a->Write(w.bytes());
  EXPECT_FALSE(ReadMessage(b.get()).has_value());
}

TEST(FramerTest, NonZeroReservedByteRejected) {
  auto [a, b] = CreatePipePair();
  ByteWriter w;
  MessageHeader{}.Encode(&w);
  std::vector<uint8_t> bytes(w.bytes().begin(), w.bytes().end());
  bytes[1] = 0x5A;
  a->Write(bytes);
  a->Close();
  EXPECT_FALSE(ReadMessage(b.get()).has_value());
}

TEST(FramerTest, UnknownMessageTypeRejected) {
  auto [a, b] = CreatePipePair();
  ByteWriter w;
  MessageHeader{}.Encode(&w);
  std::vector<uint8_t> bytes(w.bytes().begin(), w.bytes().end());
  bytes[0] = 0x7F;
  a->Write(bytes);
  a->Close();
  EXPECT_FALSE(ReadMessage(b.get()).has_value());
}

TEST(FramerTest, EofMidMessageReturnsNothing) {
  auto [a, b] = CreatePipePair();
  MessageHeader h;
  h.type = MessageType::kRequest;
  h.length = 100;  // promised but never delivered
  ByteWriter w;
  h.Encode(&w);
  a->Write(w.bytes());
  a->Close();
  EXPECT_FALSE(ReadMessage(b.get()).has_value());
}

// ---------------------------------------------------------------------------
// Framer::TryReadMessage: the batched non-blocking read path.

// A non-blocking stream fed by the test: each Deliver() queues bytes that
// become readable, ReadSome hands out what is queued (kWouldBlock when
// nothing is) and counts its calls, and Hangup() turns the drained stream
// into EOF.
class ScriptedStream : public ByteStream {
 public:
  void Deliver(std::span<const uint8_t> bytes) {
    pending_.insert(pending_.end(), bytes.begin(), bytes.end());
  }
  void Hangup() { hungup_ = true; }
  int reads() const { return reads_; }

  bool Write(std::span<const uint8_t>) override { return true; }
  size_t Read(std::span<uint8_t>) override { return 0; }
  void Close() override { hungup_ = true; }
  IoResult ReadSome(std::span<uint8_t> out) override {
    ++reads_;
    if (pending_.empty()) {
      return {hungup_ ? IoStatus::kEof : IoStatus::kWouldBlock, 0};
    }
    const size_t n = std::min(out.size(), pending_.size());
    std::copy_n(pending_.begin(), n, out.begin());
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(n));
    return {IoStatus::kOk, n};
  }

 private:
  std::vector<uint8_t> pending_;
  bool hungup_ = false;
  int reads_ = 0;
};

// Frame i: a request with code i, sequence 1000 + i and i payload bytes.
std::vector<uint8_t> TestFrame(uint32_t i, size_t payload_bytes) {
  return FrameMessage(MessageType::kRequest, static_cast<uint16_t>(i), 1000 + i,
                      std::vector<uint8_t>(payload_bytes, static_cast<uint8_t>(i)));
}

std::vector<uint8_t> TestFrames(uint32_t count) {
  std::vector<uint8_t> bytes;
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<uint8_t> frame = TestFrame(i, i % 7);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

// Serves frames until the framer stops answering kMessage.
FrameStatus Drain(Framer* framer, ScriptedStream* stream, std::vector<FramedMessage>* out) {
  while (true) {
    FramedMessage msg;
    const FrameStatus status = framer->TryReadMessage(stream, &msg);
    if (status != FrameStatus::kMessage) {
      return status;
    }
    out->push_back(std::move(msg));
  }
}

void ExpectTestFrames(const std::vector<FramedMessage>& got, uint32_t count) {
  ASSERT_EQ(got.size(), count);
  for (uint32_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].header.code, i);
    EXPECT_EQ(got[i].header.sequence, 1000 + i);
    EXPECT_EQ(got[i].payload, std::vector<uint8_t>(i % 7, static_cast<uint8_t>(i)));
  }
}

TEST(FramerBatchTest, CoalescedFramesComeFromOneRead) {
  ScriptedStream stream;
  stream.Deliver(TestFrames(100));
  Framer framer;
  std::vector<FramedMessage> got;
  EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock);
  ExpectTestFrames(got, 100);
  EXPECT_EQ(stream.reads(), 1);
  EXPECT_FALSE(framer.mid_frame());
}

TEST(FramerBatchTest, ShortReadEndsTheRoundWithoutASecondRead) {
  ScriptedStream stream;
  Framer framer;
  std::vector<FramedMessage> got;
  // Half a frame: the short read ends the round at once.
  const std::vector<uint8_t> frames = TestFrames(2);
  const size_t first = TestFrame(0, 0).size();
  stream.Deliver(std::span<const uint8_t>(frames).first(first / 2));
  EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock);
  EXPECT_EQ(stream.reads(), 1);
  EXPECT_TRUE(framer.mid_frame());
  // The next round reads again and finishes both frames with that read.
  stream.Deliver(std::span<const uint8_t>(frames).subspan(first / 2));
  EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock);
  EXPECT_EQ(stream.reads(), 2);
  ExpectTestFrames(got, 2);
  // A round that finds nothing costs one read and answers kWouldBlock.
  EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock);
  EXPECT_EQ(stream.reads(), 3);
}

TEST(FramerBatchTest, RoundReadsAtMostOneBuffer) {
  // More input than the buffer holds: each round serves one buffer's worth
  // and leaves the rest to the next round, which reads again.
  ScriptedStream stream;
  const std::vector<uint8_t> frames = TestFrames(4000);
  ASSERT_GT(frames.size(), 2 * Framer::kInputBytes);
  stream.Deliver(frames);
  Framer framer;
  std::vector<FramedMessage> got;
  int rounds = 0;
  while (got.size() < 4000 && rounds < 100) {
    const size_t before = got.size();
    EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock);
    ++rounds;
    EXPECT_EQ(stream.reads(), rounds);
    EXPECT_LE(got.size() - before, Framer::kInputBytes / kHeaderSize);
  }
  ExpectTestFrames(got, 4000);
  EXPECT_GE(rounds, 3);
}

TEST(FramerBatchTest, FrameSplitAtEveryOffset) {
  const std::vector<uint8_t> frames = TestFrames(3);
  for (size_t cut = 0; cut <= frames.size(); ++cut) {
    ScriptedStream stream;
    Framer framer;
    std::vector<FramedMessage> got;
    stream.Deliver(std::span<const uint8_t>(frames).first(cut));
    EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock) << "cut " << cut;
    stream.Deliver(std::span<const uint8_t>(frames).subspan(cut));
    EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock) << "cut " << cut;
    ExpectTestFrames(got, 3);
    EXPECT_FALSE(framer.mid_frame()) << "cut " << cut;
  }
}

TEST(FramerBatchTest, OversizeFrameGrowsTheBufferThenReleasesIt) {
  constexpr size_t kBig = 1 << 20;
  ASSERT_GT(kBig, Framer::kInputBytes);
  const std::vector<uint8_t> big = TestFrame(1, kBig);
  ScriptedStream stream;
  Framer framer;
  std::vector<FramedMessage> got;
  // Arrives in 64 KiB pieces. Once the header is in, the buffer grows to
  // hold the whole frame.
  size_t grown = 0;
  for (size_t off = 0; off < big.size(); off += 64 * 1024) {
    const size_t n = std::min<size_t>(64 * 1024, big.size() - off);
    stream.Deliver(std::span<const uint8_t>(big).subspan(off, n));
    EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock);
    if (got.empty()) {
      grown = std::max(grown, framer.input_capacity());
    }
  }
  EXPECT_GE(grown, big.size());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, std::vector<uint8_t>(kBig, 1));
  // Idle again: the oversize buffer is not pinned.
  EXPECT_LE(framer.input_capacity(), Framer::kInputBytes);
  // And ordinary frames still flow.
  stream.Deliver(TestFrames(5));
  got.clear();
  EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kWouldBlock);
  ExpectTestFrames(got, 5);
  EXPECT_LE(framer.input_capacity(), Framer::kInputBytes);
}

TEST(FramerBatchTest, GoodFramesComeOutBeforeEofMidFrame) {
  ScriptedStream stream;
  std::vector<uint8_t> bytes = TestFrames(4);
  const std::vector<uint8_t> cut = TestFrame(9, 40);
  bytes.insert(bytes.end(), cut.begin(), cut.begin() + 20);
  stream.Deliver(bytes);
  stream.Hangup();
  Framer framer;
  std::vector<FramedMessage> got;
  FrameStatus status;
  while ((status = Drain(&framer, &stream, &got)) == FrameStatus::kWouldBlock) {
  }
  EXPECT_EQ(status, FrameStatus::kEof);
  ExpectTestFrames(got, 4);
  FramedMessage msg;
  EXPECT_EQ(framer.TryReadMessage(&stream, &msg), FrameStatus::kEof);  // sticky
}

TEST(FramerBatchTest, GoodFramesComeOutBeforeAMalformedHeader) {
  ScriptedStream stream;
  std::vector<uint8_t> bytes = TestFrames(4);
  std::vector<uint8_t> bad = TestFrame(9, 0);
  bad[1] = 0x5A;  // nonzero reserved byte
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  const std::vector<uint8_t> after = TestFrames(2);
  bytes.insert(bytes.end(), after.begin(), after.end());
  stream.Deliver(bytes);
  Framer framer;
  std::vector<FramedMessage> got;
  EXPECT_EQ(Drain(&framer, &stream, &got), FrameStatus::kMalformed);
  ExpectTestFrames(got, 4);
  FramedMessage msg;
  EXPECT_EQ(framer.TryReadMessage(&stream, &msg), FrameStatus::kEof);  // sticky
}

}  // namespace
}  // namespace aud
