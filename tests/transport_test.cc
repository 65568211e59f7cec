// Transport tests: in-process socket pairs, TCP sockets, framing.

#include <fcntl.h>
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace aud
