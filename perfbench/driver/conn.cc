#include "perfbench/driver/conn.h"

#include <poll.h>

#include <algorithm>
#include <cstring>

#include "src/transport/socket_stream.h"

namespace perfbench {

using aud::IoResult;
using aud::IoStatus;

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
}

}  // namespace

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t BufferedStream::Read(std::span<uint8_t> out) {
  if (!buffered()) {
    const auto t0 = std::chrono::steady_clock::now();
    const size_t n = inner_->Read(buf_);
    pending_read_ns_ += ElapsedNs(t0);
    if (n == 0) {
      return 0;
    }
    pos_ = 0;
    len_ = n;
  }
  const size_t n = std::min(out.size(), len_ - pos_);
  std::memcpy(out.data(), buf_.data() + pos_, n);
  pos_ += n;
  return n;
}

IoResult BufferedStream::ReadSome(std::span<uint8_t> out) {
  if (!buffered()) {
    const auto t0 = std::chrono::steady_clock::now();
    const IoResult r = inner_->ReadSome(buf_);
    pending_read_ns_ += ElapsedNs(t0);
    if (r.status != IoStatus::kOk) {
      return r;
    }
    pos_ = 0;
    len_ = r.bytes;
  }
  const size_t n = std::min(out.size(), len_ - pos_);
  std::memcpy(out.data(), buf_.data() + pos_, n);
  pos_ += n;
  return {IoStatus::kOk, n};
}

bool Conn::Open(uint16_t port, const std::string& name, uint32_t trace_every) {
  std::unique_ptr<aud::ByteStream> socket = aud::ConnectTcp("127.0.0.1", port);
  if (socket == nullptr) {
    return false;
  }
  stream_ = std::make_unique<BufferedStream>(std::move(socket));
  aud::SetupRequest request;
  request.client_name = name;
  aud::ByteWriter w;
  request.Encode(&w);
  if (!aud::WriteMessage(stream_.get(), aud::MessageType::kRequest, aud::kSetupOpcode,
                         0, w.bytes())) {
    Close();
    return false;
  }
  std::optional<aud::FramedMessage> reply = aud::ReadMessage(stream_.get());
  if (!reply) {
    Close();
    return false;
  }
  aud::ByteReader r(reply->payload);
  aud::SetupReply setup = aud::SetupReply::Decode(&r);
  if (!r.ok() || setup.success == 0) {
    Close();
    return false;
  }
  stream_->TakeReadNs();
  id_base_ = setup.id_base;
  trace_every_ = trace_every;
  return true;
}

void Conn::Close() {
  if (stream_ != nullptr) {
    stream_->Close();
    stream_.reset();
  }
}

uint32_t Conn::SendEmpty(aud::Opcode opcode) {
  return SendEncoded(opcode, {}, std::chrono::steady_clock::now());
}

uint32_t Conn::SendEncoded(aud::Opcode opcode, std::span<const uint8_t> payload,
                           std::chrono::steady_clock::time_point t0) {
  if (stream_ == nullptr) {
    return 0;
  }
  const uint32_t seq = ++sequence_;
  std::vector<uint8_t> frame = aud::FrameMessage(
      aud::MessageType::kRequest, static_cast<uint16_t>(opcode), seq, payload);
  layers_.encode.Add(ElapsedNs(t0));
  const auto t1 = std::chrono::steady_clock::now();
  if (!stream_->Write(frame)) {
    Close();
    return 0;
  }
  layers_.write.Add(ElapsedNs(t1));
  return seq;
}

bool Conn::Poll(int64_t timeout_us, std::vector<Message>* out) {
  if (stream_ == nullptr) {
    return false;
  }
  if (timeout_us > 0 && !stream_->buffered()) {
    pollfd pfd{stream_->pollable_fd(), POLLIN, 0};
    timespec ts{static_cast<time_t>(timeout_us / 1000000),
                static_cast<long>((timeout_us % 1000000) * 1000)};
    if (ppoll(&pfd, 1, &ts, nullptr) <= 0) {
      return true;  // timeout (or EINTR): nothing arrived
    }
  }
  while (true) {
    Message msg;
    switch (framer_.TryReadMessage(stream_.get(), &msg.frame)) {
      case aud::FrameStatus::kMessage:
        msg.arrival_us = NowUs();
        layers_.read.Add(stream_->TakeReadNs());
        out->push_back(std::move(msg));
        continue;
      case aud::FrameStatus::kWouldBlock:
        return true;
      case aud::FrameStatus::kEof:
      case aud::FrameStatus::kMalformed:
        Close();
        return false;
    }
  }
}

void Conn::Note(const aud::FramedMessage& frame) {
  const uint32_t seq = frame.header.sequence;
  confirmed_ = std::max(confirmed_, seq);
  if (frame.header.type == aud::MessageType::kReply) {
    if (seq <= last_reply_) {
      ++reply_order_violations_;
    }
    last_reply_ = seq;
  }
}

}  // namespace perfbench
