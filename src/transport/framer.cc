#include "src/transport/framer.h"

#include <algorithm>
#include <array>

namespace aud {

std::optional<FramedMessage> ReadMessage(ByteStream* stream) {
  std::array<uint8_t, kHeaderSize> header_bytes;
  if (!ReadFully(stream, header_bytes)) {
    return std::nullopt;
  }
  Result<MessageHeader> header = DecodeHeaderStrict(header_bytes);
  if (!header.ok()) {
    return std::nullopt;
  }
  FramedMessage msg;
  msg.header = header.take();
  msg.payload.resize(msg.header.length);
  if (msg.header.length > 0 && !ReadFully(stream, msg.payload)) {
    return std::nullopt;
  }
  return msg;
}

bool WriteMessage(ByteStream* stream, MessageType type, uint16_t code, uint32_t sequence,
                  std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame = FrameMessage(type, code, sequence, payload);
  return stream->Write(frame);
}

size_t Framer::BufferedFrameBytes(MessageHeader* header, bool* malformed) const {
  if (end_ - begin_ < kHeaderSize) {
    return 0;
  }
  Result<MessageHeader> decoded =
      DecodeHeaderStrict(std::span<const uint8_t>(buf_).subspan(begin_, kHeaderSize));
  if (!decoded.ok()) {
    *malformed = true;
    return 0;
  }
  *header = decoded.take();
  return kHeaderSize + header->length;
}

FrameStatus Framer::TryReadMessage(ByteStream* stream, FramedMessage* out) {
  while (!dead_) {
    MessageHeader header;
    bool malformed = false;
    const size_t frame = BufferedFrameBytes(&header, &malformed);
    if (malformed) {
      dead_ = true;
      return FrameStatus::kMalformed;
    }
    if (frame != 0 && end_ - begin_ >= frame) {
      const auto payload = buf_.begin() + static_cast<ptrdiff_t>(begin_ + kHeaderSize);
      out->header = header;
      out->payload.assign(payload, payload + header.length);
      begin_ += frame;
      if (begin_ == end_) {
        begin_ = end_ = 0;
        if (buf_.size() > kInputBytes) {
          std::vector<uint8_t>().swap(buf_);  // one huge frame: don't pin it
        }
      }
      return FrameStatus::kMessage;
    }
    // No complete frame left. A round reads once: whatever that read
    // completed has been served, and level-triggered readiness reports any
    // bytes still in the kernel, so the next read waits for the next round.
    if (read_this_round_) {
      read_this_round_ = false;
      return FrameStatus::kWouldBlock;
    }
    // Move the partial frame to the front and make room for the whole of
    // it, or for a full buffer.
    if (begin_ != 0) {
      std::copy(buf_.begin() + static_cast<ptrdiff_t>(begin_),
                buf_.begin() + static_cast<ptrdiff_t>(end_), buf_.begin());
      end_ -= begin_;
      begin_ = 0;
    }
    const size_t want = std::max(frame, kInputBytes);
    if (buf_.size() < want) {
      buf_.resize(want);
    }
    IoResult r = stream->ReadSome(std::span<uint8_t>(buf_).subspan(end_));
    if (r.status == IoStatus::kWouldBlock) {
      return FrameStatus::kWouldBlock;
    }
    if (r.status != IoStatus::kOk) {
      dead_ = true;
      return FrameStatus::kEof;
    }
    end_ += r.bytes;
    read_this_round_ = true;
  }
  return FrameStatus::kEof;
}

}  // namespace aud
