#include "src/wire/messages.h"

namespace aud {

MessageHeader MessageHeader::Decode(ByteReader* r) {
  MessageHeader h;
  h.type = static_cast<MessageType>(r->ReadU8());
  r->ReadU8();
  h.code = r->ReadU16();
  h.length = r->ReadU32();
  h.sequence = r->ReadU32();
  return h;
}

Result<MessageHeader> DecodeHeaderStrict(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status(ErrorCode::kConnection,
                  "truncated header: " + std::to_string(bytes.size()) + " of " +
                      std::to_string(kHeaderSize) + " bytes");
  }
  if (bytes[1] != 0) {
    return Status(ErrorCode::kConnection, "non-zero reserved header byte");
  }
  ByteReader r(bytes.first(kHeaderSize));
  MessageHeader h = MessageHeader::Decode(&r);
  uint8_t type = static_cast<uint8_t>(h.type);
  if (type < static_cast<uint8_t>(MessageType::kRequest) ||
      type > static_cast<uint8_t>(MessageType::kError)) {
    return Status(ErrorCode::kConnection,
                  "unknown message type " + std::to_string(type));
  }
  if (h.length > kMaxPayload) {
    return Status(ErrorCode::kConnection,
                  "payload length " + std::to_string(h.length) +
                      " exceeds limit " + std::to_string(kMaxPayload));
  }
  return h;
}

Status ValidateRequestHeader(const MessageHeader& header) {
  if (header.type != MessageType::kRequest) {
    return Status::Ok();
  }
  // kSetupOpcode is only legal as the first frame of the connection; the
  // setup path never consults this check, so it is unknown here too.
  if (header.code >= static_cast<uint16_t>(Opcode::kOpcodeCount)) {
    return Status(ErrorCode::kBadRequest,
                  "unknown opcode " + std::to_string(header.code));
  }
  return Status::Ok();
}

// ServerStatsReply: the stats table's rows up to `stats_version`, each in
// the wire form of its type.

void ServerStatsReply::Encode(ByteWriter* w) const {
  w->WriteU32(stats_version);
  ForEachStatField(*this, [&](const StatRow& row, const auto& value) {
    if (stats_version >= row.version) {
      PutField(w, value);
    }
  });
}

ServerStatsReply ServerStatsReply::Decode(ByteReader* r) {
  ServerStatsReply p;
  p.stats_version = r->ReadU32();
  ForEachStatField(p, [&](const StatRow& row, auto& value) {
    if (p.stats_version >= row.version) {
      GetField(r, &value);
    }
  });
  return p;
}

std::vector<uint8_t> FrameMessage(MessageType type, uint16_t code, uint32_t sequence,
                                  std::span<const uint8_t> payload) {
  ByteWriter w;
  MessageHeader h;
  h.type = type;
  h.code = code;
  h.length = static_cast<uint32_t>(payload.size());
  h.sequence = sequence;
  h.Encode(&w);
  w.WriteBytes(payload);
  return w.Take();
}

}  // namespace aud
