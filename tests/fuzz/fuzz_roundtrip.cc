// Encode/decode round-trip property harness. Instead of throwing bytes at
// the decoders (fuzz_decode's job), this derives *valid* messages from the
// fuzz input, encodes them, decodes the result, re-encodes, and aborts on
// any difference:
//
//   Encode(Decode(Encode(m))) == Encode(m)   and   Decode consumed every byte
//
// A violation means an encoder and its decoder disagree about the wire
// format — exactly the asymmetric-drift bug class that schema checks can't
// see (both sides compile; they just don't agree).
//
// Field values come from a saturating ByteReader over the fuzz input, so
// every input maps deterministically to one message and the fuzzer's
// mutations explore field-value space (zero, max, sign bits, empty/large
// strings and vectors).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/byte_io.h"
#include "src/wire/messages.h"
#include "src/wire/protocol.h"

namespace aud {
namespace {

[[noreturn]] void Fail(const char* what, const char* type_name) {
  std::fprintf(stderr, "fuzz_roundtrip: %s for %s\n", what, type_name);
  std::abort();
}

// Round-trips a ByteWriter/ByteReader message struct.
template <typename T>
void RoundTripStruct(const T& value, const char* type_name) {
  ByteWriter w;
  value.Encode(&w);
  std::vector<uint8_t> wire = w.Take();

  ByteReader r(wire);
  T decoded = T::Decode(&r);
  if (!r.ok()) {
    Fail("decoder over-read its own encoder's output", type_name);
  }
  if (r.remaining() != 0) {
    Fail("decoder left trailing bytes unconsumed", type_name);
  }

  ByteWriter w2;
  decoded.Encode(&w2);
  if (w2.bytes() != wire) {
    Fail("re-encode differs from original encode", type_name);
  }
}

// Round-trips a vector-returning args payload (CommandSpec / event args).
template <typename T>
void RoundTripArgs(const T& value, const char* type_name) {
  std::vector<uint8_t> wire = value.Encode();
  T decoded = T::Decode(wire);
  std::vector<uint8_t> wire2 = decoded.Encode();
  if (wire2 != wire) {
    Fail("re-encode differs from original encode", type_name);
  }
}

// Bounded string / blob derivation: length from one byte, content from the
// reader (saturates to empty at end of input, which is itself a useful
// boundary case).
std::string TakeString(ByteReader* r) {
  size_t len = r->ReadU8() % 24;
  std::span<const uint8_t> raw = r->ReadBytes(len);
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

std::vector<uint8_t> TakeBlob(ByteReader* r) {
  size_t len = r->ReadU8() % 64;
  std::span<const uint8_t> raw = r->ReadBytes(len);
  return std::vector<uint8_t>(raw.begin(), raw.end());
}

CommandSpec TakeCommandSpec(ByteReader* r) {
  CommandSpec spec;
  spec.device = r->ReadU32();
  spec.command = static_cast<DeviceCommand>(r->ReadU16());
  spec.tag = r->ReadU32();
  spec.args = TakeBlob(r);
  return spec;
}

// Header framing property: a frame built by FrameMessage with a valid type
// and in-range length must pass DecodeHeaderStrict and reproduce its fields.
void RoundTripFrame(ByteReader* r) {
  MessageType type = static_cast<MessageType>(1 + r->ReadU8() % 4);
  uint16_t code = r->ReadU16();
  uint32_t sequence = r->ReadU32();
  std::vector<uint8_t> payload = TakeBlob(r);

  std::vector<uint8_t> frame = FrameMessage(type, code, sequence, payload);
  Result<MessageHeader> header = DecodeHeaderStrict(frame);
  if (!header.ok()) {
    Fail("DecodeHeaderStrict rejected FrameMessage output", "MessageHeader");
  }
  const MessageHeader& h = header.value();
  if (h.type != type || h.code != code || h.sequence != sequence ||
      h.length != payload.size() || frame.size() != kHeaderSize + payload.size()) {
    Fail("framed header fields do not round-trip", "MessageHeader");
  }
}

// A stats reply at a version in 1..kServerStatsVersion, every row filled:
// Encode and Decode both skip the rows newer than the version, so a row
// gated differently on the two sides shows as an over-read, trailing bytes
// or a re-encode difference.
void RoundTripServerStats(ByteReader* r) {
  ServerStatsReply m;
  m.stats_version = 1 + r->ReadU8() % kServerStatsVersion;
  ForEachStatField(m, [&](const StatRow&, auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_integral_v<T>) {
      value = static_cast<T>(r->ReadU64());
    } else if constexpr (std::is_same_v<T, Histogram>) {
      value.count = r->ReadU64();
      value.sum = r->ReadU64();
      value.min = r->ReadU64();
      value.max = r->ReadU64();
      value.buckets.resize(r->ReadU8() % 8);
      for (uint64_t& bucket : value.buckets) {
        bucket = r->ReadU64();
      }
    } else {
      value.resize(r->ReadU8() % 4);
      for (OpcodeStats& op : value) {
        op.opcode = r->ReadU16();
        op.count = r->ReadU64();
        op.errors = r->ReadU64();
        op.total_us = r->ReadU64();
      }
    }
  });
  RoundTripStruct(m, "ServerStatsReply");
}

}  // namespace
}  // namespace aud

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace aud;
  ByteReader in(std::span<const uint8_t>(data, size));

  RoundTripFrame(&in);

  {
    SetupRequest m;
    m.magic = in.ReadU32();
    m.major = in.ReadU16();
    m.minor = in.ReadU16();
    m.client_name = TakeString(&in);
    RoundTripStruct(m, "SetupRequest");
  }
  {
    SetupReply m;
    m.success = in.ReadU8();
    m.major = in.ReadU16();
    m.minor = in.ReadU16();
    m.id_base = in.ReadU32();
    m.id_count = in.ReadU32();
    m.device_loud = in.ReadU32();
    m.server_name = TakeString(&in);
    m.reason = TakeString(&in);
    RoundTripStruct(m, "SetupReply");
  }
  {
    CommandSpec m = TakeCommandSpec(&in);
    RoundTripStruct(m, "CommandSpec");
  }
  {
    EnqueueCommandsReq m;
    m.loud = in.ReadU32();
    size_t n = in.ReadU8() % 5;
    for (size_t i = 0; i < n; ++i) {
      m.commands.push_back(TakeCommandSpec(&in));
    }
    RoundTripStruct(m, "EnqueueCommandsReq");
  }
  {
    ImmediateCommandReq m;
    m.loud = in.ReadU32();
    m.command = TakeCommandSpec(&in);
    RoundTripStruct(m, "ImmediateCommandReq");
  }
  {
    ResourceReq m;
    m.id = in.ReadU32();
    RoundTripStruct(m, "ResourceReq");
  }
  {
    CreateWireReq m;
    m.id = in.ReadU32();
    m.src_device = in.ReadU32();
    m.src_port = in.ReadU16();
    m.dst_device = in.ReadU32();
    m.dst_port = in.ReadU16();
    m.has_format = in.ReadU8();
    m.format.encoding = static_cast<Encoding>(in.ReadU8());
    m.format.sample_rate_hz = in.ReadU32();
    RoundTripStruct(m, "CreateWireReq");
  }
  {
    WriteSoundDataReq m;
    m.id = in.ReadU32();
    m.offset = in.ReadU64();
    m.data = TakeBlob(&in);
    RoundTripStruct(m, "WriteSoundDataReq");
  }
  {
    ChangePropertyReq m;
    m.resource = in.ReadU32();
    m.name = TakeString(&in);
    m.type = TakeString(&in);
    m.value = TakeBlob(&in);
    RoundTripStruct(m, "ChangePropertyReq");
  }
  {
    QueueStateReply m;
    m.loud = in.ReadU32();
    m.state = static_cast<QueueState>(in.ReadU8());
    m.depth = in.ReadU32();
    m.current_tag = in.ReadU32();
    RoundTripStruct(m, "QueueStateReply");
  }
  {
    ServerTimeReply m;
    m.server_time = in.ReadI64();
    RoundTripStruct(m, "ServerTimeReply");
  }
  {
    EventMessage m;
    m.type = static_cast<EventType>(in.ReadU16());
    m.resource = in.ReadU32();
    m.server_time = in.ReadI64();
    m.args = TakeBlob(&in);
    RoundTripStruct(m, "EventMessage");
  }
  {
    ErrorMessage m;
    m.code = static_cast<ErrorCode>(in.ReadU8());
    m.resource = in.ReadU32();
    m.opcode = in.ReadU16();
    m.detail = TakeString(&in);
    RoundTripStruct(m, "ErrorMessage");
  }
  {
    TraceEventWire m;
    m.t_us = in.ReadI64();
    m.seq = in.ReadU64();
    m.tid = in.ReadU32();
    m.reason = in.ReadU16();
    m.arg0 = in.ReadU32();
    m.arg1 = in.ReadU32();
    m.trace = in.ReadU64();
    m.parent = in.ReadU64();
    m.dur_us = in.ReadU32();
    RoundTripStruct(m, "TraceEventWire");
  }

  // Typed args payloads.
  {
    PlayArgs a;
    a.sound = in.ReadU32();
    a.start_sample = in.ReadI64();
    a.end_sample = in.ReadI64();
    RoundTripArgs(a, "PlayArgs");
  }
  {
    TrainArgs a;
    a.word = TakeString(&in);
    a.sound = in.ReadU32();
    RoundTripArgs(a, "TrainArgs");
  }
  {
    WordListArgs a;
    size_t n = in.ReadU8() % 6;
    for (size_t i = 0; i < n; ++i) {
      a.words.push_back(TakeString(&in));
    }
    RoundTripArgs(a, "WordListArgs");
  }
  {
    ExceptionListArgs a;
    size_t n = in.ReadU8() % 4;
    for (size_t i = 0; i < n; ++i) {
      std::string word = TakeString(&in);
      std::string phonemes = TakeString(&in);
      a.entries.emplace_back(std::move(word), std::move(phonemes));
    }
    RoundTripArgs(a, "ExceptionListArgs");
  }
  {
    VoiceArgs a;
    a.waveform = in.ReadU8();
    a.attack_ms = in.ReadU16();
    a.decay_ms = in.ReadU16();
    a.sustain_centi = in.ReadU16();
    a.release_ms = in.ReadU16();
    RoundTripArgs(a, "VoiceArgs");
  }
  {
    CrossbarStateArgs a;
    size_t n = in.ReadU8() % 6;
    for (size_t i = 0; i < n; ++i) {
      CrossbarStateArgs::Route route;
      route.input = in.ReadU16();
      route.output = in.ReadU16();
      route.enabled = in.ReadU8();
      a.routes.push_back(route);
    }
    RoundTripArgs(a, "CrossbarStateArgs");
  }
  {
    SyncMarkArgs a;
    a.position_samples = in.ReadU64();
    a.device_time = in.ReadI64();
    a.total_samples = in.ReadU64();
    RoundTripArgs(a, "SyncMarkArgs");
  }
  {
    RecognitionArgs a;
    a.word = TakeString(&in);
    a.score = in.ReadU32();
    RoundTripArgs(a, "RecognitionArgs");
  }

  // The stats reply reads the input from its start, so the cases above
  // keep their bytes and the first byte picks the version.
  ByteReader stats_in(std::span<const uint8_t>(data, size));
  RoundTripServerStats(&stats_in);
  return 0;
}
