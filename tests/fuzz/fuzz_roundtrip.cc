// Encode/decode round-trip property harness. Instead of throwing bytes at
// the decoders (fuzz_decode's job), this derives *valid* messages from the
// fuzz input, encodes them, decodes the result, and aborts on any
// difference:
//
//   Decode(Encode(m)) == m   and   Decode consumed every byte
//
// A violation means an encoder and its decoder disagree about the wire
// format — exactly the asymmetric-drift bug class that schema checks can't
// see (both sides compile; they just don't agree). Every request and reply
// struct of the opcode table, and every command-args and event-args
// struct, is filled through its field list by one visitor (Fill), so a
// message added to the table is fuzzed without a line here.
//
// Field values come from a saturating ByteReader over the fuzz input, so
// every input maps deterministically to one message and the fuzzer's
// mutations explore field-value space (zero, max, sign bits, empty/large
// strings and vectors). Each message reads the input from its start.

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

// -- Fill: one value of each field type from the input ------------------------

// The containers' and structs' overloads call each other in any order.
template <typename A, typename B>
void Fill(ByteReader* in, std::pair<A, B>* p);
template <typename T>
void Fill(ByteReader* in, std::vector<T>* items);
template <FieldListed T>
void Fill(ByteReader* in, T* m);

void Fill(ByteReader* in, uint8_t* v) { *v = in->ReadU8(); }
void Fill(ByteReader* in, char* v) { *v = static_cast<char>(in->ReadU8()); }
void Fill(ByteReader* in, uint16_t* v) { *v = in->ReadU16(); }
void Fill(ByteReader* in, uint32_t* v) { *v = in->ReadU32(); }
void Fill(ByteReader* in, int32_t* v) { *v = in->ReadI32(); }
void Fill(ByteReader* in, uint64_t* v) { *v = in->ReadU64(); }
void Fill(ByteReader* in, int64_t* v) { *v = in->ReadI64(); }

template <typename Enum>
  requires std::is_enum_v<Enum>
void Fill(ByteReader* in, Enum* v) {
  std::underlying_type_t<Enum> raw{};
  Fill(in, &raw);
  *v = static_cast<Enum>(raw);
}

// Bounded string / blob derivation: length from one byte, content from the
// reader (saturates to empty at end of input, which is itself a useful
// boundary case).
void Fill(ByteReader* in, std::string* s) {
  std::span<const uint8_t> raw = in->ReadBytes(in->ReadU8() % 24);
  s->assign(reinterpret_cast<const char*>(raw.data()), raw.size());
}

void Fill(ByteReader* in, std::vector<uint8_t>* blob) {
  std::span<const uint8_t> raw = in->ReadBytes(in->ReadU8() % 64);
  blob->assign(raw.begin(), raw.end());
}

void Fill(ByteReader* in, AttrList* attrs) {
  for (size_t n = in->ReadU8() % 4; n > 0; --n) {
    auto tag = static_cast<AttrTag>(in->ReadU16());
    switch (in->ReadU8() % 3) {
      case 0:
        attrs->Set(tag, in->ReadU32());
        break;
      case 1:
        attrs->Set(tag, in->ReadI32());
        break;
      default: {
        std::string s;
        Fill(in, &s);
        attrs->Set(tag, std::move(s));
      }
    }
  }
}

template <typename A, typename B>
void Fill(ByteReader* in, std::pair<A, B>* p) {
  Fill(in, &p->first);
  Fill(in, &p->second);
}

template <typename T>
void Fill(ByteReader* in, std::vector<T>* items) {
  items->resize(in->ReadU8() % 4);
  for (T& item : *items) {
    Fill(in, &item);
  }
}

template <FieldListed T>
void Fill(ByteReader* in, T* m) {
  std::apply([in](auto&... field) { (Fill(in, &field), ...); }, FieldsOf(*m));
}

// A stats reply at a version in 1..kServerStatsVersion with the rows of
// that version filled: Encode and Decode both skip the newer rows, so a row
// gated differently on the two sides shows as an over-read, trailing bytes
// or a difference.
void Fill(ByteReader* in, ServerStatsReply* m) {
  m->stats_version = 1 + in->ReadU8() % kServerStatsVersion;
  ForEachStatField(*m, [&](const StatRow& row, auto& value) {
    if (row.version <= m->stats_version) {
      Fill(in, &value);
    }
  });
}

// -- Properties ------------------------------------------------------------------

// Round-trips one T filled from the start of the input. The three writers
// must agree too: ByteCounter sizes exactly what ByteWriter writes, and a
// ByteCursor over that many bytes writes the same bytes.
template <typename T>
void RoundTrip(std::span<const uint8_t> input, const char* type_name) {
  ByteReader in(input);
  T m{};
  Fill(&in, &m);

  ByteWriter w;
  m.Encode(&w);
  const std::vector<uint8_t>& wire = w.bytes();
  if constexpr (requires(ByteCounter* counter) { m.Encode(counter); }) {
    ByteCounter counter;
    m.Encode(&counter);
    if (counter.size() != wire.size()) {
      Fail("ByteCounter size differs from the encoding", type_name);
    }
    std::vector<uint8_t> placed(wire.size());
    ByteCursor cursor(placed.data());
    m.Encode(&cursor);
    if (placed != wire) {
      Fail("ByteCursor encoding differs from ByteWriter's", type_name);
    }
  }

  ByteReader r(wire);
  T decoded = T::Decode(&r);
  if (!r.ok()) {
    Fail("decoder over-read its own encoder's output", type_name);
  }
  if (r.remaining() != 0) {
    Fail("decoder left trailing bytes unconsumed", type_name);
  }
  if (!(decoded == m)) {
    Fail("decoded message differs from the encoded one", type_name);
  }
}

// One opcode row's request and reply structs.
template <typename Request, typename Reply>
void RoundTripRow(std::span<const uint8_t> input, const char* request, const char* reply) {
  RoundTrip<Request>(input, request);
  if constexpr (!std::is_void_v<Reply>) {
    RoundTrip<Reply>(input, reply);
  }
}

// Header framing property: a frame built by FrameMessage with a valid type
// and in-range length must pass DecodeHeaderStrict and reproduce its fields.
void RoundTripFrame(std::span<const uint8_t> input) {
  ByteReader r(input);
  MessageType type = static_cast<MessageType>(1 + r.ReadU8() % 4);
  uint16_t code = r.ReadU16();
  uint32_t sequence = r.ReadU32();
  std::vector<uint8_t> payload;
  Fill(&r, &payload);

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

// The fan-out writes event args straight into its batch with
// EventMessage's static Encode; that must equal the EventMessage holding
// the args' bytes.
template <typename Args>
void RoundTripInPlaceEvent(std::span<const uint8_t> input, const char* type_name) {
  ByteReader in(input);
  EventMessage event;
  Fill(&in, &event.type);
  Fill(&in, &event.resource);
  Fill(&in, &event.server_time);
  Args args{};
  Fill(&in, &args);
  event.args = args.Encode();

  ByteWriter in_place;
  EventMessage::Encode(&in_place, event.type, event.resource, event.server_time, args);
  if (in_place.bytes() != event.Encode()) {
    Fail("in-place event encoding differs from EventMessage's", type_name);
  }
}

}  // namespace
}  // namespace aud

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace aud;
  const std::span<const uint8_t> input(data, size);

  RoundTripFrame(input);

#define AUD_FUZZ_ROW(name, value, request, reply, dispatch) \
  RoundTripRow<request, reply>(input, #request, #reply);
  AUD_OPCODES(AUD_FUZZ_ROW)
#undef AUD_FUZZ_ROW

  RoundTrip<SetupRequest>(input, "SetupRequest");
  RoundTrip<SetupReply>(input, "SetupReply");
  RoundTrip<EventMessage>(input, "EventMessage");
  RoundTrip<ErrorMessage>(input, "ErrorMessage");

  // Command args (CommandSpec::args) and event args (EventMessage::args).
  RoundTrip<PlayArgs>(input, "PlayArgs");
  RoundTrip<RecordArgs>(input, "RecordArgs");
  RoundTrip<StringArg>(input, "StringArg");
  RoundTrip<GainArgs>(input, "GainArgs");
  RoundTrip<InputGainArgs>(input, "InputGainArgs");
  RoundTrip<DelayArgs>(input, "DelayArgs");
  RoundTrip<TrainArgs>(input, "TrainArgs");
  RoundTrip<WordListArgs>(input, "WordListArgs");
  RoundTrip<ExceptionListArgs>(input, "ExceptionListArgs");
  RoundTrip<NoteArgs>(input, "NoteArgs");
  RoundTrip<VoiceArgs>(input, "VoiceArgs");
  RoundTrip<CrossbarStateArgs>(input, "CrossbarStateArgs");
  RoundTrip<ValuesArgs>(input, "ValuesArgs");
  RoundTrip<CommandDoneArgs>(input, "CommandDoneArgs");
  RoundTrip<QueuePausedArgs>(input, "QueuePausedArgs");
  RoundTrip<TelephoneRingArgs>(input, "TelephoneRingArgs");
  RoundTrip<CallProgressArgs>(input, "CallProgressArgs");
  RoundTrip<DtmfReceivedArgs>(input, "DtmfReceivedArgs");
  RoundTrip<RecorderStoppedArgs>(input, "RecorderStoppedArgs");
  RoundTrip<RecognitionArgs>(input, "RecognitionArgs");
  RoundTrip<SyncMarkArgs>(input, "SyncMarkArgs");
  RoundTrip<PropertyNotifyArgs>(input, "PropertyNotifyArgs");
  RoundTrip<MapRequestArgs>(input, "MapRequestArgs");

  RoundTripInPlaceEvent<CommandDoneArgs>(input, "CommandDoneArgs");
  RoundTripInPlaceEvent<SyncMarkArgs>(input, "SyncMarkArgs");
  return 0;
}
