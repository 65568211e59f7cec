// Wire-decode fuzz harness. The attack surface is every Decode() the server
// or client runs over peer-controlled bytes: DecodeHeaderStrict at the
// framing layer, the per-opcode request payloads the dispatcher decodes, the
// reply/event/error payloads Alib decodes, and the typed command/event arg
// blobs decoded one level further down. ByteReader saturates instead of
// reading out of bounds, so the invariant under test is simply "no decode
// crashes, overflows, or runs away on arbitrary input" — ASan/UBSan (or the
// standalone driver's bounds) supply the oracle.
//
// Input shape: byte 0 selects a decode target, the rest is the payload. A
// zero selector routes the input like a real connection would: strict header
// first, then the payload decoder the header's type+code selects.

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/wire/messages.h"
#include "src/wire/protocol.h"

namespace aud {
namespace {

// Decoded values are consumed through a volatile sink so the decode (and any
// latent bug inside it) cannot be optimised away.
volatile size_t g_sink = 0;

template <typename T>
void DecodeStruct(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  T value = T::Decode(&r);
  g_sink = g_sink + sizeof(value) + (r.ok() ? 1 : 0);
}

template <typename T>
void DecodeArgs(std::span<const uint8_t> bytes) {
  T value = T::Decode(bytes);
  g_sink = g_sink + sizeof(value);
}

void DecodeStrictHeader(std::span<const uint8_t> bytes) {
  Result<MessageHeader> header = DecodeHeaderStrict(bytes);
  g_sink = g_sink + (header.ok() ? header.value().length : 0);
}

// Decodes a request payload as the dispatcher does: with the request
// struct of the opcode's table row. The caller has checked the opcode.
void DecodeRequestPayload(Opcode opcode, std::span<const uint8_t> payload) {
  using Decoder = void (*)(std::span<const uint8_t>);
  static constexpr Decoder kRequestDecoders[] = {
#define AUD_FUZZ_REQUEST(name, value, request, ...) DecodeStruct<request>,
      AUD_OPCODES(AUD_FUZZ_REQUEST)
#undef AUD_FUZZ_REQUEST
  };
  kRequestDecoders[static_cast<size_t>(opcode)](payload);
}

// Decodes event args the way Alib's event demux does: EventMessage first,
// then the typed arg payload its event type names.
void DecodeEventAndArgs(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  EventMessage event = EventMessage::Decode(&r);
  if (!r.ok()) {
    return;
  }
  std::span<const uint8_t> args(event.args);
  switch (event.type) {
    case EventType::kQueueStarted:
    case EventType::kQueueStopped:
    case EventType::kQueueResumed:
    case EventType::kMapNotify:
    case EventType::kUnmapNotify:
    case EventType::kActivateNotify:
    case EventType::kDeactivateNotify:
    case EventType::kTelephoneAnswered:
    case EventType::kRecorderStarted:
    case EventType::kEventTypeCount:
      break;
    case EventType::kQueuePaused:
      DecodeArgs<QueuePausedArgs>(args);
      break;
    case EventType::kCommandDone:
      DecodeArgs<CommandDoneArgs>(args);
      break;
    case EventType::kMapRequest:
    case EventType::kRestackRequest:
      DecodeArgs<MapRequestArgs>(args);
      break;
    case EventType::kTelephoneRing:
      DecodeArgs<TelephoneRingArgs>(args);
      break;
    case EventType::kTelephoneDialDone:
    case EventType::kCallProgress:
      DecodeArgs<CallProgressArgs>(args);
      break;
    case EventType::kDtmfReceived:
      DecodeArgs<DtmfReceivedArgs>(args);
      break;
    case EventType::kRecorderStopped:
      DecodeArgs<RecorderStoppedArgs>(args);
      break;
    case EventType::kRecognition:
      DecodeArgs<RecognitionArgs>(args);
      break;
    case EventType::kSyncMark:
      DecodeArgs<SyncMarkArgs>(args);
      break;
    case EventType::kPropertyNotify:
      DecodeArgs<PropertyNotifyArgs>(args);
      break;
  }
}

// Selector 0: route the input like a live connection — 12 strict-header
// bytes, then the decoder the header selects.
void DecodeRouted(std::span<const uint8_t> bytes) {
  Result<MessageHeader> header = DecodeHeaderStrict(
      bytes.size() >= kHeaderSize ? bytes.first(kHeaderSize) : bytes);
  if (!header.ok()) {
    return;
  }
  std::span<const uint8_t> payload = bytes.subspan(kHeaderSize);
  const MessageHeader& h = header.value();
  switch (h.type) {
    case MessageType::kRequest:
      if (ValidateRequestHeader(h).ok()) {
        DecodeRequestPayload(static_cast<Opcode>(h.code), payload);
      }
      break;
    case MessageType::kReply:
      // The reply payload type depends on the *request* the sequence number
      // matches; stress the structurally richest decoders.
      DecodeStruct<ServerStatsReply>(payload);
      break;
    case MessageType::kEvent:
      DecodeEventAndArgs(payload);
      break;
    case MessageType::kError:
      DecodeStruct<ErrorMessage>(payload);
      break;
  }
}

using Target = void (*)(std::span<const uint8_t>);

// Every peer-facing decoder. Order is append-only so corpus selector bytes
// keep meaning the same target across revisions.
constexpr Target kTargets[] = {
    DecodeRouted,                          // 0
    DecodeStrictHeader,                    // 1
    DecodeStruct<MessageHeader>,           // 2
    DecodeStruct<SetupRequest>,            // 3
    DecodeStruct<SetupReply>,              // 4
    DecodeStruct<CommandSpec>,             // 5
    DecodeStruct<CreateLoudReq>,           // 6
    DecodeStruct<ResourceReq>,             // 7
    DecodeStruct<CreateVirtualDeviceReq>,  // 8
    DecodeStruct<AugmentVirtualDeviceReq>, // 9
    DecodeStruct<CreateWireReq>,           // 10
    DecodeStruct<MapLoudReq>,              // 11
    DecodeStruct<CreateSoundReq>,          // 12
    DecodeStruct<WriteSoundDataReq>,       // 13
    DecodeStruct<ReadSoundDataReq>,        // 14
    DecodeStruct<NamedSoundReq>,           // 15
    DecodeStruct<EnqueueCommandsReq>,      // 16
    DecodeStruct<ImmediateCommandReq>,     // 17
    DecodeStruct<SelectEventsReq>,         // 18
    DecodeStruct<SetSyncMarksReq>,         // 19
    DecodeStruct<ChangePropertyReq>,       // 20
    DecodeStruct<NamedPropertyReq>,        // 21
    DecodeStruct<SetRedirectReq>,          // 22
    DecodeStruct<GetServerStatsReq>,       // 23
    DecodeStruct<GetServerTraceReq>,       // 24
    DecodeStruct<GetRequestTraceReq>,      // 25
    DecodeStruct<GetEntityStatsReq>,       // 26
    DecodeStruct<VirtualDeviceReply>,      // 27
    DecodeStruct<WiresReply>,              // 28
    DecodeStruct<SoundDataReply>,          // 29
    DecodeStruct<SoundInfoReply>,          // 30
    DecodeStruct<CatalogueReply>,          // 31
    DecodeStruct<QueueStateReply>,         // 32
    DecodeStruct<PropertyReply>,           // 33
    DecodeStruct<PropertyListReply>,       // 34
    DecodeStruct<DeviceLoudReply>,         // 35
    DecodeStruct<ActiveStackReply>,        // 36
    DecodeStruct<ServerTimeReply>,         // 37
    DecodeStruct<LoudStateReply>,          // 38
    DecodeStruct<ServerStatsReply>,        // 39
    DecodeStruct<ServerTraceReply>,        // 40
    DecodeStruct<RequestTraceReply>,       // 41
    DecodeStruct<EntityStatsReply>,        // 42
    DecodeStruct<EventMessage>,            // 43
    DecodeStruct<ErrorMessage>,            // 44
    DecodeEventAndArgs,                    // 45
    DecodeArgs<PlayArgs>,                  // 46
    DecodeArgs<RecordArgs>,                // 47
    DecodeArgs<StringArg>,                 // 48
    DecodeArgs<GainArgs>,                  // 49
    DecodeArgs<InputGainArgs>,             // 50
    DecodeArgs<DelayArgs>,                 // 51
    DecodeArgs<TrainArgs>,                 // 52
    DecodeArgs<WordListArgs>,              // 53
    DecodeArgs<ExceptionListArgs>,         // 54
    DecodeArgs<NoteArgs>,                  // 55
    DecodeArgs<VoiceArgs>,                 // 56
    DecodeArgs<CrossbarStateArgs>,         // 57
    DecodeArgs<ValuesArgs>,                // 58
    DecodeArgs<CommandDoneArgs>,           // 59
    DecodeArgs<QueuePausedArgs>,           // 60
    DecodeArgs<TelephoneRingArgs>,         // 61
    DecodeArgs<CallProgressArgs>,          // 62
    DecodeArgs<DtmfReceivedArgs>,          // 63
    DecodeArgs<RecorderStoppedArgs>,       // 64
    DecodeArgs<RecognitionArgs>,           // 65
    DecodeArgs<SyncMarkArgs>,              // 66
    DecodeArgs<PropertyNotifyArgs>,        // 67
    DecodeArgs<MapRequestArgs>,            // 68
};

constexpr size_t kTargetCount = sizeof(kTargets) / sizeof(kTargets[0]);

}  // namespace
}  // namespace aud

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) {
    return 0;
  }
  std::span<const uint8_t> input(data, size);
  aud::kTargets[input[0] % aud::kTargetCount](input.subspan(1));
  return 0;
}
