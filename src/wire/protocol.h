// The audio protocol: wire-level vocabulary shared by client (Alib) and
// server. Mirrors section 5 of the paper: connections, virtual devices,
// LOUDs, wires, sounds, command queues, events, properties, and audio-
// manager support (redirection, ambient domains).
//
// Message framing (after connection setup): every message starts with a
// 12-byte header (all little-endian):
//
//   u8  type       (MessageType)
//   u8  pad
//   u16 code       (request opcode / event type / error code)
//   u32 length     (payload bytes following the header)
//   u32 sequence   (requests: client-assigned, monotonically increasing;
//                   replies/errors: sequence of the causing request;
//                   events: sequence of the last request processed)
//
// Requests are asynchronous (section 4.1): the server never acknowledges a
// successful request unless it has a reply; errors arrive asynchronously
// tagged with the failing request's sequence number.

#ifndef SRC_WIRE_PROTOCOL_H_
#define SRC_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string_view>

#include "src/common/ids.h"

namespace aud {

// Protocol revision implemented by this tree. Minor 1 added server
// introspection (GetServerStats / GetServerTrace); minor 2 added request
// tracing and per-entity statistics (GetRequestTrace / GetEntityStats).
inline constexpr uint16_t kProtocolMajor = 1;
inline constexpr uint16_t kProtocolMinor = 2;

// Connection-setup magic ("AUDP").
inline constexpr uint32_t kSetupMagic = 0x41554450u;

// Wire message kinds.
enum class MessageType : uint8_t {
  kRequest = 1,
  kReply = 2,
  kEvent = 3,
  kError = 4,
};

// Fixed header size in bytes.
inline constexpr size_t kHeaderSize = 12;

// Hard cap on a single message payload; protects the server from a
// malformed length field.
inline constexpr uint32_t kMaxPayload = 16u << 20;

// Connection-setup opcode: the code carried by the first framed message in
// each direction (SetupRequest / SetupReply payloads).
inline constexpr uint16_t kSetupOpcode = 0xFFFF;

// The opcode table: every request opcode, declared once. The Opcode enum,
// OpcodeName, each opcode's dispatch class, the request and reply types the
// dispatcher and Alib's Send/Call use (OpcodeRow in messages.h) and the
// fuzzers' request routing are all generated from its rows; audlint checks
// the PROTOCOL.md opcode index against them.
//
// Rows are in value order and values are dense from 0 (static_assert
// below). Columns of X(name, value, request, reply, dispatch):
//   name      the enumerator without its `k`, and OpcodeName's text.
//   value     the wire opcode.
//   request   the payload struct (messages.h); NoPayload when empty.
//   reply     the reply struct, or void when the request has none.
//   dispatch  how the request runs beside the engine's tick fan-out (DESIGN.md
//             decision 12), with the state lock held in every class:
//     kDrain  structural mutation (registry create/destroy, wiring, the active
//             stack, sound data a recorder may be writing). The dispatcher
//             waits for the engine to go idle before the request's first
//             registry lookup: the wait releases the state lock, so a pointer
//             resolved earlier could dangle by the time it returns.
//     kShard  engine-plane requests against one root LOUD (queues, events,
//             sync marks, properties): they take that root's engine shard
//             lock and never wait for the whole epoch.
//     kState  pure reads of structure the fan-out never mutates (queries,
//             catalogue listing, stats, trace, redirect).
// clang-format off
#define AUD_OPCODES(X)                                                                 \
  X(NoOp, 0, NoPayload, void, kState)                                                  \
  /* LOUD tree construction (section 5.1). */                                          \
  X(CreateLoud, 1, CreateLoudReq, void, kDrain)                                        \
  X(DestroyLoud, 2, ResourceReq, void, kDrain)                                         \
  X(CreateVirtualDevice, 3, CreateVirtualDeviceReq, void, kDrain)                      \
  X(DestroyVirtualDevice, 4, ResourceReq, void, kDrain)                                \
  /* Tighten attributes post-map (section 5.3). */                                     \
  X(AugmentVirtualDevice, 5, AugmentVirtualDeviceReq, void, kDrain)                    \
  X(QueryVirtualDevice, 6, ResourceReq, VirtualDeviceReply, kState)                    \
  /* Wires (section 5.2). */                                                           \
  X(CreateWire, 7, CreateWireReq, void, kDrain)                                        \
  X(DestroyWire, 8, ResourceReq, void, kDrain)                                         \
  X(QueryWires, 9, ResourceReq, WiresReply, kState)                                    \
  /* Mapping and the active stack (sections 5.3, 5.4). */                              \
  X(MapLoud, 10, MapLoudReq, void, kDrain)                                             \
  X(UnmapLoud, 11, ResourceReq, void, kDrain)                                          \
  X(RaiseLoud, 12, MapLoudReq, void, kDrain)                                           \
  X(LowerLoud, 13, MapLoudReq, void, kDrain)                                           \
  /* Sounds (section 5.6). ReadSoundData drains rather than taking a shard: */         \
  /* an active recorder writes into the sound from the fan-out, and its LOUD */        \
  /* need not be the one the request names. */                                         \
  X(CreateSound, 14, CreateSoundReq, void, kDrain)                                     \
  X(DestroySound, 15, ResourceReq, void, kDrain)                                       \
  X(WriteSoundData, 16, WriteSoundDataReq, void, kDrain)                               \
  X(ReadSoundData, 17, ReadSoundDataReq, SoundDataReply, kDrain)                       \
  X(QuerySound, 18, ResourceReq, SoundInfoReply, kDrain)                               \
  /* Bind a server-side catalogue entry to an id. */                                   \
  X(LoadCatalogueSound, 19, NamedSoundReq, void, kDrain)                               \
  X(ListCatalogue, 20, NoPayload, CatalogueReply, kState)                              \
  /* Store a sound into the server catalogue. */                                       \
  X(SaveCatalogueSound, 21, NamedSoundReq, void, kDrain)                               \
  /* Command queues (section 5.5); PauseQueue is the client-paused state. */           \
  X(EnqueueCommands, 22, EnqueueCommandsReq, void, kShard)                             \
  X(ImmediateCommand, 23, ImmediateCommandReq, void, kShard)                           \
  X(StartQueue, 24, ResourceReq, void, kShard)                                         \
  X(StopQueue, 25, ResourceReq, void, kShard)                                          \
  X(PauseQueue, 26, ResourceReq, void, kShard)                                         \
  X(ResumeQueue, 27, ResourceReq, void, kShard)                                        \
  X(FlushQueue, 28, ResourceReq, void, kShard)                                         \
  X(QueryQueue, 29, ResourceReq, QueueStateReply, kShard)                              \
  /* Events (section 5.7); SetSyncMarks asks for periodic sync events. */              \
  X(SelectEvents, 30, SelectEventsReq, void, kShard)                                   \
  X(SetSyncMarks, 31, SetSyncMarksReq, void, kShard)                                   \
  /* Properties and audio-manager support (section 5.8). */                            \
  X(ChangeProperty, 32, ChangePropertyReq, void, kShard)                               \
  X(DeleteProperty, 33, NamedPropertyReq, void, kShard)                                \
  X(GetProperty, 34, NamedPropertyReq, PropertyReply, kState)                          \
  X(ListProperties, 35, ResourceReq, PropertyListReply, kState)                        \
  /* The audio manager claims map/restack redirection. */                              \
  X(SetRedirect, 36, SetRedirectReq, void, kState)                                     \
  /* Introspection; Sync is a round-trip no-op. */                                     \
  X(QueryDeviceLoud, 37, NoPayload, DeviceLoudReply, kState)                           \
  X(QueryActiveStack, 38, NoPayload, ActiveStackReply, kState)                         \
  X(GetServerTime, 39, NoPayload, ServerTimeReply, kState)                             \
  X(Sync, 40, NoPayload, ServerTimeReply, kState)                                      \
  X(QueryLoud, 41, ResourceReq, LoudStateReply, kState)                                \
  /* Observability: the server is "just another client" of its own */                  \
  /* statistics, the way X exposes server internals in-protocol. */                    \
  X(GetServerStats, 42, GetServerStatsReq, ServerStatsReply, kState)                   \
  X(GetServerTrace, 43, GetServerTraceReq, ServerTraceReply, kState)                   \
  /* Request tracing and per-entity statistics (protocol minor 2). */                  \
  X(GetRequestTrace, 44, GetRequestTraceReq, RequestTraceReply, kState)                \
  X(GetEntityStats, 45, GetEntityStatsReq, EntityStatsReply, kState)
// clang-format on

// Request opcodes.
enum class Opcode : uint16_t {
#define AUD_OPCODE_ENUMERATOR(name, value, ...) k##name = value,
  AUD_OPCODES(AUD_OPCODE_ENUMERATOR)
#undef AUD_OPCODE_ENUMERATOR
  kOpcodeCount,
};

// The per-opcode tables below index by value.
inline constexpr bool OpcodeValuesAreDense() {
  uint16_t next = 0;
#define AUD_OPCODE_CHECK_DENSE(name, ...) \
  if (static_cast<uint16_t>(Opcode::k##name) != next++) return false;
  AUD_OPCODES(AUD_OPCODE_CHECK_DENSE)
#undef AUD_OPCODE_CHECK_DENSE
  return next == static_cast<uint16_t>(Opcode::kOpcodeCount);
}
static_assert(OpcodeValuesAreDense(), "AUD_OPCODES values must be 0, 1, 2, ... in row order");

// Human-readable opcode name ("CreateLoud", "GetServerStats", ...), for
// stats output and logs.
std::string_view OpcodeName(Opcode opcode);

// How a request runs beside the tick fan-out: the table's dispatch column.
enum class DispatchClass : uint8_t { kDrain, kShard, kState };

inline constexpr DispatchClass OpcodeDispatchClass(Opcode opcode) {
  constexpr DispatchClass kClasses[] = {
#define AUD_OPCODE_CLASS(name, value, request, reply, dispatch) DispatchClass::dispatch,
      AUD_OPCODES(AUD_OPCODE_CLASS)
#undef AUD_OPCODE_CLASS
  };
  return kClasses[static_cast<size_t>(opcode)];
}

// Virtual-device classes (section 5.1).
enum class DeviceClass : uint8_t {
  kInput = 0,             // Microphones and friends; ChangeGain.
  kOutput = 1,            // Speakers, headphones; ChangeGain.
  kPlayer = 2,            // Sound data -> output port.
  kRecorder = 3,          // Input port -> sound data.
  kTelephone = 4,         // Combined input/output; Dial, Answer, SendDTMF...
  kMixer = 5,             // N inputs -> combined outputs; SetGain per input.
  kSpeechSynthesizer = 6, // SpeakText and vocal-tract controls.
  kSpeechRecognizer = 7,  // Train/SetVocabulary; recognition events.
  kMusicSynthesizer = 8,  // Note-based audio.
  kCrossbar = 9,          // Input->output routing switch; SetState.
  kDsp = 10,              // Software stream manipulation.
};

std::string_view DeviceClassName(DeviceClass cls);

// Device commands, issued in queued or immediate mode (section 5.1).
enum class DeviceCommand : uint16_t {
  // Generic.
  kStop = 0,
  kPause = 1,
  kResume = 2,
  kChangeGain = 3,       // arg: i32 gain (centi-percent)

  // Player.
  kPlay = 4,             // arg: u32 sound id [, i64 start, i64 end sample]

  // Recorder.
  kRecord = 5,           // arg: u32 sound id, u8 termination flags, u32 max ms

  // Telephone.
  kDial = 6,             // arg: string number
  kAnswer = 7,
  kHangUp = 8,
  kSendDtmf = 9,         // arg: string digits

  // Mixer.
  kSetInputGain = 10,    // arg: u16 input index, i32 gain

  // Speech synthesizer.
  kSpeakText = 11,       // arg: string text
  kSetTextLanguage = 12, // arg: string language tag
  kSetValues = 13,       // arg: attr list of vocal-tract parameters
  kSetExceptionList = 14,// arg: repeated (word, pronunciation)

  // Speech recognizer.
  kTrain = 15,           // arg: string word, u32 sound id (template audio)
  kSetVocabulary = 16,   // arg: repeated string words
  kAdjustContext = 17,   // arg: repeated string active words
  kSaveVocabulary = 18,  // arg: string catalogue name

  // Music synthesizer.
  kNote = 19,            // arg: u8 midi note, u8 velocity, u32 duration ms
  kSetVoice = 20,        // arg: u8 waveform, ADSR params
  kSetState = 21,        // Crossbar routing matrix: repeated (in, out, on)

  // Queue-only synchronization pseudo-commands (section 5.5). These target
  // no device (device id = kNoResource).
  kCoBegin = 100,
  kCoEnd = 101,
  kDelay = 102,          // arg: u32 milliseconds
  kDelayEnd = 103,
};

std::string_view DeviceCommandName(DeviceCommand cmd);

// True for CoBegin/CoEnd/Delay/DelayEnd.
inline constexpr bool IsQueuePseudoCommand(DeviceCommand cmd) {
  return static_cast<uint16_t>(cmd) >= 100;
}

// Commands that must be synchronized with others and therefore may be
// issued only in queued mode (section 5.1: "Some device commands, such as
// Play or Record ... can be issued only in queued mode").
inline constexpr bool IsQueuedOnlyCommand(DeviceCommand cmd) {
  switch (cmd) {
    case DeviceCommand::kPlay:
    case DeviceCommand::kRecord:
    case DeviceCommand::kDial:
    case DeviceCommand::kAnswer:
    case DeviceCommand::kSendDtmf:
    case DeviceCommand::kSpeakText:
    case DeviceCommand::kNote:
      return true;
    default:
      return IsQueuePseudoCommand(cmd);
  }
}

// Event types (section 5.7: command queue, device and synchronization
// categories).
enum class EventType : uint16_t {
  // Command-queue events.
  kQueueStarted = 0,
  kQueueStopped = 1,
  kQueuePaused = 2,       // arg: u8 reason (0 client, 1 server)
  kQueueResumed = 3,
  kCommandDone = 4,       // arg: u32 command tag, u16 command code, u8 aborted

  // LOUD lifecycle.
  kMapNotify = 5,
  kUnmapNotify = 6,
  kActivateNotify = 7,
  kDeactivateNotify = 8,

  // Audio-manager redirection (section 5.8).
  kMapRequest = 9,        // Sent to the redirect holder instead of mapping.
  kRestackRequest = 10,

  // Telephone device events.
  kTelephoneRing = 11,    // arg: string caller id (may be empty), u32 line
  kTelephoneAnswered = 12,
  kTelephoneDialDone = 13,// arg: u8 call state at completion
  kCallProgress = 14,     // arg: u8 CallState
  kDtmfReceived = 15,     // arg: u8 digit character

  // Recorder device events.
  kRecorderStarted = 16,
  kRecorderStopped = 17,  // arg: u8 reason, u64 samples recorded

  // Recognizer events.
  kRecognition = 18,      // arg: string word, u32 score (0..10000)

  // Synchronization events (section 5.7, the Soundviewer driver).
  kSyncMark = 19,         // arg: u64 position samples, i64 device time, u32 total

  // Properties.
  kPropertyNotify = 20,   // arg: string name, u8 deleted

  kEventTypeCount = 21,
};

std::string_view EventTypeName(EventType type);

// Event-selection mask bits (SelectEvents).
enum EventMask : uint32_t {
  kQueueEvents = 1u << 0,
  kLifecycleEvents = 1u << 1,
  kTelephoneEvents = 1u << 2,
  kRecorderEvents = 1u << 3,
  kRecognitionEvents = 1u << 4,
  kSyncEvents = 1u << 5,
  kPropertyEvents = 1u << 6,
  kRedirectEvents = 1u << 7,  // Audio manager only; granted by SetRedirect.
  kAllEvents = 0xFF,
};

// Telephone call states (CallProgress payload).
enum class CallState : uint8_t {
  kIdle = 0,
  kDialing = 1,
  kRinging = 2,     // Outbound: ringback; inbound: ringing.
  kConnected = 3,
  kBusy = 4,
  kHungUp = 5,      // Far end went on-hook.
  kFailed = 6,      // No such number / reorder.
};

std::string_view CallStateName(CallState state);

// Recorder stop reasons (RecorderStopped payload).
enum class RecordStopReason : uint8_t {
  kStopped = 0,      // Explicit Stop command.
  kPauseDetected = 1,// Termination condition: trailing silence (section 5.9).
  kMaxDuration = 2,
  kSourceEnded = 3,  // e.g. caller hung up.
};

// Queue states (section 5.5).
enum class QueueState : uint8_t {
  kStopped = 0,
  kStarted = 1,
  kClientPaused = 2,
  kServerPaused = 3,
};

std::string_view QueueStateName(QueueState state);

// Record termination condition flags (Record command arg).
enum RecordTermination : uint8_t {
  kTerminateOnStop = 0,
  kTerminateOnPause = 1u << 0,   // stop after trailing silence
  kTerminateOnHangup = 1u << 1,  // stop when the wired source ends
};

}  // namespace aud

#endif  // SRC_WIRE_PROTOCOL_H_
