// Typed protocol messages: the payloads carried behind the 12-byte header.
// Each struct lists its fields once with AUD_FIELDS (fields.h), which
// generates its Encode, Decode and operator==. Decoding never reads out of
// bounds (ByteReader saturates) and callers validate reader.ok() after the
// fact. Coded by hand are only MessageHeader, the version-gated
// ServerStatsReply and EventMessage's in-place static Encode.

#ifndef SRC_WIRE_MESSAGES_H_
#define SRC_WIRE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/byte_io.h"
#include "src/common/ids.h"
#include "src/common/obs.h"
#include "src/common/sample.h"
#include "src/common/status.h"
#include "src/wire/attributes.h"
#include "src/wire/fields.h"
#include "src/wire/protocol.h"
#include "src/wire/server_stats_fields.h"

namespace aud {

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

struct MessageHeader {
  MessageType type = MessageType::kRequest;
  uint16_t code = 0;     // opcode / event type / error code
  uint32_t length = 0;   // payload length
  uint32_t sequence = 0;

  template <typename Writer>
  void Encode(Writer* w) const {
    w->WriteU8(static_cast<uint8_t>(type));
    w->WriteU8(0);
    w->WriteU16(code);
    w->WriteU32(length);
    w->WriteU32(sequence);
  }
  static MessageHeader Decode(ByteReader* r);
};

// Framing-level header validation: decodes exactly one 12-byte header and
// rejects frames no conforming peer produces — truncation, a non-zero
// reserved byte, an unknown message type, or a length past kMaxPayload.
// All failures are ErrorCode::kConnection: past this point the byte stream
// cannot be re-synchronised, so the transport drops the connection.
Result<MessageHeader> DecodeHeaderStrict(std::span<const uint8_t> bytes);

// Request-level opcode check, shared by the dispatcher's pre-switch guard:
// a well-framed request whose opcode this server does not implement is
// ErrorCode::kBadRequest, answered in-protocol rather than by disconnect.
Status ValidateRequestHeader(const MessageHeader& header);

// ---------------------------------------------------------------------------
// Connection setup (exchanged before framed messages)
// ---------------------------------------------------------------------------

struct SetupRequest {
  uint32_t magic = kSetupMagic;
  uint16_t major = kProtocolMajor;
  uint16_t minor = kProtocolMinor;
  std::string client_name;

  AUD_FIELDS(SetupRequest, magic, major, minor, client_name);
};

struct SetupReply {
  uint8_t success = 0;
  uint16_t major = kProtocolMajor;
  uint16_t minor = kProtocolMinor;
  ResourceId id_base = 0;      // First resource id this client may allocate.
  uint32_t id_count = 0;       // Number of ids in the client's block.
  ResourceId device_loud = 0;  // Root of the device LOUD tree (section 5.1).
  std::string server_name;
  std::string reason;          // On failure.

  AUD_FIELDS(SetupReply, success, major, minor, id_base, id_count, device_loud, server_name,
             reason);
};

// ---------------------------------------------------------------------------
// Command specs (EnqueueCommands / ImmediateCommand)
// ---------------------------------------------------------------------------

// One device or queue command. `tag` is a client-chosen cookie echoed in
// the CommandDone event so applications can correlate completions.
struct CommandSpec {
  ResourceId device = kNoResource;  // kNoResource for queue pseudo-commands.
  DeviceCommand command = DeviceCommand::kStop;
  uint32_t tag = 0;
  std::vector<uint8_t> args;

  AUD_FIELDS(CommandSpec, device, command, tag, args);
};

// Typed command-argument payloads. Helpers build/parse CommandSpec::args.

struct PlayArgs {
  ResourceId sound = kNoResource;
  int64_t start_sample = 0;
  int64_t end_sample = -1;  // -1 = to end of sound

  AUD_FIELDS(PlayArgs, sound, start_sample, end_sample);
};

struct RecordArgs {
  ResourceId sound = kNoResource;
  uint8_t termination = kTerminateOnStop;  // RecordTermination flags
  uint32_t max_ms = 0;                     // 0 = unlimited

  AUD_FIELDS(RecordArgs, sound, termination, max_ms);
};

struct StringArg {  // Dial, SendDTMF, SpeakText, SetTextLanguage, SaveVocabulary
  std::string value;

  AUD_FIELDS(StringArg, value);
};

struct GainArgs {  // ChangeGain
  int32_t gain = 10000;

  AUD_FIELDS(GainArgs, gain);
};

struct InputGainArgs {  // Mixer SetGain (per-input percentage, section 5.1)
  uint16_t input = 0;
  int32_t gain = 10000;

  AUD_FIELDS(InputGainArgs, input, gain);
};

struct DelayArgs {  // Queue Delay pseudo-command
  uint32_t milliseconds = 0;

  AUD_FIELDS(DelayArgs, milliseconds);
};

struct TrainArgs {  // Recognizer Train: associate a word with template audio
  std::string word;
  ResourceId sound = kNoResource;

  AUD_FIELDS(TrainArgs, word, sound);
};

struct WordListArgs {  // SetVocabulary / AdjustContext
  std::vector<std::string> words;

  AUD_FIELDS(WordListArgs, words);
};

struct ExceptionListArgs {  // Synthesizer SetExceptionList
  std::vector<std::pair<std::string, std::string>> entries;  // word -> phonemes

  AUD_FIELDS(ExceptionListArgs, entries);
};

struct NoteArgs {  // Music synthesizer Note
  uint8_t midi_note = 60;
  uint8_t velocity = 100;
  uint32_t duration_ms = 250;

  AUD_FIELDS(NoteArgs, midi_note, velocity, duration_ms);
};

struct VoiceArgs {  // Music synthesizer SetVoice
  uint8_t waveform = 0;  // 0 sine, 1 square, 2 saw, 3 triangle
  uint16_t attack_ms = 10;
  uint16_t decay_ms = 50;
  uint16_t sustain_centi = 7000;  // sustain level, centi-percent
  uint16_t release_ms = 100;

  AUD_FIELDS(VoiceArgs, waveform, attack_ms, decay_ms, sustain_centi, release_ms);
};

struct CrossbarStateArgs {  // Crossbar SetState: routing matrix entries
  struct Route {
    uint16_t input = 0;
    uint16_t output = 0;
    uint8_t enabled = 1;

    AUD_FIELDS(Route, input, output, enabled);
  };
  std::vector<Route> routes;

  AUD_FIELDS(CrossbarStateArgs, routes);
};

struct ValuesArgs {  // Synthesizer SetValues: vocal-tract parameters
  AttrList values;

  AUD_FIELDS(ValuesArgs, values);
};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

struct CreateLoudReq {
  ResourceId id = kNoResource;
  ResourceId parent = kNoResource;  // kNoResource = root LOUD
  AttrList attrs;

  AUD_FIELDS(CreateLoudReq, id, parent, attrs);
};

struct ResourceReq {  // Destroy*/Unmap/queue-control/etc: a single id.
  ResourceId id = kNoResource;

  AUD_FIELDS(ResourceReq, id);
};

struct CreateVirtualDeviceReq {
  ResourceId id = kNoResource;
  ResourceId loud = kNoResource;
  DeviceClass device_class = DeviceClass::kOutput;
  AttrList attrs;

  AUD_FIELDS(CreateVirtualDeviceReq, id, loud, device_class, attrs);
};

struct AugmentVirtualDeviceReq {
  ResourceId id = kNoResource;
  AttrList attrs;

  AUD_FIELDS(AugmentVirtualDeviceReq, id, attrs);
};

struct CreateWireReq {
  ResourceId id = kNoResource;
  ResourceId src_device = kNoResource;
  uint16_t src_port = 0;
  ResourceId dst_device = kNoResource;
  uint16_t dst_port = 0;
  uint8_t has_format = 0;  // Constrain the wire type (section 5.2).
  AudioFormat format;

  AUD_FIELDS(CreateWireReq, id, src_device, src_port, dst_device, dst_port, has_format, format);
};

struct MapLoudReq {
  ResourceId loud = kNoResource;
  uint8_t override_redirect = 0;  // Audio manager bypasses redirection.

  AUD_FIELDS(MapLoudReq, loud, override_redirect);
};

struct CreateSoundReq {
  ResourceId id = kNoResource;
  AudioFormat format;

  AUD_FIELDS(CreateSoundReq, id, format);
};

struct WriteSoundDataReq {
  ResourceId id = kNoResource;
  uint64_t offset = 0;  // byte offset
  std::vector<uint8_t> data;

  AUD_FIELDS(WriteSoundDataReq, id, offset, data);
};

struct ReadSoundDataReq {
  ResourceId id = kNoResource;
  uint64_t offset = 0;
  uint32_t length = 0;

  AUD_FIELDS(ReadSoundDataReq, id, offset, length);
};

struct NamedSoundReq {  // LoadCatalogueSound / SaveCatalogueSound
  ResourceId id = kNoResource;
  std::string name;

  AUD_FIELDS(NamedSoundReq, id, name);
};

struct EnqueueCommandsReq {
  ResourceId loud = kNoResource;
  std::vector<CommandSpec> commands;

  AUD_FIELDS(EnqueueCommandsReq, loud, commands);
};

struct ImmediateCommandReq {
  ResourceId loud = kNoResource;
  CommandSpec command;

  AUD_FIELDS(ImmediateCommandReq, loud, command);
};

struct SelectEventsReq {
  ResourceId resource = kNoResource;  // LOUD or device-LOUD entry to watch.
  uint32_t mask = 0;

  AUD_FIELDS(SelectEventsReq, resource, mask);
};

struct SetSyncMarksReq {
  ResourceId loud = kNoResource;
  uint32_t interval_ms = 0;  // 0 disables sync marks.

  AUD_FIELDS(SetSyncMarksReq, loud, interval_ms);
};

struct ChangePropertyReq {
  ResourceId resource = kNoResource;
  std::string name;
  std::string type;  // (name, value, type) triple, section 5.8.
  std::vector<uint8_t> value;

  AUD_FIELDS(ChangePropertyReq, resource, name, type, value);
};

struct NamedPropertyReq {  // GetProperty / DeleteProperty
  ResourceId resource = kNoResource;
  std::string name;

  AUD_FIELDS(NamedPropertyReq, resource, name);
};

struct SetRedirectReq {
  uint8_t enable = 1;

  AUD_FIELDS(SetRedirectReq, enable);
};

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

struct VirtualDeviceReply {
  ResourceId id = kNoResource;
  DeviceClass device_class = DeviceClass::kOutput;
  uint8_t mapped = 0;
  uint8_t active = 0;
  ResourceId bound_device = kNoResource;  // Device-LOUD id once mapped (5.3).
  AttrList attrs;

  AUD_FIELDS(VirtualDeviceReply, id, device_class, mapped, active, bound_device, attrs);
};

struct WireInfo {
  ResourceId id = kNoResource;
  ResourceId src_device = kNoResource;
  uint16_t src_port = 0;
  ResourceId dst_device = kNoResource;
  uint16_t dst_port = 0;
  AudioFormat format;

  AUD_FIELDS(WireInfo, id, src_device, src_port, dst_device, dst_port, format);
};

struct WiresReply {
  std::vector<WireInfo> wires;

  AUD_FIELDS(WiresReply, wires);
};

struct SoundDataReply {
  ResourceId id = kNoResource;
  uint64_t offset = 0;
  std::vector<uint8_t> data;

  AUD_FIELDS(SoundDataReply, id, offset, data);
};

struct SoundInfoReply {
  ResourceId id = kNoResource;
  AudioFormat format;
  uint64_t size_bytes = 0;
  uint64_t samples = 0;

  AUD_FIELDS(SoundInfoReply, id, format, size_bytes, samples);
};

struct CatalogueEntry {
  std::string name;
  AudioFormat format;
  uint64_t size_bytes = 0;

  AUD_FIELDS(CatalogueEntry, name, format, size_bytes);
};

struct CatalogueReply {
  std::vector<CatalogueEntry> entries;

  AUD_FIELDS(CatalogueReply, entries);
};

struct QueueStateReply {
  ResourceId loud = kNoResource;
  QueueState state = QueueState::kStopped;
  uint32_t depth = 0;        // Commands waiting (including current).
  uint32_t current_tag = 0;  // Tag of the in-flight command, 0 if none.

  AUD_FIELDS(QueueStateReply, loud, state, depth, current_tag);
};

struct PropertyReply {
  ResourceId resource = kNoResource;
  uint8_t found = 0;
  std::string name;
  std::string type;
  std::vector<uint8_t> value;

  AUD_FIELDS(PropertyReply, resource, found, name, type, value);
};

struct PropertyListReply {
  std::vector<std::string> names;

  AUD_FIELDS(PropertyListReply, names);
};

struct DeviceInfo {  // One entry in the device LOUD tree.
  ResourceId id = kNoResource;
  ResourceId parent = kNoResource;
  DeviceClass device_class = DeviceClass::kOutput;
  AttrList attrs;

  AUD_FIELDS(DeviceInfo, id, parent, device_class, attrs);
};

struct DeviceLoudReply {
  ResourceId root = kNoResource;
  std::vector<DeviceInfo> devices;
  std::vector<WireInfo> hard_wires;  // Permanent physical connections (5.2).

  AUD_FIELDS(DeviceLoudReply, root, devices, hard_wires);
};

struct ActiveStackEntry {
  ResourceId loud = kNoResource;
  uint8_t active = 0;

  AUD_FIELDS(ActiveStackEntry, loud, active);
};

struct ActiveStackReply {
  std::vector<ActiveStackEntry> entries;  // Top of stack first.

  AUD_FIELDS(ActiveStackReply, entries);
};

struct ServerTimeReply {
  int64_t server_time = 0;  // Ticks on the server clock.

  AUD_FIELDS(ServerTimeReply, server_time);
};

struct LoudStateReply {
  ResourceId loud = kNoResource;
  ResourceId parent = kNoResource;
  uint8_t mapped = 0;
  uint8_t active = 0;
  uint32_t children = 0;
  uint32_t devices = 0;

  AUD_FIELDS(LoudStateReply, loud, parent, mapped, active, children, devices);
};

// -- Server statistics (GetServerStats) --------------------------------------------
//
// Versioning rule (docs/PROTOCOL.md): the reply opens with `stats_version`;
// new fields are only ever appended and bump the version. Encode writes and
// Decode reads the fields of rows up to `stats_version`, so an old client
// decodes the prefix it knows and skips the rest, and a new client talking
// to an old server zero-fills the fields past the server's version. The
// fields themselves are the rows of src/wire/server_stats_fields.h.

// Per-opcode dispatch accounting. Only opcodes with count > 0 are sent.
struct OpcodeStats {
  uint16_t opcode = 0;
  uint64_t count = 0;     // requests dispatched
  uint64_t errors = 0;    // asynchronous errors sent
  uint64_t total_us = 0;  // cumulative dispatch time

  AUD_FIELDS(OpcodeStats, opcode, count, errors, total_us);
};

struct GetServerStatsReq {
  uint8_t include_opcodes = 1;  // 0 suppresses the per-opcode table.

  AUD_FIELDS(GetServerStatsReq, include_opcodes);
};

struct ServerStatsReply {
  uint32_t stats_version = kServerStatsVersion;
#define AUD_STATS_MEMBER(name, type, ...) type name{};
  AUD_SERVER_STATS_FIELDS(AUD_STATS_MEMBER)
#undef AUD_STATS_MEMBER

  void Encode(ByteWriter* w) const;
  static ServerStatsReply Decode(ByteReader* r);
  bool operator==(const ServerStatsReply&) const = default;
};

// -- Server trace (GetServerTrace) --------------------------------------------------

struct GetServerTraceReq {
  uint32_t max_events = 0;  // 0 = server default (one TraceRing's capacity)

  AUD_FIELDS(GetServerTraceReq, max_events);
};

struct TraceEventWire {
  int64_t t_us = 0;    // microseconds on the server trace clock
  uint64_t seq = 0;    // global ordering stamp
  uint32_t tid = 0;    // dense thread id
  uint16_t reason = 0; // obs::TraceReason
  uint32_t arg0 = 0;
  uint32_t arg1 = 0;
  // Span fields (protocol minor 2, appended): zero for point events.
  uint64_t trace = 0;   // request correlation id
  uint64_t parent = 0;  // seq of the parent span, 0 = root
  uint32_t dur_us = 0;  // span duration

  AUD_FIELDS(TraceEventWire, t_us, seq, tid, reason, arg0, arg1, trace, parent, dur_us);
};

struct ServerTraceReply {
  std::vector<TraceEventWire> events;  // oldest first

  AUD_FIELDS(ServerTraceReply, events);
};

// -- Request trace (GetRequestTrace, protocol minor 2) ------------------------------

inline constexpr uint32_t kRequestTraceVersion = 1;

struct GetRequestTraceReq {
  uint64_t trace_id = 0;   // 0 = most recently sampled request
  uint32_t max_spans = 0;  // 0 = server default

  AUD_FIELDS(GetRequestTraceReq, trace_id, max_spans);
};

struct RequestTraceReply {
  uint32_t trace_version = kRequestTraceVersion;
  uint64_t trace_id = 0;                // resolved id (useful when asked for 0)
  std::vector<TraceEventWire> spans;    // timestamp order, root first on ties

  AUD_FIELDS(RequestTraceReply, trace_version, trace_id, spans);
};

// -- Per-entity statistics (GetEntityStats, protocol minor 2) -----------------------

inline constexpr uint32_t kEntityStatsVersion = 1;

struct GetEntityStatsReq {
  uint8_t include_devices = 1;  // 0 suppresses the per-root device table

  AUD_FIELDS(GetEntityStatsReq, include_devices);
};

struct ConnectionStatsWire {
  uint32_t index = 0;        // connection slot (trace ids embed this)
  std::string name;          // client-reported name from setup
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t events_sent = 0;
  uint64_t events_dropped = 0;
  obs::HistogramSnapshot dispatch_us;

  AUD_FIELDS(ConnectionStatsWire, index, name, requests, errors, bytes_in, bytes_out, events_sent,
             events_dropped, dispatch_us);
};

struct DeviceStatsWire {
  ResourceId root = kNoResource;  // root LOUD owning the counters
  uint32_t owner = 0;             // owning connection index (0xFFFFFFFF = server)
  uint8_t active = 0;
  uint64_t frames_produced = 0;   // device frames fed into the mix
  uint64_t frames_consumed = 0;   // device frames drained from the mix

  AUD_FIELDS(DeviceStatsWire, root, owner, active, frames_produced, frames_consumed);
};

struct EntityStatsReply {
  uint32_t entity_version = kEntityStatsVersion;
  std::vector<ConnectionStatsWire> connections;
  std::vector<DeviceStatsWire> devices;

  AUD_FIELDS(EntityStatsReply, entity_version, connections, devices);
};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

// Typed event args whose templated Encode writes through any byte writer
// (ByteWriter, ByteCursor, ByteCounter).
template <typename Args>
concept WriterEncodable = requires(const Args& args, ByteCounter* w) { args.Encode(w); };

// Generic wire event: type + the resource it concerns + typed args.
struct EventMessage {
  EventType type = EventType::kQueueStarted;
  ResourceId resource = kNoResource;  // Usually the root LOUD or device id.
  int64_t server_time = 0;
  std::vector<uint8_t> args;

  AUD_FIELDS(EventMessage, type, resource, server_time, args);

  // The same wire form from the fields, for encoders that hold no
  // EventMessage (the server's per-connection event batches). `args` is
  // either encoded bytes or a WriterEncodable struct, which is then
  // written straight into the message.
  template <typename Writer, typename Args>
  static void Encode(Writer* w, EventType type, ResourceId resource, int64_t server_time,
                     const Args& args) {
    w->WriteU16(static_cast<uint16_t>(type));
    w->WriteU32(resource);
    w->WriteI64(server_time);
    if constexpr (WriterEncodable<Args>) {
      ByteCounter size;
      args.Encode(&size);
      w->WriteU32(static_cast<uint32_t>(size.size()));
      args.Encode(w);
    } else {
      w->WriteBlob(std::span<const uint8_t>(args));
    }
  }
};

// Typed event-argument payloads.

struct CommandDoneArgs {
  uint32_t tag = 0;
  uint16_t command = 0;  // DeviceCommand
  uint8_t aborted = 0;

  AUD_FIELDS(CommandDoneArgs, tag, command, aborted);
};

struct QueuePausedArgs {
  uint8_t server_paused = 0;  // 1 = server-paused (deactivation), 0 = client.

  AUD_FIELDS(QueuePausedArgs, server_paused);
};

struct TelephoneRingArgs {
  std::string caller_id;  // Empty when unavailable (attribute-dependent).
  uint32_t line = 0;

  AUD_FIELDS(TelephoneRingArgs, caller_id, line);
};

struct CallProgressArgs {
  CallState state = CallState::kIdle;

  AUD_FIELDS(CallProgressArgs, state);
};

struct DtmfReceivedArgs {
  char digit = '0';

  AUD_FIELDS(DtmfReceivedArgs, digit);
};

struct RecorderStoppedArgs {
  uint8_t reason = 0;  // RecordStopReason
  uint64_t samples = 0;

  AUD_FIELDS(RecorderStoppedArgs, reason, samples);
};

struct RecognitionArgs {
  std::string word;
  uint32_t score = 0;  // 0..10000, larger is more confident.

  AUD_FIELDS(RecognitionArgs, word, score);
};

struct SyncMarkArgs {
  uint64_t position_samples = 0;
  int64_t device_time = 0;  // Time on the *device* clock (footnote 8).
  uint64_t total_samples = 0;

  AUD_FIELDS(SyncMarkArgs, position_samples, device_time, total_samples);
};

struct PropertyNotifyArgs {
  std::string name;
  uint8_t deleted = 0;

  AUD_FIELDS(PropertyNotifyArgs, name, deleted);
};

struct MapRequestArgs {  // Redirected map/restack (section 5.8).
  ResourceId loud = kNoResource;
  uint8_t raise = 0;  // For RestackRequest: 1 = raise, 0 = lower.

  AUD_FIELDS(MapRequestArgs, loud, raise);
};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

struct ErrorMessage {
  ErrorCode code = ErrorCode::kOk;
  ResourceId resource = kNoResource;
  uint16_t opcode = 0;  // The failing request's opcode.
  std::string detail;

  AUD_FIELDS(ErrorMessage, code, resource, opcode, detail);
};

// ---------------------------------------------------------------------------
// The opcode table's types
// ---------------------------------------------------------------------------

// The request payload of the opcodes that carry none.
struct NoPayload {
  AUD_FIELDS(NoPayload);
};

// One opcode's row of AUD_OPCODES (protocol.h): its request and reply
// types. Reply is void for requests the server answers only on error.
template <Opcode op>
struct OpcodeRow;

#define AUD_OPCODE_ROW(name, value, request, reply, dispatch) \
  template <>                                                  \
  struct OpcodeRow<Opcode::k##name> {                          \
    using Request = request;                                   \
    using Reply = reply;                                       \
  };
AUD_OPCODES(AUD_OPCODE_ROW)
#undef AUD_OPCODE_ROW

template <Opcode op>
using RequestOf = typename OpcodeRow<op>::Request;
template <Opcode op>
using ReplyOf = typename OpcodeRow<op>::Reply;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

// Builds a complete framed message: header + payload.
std::vector<uint8_t> FrameMessage(MessageType type, uint16_t code, uint32_t sequence,
                                  std::span<const uint8_t> payload);

}  // namespace aud

#endif  // SRC_WIRE_MESSAGES_H_
