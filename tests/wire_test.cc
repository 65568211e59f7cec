// Wire-protocol tests: attribute lists, message encode/decode round trips,
// header framing, and malformed-input robustness.

#include <gtest/gtest.h>

#include "src/wire/attributes.h"
#include "src/wire/messages.h"
#include "src/wire/protocol.h"
#include "tests/stats_fill.h"

namespace aud {
namespace {

template <typename T>
T RoundTrip(const T& in) {
  ByteWriter w;
  in.Encode(&w);
  ByteReader r(w.bytes());
  T out = T::Decode(&r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

TEST(AttrListTest, TypedAccessors) {
  AttrList attrs;
  attrs.SetU32(AttrTag::kSampleRate, 8000);
  attrs.SetI32(AttrTag::kDeviceId, -5);
  attrs.SetString(AttrTag::kName, "speaker0");
  attrs.SetBool(AttrTag::kAgc, true);

  EXPECT_EQ(attrs.GetU32(AttrTag::kSampleRate), 8000u);
  EXPECT_EQ(attrs.GetI32(AttrTag::kDeviceId), -5);
  EXPECT_EQ(attrs.GetString(AttrTag::kName), "speaker0");
  EXPECT_TRUE(attrs.GetBool(AttrTag::kAgc));
  EXPECT_FALSE(attrs.GetBool(AttrTag::kCallerId));
  EXPECT_EQ(attrs.GetU32(AttrTag::kPosition), std::nullopt);
}

TEST(AttrListTest, WrongTypeLookupIsNullopt) {
  AttrList attrs;
  attrs.SetString(AttrTag::kName, "x");
  EXPECT_EQ(attrs.GetU32(AttrTag::kName), std::nullopt);
}

TEST(AttrListTest, SetReplacesExisting) {
  AttrList attrs;
  attrs.SetU32(AttrTag::kSampleRate, 8000);
  attrs.SetU32(AttrTag::kSampleRate, 16000);
  EXPECT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs.GetU32(AttrTag::kSampleRate), 16000u);
}

TEST(AttrListTest, MergeOverwrites) {
  AttrList base;
  base.SetU32(AttrTag::kSampleRate, 8000);
  base.SetString(AttrTag::kName, "a");
  AttrList overlay;
  overlay.SetString(AttrTag::kName, "b");
  overlay.SetBool(AttrTag::kAgc, true);
  base.Merge(overlay);
  EXPECT_EQ(base.GetString(AttrTag::kName), "b");
  EXPECT_EQ(base.GetU32(AttrTag::kSampleRate), 8000u);
  EXPECT_TRUE(base.GetBool(AttrTag::kAgc));
}

TEST(AttrListTest, EncodeDecodeRoundTrip) {
  AttrList attrs;
  attrs.SetU32(AttrTag::kClass, 3);
  attrs.SetI32(AttrTag::kDeviceId, 42);
  attrs.SetString(AttrTag::kPhoneNumber, "555-0100");
  ByteWriter w;
  attrs.Encode(&w);
  ByteReader r(w.bytes());
  AttrList out = AttrList::Decode(&r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(out, attrs);
}

TEST(AttrListTest, RemoveErasesTag) {
  AttrList attrs;
  attrs.SetU32(AttrTag::kClass, 1);
  EXPECT_TRUE(attrs.Remove(AttrTag::kClass));
  EXPECT_FALSE(attrs.Remove(AttrTag::kClass));
  EXPECT_TRUE(attrs.empty());
}

TEST(HeaderTest, RoundTripAndSize) {
  MessageHeader h;
  h.type = MessageType::kEvent;
  h.code = 17;
  h.length = 4096;
  h.sequence = 0xAABBCCDD;
  ByteWriter w;
  h.Encode(&w);
  EXPECT_EQ(w.size(), kHeaderSize);
  ByteReader r(w.bytes());
  MessageHeader out = MessageHeader::Decode(&r);
  EXPECT_EQ(out.type, h.type);
  EXPECT_EQ(out.code, h.code);
  EXPECT_EQ(out.length, h.length);
  EXPECT_EQ(out.sequence, h.sequence);
}

TEST(SetupTest, RequestReplyRoundTrip) {
  SetupRequest req;
  req.client_name = "voicemail";
  SetupRequest req2 = RoundTrip(req);
  EXPECT_EQ(req2.magic, kSetupMagic);
  EXPECT_EQ(req2.client_name, "voicemail");

  SetupReply reply;
  reply.success = 1;
  reply.id_base = 0x100000;
  reply.id_count = 1 << 20;
  reply.device_loud = 0xF0000000;
  reply.server_name = "netaudio";
  SetupReply reply2 = RoundTrip(reply);
  EXPECT_EQ(reply2.id_base, reply.id_base);
  EXPECT_EQ(reply2.device_loud, reply.device_loud);
  EXPECT_EQ(reply2.server_name, "netaudio");
}

TEST(CommandSpecTest, RoundTripWithArgs) {
  CommandSpec spec;
  spec.device = 77;
  spec.command = DeviceCommand::kPlay;
  spec.tag = 123;
  spec.args = PlayArgs{55, 100, 2000}.Encode();
  CommandSpec out = RoundTrip(spec);
  EXPECT_EQ(out.device, 77u);
  EXPECT_EQ(out.command, DeviceCommand::kPlay);
  EXPECT_EQ(out.tag, 123u);
  PlayArgs args = PlayArgs::Decode(out.args);
  EXPECT_EQ(args.sound, 55u);
  EXPECT_EQ(args.start_sample, 100);
  EXPECT_EQ(args.end_sample, 2000);
}

TEST(CommandArgsTest, AllArgTypesRoundTrip) {
  {
    RecordArgs in{9, kTerminateOnPause | kTerminateOnHangup, 30000};
    RecordArgs out = RecordArgs::Decode(in.Encode());
    EXPECT_EQ(out.sound, 9u);
    EXPECT_EQ(out.termination, in.termination);
    EXPECT_EQ(out.max_ms, 30000u);
  }
  {
    StringArg out = StringArg::Decode(StringArg{"555-1212"}.Encode());
    EXPECT_EQ(out.value, "555-1212");
  }
  {
    GainArgs out = GainArgs::Decode(GainArgs{-500}.Encode());
    EXPECT_EQ(out.gain, -500);
  }
  {
    InputGainArgs out = InputGainArgs::Decode(InputGainArgs{3, 2500}.Encode());
    EXPECT_EQ(out.input, 3u);
    EXPECT_EQ(out.gain, 2500);
  }
  {
    DelayArgs out = DelayArgs::Decode(DelayArgs{5000}.Encode());
    EXPECT_EQ(out.milliseconds, 5000u);
  }
  {
    TrainArgs out = TrainArgs::Decode(TrainArgs{"yes", 12}.Encode());
    EXPECT_EQ(out.word, "yes");
    EXPECT_EQ(out.sound, 12u);
  }
  {
    WordListArgs in;
    in.words = {"play", "stop", "next"};
    WordListArgs out = WordListArgs::Decode(in.Encode());
    EXPECT_EQ(out.words, in.words);
  }
  {
    ExceptionListArgs in;
    in.entries = {{"Schmandt", "SH M AE N T"}, {"DECstation", "D EH K S T EY SH AH N"}};
    ExceptionListArgs out = ExceptionListArgs::Decode(in.Encode());
    EXPECT_EQ(out.entries, in.entries);
  }
  {
    NoteArgs out = NoteArgs::Decode(NoteArgs{69, 120, 500}.Encode());
    EXPECT_EQ(out.midi_note, 69);
    EXPECT_EQ(out.velocity, 120);
    EXPECT_EQ(out.duration_ms, 500u);
  }
  {
    VoiceArgs in{2, 5, 60, 8000, 300};
    VoiceArgs out = VoiceArgs::Decode(in.Encode());
    EXPECT_EQ(out.waveform, 2);
    EXPECT_EQ(out.sustain_centi, 8000);
    EXPECT_EQ(out.release_ms, 300);
  }
  {
    CrossbarStateArgs in;
    in.routes = {{0, 1, 1}, {1, 0, 0}};
    CrossbarStateArgs out = CrossbarStateArgs::Decode(in.Encode());
    ASSERT_EQ(out.routes.size(), 2u);
    EXPECT_EQ(out.routes[0].input, 0);
    EXPECT_EQ(out.routes[0].output, 1);
    EXPECT_EQ(out.routes[1].enabled, 0);
  }
  {
    ValuesArgs in;
    in.values.SetU32(AttrTag::kPitch, 140);
    ValuesArgs out = ValuesArgs::Decode(in.Encode());
    EXPECT_EQ(out.values.GetU32(AttrTag::kPitch), 140u);
  }
}

TEST(RequestsTest, CreateWireRoundTrip) {
  CreateWireReq req;
  req.id = 1;
  req.src_device = 2;
  req.src_port = 1;
  req.dst_device = 3;
  req.dst_port = 0;
  req.has_format = 1;
  req.format = {Encoding::kAdpcm4, 16000};
  CreateWireReq out = RoundTrip(req);
  EXPECT_EQ(out.src_device, 2u);
  EXPECT_EQ(out.format.encoding, Encoding::kAdpcm4);
  EXPECT_EQ(out.format.sample_rate_hz, 16000u);
}

TEST(RequestsTest, EnqueueCommandsRoundTrip) {
  EnqueueCommandsReq req;
  req.loud = 99;
  CommandSpec co;
  co.command = DeviceCommand::kCoBegin;
  req.commands.push_back(co);
  CommandSpec play;
  play.device = 5;
  play.command = DeviceCommand::kPlay;
  play.args = PlayArgs{7}.Encode();
  req.commands.push_back(play);
  CommandSpec end;
  end.command = DeviceCommand::kCoEnd;
  req.commands.push_back(end);

  EnqueueCommandsReq out = RoundTrip(req);
  ASSERT_EQ(out.commands.size(), 3u);
  EXPECT_EQ(out.commands[0].command, DeviceCommand::kCoBegin);
  EXPECT_EQ(out.commands[1].device, 5u);
}

TEST(RepliesTest, DeviceLoudReplyRoundTrip) {
  DeviceLoudReply reply;
  reply.root = kServerIdBase;
  DeviceInfo dev;
  dev.id = kServerIdBase + 1;
  dev.parent = kServerIdBase;
  dev.device_class = DeviceClass::kTelephone;
  dev.attrs.SetString(AttrTag::kPhoneNumber, "555-0100");
  reply.devices.push_back(dev);
  WireInfo wire;
  wire.id = kServerIdBase + 9;
  reply.hard_wires.push_back(wire);

  DeviceLoudReply out = RoundTrip(reply);
  ASSERT_EQ(out.devices.size(), 1u);
  EXPECT_EQ(out.devices[0].device_class, DeviceClass::kTelephone);
  EXPECT_EQ(out.devices[0].attrs.GetString(AttrTag::kPhoneNumber), "555-0100");
  ASSERT_EQ(out.hard_wires.size(), 1u);
}

TEST(EventsTest, EventMessageRoundTrip) {
  EventMessage event;
  event.type = EventType::kSyncMark;
  event.resource = 12;
  event.server_time = 123456789;
  event.args = SyncMarkArgs{8000, 1000000, 16000}.Encode();
  EventMessage out = RoundTrip(event);
  EXPECT_EQ(out.type, EventType::kSyncMark);
  SyncMarkArgs mark = SyncMarkArgs::Decode(out.args);
  EXPECT_EQ(mark.position_samples, 8000u);
  EXPECT_EQ(mark.total_samples, 16000u);
}

TEST(EventsTest, AllEventArgTypesRoundTrip) {
  {
    CommandDoneArgs out = CommandDoneArgs::Decode(CommandDoneArgs{4, 5, 1}.Encode());
    EXPECT_EQ(out.tag, 4u);
    EXPECT_EQ(out.aborted, 1);
  }
  {
    TelephoneRingArgs in;
    in.caller_id = "Bob";
    in.line = 2;
    TelephoneRingArgs out = TelephoneRingArgs::Decode(in.Encode());
    EXPECT_EQ(out.caller_id, "Bob");
    EXPECT_EQ(out.line, 2u);
  }
  {
    CallProgressArgs out =
        CallProgressArgs::Decode(CallProgressArgs{CallState::kBusy}.Encode());
    EXPECT_EQ(out.state, CallState::kBusy);
  }
  {
    DtmfReceivedArgs out = DtmfReceivedArgs::Decode(DtmfReceivedArgs{'#'}.Encode());
    EXPECT_EQ(out.digit, '#');
  }
  {
    RecorderStoppedArgs out =
        RecorderStoppedArgs::Decode(RecorderStoppedArgs{1, 8000}.Encode());
    EXPECT_EQ(out.reason, 1);
    EXPECT_EQ(out.samples, 8000u);
  }
  {
    RecognitionArgs in;
    in.word = "rewind";
    in.score = 9001;
    RecognitionArgs out = RecognitionArgs::Decode(in.Encode());
    EXPECT_EQ(out.word, "rewind");
    EXPECT_EQ(out.score, 9001u);
  }
  {
    PropertyNotifyArgs in;
    in.name = "DOMAIN";
    in.deleted = 1;
    PropertyNotifyArgs out = PropertyNotifyArgs::Decode(in.Encode());
    EXPECT_EQ(out.name, "DOMAIN");
    EXPECT_EQ(out.deleted, 1);
  }
  {
    MapRequestArgs out = MapRequestArgs::Decode(MapRequestArgs{31, 1}.Encode());
    EXPECT_EQ(out.loud, 31u);
    EXPECT_EQ(out.raise, 1);
  }
}

TEST(ErrorsTest, ErrorMessageRoundTrip) {
  ErrorMessage error;
  error.code = ErrorCode::kBadWiring;
  error.resource = 42;
  error.opcode = static_cast<uint16_t>(Opcode::kCreateWire);
  error.detail = "hard-wired constraint";
  ErrorMessage out = RoundTrip(error);
  EXPECT_EQ(out.code, ErrorCode::kBadWiring);
  EXPECT_EQ(out.resource, 42u);
  EXPECT_EQ(out.detail, "hard-wired constraint");
}

TEST(ProtocolTest, QueuedOnlyClassification) {
  EXPECT_TRUE(IsQueuedOnlyCommand(DeviceCommand::kPlay));
  EXPECT_TRUE(IsQueuedOnlyCommand(DeviceCommand::kRecord));
  EXPECT_TRUE(IsQueuedOnlyCommand(DeviceCommand::kDial));
  EXPECT_TRUE(IsQueuedOnlyCommand(DeviceCommand::kCoBegin));
  EXPECT_FALSE(IsQueuedOnlyCommand(DeviceCommand::kStop));
  EXPECT_FALSE(IsQueuedOnlyCommand(DeviceCommand::kChangeGain));
  EXPECT_FALSE(IsQueuedOnlyCommand(DeviceCommand::kHangUp));
}

TEST(ProtocolTest, NamesAreDefined) {
  EXPECT_EQ(DeviceClassName(DeviceClass::kSpeechSynthesizer), "speech-synthesizer");
  EXPECT_EQ(DeviceCommandName(DeviceCommand::kSendDtmf), "SendDTMF");
  EXPECT_EQ(EventTypeName(EventType::kSyncMark), "SyncMark");
  EXPECT_EQ(CallStateName(CallState::kHungUp), "hung-up");
  EXPECT_EQ(QueueStateName(QueueState::kServerPaused), "server-paused");
}

TEST(FrameTest, FrameMessageLayout) {
  std::vector<uint8_t> payload = {1, 2, 3};
  auto frame = FrameMessage(MessageType::kRequest, 7, 9, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + 3);
  ByteReader r(frame);
  MessageHeader h = MessageHeader::Decode(&r);
  EXPECT_EQ(h.type, MessageType::kRequest);
  EXPECT_EQ(h.code, 7);
  EXPECT_EQ(h.length, 3u);
  EXPECT_EQ(h.sequence, 9u);
}

TEST(RobustnessTest, TruncatedMessagesDecodeWithoutCrash) {
  // Every truncation of a valid CreateVirtualDeviceReq must decode without
  // UB and flag !ok (except trivially-valid prefixes).
  CreateVirtualDeviceReq req;
  req.id = 1;
  req.loud = 2;
  req.device_class = DeviceClass::kMixer;
  req.attrs.SetString(AttrTag::kName, "mix");
  ByteWriter w;
  req.Encode(&w);
  for (size_t len = 0; len < w.bytes().size(); ++len) {
    ByteReader r(std::span<const uint8_t>(w.bytes()).first(len));
    CreateVirtualDeviceReq::Decode(&r);
    // Must not crash; most truncations flag an error.
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Malformed-frame decode suite: DecodeHeaderStrict must turn every class of
// corrupt header into a clean Status instead of garbage or UB. These run
// under ASan/UBSan/TSan in CI, so any out-of-bounds read here is fatal.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeHeader(const MessageHeader& h) {
  ByteWriter w;
  h.Encode(&w);
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(StrictHeaderTest, WellFormedHeaderRoundTrips) {
  MessageHeader h;
  h.type = MessageType::kEvent;
  h.code = 7;
  h.length = 512;
  h.sequence = 41;
  Result<MessageHeader> decoded = DecodeHeaderStrict(EncodeHeader(h));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, MessageType::kEvent);
  EXPECT_EQ(decoded.value().code, 7);
  EXPECT_EQ(decoded.value().length, 512u);
  EXPECT_EQ(decoded.value().sequence, 41u);
}

TEST(StrictHeaderTest, TruncatedHeaderRejected) {
  std::vector<uint8_t> bytes = EncodeHeader(MessageHeader{});
  for (size_t cut = 0; cut < kHeaderSize; ++cut) {
    std::vector<uint8_t> partial(bytes.begin(), bytes.begin() + cut);
    Result<MessageHeader> decoded = DecodeHeaderStrict(partial);
    ASSERT_FALSE(decoded.ok()) << "accepted " << cut << "-byte header";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kConnection);
    EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
  }
}

TEST(StrictHeaderTest, OversizedLengthRejected) {
  MessageHeader h;
  h.length = kMaxPayload + 1;
  Result<MessageHeader> decoded = DecodeHeaderStrict(EncodeHeader(h));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kConnection);
  EXPECT_NE(decoded.status().message().find("exceeds limit"), std::string::npos);
}

TEST(StrictHeaderTest, MaxPayloadLengthStillAccepted) {
  MessageHeader h;
  h.length = kMaxPayload;
  EXPECT_TRUE(DecodeHeaderStrict(EncodeHeader(h)).ok());
}

TEST(StrictHeaderTest, NonZeroReservedByteRejected) {
  std::vector<uint8_t> bytes = EncodeHeader(MessageHeader{});
  bytes[1] = 0xAB;
  Result<MessageHeader> decoded = DecodeHeaderStrict(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kConnection);
  EXPECT_NE(decoded.status().message().find("reserved"), std::string::npos);
}

TEST(StrictHeaderTest, UnknownMessageTypeRejected) {
  for (uint8_t type : {uint8_t{0}, uint8_t{5}, uint8_t{0xFF}}) {
    std::vector<uint8_t> bytes = EncodeHeader(MessageHeader{});
    bytes[0] = type;
    Result<MessageHeader> decoded = DecodeHeaderStrict(bytes);
    ASSERT_FALSE(decoded.ok()) << "accepted message type " << int{type};
    EXPECT_EQ(decoded.status().code(), ErrorCode::kConnection);
  }
}

TEST(StrictHeaderTest, TrailingBytesAfterHeaderIgnored) {
  // The framer hands in exactly kHeaderSize bytes, but a larger buffer must
  // decode the leading header and ignore the rest.
  std::vector<uint8_t> bytes = EncodeHeader(MessageHeader{});
  bytes.resize(bytes.size() + 5, 0xEE);
  EXPECT_TRUE(DecodeHeaderStrict(bytes).ok());
}

TEST(StrictHeaderTest, UnknownRequestOpcodeIsBadRequest) {
  MessageHeader h;
  h.type = MessageType::kRequest;
  h.code = static_cast<uint16_t>(Opcode::kOpcodeCount);
  Status status = ValidateRequestHeader(h);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kBadRequest);

  h.code = kSetupOpcode;  // setup is only legal as the first frame
  EXPECT_EQ(ValidateRequestHeader(h).code(), ErrorCode::kBadRequest);
}

TEST(StrictHeaderTest, EveryRealOpcodeValidates) {
  for (uint16_t code = 0; code < static_cast<uint16_t>(Opcode::kOpcodeCount); ++code) {
    MessageHeader h;
    h.type = MessageType::kRequest;
    h.code = code;
    EXPECT_TRUE(ValidateRequestHeader(h).ok()) << "opcode " << code;
  }
}

TEST(StrictHeaderTest, NonRequestTypesSkipOpcodeCheck) {
  // Event/error codes live in their own namespaces; only requests carry
  // opcodes.
  MessageHeader h;
  h.type = MessageType::kEvent;
  h.code = 0xFFFE;
  EXPECT_TRUE(ValidateRequestHeader(h).ok());
}

// -- ServerStatsReply: the stats table's wire form ----------------------------

// The v1-v7 fields in the order stats v7's hand-written encoder wrote them,
// before the encoder was generated from the stats table.
#define AUD_V7_STATS_FIELDS(X)                                                         \
  X(proto_major) X(proto_minor) X(uptime_ms) X(server_time) X(engine_threads)          \
  X(engine_rate_hz) X(ticks_run) X(tick_overruns) X(tick_us) X(tick_jitter_us)         \
  X(islands_per_tick) X(worker_imbalance) X(requests_total) X(request_errors_total)    \
  X(dispatch_us) X(opcodes) X(connections_open) X(connections_total) X(bytes_in)       \
  X(bytes_out) X(events_sent) X(objects) X(active_louds) X(commands_enqueued)          \
  X(commands_done) X(commands_aborted) X(queue_events) X(decoded_cache_hits)           \
  X(decoded_cache_misses) X(decoded_cache_bytes) X(decoded_cache_evictions)            \
  X(events_dropped) X(egress_disconnects) X(egress_queued_bytes) X(accept_retries)     \
  X(epoch_commits) X(dispatch_shard_contention) X(lock_wait_us) X(epoch_commit_us)     \
  X(mouth_to_ear_us) X(trace_spans) X(trace_requests_sampled) X(trace_sample_every)    \
  X(loops) X(fds_watched) X(epoll_waits) X(wakeups) X(readiness_spurious)              \
  X(loop_dispatch_us) X(admission_rejects) X(rate_limited) X(rate_limit_disconnects)   \
  X(quota_denials) X(draining) X(drain_forced_closes) X(drain_duration_ms)

// How many of those fields each version 1..7 carried.
constexpr size_t kFieldsAtVersion[] = {0, 27, 31, 35, 39, 43, 49, 56};

// Stats v7 with its fields filled in the order above (stats_fill.h's values).
ServerStatsReply GoldenReply(uint32_t version) {
  ServerStatsReply reply;
  reply.stats_version = version;
  int i = 0;
#define AUD_FILL(name) FillStat(i++, &reply.name);
  AUD_V7_STATS_FIELDS(AUD_FILL)
#undef AUD_FILL
  return reply;
}

// What stats v7's hand-written encoder made of GoldenReply(7).
constexpr const char* kGoldenV7Hex =
    "07000000e903d207bb0b0000000003005cf0fffffffbffff8d130005761700065f1b0000"
    "00000700481f0000000008000900000000000000a41f0000000000008403000000000000"
    "84030000000000000b000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000009000000000000000a00000000000000"
    "1027000000000000e803000000000000e8030000000000000b0000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "0a000000000000000b00000000000000442f0000000000004c040000000000004c040000"
    "000000000c00000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000b000000000000000c000000"
    "000000004038000000000000b004000000000000b0040000000000000c00000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000c00000000000000d532000000000d00be36000000000e00"
    "0f00000000000000e457000000000000dc05000000000000dc050000000000000c000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000f000000000000000200000001000b0000000000"
    "000002000000000000004d010000000000002a0005000000000000000000000000000000"
    "4d0000000000000087bdffffffeeffff62460000000012004b4a000000001300344e0000"
    "000014001d5200000000150006560006ef590007d85d000000001800c161000000001900"
    "aa65000000001a009369000000001b007c6d000000001c006571000000001d004e750000"
    "00001e003779000000001f00207d00000000200009810000000021000e7bffffffddffff"
    "db88000000002300c48c000000002400ad90000000002500260000000000000010340200"
    "00000000d80e000000000000d80e0000000000000d000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000260000000000000027000000000000002452020000000000"
    "3c0f0000000000003c0f0000000000000d00000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000270000000000000028000000000000000071020000000000a00f0000"
    "00000000a00f0000000000000d0000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "00000000280000000000000051a00000000029003aa4000000002a0023a800030cac0004"
    "0b50ffffffd2ffffdeb3000000002e00c7b7000000002f00b0bb00000000300031000000"
    "00000000e4a9030000000000241300000000000024130000000000000e00000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000003100000000000000"
    "82c30000000032006bc700000000330054cb0000000034003dcf00000000350026d30006"
    "0fd7000000003700f8da000000003800";

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::string Show(const obs::HistogramSnapshot& h) {
  std::string out = "{" + std::to_string(h.count) + " " + std::to_string(h.sum) + " " +
                    std::to_string(h.min) + " " + std::to_string(h.max) + " [";
  for (uint64_t b : h.buckets) {
    out += std::to_string(b) + " ";
  }
  return out + "]}";
}
std::string Show(const std::vector<OpcodeStats>& ops) {
  std::string out;
  for (const OpcodeStats& op : ops) {
    out += "(" + std::to_string(op.opcode) + " " + std::to_string(op.count) + " " +
           std::to_string(op.errors) + " " + std::to_string(op.total_us) + ")";
  }
  return out;
}
template <typename T>
std::string Show(const T& value) {
  return std::to_string(value);
}

std::vector<std::string> V7Fields(const ServerStatsReply& s) {
  std::vector<std::string> fields;
#define AUD_SHOW(name) fields.push_back(#name "=" + Show(s.name));
  AUD_V7_STATS_FIELDS(AUD_SHOW)
#undef AUD_SHOW
  return fields;
}

TEST(ServerStatsWire, V7EncodingMatchesGoldenBytes) {
  ByteWriter w;
  GoldenReply(7).Encode(&w);
  EXPECT_EQ(w.bytes(), FromHex(kGoldenV7Hex));
}

// A v_k server sends the v7 bytes cut after version k's fields; a v8
// client decodes exactly those fields and zero-fills the rest, as the v7
// decoder did.
TEST(ServerStatsWire, EveryOldVersionDecodesItsFieldsAndZeroFillsTheRest) {
  const std::vector<uint8_t> golden = FromHex(kGoldenV7Hex);
  const std::vector<std::string> full = V7Fields(GoldenReply(7));
  const std::vector<std::string> empty = V7Fields(ServerStatsReply{});
  for (uint32_t version = 1; version <= 7; ++version) {
    ByteWriter w;
    GoldenReply(version).Encode(&w);
    std::vector<uint8_t> bytes = w.Take();
    ASSERT_LE(bytes.size(), golden.size());
    std::vector<uint8_t> prefix(golden.begin(), golden.begin() + bytes.size());
    prefix[0] = static_cast<uint8_t>(version);
    EXPECT_EQ(bytes, prefix) << "v" << version;

    ByteReader r(bytes);
    ServerStatsReply decoded = ServerStatsReply::Decode(&r);
    EXPECT_TRUE(r.ok()) << "v" << version;
    EXPECT_EQ(r.remaining(), 0u) << "v" << version;
    EXPECT_EQ(decoded.stats_version, version);
    std::vector<std::string> want = empty;
    std::copy(full.begin(), full.begin() + kFieldsAtVersion[version], want.begin());
    EXPECT_EQ(V7Fields(decoded), want) << "v" << version;
  }
}

TEST(ServerStatsWire, EveryRowRoundTrips) {
  const ServerStatsReply reply = DistinctStatsReply();
  ByteWriter w;
  reply.Encode(&w);
  std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  ServerStatsReply decoded = ServerStatsReply::Decode(&r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  std::vector<std::string> want;
  std::vector<std::string> got;
  ForEachStatField(reply, [&](const StatRow& row, const auto& v) {
    want.push_back(std::string(row.name) + "=" + Show(v));
  });
  ForEachStatField(decoded, [&](const StatRow& row, const auto& v) {
    got.push_back(std::string(row.name) + "=" + Show(v));
  });
  EXPECT_EQ(got, want);
  ByteWriter again;
  decoded.Encode(&again);
  EXPECT_EQ(again.bytes(), bytes);
}


// -- Golden bytes: one encoding per message type -----------------------------
//
// Every field of every message holds a value no other field of it holds,
// and each hex string is what the message's hand-written Encode made of it
// before the codecs were generated from the field lists. A field left out
// of a field list, or listed out of order, changes its message's bytes.

std::string ToHex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

template <typename T>
std::vector<uint8_t> EncodeAny(const T& m) {
  if constexpr (requires(ByteWriter* w) { m.Encode(w); }) {
    ByteWriter w;
    m.Encode(&w);
    return w.Take();
  } else {
    return m.Encode();
  }
}

// Encodes `m`, compares with `hex`, and checks that decoding the bytes reads
// every one of them and gives back a message that encodes to them again.
template <typename T>
void ExpectGolden(const char* name, const T& m, const std::string& hex) {
  SCOPED_TRACE(name);
  const std::vector<uint8_t> bytes = EncodeAny(m);
  EXPECT_EQ(ToHex(bytes), hex);
  ByteReader r(bytes);
  T decoded = T::Decode(&r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(ToHex(EncodeAny(decoded)), hex);
}

// Args payloads decode from their bytes, as the server and Alib call them.
template <typename T>
void ExpectGoldenArgs(const char* name, const T& m, const std::string& hex) {
  SCOPED_TRACE(name);
  const std::vector<uint8_t> bytes = m.Encode();
  EXPECT_EQ(ToHex(bytes), hex);
  EXPECT_EQ(ToHex(T::Decode(bytes).Encode()), hex);
}

AttrList GoldenAttrs() {
  return AttrList{{AttrTag::kName, std::string("left")},
                  {AttrTag::kSampleRate, uint32_t{44100}},
                  {AttrTag::kVolume, int32_t{-7}}};
}

constexpr AudioFormat kGoldenFormat{Encoding::kPcm16, 16000};

CommandSpec GoldenCommand(uint32_t n) {
  CommandSpec c;
  c.device = 0x1100 + n;
  c.command = DeviceCommand::kSetVoice;
  c.tag = 0x2200 + n;
  c.args = {static_cast<uint8_t>(n), 0xab, 0xcd};
  return c;
}

WireInfo GoldenWire(uint32_t n) {
  WireInfo i;
  i.id = 0x3100 + n;
  i.src_device = 0x3200 + n;
  i.src_port = static_cast<uint16_t>(3 + n);
  i.dst_device = 0x3300 + n;
  i.dst_port = static_cast<uint16_t>(5 + n);
  i.format = kGoldenFormat;
  return i;
}

TraceEventWire GoldenTraceEvent(uint32_t n) {
  TraceEventWire e;
  e.t_us = -1000 - n;
  e.seq = 0x4100 + n;
  e.tid = 0x4200 + n;
  e.reason = static_cast<uint16_t>(0x43 + n);
  e.arg0 = 0x4400 + n;
  e.arg1 = 0x4500 + n;
  e.trace = 0x4600000000ull + n;
  e.parent = 0x4700 + n;
  e.dur_us = 0x4800 + n;
  return e;
}

obs::HistogramSnapshot GoldenHistogram() {
  obs::HistogramSnapshot h;
  h.count = 3;
  h.sum = 0x5100;
  h.min = 0x5200;
  h.max = 0x5300;
  h.buckets = {7, 0, 9};
  return h;
}

TEST(GoldenBytesTest, HeaderAndSetup) {
  MessageHeader h;
  h.type = MessageType::kEvent;
  h.code = 0x1234;
  h.length = 0x56789;
  h.sequence = 0xabcdef;
  ExpectGolden("MessageHeader", h, "0300341289670500efcdab00");

  SetupRequest q;
  q.magic = 0x11223344;
  q.major = 7;
  q.minor = 9;
  q.client_name = "golden";
  ExpectGolden("SetupRequest", q, "443322110700090006000000676f6c64656e");

  SetupReply p;
  p.success = 1;
  p.major = 3;
  p.minor = 4;
  p.id_base = 0x100000;
  p.id_count = 0x2000;
  p.device_loud = 0xF0000001;
  p.server_name = "srv";
  p.reason = "why";
  ExpectGolden("SetupReply", p, "01030004000000100000200000010000f00300000073727603000000776879");
}

TEST(GoldenBytesTest, CommandArgs) {
  ExpectGolden("CommandSpec", GoldenCommand(1), "011100001400012200000300000001abcd");
  ExpectGoldenArgs("PlayArgs", PlayArgs{0x55, -3, 0x7000000000},
                   "55000000fdffffffffffffff0000000070000000");
  ExpectGoldenArgs("RecordArgs", RecordArgs{0x66, kTerminateOnHangup, 0x1234},
                   "660000000234120000");
  ExpectGoldenArgs("StringArg", StringArg{"555-1212"}, "080000003535352d31323132");
  ExpectGoldenArgs("GainArgs", GainArgs{-500}, "0cfeffff");
  ExpectGoldenArgs("InputGainArgs", InputGainArgs{3, -2500}, "03003cf6ffff");
  ExpectGoldenArgs("DelayArgs", DelayArgs{5000}, "88130000");
  ExpectGoldenArgs("TrainArgs", TrainArgs{"yes", 12}, "030000007965730c000000");
  ExpectGoldenArgs("WordListArgs", WordListArgs{{"play", "stop"}},
                   "0200000004000000706c61790400000073746f70");
  ExpectGoldenArgs("ExceptionListArgs", ExceptionListArgs{{{"ab", "AE B"}, {"cd", "S IY D"}}},
                   "02000000020000006162040000004145204202000000636406000000532049592044");
  ExpectGoldenArgs("NoteArgs", NoteArgs{69, 120, 500}, "4578f4010000");
  ExpectGoldenArgs("VoiceArgs", VoiceArgs{2, 5, 60, 8000, 300}, "0205003c00401f2c01");
  ExpectGoldenArgs("CrossbarStateArgs", CrossbarStateArgs{{{1, 2, 0}, {3, 4, 5}}},
                   "0200000001000200000300040005");
  ExpectGoldenArgs("ValuesArgs", ValuesArgs{GoldenAttrs()},
                   "0300040002040000006c65667402000044ac0000170001f9ffffff");
}

TEST(GoldenBytesTest, Requests) {
  ExpectGolden("CreateLoudReq", CreateLoudReq{0x101, 0x102, GoldenAttrs()},
               "01010000020100000300040002040000006c65667402000044ac0000170001f9ffffff");
  ExpectGolden("ResourceReq", ResourceReq{0x103}, "03010000");
  ExpectGolden("CreateVirtualDeviceReq",
               CreateVirtualDeviceReq{0x104, 0x105, DeviceClass::kMixer, GoldenAttrs()},
               "0401000005010000050300040002040000006c65667402000044ac0000170001f9ffffff");
  ExpectGolden("AugmentVirtualDeviceReq", AugmentVirtualDeviceReq{0x106, GoldenAttrs()},
               "060100000300040002040000006c65667402000044ac0000170001f9ffffff");
  ExpectGolden("CreateWireReq", CreateWireReq{0x107, 0x108, 9, 0x10a, 11, 1, kGoldenFormat},
               "070100000801000009000a0100000b000103803e0000");
  ExpectGolden("MapLoudReq", MapLoudReq{0x10c, 1}, "0c01000001");
  ExpectGolden("CreateSoundReq", CreateSoundReq{0x10d, kGoldenFormat}, "0d01000003803e0000");
  ExpectGolden("WriteSoundDataReq", WriteSoundDataReq{0x10e, 0x10f0000000, {1, 2, 3}},
               "0e010000000000f01000000003000000010203");
  ExpectGolden("ReadSoundDataReq", ReadSoundDataReq{0x110, 0x1110000000, 0x112},
               "10010000000000101100000012010000");
  ExpectGolden("NamedSoundReq", NamedSoundReq{0x113, "beep"}, "130100000400000062656570");
  ExpectGolden("EnqueueCommandsReq",
               EnqueueCommandsReq{0x114, {GoldenCommand(2), GoldenCommand(3)}},
               "1401000002000000021100001400022200000300000002abcd031100001400032200000300000003ab"
               "cd");
  ExpectGolden("ImmediateCommandReq", ImmediateCommandReq{0x115, GoldenCommand(4)},
               "15010000041100001400042200000300000004abcd");
  ExpectGolden("SelectEventsReq", SelectEventsReq{0x116, 0x117}, "1601000017010000");
  ExpectGolden("SetSyncMarksReq", SetSyncMarksReq{0x118, 0x119}, "1801000019010000");
  ExpectGolden("ChangePropertyReq", ChangePropertyReq{0x11a, "title", "STRING", {4, 5}},
               "1a010000050000007469746c6506000000535452494e47020000000405");
  ExpectGolden("NamedPropertyReq", NamedPropertyReq{0x11b, "owner"}, "1b010000050000006f776e6572");
  ExpectGolden("SetRedirectReq", SetRedirectReq{0}, "00");
  ExpectGolden("GetServerStatsReq", GetServerStatsReq{0}, "00");
  ExpectGolden("GetServerTraceReq", GetServerTraceReq{0x11c}, "1c010000");
  ExpectGolden("GetRequestTraceReq", GetRequestTraceReq{0x11d00000000, 0x11e},
               "000000001d0100001e010000");
  ExpectGolden("GetEntityStatsReq", GetEntityStatsReq{0}, "00");
}

TEST(GoldenBytesTest, Replies) {
  ExpectGolden("VirtualDeviceReply",
               VirtualDeviceReply{0x201, DeviceClass::kTelephone, 1, 2, 0x202, GoldenAttrs()},
               "01020000040102020200000300040002040000006c65667402000044ac0000170001f9ffffff");
  ExpectGolden("WireInfo", GoldenWire(1), "0131000001320000040001330000060003803e0000");
  ExpectGolden("WiresReply", WiresReply{{GoldenWire(2), GoldenWire(3)}},
               "020000000231000002320000050002330000070003803e000003310000033200000600033300000800"
               "03803e0000");
  ExpectGolden("SoundDataReply", SoundDataReply{0x203, 0x2040000000, {6, 7}},
               "030200000000004020000000020000000607");
  ExpectGolden("SoundInfoReply", SoundInfoReply{0x205, kGoldenFormat, 0x206, 0x207},
               "0502000003803e000006020000000000000702000000000000");
  ExpectGolden("CatalogueEntry", CatalogueEntry{"ring", kGoldenFormat, 0x208},
               "0400000072696e6703803e00000802000000000000");
  ExpectGolden("CatalogueReply",
               CatalogueReply{{{"a", kGoldenFormat, 0x209},
                               {"b", {Encoding::kAlaw8, 11025}, 0x20a}}},
               "02000000010000006103803e00000902000000000000010000006201112b00000a02000000000000");
  ExpectGolden("QueueStateReply", QueueStateReply{0x20b, QueueState::kServerPaused, 0x20c, 0x20d},
               "0b020000030c0200000d020000");
  ExpectGolden("PropertyReply", PropertyReply{0x20e, 1, "n", "t", {8, 9}},
               "0e02000001010000006e0100000074020000000809");
  ExpectGolden("PropertyListReply", PropertyListReply{{"x", "yz"}},
               "02000000010000007802000000797a");
  ExpectGolden("DeviceInfo", DeviceInfo{0x20f, 0x210, DeviceClass::kDsp, GoldenAttrs()},
               "0f020000100200000a0300040002040000006c65667402000044ac0000170001f9ffffff");
  ExpectGolden("DeviceLoudReply",
               DeviceLoudReply{0x211,
                               {DeviceInfo{0x212, 0x213, DeviceClass::kCrossbar, GoldenAttrs()}},
                               {GoldenWire(4)}},
               "11020000010000001202000013020000090300040002040000006c65667402000044ac0000170001f9"
               "ffffff010000000431000004320000070004330000090003803e0000");
  ExpectGolden("ActiveStackEntry", ActiveStackEntry{0x214, 1}, "1402000001");
  ExpectGolden("ActiveStackReply", ActiveStackReply{{{0x215, 1}, {0x216, 2}}},
               "0200000015020000011602000002");
  ExpectGolden("ServerTimeReply", ServerTimeReply{-0x217}, "e9fdffffffffffff");
  ExpectGolden("LoudStateReply", LoudStateReply{0x218, 0x219, 1, 2, 0x21a, 0x21b},
               "180200001902000001021a0200001b020000");
  ExpectGolden("OpcodeStats", OpcodeStats{0x21c, 0x21d, 0x21e, 0x21f},
               "1c021d020000000000001e020000000000001f02000000000000");
  ExpectGolden("TraceEventWire", GoldenTraceEvent(1),
               "17fcffff00000000014100000000000001420000440001440000014500000100000046000000014700"
               "000000000001480000");
  ExpectGolden("ServerTraceReply", ServerTraceReply{{GoldenTraceEvent(2), GoldenTraceEvent(3)}},
               "0200000016fcffff000000000241000000000000024200004500024400000245000002000000460000"
               "0002470000000000000248000015fcffff000000000341000000000000034200004600034400000345"
               "00000300000046000000034700000000000003480000");
  ExpectGolden("RequestTraceReply", RequestTraceReply{2, 0x220, {GoldenTraceEvent(4)}},
               "0200000020020000000000000100000014fcffff000000000441000000000000044200004700044400"
               "00044500000400000046000000044700000000000004480000");
  ConnectionStatsWire conn{0x221, "c", 0x222, 0x223, 0x224, 0x225, 0x226, 0x227,
                           GoldenHistogram()};
  ExpectGolden("ConnectionStatsWire", conn,
               "2102000001000000632202000000000000230200000000000024020000000000002502000000000000"
               "2602000000000000270200000000000003000000000000000051000000000000005200000000000000"
               "5300000000000003000000070000000000000000000000000000000900000000000000");
  DeviceStatsWire dev{0x228, 0x229, 1, 0x22a, 0x22b};
  ExpectGolden("DeviceStatsWire", dev, "2802000029020000012a020000000000002b02000000000000");
  ExpectGolden("EntityStatsReply", EntityStatsReply{3, {conn}, {dev, dev}},
               "0300000001000000210200000100000063220200000000000023020000000000002402000000000000"
               "2502000000000000260200000000000027020000000000000300000000000000005100000000000000"
               "5200000000000000530000000000000300000007000000000000000000000000000000090000000000"
               "0000020000002802000029020000012a020000000000002b020000000000002802000029020000012a"
               "020000000000002b02000000000000");
}

TEST(GoldenBytesTest, EventsAndErrors) {
  ExpectGolden("EventMessage", EventMessage{EventType::kRecognition, 0x301, -0x302, {1, 2, 3}},
               "120001030000fefcffffffffffff03000000010203");
  ExpectGoldenArgs("CommandDoneArgs", CommandDoneArgs{0x303, 0x304, 1}, "03030000040301");
  ExpectGoldenArgs("QueuePausedArgs", QueuePausedArgs{1}, "01");
  ExpectGoldenArgs("TelephoneRingArgs", TelephoneRingArgs{"555", 0x305}, "0300000035353505030000");
  ExpectGoldenArgs("CallProgressArgs", CallProgressArgs{CallState::kBusy}, "04");
  ExpectGoldenArgs("DtmfReceivedArgs", DtmfReceivedArgs{'#'}, "23");
  ExpectGoldenArgs("RecorderStoppedArgs", RecorderStoppedArgs{2, 0x306}, "020603000000000000");
  ExpectGoldenArgs("RecognitionArgs", RecognitionArgs{"yes", 0x307}, "0300000079657307030000");
  ExpectGoldenArgs("SyncMarkArgs", SyncMarkArgs{0x308, -0x309, 0x30a},
                   "0803000000000000f7fcffffffffffff0a03000000000000");
  ExpectGoldenArgs("PropertyNotifyArgs", PropertyNotifyArgs{"p", 1}, "010000007001");
  ExpectGoldenArgs("MapRequestArgs", MapRequestArgs{0x30b, 1}, "0b03000001");
  ExpectGolden("ErrorMessage", ErrorMessage{ErrorCode::kBadMatch, 0x30c, 0x30d, "d"},
               "030c0300000d030100000064");
}

}  // namespace
}  // namespace aud
