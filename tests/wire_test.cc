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

}  // namespace
}  // namespace aud
