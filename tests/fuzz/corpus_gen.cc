// Seed-corpus generator. Writes well-formed wire messages (built with the
// real encoders) into tests/fuzz/corpus/{decode,framer,roundtrip}/ so both
// the libFuzzer harnesses and the standalone smoke driver start from valid
// frames instead of noise. The committed corpus is this tool's output; when
// the protocol grows a message, extend this file and re-run:
//
//   ./corpus_gen <repo-root>/tests/fuzz/corpus
//
// Output names are stable, so regeneration produces a clean diff.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/wire/messages.h"
#include "src/wire/protocol.h"

namespace {

using namespace aud;

bool WriteFileBytes(const std::filesystem::path& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

// decode-harness seed: selector byte + payload.
std::vector<uint8_t> WithSelector(uint8_t selector, std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(payload.size() + 1);
  out.push_back(selector);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

template <typename T>
std::vector<uint8_t> EncodeStruct(const T& value) {
  ByteWriter w;
  value.Encode(&w);
  return w.Take();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: corpus_gen <corpus-root>\n");
    return 2;
  }
  std::filesystem::path root = argv[1];
  struct Entry {
    const char* dir;
    const char* name;
    std::vector<uint8_t> bytes;
  };
  std::vector<Entry> entries;

  // -- decode corpus ---------------------------------------------------------

  // Routed mode (selector 0): complete valid frames of each message type.
  {
    CreateLoudReq req;
    req.id = 0x1000;
    req.parent = kNoResource;
    std::vector<uint8_t> payload = EncodeStruct(req);
    entries.push_back({"decode", "routed_create_loud",
                       WithSelector(0, FrameMessage(MessageType::kRequest,
                                                    static_cast<uint16_t>(Opcode::kCreateLoud),
                                                    7, payload))});
  }
  {
    EnqueueCommandsReq req;
    req.loud = 0x1000;
    CommandSpec play;
    play.device = 0x1001;
    play.command = DeviceCommand::kPlay;
    play.tag = 42;
    PlayArgs args;
    args.sound = 0x1002;
    play.args = args.Encode();
    req.commands.push_back(play);
    CommandSpec delay;
    delay.device = kNoResource;
    delay.command = DeviceCommand::kDelay;
    DelayArgs delay_args;
    delay_args.milliseconds = 250;
    delay.args = delay_args.Encode();
    req.commands.push_back(delay);
    std::vector<uint8_t> payload = EncodeStruct(req);
    entries.push_back({"decode", "routed_enqueue_commands",
                       WithSelector(0, FrameMessage(MessageType::kRequest,
                                                    static_cast<uint16_t>(Opcode::kEnqueueCommands),
                                                    8, payload))});
  }
  {
    EventMessage event;
    event.type = EventType::kCommandDone;
    event.resource = 0x1000;
    event.server_time = 123456;
    CommandDoneArgs args;
    args.tag = 42;
    args.command = static_cast<uint16_t>(DeviceCommand::kPlay);
    event.args = args.Encode();
    std::vector<uint8_t> payload = EncodeStruct(event);
    entries.push_back({"decode", "routed_event_command_done",
                       WithSelector(0, FrameMessage(MessageType::kEvent,
                                                    static_cast<uint16_t>(EventType::kCommandDone),
                                                    9, payload))});
  }
  {
    ErrorMessage error;
    error.code = ErrorCode::kBadResource;
    error.resource = 0xDEAD;
    error.opcode = static_cast<uint16_t>(Opcode::kMapLoud);
    error.detail = "no such loud";
    std::vector<uint8_t> payload = EncodeStruct(error);
    entries.push_back({"decode", "routed_error",
                       WithSelector(0, FrameMessage(MessageType::kError,
                                                    static_cast<uint16_t>(ErrorCode::kBadResource),
                                                    10, payload))});
  }

  // Direct-decoder seeds for the structurally richest payloads.
  {
    SetupRequest setup;
    setup.client_name = "corpus";
    entries.push_back({"decode", "setup_request", WithSelector(3, EncodeStruct(setup))});
  }
  {
    ChangePropertyReq req;
    req.resource = 0x1000;
    req.name = "WORKSPACE";
    req.type = "STRING";
    req.value = {'m', 'a', 'i', 'n'};
    entries.push_back({"decode", "change_property", WithSelector(20, EncodeStruct(req))});
  }
  {
    // A v5 reply, and a v8 one with a tick-phase histogram set.
    ServerStatsReply stats;
    stats.stats_version = 5;
    stats.proto_major = 1;
    stats.proto_minor = 2;
    stats.requests_total = 100;
    OpcodeStats op;
    op.opcode = static_cast<uint16_t>(Opcode::kSync);
    op.count = 50;
    stats.opcodes.push_back(op);
    entries.push_back({"decode", "server_stats_reply", WithSelector(39, EncodeStruct(stats))});
    stats.stats_version = 8;
    stats.tick_fanout_us.count = 2;
    stats.tick_fanout_us.sum = 300;
    stats.tick_fanout_us.min = 100;
    stats.tick_fanout_us.max = 200;
    stats.tick_fanout_us.buckets = {0, 0, 0, 0, 0, 0, 0, 1, 1};
    entries.push_back(
        {"decode", "server_stats_reply_v8", WithSelector(39, EncodeStruct(stats))});
  }
  {
    ServerTraceReply trace;
    TraceEventWire ev;
    ev.t_us = 1000;
    ev.seq = 1;
    ev.reason = 2;
    trace.events.push_back(ev);
    entries.push_back({"decode", "server_trace_reply", WithSelector(40, EncodeStruct(trace))});
  }
  {
    ExceptionListArgs args;
    args.entries.emplace_back("tomato", "t ah m ey t ow");
    entries.push_back({"decode", "exception_list_args", WithSelector(54, args.Encode())});
  }
  {
    CrossbarStateArgs args;
    args.routes.push_back({0, 1, 1});
    args.routes.push_back({1, 0, 0});
    entries.push_back({"decode", "crossbar_state_args", WithSelector(57, args.Encode())});
  }
  // A strict-header seed exercising each rejection branch's neighbourhood.
  {
    std::vector<uint8_t> frame =
        FrameMessage(MessageType::kRequest, static_cast<uint16_t>(Opcode::kSync), 1, {});
    entries.push_back({"decode", "strict_header_ok", WithSelector(1, frame)});
  }

  // -- framer corpus ---------------------------------------------------------

  // chunk-pattern prefix (see fuzz_framer.cc): k, k chunk bytes, stream.
  {
    std::vector<uint8_t> payload = EncodeStruct([] {
      ResourceReq req;
      req.id = 0x1000;
      return req;
    }());
    std::vector<uint8_t> frame1 = FrameMessage(
        MessageType::kRequest, static_cast<uint16_t>(Opcode::kStartQueue), 1, payload);
    std::vector<uint8_t> frame2 = FrameMessage(
        MessageType::kRequest, static_cast<uint16_t>(Opcode::kSync), 2, {});
    std::vector<uint8_t> stream;
    stream.push_back(3);  // pattern length
    stream.push_back(1);  // 2-byte chunks
    stream.push_back(5);  // 6-byte chunks
    stream.push_back(12); // 13-byte chunks
    stream.insert(stream.end(), frame1.begin(), frame1.end());
    stream.insert(stream.end(), frame2.begin(), frame2.end());
    entries.push_back({"framer", "two_frames_chunked", stream});
  }
  {
    // Whole-buffer reads, one frame, truncated payload (EOF mid-payload).
    WriteSoundDataReq req;
    req.id = 0x1000;
    req.offset = 0;
    req.data.assign(64, 0x5A);
    std::vector<uint8_t> frame = FrameMessage(
        MessageType::kRequest, static_cast<uint16_t>(Opcode::kWriteSoundData), 3,
        EncodeStruct(req));
    std::vector<uint8_t> stream;
    stream.push_back(0);
    stream.insert(stream.end(), frame.begin(), frame.end() - 16);
    entries.push_back({"framer", "truncated_payload", stream});
  }
  {
    // Byte-at-a-time reads across an event frame.
    EventMessage event;
    event.type = EventType::kSyncMark;
    event.resource = 0x1000;
    SyncMarkArgs args;
    args.position_samples = 8000;
    args.total_samples = 16000;
    event.args = args.Encode();
    std::vector<uint8_t> frame = FrameMessage(
        MessageType::kEvent, static_cast<uint16_t>(EventType::kSyncMark), 4,
        EncodeStruct(event));
    std::vector<uint8_t> stream;
    stream.push_back(1);
    stream.push_back(0);  // chunk size 1
    stream.insert(stream.end(), frame.begin(), frame.end());
    entries.push_back({"framer", "event_byte_at_a_time", stream});
  }
  {
    // A pipelined burst read in 32 KiB chunks: 96 coalesced requests, one
    // frame larger than the framer's 16 KiB input buffer, then more
    // requests behind it.
    std::vector<uint8_t> stream;
    stream.push_back(1);
    stream.push_back(0x40 | 0x3F);  // 32 KiB chunks
    auto append = [&stream](const std::vector<uint8_t>& frame) {
      stream.insert(stream.end(), frame.begin(), frame.end());
    };
    std::vector<uint8_t> start = EncodeStruct([] {
      ResourceReq req;
      req.id = 0x1000;
      return req;
    }());
    uint32_t seq = 1;
    for (int i = 0; i < 96; ++i, ++seq) {
      append(i % 2 == 0 ? FrameMessage(MessageType::kRequest,
                                       static_cast<uint16_t>(Opcode::kSync), seq, {})
                        : FrameMessage(MessageType::kRequest,
                                       static_cast<uint16_t>(Opcode::kStartQueue), seq, start));
    }
    WriteSoundDataReq big;
    big.id = 0x1000;
    big.offset = 0;
    big.data.assign(20 * 1024, 0x3C);
    append(FrameMessage(MessageType::kRequest, static_cast<uint16_t>(Opcode::kWriteSoundData),
                        seq++, EncodeStruct(big)));
    for (int i = 0; i < 8; ++i, ++seq) {
      append(FrameMessage(MessageType::kRequest, static_cast<uint16_t>(Opcode::kSync), seq, {}));
    }
    entries.push_back({"framer", "coalesced_burst_and_oversize", stream});
  }

  // -- roundtrip corpus ------------------------------------------------------

  // The roundtrip harness derives field values from its input; any bytes
  // are valid. Seed the interesting boundaries by hand.
  entries.push_back({"roundtrip", "zeros", std::vector<uint8_t>(64, 0)});
  entries.push_back({"roundtrip", "ones", std::vector<uint8_t>(256, 0xFF)});
  {
    std::vector<uint8_t> ramp(512);
    for (size_t i = 0; i < ramp.size(); ++i) {
      ramp[i] = static_cast<uint8_t>(i * 7 + 13);
    }
    entries.push_back({"roundtrip", "ramp", ramp});
  }
  entries.push_back({"roundtrip", "empty", {}});

  for (const Entry& entry : entries) {
    std::filesystem::path dir = root / entry.dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::filesystem::path path = dir / entry.name;
    if (!WriteFileBytes(path, entry.bytes)) {
      std::fprintf(stderr, "corpus_gen: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("corpus_gen: wrote %zu seed(s) under %s\n", entries.size(),
              root.c_str());
  return 0;
}
