// Framer fuzz harness: feeds arbitrary bytes through ReadMessage over a
// ByteStream that delivers them in input-derived chunk sizes, exercising the
// header/payload reassembly paths (short reads, payload split across reads,
// EOF mid-header, EOF mid-payload). Every message that does frame is then
// re-framed with WriteMessage and re-read; the result must be byte-identical
// — a framer that loses or duplicates bytes aborts here rather than
// corrupting a live connection. The same content is then parsed a second
// time through the batched Framer::TryReadMessage with scripted
// would-block injections (the event-loop plane's read path); the message
// sequence must be identical to the blocking parse.
//
// Input shape: byte 0 = chunk-pattern length k (0 = whole-buffer reads),
// bytes 1..k = the repeating chunk-size pattern, the rest is stream content.
// A pattern byte with bit 6 set asks for a multi-frame chunk of 512 B to
// 32 KiB, up to and past the framer's input buffer; otherwise the chunk is
// 1-16 bytes. Bit 7 injects a would-block on the non-blocking pass.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "src/transport/framer.h"
#include "src/transport/stream.h"

namespace aud {
namespace {

// Bytes one scripted read may deliver.
size_t ChunkBytes(uint8_t script) {
  if ((script & 0x40) != 0) {
    return (static_cast<size_t>(script & 0x3F) + 1) * 512;
  }
  return static_cast<size_t>(script % 16) + 1;
}

// In-memory ByteStream that serves a fixed buffer in scripted chunk sizes.
// Single-threaded by construction, so "blocking" degenerates to immediate
// EOF once the buffer is drained.
class ScriptedStream : public ByteStream {
 public:
  ScriptedStream(std::vector<uint8_t> data, std::vector<uint8_t> chunks)
      : data_(std::move(data)), chunks_(std::move(chunks)) {}

  bool Write(std::span<const uint8_t> bytes) override {
    written_.insert(written_.end(), bytes.begin(), bytes.end());
    return true;
  }

  size_t Read(std::span<uint8_t> out) override {
    size_t remaining = data_.size() - pos_;
    if (remaining == 0 || out.empty()) {
      return 0;
    }
    size_t want = out.size();
    if (!chunks_.empty()) {
      // Repeating the scripted pattern of chunk sizes.
      want = std::min(want, ChunkBytes(chunks_[next_chunk_ % chunks_.size()]));
      ++next_chunk_;
    }
    size_t n = std::min(want, remaining);
    std::copy_n(data_.begin() + static_cast<ptrdiff_t>(pos_), n, out.begin());
    pos_ += n;
    return n;
  }

  void Close() override { pos_ = data_.size(); }

  const std::vector<uint8_t>& written() const { return written_; }

 private:
  std::vector<uint8_t> data_;
  std::vector<uint8_t> chunks_;
  size_t pos_ = 0;
  size_t next_chunk_ = 0;
  std::vector<uint8_t> written_;
};

// The same scripted delivery through the non-blocking interface: chunk
// bytes with the high bit set inject a kWouldBlock (at most one in a row,
// so the incremental parse always makes progress and terminates). Once the
// buffer drains, ReadSome reports EOF like a closed socket.
class ScriptedNonBlockingStream : public ByteStream {
 public:
  ScriptedNonBlockingStream(std::vector<uint8_t> data, std::vector<uint8_t> chunks)
      : data_(std::move(data)), chunks_(std::move(chunks)) {}

  bool Write(std::span<const uint8_t> bytes) override {
    (void)bytes;
    return true;
  }

  size_t Read(std::span<uint8_t> out) override {
    (void)out;
    return 0;  // incremental path only
  }

  void Close() override { pos_ = data_.size(); }

  IoResult ReadSome(std::span<uint8_t> out) override {
    uint8_t script = chunks_.empty() ? 0 : chunks_[next_chunk_ % chunks_.size()];
    if (!chunks_.empty()) {
      ++next_chunk_;
    }
    if ((script & 0x80) != 0 && !blocked_) {
      blocked_ = true;
      return {IoStatus::kWouldBlock, 0};
    }
    blocked_ = false;
    size_t remaining = data_.size() - pos_;
    if (remaining == 0) {
      return {IoStatus::kEof, 0};
    }
    size_t want = out.size();
    if (!chunks_.empty()) {
      want = std::min(want, ChunkBytes(script));
    }
    size_t n = std::min(want, remaining);
    std::copy_n(data_.begin() + static_cast<ptrdiff_t>(pos_), n, out.begin());
    pos_ += n;
    return {IoStatus::kOk, n};
  }

 private:
  std::vector<uint8_t> data_;
  std::vector<uint8_t> chunks_;
  size_t pos_ = 0;
  size_t next_chunk_ = 0;
  bool blocked_ = false;
};

bool SameMessage(const FramedMessage& a, const FramedMessage& b) {
  return a.header.type == b.header.type && a.header.code == b.header.code &&
         a.header.sequence == b.header.sequence &&
         a.header.length == b.header.length && a.payload == b.payload;
}

void CheckRoundTrip(const FramedMessage& msg) {
  // Re-frame and re-read through a fresh stream; the framer must reproduce
  // the message exactly.
  ScriptedStream echo({}, {});
  if (!WriteMessage(&echo, msg.header.type, msg.header.code, msg.header.sequence,
                    msg.payload)) {
    std::fprintf(stderr, "fuzz_framer: WriteMessage failed on in-memory stream\n");
    std::abort();
  }
  ScriptedStream reread(echo.written(), {3});  // deliberately misaligned reads
  std::optional<FramedMessage> again = ReadMessage(&reread);
  if (!again.has_value() || again->header.type != msg.header.type ||
      again->header.code != msg.header.code ||
      again->header.sequence != msg.header.sequence ||
      again->header.length != msg.header.length || again->payload != msg.payload) {
    std::fprintf(stderr, "fuzz_framer: WriteMessage/ReadMessage round-trip mismatch\n");
    std::abort();
  }
}

}  // namespace
}  // namespace aud

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) {
    return 0;
  }
  std::span<const uint8_t> input(data, size);
  size_t pattern_len = std::min<size_t>(input[0] % 8, input.size() - 1);
  std::vector<uint8_t> chunks(input.begin() + 1,
                              input.begin() + 1 + static_cast<ptrdiff_t>(pattern_len));
  std::vector<uint8_t> content(input.begin() + 1 + static_cast<ptrdiff_t>(pattern_len),
                               input.end());

  aud::ScriptedStream stream(content, chunks);
  // Each iteration consumes at least a header's worth of bytes or hits EOF /
  // a malformed header, so this terminates; the cap is belt and braces.
  std::vector<aud::FramedMessage> blocking_messages;
  for (int i = 0; i < 4096; ++i) {
    std::optional<aud::FramedMessage> msg = aud::ReadMessage(&stream);
    if (!msg.has_value()) {
      break;
    }
    aud::CheckRoundTrip(*msg);
    blocking_messages.push_back(std::move(*msg));
  }

  // The resumable framer over the same content must recover the identical
  // message sequence, no matter where the would-block injections land: the
  // loop-plane parse (DESIGN.md decision 14) and the blocking client-side
  // parse are the same protocol or one of them is wrong.
  aud::ScriptedNonBlockingStream nb(std::move(content), std::move(chunks));
  aud::Framer framer;
  std::vector<aud::FramedMessage> incremental_messages;
  bool dead = false;
  // Every iteration either delivers a message, consumes bytes, ends a read
  // round, or flips the one-shot would-block latch; the cap covers the
  // worst interleaving.
  for (int i = 0; i < (1 << 20) && !dead; ++i) {
    aud::FramedMessage msg;
    switch (framer.TryReadMessage(&nb, &msg)) {
      case aud::FrameStatus::kMessage:
        incremental_messages.push_back(std::move(msg));
        break;
      case aud::FrameStatus::kWouldBlock:
        break;  // "wait for readiness": just try again
      case aud::FrameStatus::kEof:
      case aud::FrameStatus::kMalformed:
        dead = true;
        break;
    }
    if (incremental_messages.size() > blocking_messages.size()) {
      std::fprintf(stderr, "fuzz_framer: incremental parse produced extra messages\n");
      std::abort();
    }
  }
  if (!dead) {
    std::fprintf(stderr, "fuzz_framer: incremental parse failed to terminate\n");
    std::abort();
  }
  if (incremental_messages.size() != blocking_messages.size()) {
    std::fprintf(stderr,
                 "fuzz_framer: incremental parse found %zu messages, blocking found %zu\n",
                 incremental_messages.size(), blocking_messages.size());
    std::abort();
  }
  for (size_t i = 0; i < blocking_messages.size(); ++i) {
    if (!aud::SameMessage(blocking_messages[i], incremental_messages[i])) {
      std::fprintf(stderr, "fuzz_framer: incremental/blocking message %zu mismatch\n", i);
      std::abort();
    }
  }
  return 0;
}
