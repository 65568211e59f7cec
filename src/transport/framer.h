// Message framing over a ByteStream: assembles the protocol's
// header+payload messages out of arbitrary read chunks, and writes framed
// messages atomically.

#ifndef SRC_TRANSPORT_FRAMER_H_
#define SRC_TRANSPORT_FRAMER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/transport/stream.h"
#include "src/wire/messages.h"

namespace aud {

// A complete wire message.
struct FramedMessage {
  MessageHeader header;
  std::vector<uint8_t> payload;
};

// Blocking read of exactly one message. Returns nullopt on EOF or a
// malformed header (oversized length).
std::optional<FramedMessage> ReadMessage(ByteStream* stream);

// Writes one framed message; returns false on stream failure.
bool WriteMessage(ByteStream* stream, MessageType type, uint16_t code, uint32_t sequence,
                  std::span<const uint8_t> payload);

// Outcome of one TryReadMessage attempt.
enum class FrameStatus : uint8_t {
  kMessage,     // `*out` holds a complete message
  kWouldBlock,  // no complete frame buffered; call again when the stream is readable
  kEof,         // orderly end-of-stream at a frame boundary or mid-frame
  kMalformed,   // header failed strict decode; the stream is unusable
};

// Batched frame reassembly for non-blocking streams. Each instance keeps a
// per-connection input buffer: TryReadMessage serves complete frames out of
// it and calls ReadSome only when no complete frame is left, so a burst of
// pipelined requests costs one read, not two per frame plus an EAGAIN.
//
// A read round is the calls between two kWouldBlock answers, and it reads
// at most once: once the round has read, the next point with no complete
// frame buffered answers kWouldBlock without reading, and the call after
// that reads again. Every frame the read completed comes out first, so a
// caller that serves frames until kWouldBlock never leaves a complete frame
// in user space, where a level-triggered poller would not report it; bytes
// still in the kernel are re-reported. A round therefore handles at most
// one buffer of input (kInputBytes, or one larger frame).
//
// The buffer grows to hold a frame larger than kInputBytes and is released
// once it is idle again. One instance per connection direction; not
// thread-safe.
class Framer {
 public:
  // Input read per round when no larger frame is pending.
  static constexpr size_t kInputBytes = 16 * 1024;

  // Serves the next complete frame into `*out`, reusing its payload's
  // storage. kMessage fills `*out`; kWouldBlock keeps any partial frame.
  // Frames buffered before an EOF or a malformed header come out first;
  // after kEof or kMalformed the framer is sticky-dead.
  FrameStatus TryReadMessage(ByteStream* stream, FramedMessage* out);

  // True while bytes of an unfinished frame are buffered (distinguishes a
  // clean EOF from a mid-frame cut).
  bool mid_frame() const { return begin_ < end_; }

  // Bytes the input buffer currently holds allocated (tests).
  size_t input_capacity() const { return buf_.capacity(); }

 private:
  // Bytes of the frame starting at begin_, once its header is buffered;
  // 0 while fewer than kHeaderSize bytes are. Sets `*malformed` on a header
  // that fails strict decode.
  size_t BufferedFrameBytes(MessageHeader* header, bool* malformed) const;

  std::vector<uint8_t> buf_;
  size_t begin_ = 0;  // first unserved byte
  size_t end_ = 0;    // one past the last byte read
  bool read_this_round_ = false;
  bool dead_ = false;
};

}  // namespace aud

#endif  // SRC_TRANSPORT_FRAMER_H_
