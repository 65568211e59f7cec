// The transport abstraction under the protocol: "clients and a server
// communicate over a reliable full duplex, 8-bit byte stream" (section
// 4.1). The protocol is transport-independent; we provide TCP sockets (for
// networked access) and connected AF_UNIX socket pairs (for in-process
// clients, tests and benches), both behind this interface.

#ifndef SRC_TRANSPORT_STREAM_H_
#define SRC_TRANSPORT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace aud {

// Outcome of a single non-blocking I/O attempt.
enum class IoStatus : uint8_t {
  kOk,          // `bytes` were transferred (>= 1)
  kWouldBlock,  // nothing transferable right now; retry on readiness
  kEof,         // orderly end-of-stream (reads only)
  kError,       // the stream failed; no further I/O will succeed
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  size_t bytes = 0;
};

// A reliable, ordered, full-duplex byte stream endpoint. Write/Read/Close
// are blocking. Thread-compatible: one reader thread and one writer thread
// may use an endpoint concurrently.
//
// Streams backed by a pollable descriptor additionally support the
// non-blocking ReadSome/WriteSome pair, used by the server's event loops.
// The default implementations adapt the blocking calls (never returning
// kWouldBlock) for client-side wrappers that only ever block.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  // Writes all of `data`. Returns false if the peer has closed or the
  // stream failed; partial writes never succeed silently.
  virtual bool Write(std::span<const uint8_t> data) = 0;

  // Reads between 1 and out.size() bytes, blocking until at least one byte
  // is available. Returns the count, or 0 on end-of-stream.
  virtual size_t Read(std::span<uint8_t> out) = 0;

  // Shuts the stream down; concurrent and future Reads return 0 and Writes
  // return false on both ends.
  virtual void Close() = 0;

  // Non-blocking read: transfers up to out.size() bytes that are already
  // buffered. kWouldBlock means "wait for readability". The default adapts
  // the blocking Read (so it may block on non-pollable transports).
  virtual IoResult ReadSome(std::span<uint8_t> out) {
    size_t n = Read(out);
    if (n == 0) {
      return {IoStatus::kEof, 0};
    }
    return {IoStatus::kOk, n};
  }

  // Non-blocking write: transfers up to data.size() bytes without waiting.
  // kWouldBlock means "wait for writability". Partial transfers are normal.
  virtual IoResult WriteSome(std::span<const uint8_t> data) {
    if (!Write(data)) {
      return {IoStatus::kError, 0};
    }
    return {IoStatus::kOk, data.size()};
  }

  // The descriptor an event loop can watch for readiness, or -1 when the
  // transport is not pollable. The server only serves pollable streams.
  virtual int pollable_fd() const { return -1; }
};

// Reads exactly out.size() bytes. Returns false on EOF/failure.
bool ReadFully(ByteStream* stream, std::span<uint8_t> out);

}  // namespace aud

#endif  // SRC_TRANSPORT_STREAM_H_
