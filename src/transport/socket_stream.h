// Socket transport: the "networked access to resources" requirement of
// section 2 — a client connects to the audio server of any workstation on
// the network the same way X clients reach remote displays. In-process
// clients use a connected AF_UNIX socket pair, so every connection reaches
// the server's event loops the same way. Every socket this file creates is
// close-on-exec, so none leaks into a forked tool.

#ifndef SRC_TRANSPORT_SOCKET_STREAM_H_
#define SRC_TRANSPORT_SOCKET_STREAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/transport/stream.h"

namespace aud {

// A connected stream-socket endpoint (TCP or one end of a socket pair).
class SocketStream : public ByteStream {
 public:
  // Takes ownership of a connected fd.
  explicit SocketStream(int fd) : fd_(fd) {}
  ~SocketStream() override;

  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  bool Write(std::span<const uint8_t> data) override;
  size_t Read(std::span<uint8_t> out) override;
  void Close() override;

  // Non-blocking variants for the server's event loops. send/recv run with
  // MSG_DONTWAIT, so the fd itself stays in blocking mode and the blocking
  // Read/Write above keep working on the same stream.
  IoResult ReadSome(std::span<uint8_t> out) override;
  IoResult WriteSome(std::span<const uint8_t> data) override;
  int pollable_fd() const override {
    return fd_.load(std::memory_order_relaxed);
  }

 private:
  // Atomic: Close() may run from one thread while another blocks in Read().
  std::atomic<int> fd_;
};

// Listening socket. Bind to port 0 for an ephemeral port.
class SocketListener {
 public:
  SocketListener() = default;
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // Binds and listens on 127.0.0.1:`port` with a SOMAXCONN backlog, so a
  // connect burst queues in the kernel instead of stalling on SYN
  // retransmits. Returns false on failure.
  bool Listen(uint16_t port);

  // The bound port (useful after Listen(0)).
  uint16_t port() const { return port_; }

  // Blocks for the next connection; nullptr only when the listener has
  // been closed. Transient accept(2) failures — EINTR, ECONNABORTED,
  // EMFILE/ENFILE, ENOMEM/ENOBUFS — are retried internally with bounded
  // exponential backoff (1 ms doubling to 100 ms) so one failure burst can
  // never permanently stop the server accepting. The first failure of a
  // burst is logged; subsequent ones are only counted.
  std::unique_ptr<ByteStream> Accept();

  // Unblocks Accept.
  void Close();

  // Total transient accept failures retried since Listen (a monotone
  // counter the server mirrors into its accept_retries stat).
  uint64_t accept_retries() const {
    return accept_retries_.load(std::memory_order_relaxed);
  }

  // Test hook: the next Accept() calls consume these errno values (one per
  // call) instead of calling accept(2), exercising the retry/backoff paths
  // deterministically. Not thread-safe against a concurrent Accept.
  void InjectAcceptErrnosForTest(std::vector<int> errnos);

 private:
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
  // Set by Close(); distinguishes "listener shut down" from a transient
  // accept failure (after shutdown(2), accept returns EINVAL on Linux).
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> accept_retries_{0};
  std::vector<int> injected_errnos_;
};

// Connects to 127.0.0.1:`port`; nullptr on failure.
std::unique_ptr<ByteStream> ConnectTcp(const std::string& host, uint16_t port);

// Creates a connected pair of endpoints over socketpair(AF_UNIX): one end
// goes to AudioServer::AddConnection, the other to an in-process client.
// Both are null if the kernel refuses the pair.
std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>> CreatePipePair();

}  // namespace aud

#endif  // SRC_TRANSPORT_SOCKET_STREAM_H_
