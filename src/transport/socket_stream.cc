#include "src/transport/socket_stream.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/logging.h"

namespace aud {

SocketStream::~SocketStream() {
  // The owner stops every thread using the stream (a client's reader, the
  // server loop watching the fd) before destroying it, so the fd can be
  // released here without racing a blocked recv() or a readiness wait.
  const int fd = fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) {
    ::close(fd);
  }
}

bool SocketStream::Write(std::span<const uint8_t> data) {
  const int fd = fd_.load(std::memory_order_relaxed);
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

size_t SocketStream::Read(std::span<uint8_t> out) {
  const int fd = fd_.load(std::memory_order_relaxed);
  while (true) {
    ssize_t n = ::recv(fd, out.data(), out.size(), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return 0;
    }
    return static_cast<size_t>(n);
  }
}

IoResult SocketStream::ReadSome(std::span<uint8_t> out) {
  const int fd = fd_.load(std::memory_order_relaxed);
  while (true) {
    ssize_t n = ::recv(fd, out.data(), out.size(), MSG_DONTWAIT);
    if (n > 0) {
      return {IoStatus::kOk, static_cast<size_t>(n)};
    }
    if (n == 0) {
      return {IoStatus::kEof, 0};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

IoResult SocketStream::WriteSome(std::span<const uint8_t> data) {
  const int fd = fd_.load(std::memory_order_relaxed);
  while (true) {
    ssize_t n =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      return {IoStatus::kOk, static_cast<size_t>(n)};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

void SocketStream::Close() {
  // Shutdown only: this is the wake-up for a reader blocked in recv(), so
  // closing the fd here would race that recv() with fd reuse. The fd is
  // released by the destructor, after the owner joins its reader.
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

SocketListener::~SocketListener() {
  Close();
  const int fd = fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) {
    ::close(fd);
  }
}

bool SocketListener::Listen(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  return true;
}

namespace {

// accept(2) failures that do not mean the listener itself is dead. EMFILE /
// ENFILE / ENOMEM / ENOBUFS clear up when some other connection releases its
// fd; ECONNABORTED and EINTR are momentary by definition. EAGAIN appears
// here because injected test errnos route through the same classifier.
bool IsTransientAcceptError(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:
    case EMFILE:
    case ENFILE:
    case ENOMEM:
    case ENOBUFS:
    case EAGAIN:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::unique_ptr<ByteStream> SocketListener::Accept() {
  uint32_t backoff_ms = 0;  // 0 → 1 → 2 → ... → 100 (capped)
  while (true) {
    if (closed_.load(std::memory_order_relaxed) || fd_ < 0) {
      return nullptr;
    }
    int client;
    int err;
    if (!injected_errnos_.empty()) {
      client = -1;
      err = injected_errnos_.front();
      injected_errnos_.erase(injected_errnos_.begin());
    } else {
      // accept4 marks the fd close-on-exec atomically, so a concurrent
      // fork() in a spawned tool cannot inherit it.
      client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
      err = errno;
    }
    if (client >= 0) {
      int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::make_unique<SocketStream>(client);
    }
    // Close() runs shutdown(2) to unblock us, which surfaces as EINVAL (or
    // EBADF once the destructor ran): re-check the flag before classifying.
    if (closed_.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    if (!IsTransientAcceptError(err)) {
      LogLine(LogLevel::kWarning)
          << "accept failed (fatal): " << std::strerror(err);
      return nullptr;
    }
    // Transient burst: log the first failure only, count all of them, and
    // back off exponentially so an fd-exhaustion storm doesn't spin a core.
    if (backoff_ms == 0) {
      LogLine(LogLevel::kWarning)
          << "accept failed (transient, retrying): " << std::strerror(err);
      backoff_ms = 1;
    } else {
      backoff_ms = std::min<uint32_t>(backoff_ms * 2, 100);
    }
    accept_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

void SocketListener::Close() {
  // Same split as SocketStream: shutdown() unblocks a thread in Accept();
  // the destructor (after the accept thread is joined) closes the fd.
  closed_.store(true, std::memory_order_relaxed);
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

void SocketListener::InjectAcceptErrnosForTest(std::vector<int> errnos) {
  injected_errnos_ = std::move(errnos);
}

std::unique_ptr<ByteStream> ConnectTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    LogLine(LogLevel::kWarning) << "connect to " << host << ":" << port
                                << " failed: " << std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketStream>(fd);
}

std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>> CreatePipePair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    LogLine(LogLevel::kWarning) << "socketpair failed: " << std::strerror(errno);
    return {nullptr, nullptr};
  }
  return {std::make_unique<SocketStream>(fds[0]), std::make_unique<SocketStream>(fds[1])};
}

}  // namespace aud
