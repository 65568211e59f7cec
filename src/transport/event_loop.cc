#include "src/transport/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "src/common/logging.h"

namespace aud {

EventLoop::EventLoop(EventLoopOptions options) : options_(options) {}

EventLoop::~EventLoop() {
  Stop();
  for (int fd : {epoll_fd_, wake_fd_}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

bool EventLoop::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return true;
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (wake_fd_ < 0 || epoll_fd_ < 0) {
    LogLine(LogLevel::kWarning) << "event loop: eventfd/epoll_create1 failed";
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  Wakeup();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void EventLoop::Wakeup() {
  if (wake_fd_ >= 0) {
    // A saturated counter already guarantees a pending wakeup, so EAGAIN
    // is fine.
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void EventLoop::Add(int fd, Handler handler) {
  Submit({Op::Kind::kAdd, fd, false, std::make_shared<Handler>(std::move(handler))});
}

void EventLoop::Remove(int fd) { Submit({Op::Kind::kRemove, fd, false, nullptr}); }

void EventLoop::SetWantWrite(int fd, bool want) {
  Submit({Op::Kind::kWantWrite, fd, want, nullptr});
}

void EventLoop::Submit(Op op) {
  if (OnLoopThread()) {
    ApplyOp(std::move(op));
    return;
  }
  bool wake;
  {
    MutexLock lock(&mu_);
    // Only the op that makes the queue non-empty wakes the loop: the loop
    // applies the whole queue after consuming that wakeup, so later ops
    // ride along (one eventfd write per batch, not per op).
    wake = pending_.empty();
    pending_.push_back(std::move(op));
    has_pending_.store(true, std::memory_order_release);
  }
  if (wake) {
    Wakeup();
  }
}

void EventLoop::ApplyPending() {
  if (!has_pending_.load(std::memory_order_acquire)) {
    return;
  }
  {
    MutexLock lock(&mu_);
    applying_.swap(pending_);
    has_pending_.store(false, std::memory_order_relaxed);
  }
  for (Op& op : applying_) {
    ApplyOp(std::move(op));
  }
  applying_.clear();
}

void EventLoop::ApplyOp(Op op) {
  switch (op.kind) {
    case Op::Kind::kAdd: {
      Watch& watch = watches_[op.fd];
      const bool fresh = watch.handler == nullptr;
      watch.handler = std::move(op.handler);
      watch.want_write = false;
      SyncInterest(op.fd, watch, /*add=*/fresh);
      if (fresh && options_.metrics.fds_watched != nullptr) {
        options_.metrics.fds_watched->Add(1);
      }
      break;
    }
    case Op::Kind::kRemove: {
      auto it = watches_.find(op.fd);
      if (it == watches_.end()) {
        break;
      }
      watches_.erase(it);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, op.fd, nullptr);
      if (options_.metrics.fds_watched != nullptr) {
        options_.metrics.fds_watched->Sub(1);
      }
      break;
    }
    case Op::Kind::kWantWrite: {
      auto it = watches_.find(op.fd);
      if (it == watches_.end() || it->second.want_write == op.want_write) {
        break;
      }
      it->second.want_write = op.want_write;
      SyncInterest(op.fd, it->second, /*add=*/false);
      break;
    }
  }
}

void EventLoop::SyncInterest(int fd, const Watch& watch, bool add) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (watch.want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev) != 0 &&
      add && errno == EEXIST) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
}

void EventLoop::Run() {
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  const auto sweep_every = std::chrono::milliseconds(options_.wait_timeout_ms);
  auto next_sweep = std::chrono::steady_clock::now() + sweep_every;
  while (running_.load(std::memory_order_acquire)) {
    ApplyPending();
    WaitAndDispatch();
    const auto now = std::chrono::steady_clock::now();
    if (sweep_ && now >= next_sweep) {
      sweep_();
      next_sweep = now + sweep_every;
    }
  }
}

void EventLoop::WaitAndDispatch() {
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64,
                             static_cast<int>(options_.wait_timeout_ms));
  if (options_.metrics.epoll_waits != nullptr) {
    options_.metrics.epoll_waits->Increment();
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      DrainWakeup();
      continue;
    }
    uint32_t bits = 0;
    if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
      bits |= kLoopReadable;
    }
    if ((events[i].events & EPOLLOUT) != 0) {
      bits |= kLoopWritable;
    }
    if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
      bits |= kLoopError;
    }
    DispatchEvent(fd, bits);
  }
}

void EventLoop::DispatchEvent(int fd, uint32_t events) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) {
    // Readiness outlived the registration (removed by an earlier handler
    // this round, or a cross-thread Remove landed first).
    if (options_.metrics.readiness_spurious != nullptr) {
      options_.metrics.readiness_spurious->Increment();
    }
    return;
  }
  // Keep the function alive across the call even if it removes itself.
  std::shared_ptr<Handler> handler = it->second.handler;
  const auto t0 = std::chrono::steady_clock::now();
  (*handler)(events);
  if (options_.metrics.dispatch_us != nullptr) {
    options_.metrics.dispatch_us->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
}

void EventLoop::DrainWakeup() {
  uint64_t count = 0;
  const bool woken = ::read(wake_fd_, &count, sizeof(count)) == sizeof(count);
  if (woken && options_.metrics.wakeups != nullptr) {
    options_.metrics.wakeups->Increment();
  }
  if (!woken && options_.metrics.readiness_spurious != nullptr) {
    options_.metrics.readiness_spurious->Increment();
  }
}

}  // namespace aud
