// EventLoop: readiness-driven I/O multiplexing for the connection plane.
// One instance owns one thread, one level-triggered epoll set and the
// descriptors watched in it; the server shards every client connection
// across a fixed pool of these by connection index (DESIGN.md decision 14).
//
// Threading contract: handlers and the sweep callback run on the loop
// thread only, with no EventLoop lock held — a handler may freely take the
// server's big lock, re-enter Add/Remove/SetWantWrite, or tear its own
// connection down. Registration calls are thread-safe: from the loop
// thread they apply immediately, from any other thread they enqueue onto a
// pending-op queue (guarded by mu_, rank kEventLoop) and wake the loop via
// an eventfd.

#ifndef SRC_TRANSPORT_EVENT_LOOP_H_
#define SRC_TRANSPORT_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/obs.h"
#include "src/common/thread_annotations.h"

namespace aud {

// Readiness bits passed to handlers.
inline constexpr uint32_t kLoopReadable = 1u << 0;
inline constexpr uint32_t kLoopWritable = 1u << 1;
inline constexpr uint32_t kLoopError = 1u << 2;  // EPOLLERR/EPOLLHUP

// Optional observability sinks (all may be null). The server points these
// at its ServerMetrics fields so every loop feeds the same v6 stats.
struct EventLoopMetrics {
  obs::Counter* epoll_waits = nullptr;         // wait syscalls issued
  obs::Counter* wakeups = nullptr;             // eventfd wakeups consumed
  obs::Counter* readiness_spurious = nullptr;  // events with no useful work
  obs::Gauge* fds_watched = nullptr;           // currently registered fds
  obs::LatencyHistogram* dispatch_us = nullptr;  // per-handler run time
};

struct EventLoopOptions {
  // Upper bound on one wait; bounds sweep latency for drain deadlines.
  uint32_t wait_timeout_ms = 50;
  EventLoopMetrics metrics;
};

class EventLoop {
 public:
  using Handler = std::function<void(uint32_t events)>;

  explicit EventLoop(EventLoopOptions options = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Spawns the loop thread. False if epoll or the eventfd could not be set
  // up.
  bool Start();

  // Stops and joins the loop thread; pending ops are discarded. Idempotent.
  void Stop();

  // Periodic callback run on the loop thread about every wait_timeout_ms,
  // after a wait round (not after every one: a busy loop would otherwise
  // run it thousands of times a second). Set before Start.
  void set_sweep(std::function<void()> sweep) { sweep_ = std::move(sweep); }

  // Watches `fd` for readability (writability is armed separately). The
  // handler stays alive through any in-flight dispatch even if Remove runs
  // from inside it. Call only after Start.
  void Add(int fd, Handler handler);

  // Stops watching `fd`. From the loop thread this applies immediately;
  // from other threads the handler may fire once more before the op lands.
  void Remove(int fd);

  // Arms or disarms write-readiness interest for a watched fd.
  void SetWantWrite(int fd, bool want);

  // Forces the loop out of its wait (used by Stop and cross-thread ops).
  void Wakeup();

  // Ops queued from other threads that the loop has not applied yet.
  size_t pending_ops() {
    MutexLock lock(&mu_);
    return pending_.size();
  }

  bool OnLoopThread() const {
    // Before the loop thread publishes its id, callers see "not the loop
    // thread" and take the (always-correct) queued-op path.
    return std::this_thread::get_id() ==
           loop_thread_id_.load(std::memory_order_acquire);
  }

 private:
  struct Op {
    enum class Kind : uint8_t { kAdd, kRemove, kWantWrite };
    Kind kind;
    int fd = -1;
    bool want_write = false;
    std::shared_ptr<Handler> handler;
  };
  // Loop-thread-only registration record. The shared_ptr lets a handler
  // Remove itself mid-dispatch without destroying the std::function it is
  // currently executing.
  struct Watch {
    std::shared_ptr<Handler> handler;
    bool want_write = false;
  };

  void Run();
  // Applies `op` now on the loop thread, else queues it and wakes the loop.
  void Submit(Op op);
  void ApplyPending();
  void ApplyOp(Op op);                      // loop thread only
  void SyncInterest(int fd, const Watch& watch, bool add);  // epoll_ctl
  void WaitAndDispatch();
  void DispatchEvent(int fd, uint32_t events);
  void DrainWakeup();

  EventLoopOptions options_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd, watched by the loop

  std::thread thread_;
  std::atomic<std::thread::id> loop_thread_id_{};
  std::atomic<bool> running_{false};
  std::function<void()> sweep_;

  Mutex mu_{LockRank::kEventLoop, "EventLoop::mu_"};
  std::vector<Op> pending_ AUD_GUARDED_BY(mu_);
  // Mirrors !pending_.empty(), so a wake with nothing queued skips mu_.
  // Set under mu_ before the submitter's eventfd write, so the loop's next
  // round sees it.
  std::atomic<bool> has_pending_{false};
  // The loop thread's swap partner for pending_: the two vectors trade
  // storage, so the queue keeps its capacity across rounds.
  std::vector<Op> applying_;

  // Owned by the loop thread; cross-thread mutation goes through pending_.
  std::unordered_map<int, Watch> watches_;
};

}  // namespace aud

#endif  // SRC_TRANSPORT_EVENT_LOOP_H_
