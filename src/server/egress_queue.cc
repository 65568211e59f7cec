#include "src/server/egress_queue.h"

namespace aud {

namespace {

size_t FrameBytes(const EgressFrame& frame) {
  return kHeaderSize + frame.payload.size();
}

}  // namespace

EgressPushResult EgressQueue::Push(EgressFrame frame) {
  const size_t bytes = FrameBytes(frame);
  EgressPushResult result{EgressPushStatus::kQueued, 0};
  {
    MutexLock lock(&mu_);
    if (closed_ || draining_) {
      return {EgressPushStatus::kClosed, 0};
    }
    if (queued_bytes_ + bytes > budget_bytes_) {
      if (policy_ == EgressOverflowPolicy::kDisconnect) {
        return {EgressPushStatus::kOverflow, 0};
      }
      // Shed oldest events until the new frame fits. Replies and errors
      // stay: a client blocked in a round-trip is owed its answer.
      for (auto it = frames_.begin();
           it != frames_.end() && queued_bytes_ + bytes > budget_bytes_;) {
        if (it->type == MessageType::kEvent) {
          queued_bytes_ -= FrameBytes(*it);
          if (bytes_gauge_ != nullptr) {
            bytes_gauge_->Sub(static_cast<int64_t>(FrameBytes(*it)));
          }
          it = frames_.erase(it);
          ++result.dropped_events;
        } else {
          ++it;
        }
      }
      if (queued_bytes_ + bytes > budget_bytes_) {
        // Undroppable backlog still over budget. An incoming event is
        // itself sheddable; anything else means the client has stopped
        // reading replies — overflow, let the caller disconnect it.
        if (frame.type == MessageType::kEvent) {
          ++result.dropped_events;
          dropped_events_.fetch_add(result.dropped_events,
                                    std::memory_order_relaxed);
          return result;
        }
        if (result.dropped_events > 0) {
          dropped_events_.fetch_add(result.dropped_events,
                                    std::memory_order_relaxed);
        }
        result.status = EgressPushStatus::kOverflow;
        return result;
      }
    }
    queued_bytes_ += bytes;
    if (bytes_gauge_ != nullptr) {
      bytes_gauge_->Add(static_cast<int64_t>(bytes));
    }
    frames_.push_back(std::move(frame));
  }
  if (result.dropped_events > 0) {
    dropped_events_.fetch_add(result.dropped_events, std::memory_order_relaxed);
  }
  return result;
}

bool EgressQueue::TryPop(EgressFrame* out) {
  MutexLock lock(&mu_);
  if (closed_ || frames_.empty()) {
    return false;
  }
  *out = std::move(frames_.front());
  frames_.pop_front();
  const size_t bytes = FrameBytes(*out);
  queued_bytes_ -= bytes;
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Sub(static_cast<int64_t>(bytes));
  }
  return true;
}

bool EgressQueue::finished_draining() const {
  MutexLock lock(&mu_);
  return closed_ || (draining_ && frames_.empty());
}

void EgressQueue::BeginDrain() {
  MutexLock lock(&mu_);
  draining_ = true;
}

void EgressQueue::CloseNow() {
  MutexLock lock(&mu_);
  closed_ = true;
  if (bytes_gauge_ != nullptr && queued_bytes_ > 0) {
    bytes_gauge_->Sub(static_cast<int64_t>(queued_bytes_));
  }
  queued_bytes_ = 0;
  frames_.clear();
}

size_t EgressQueue::queued_bytes() const {
  MutexLock lock(&mu_);
  return queued_bytes_;
}

}  // namespace aud
