#include "src/server/egress_queue.h"

#include <utility>

namespace aud {

namespace {

size_t EntryBytes(const EgressFrame& entry) {
  return entry.batched_events != 0 ? entry.payload.size()
                                   : kHeaderSize + entry.payload.size();
}

// Drops `batch`'s oldest events, one at a time, until at least `excess`
// bytes are gone or the batch is empty. Returns the events and bytes shed.
std::pair<uint32_t, size_t> ShedBatchFront(EgressFrame* batch, size_t excess) {
  size_t cut = 0;
  uint32_t events = 0;
  while (cut < excess && cut < batch->payload.size()) {
    cut += BatchedFrameBytes(batch->payload, cut);
    ++events;
  }
  batch->payload.erase(batch->payload.begin(),
                       batch->payload.begin() + static_cast<std::ptrdiff_t>(cut));
  batch->batched_events -= events;
  return {events, cut};
}

}  // namespace

size_t BatchedFrameBytes(const std::vector<uint8_t>& batch, size_t offset) {
  // The payload length is the header's u32 at byte 4.
  ByteReader r(std::span<const uint8_t>(batch).subspan(offset + 4, 4));
  return kHeaderSize + r.ReadU32();
}

void EgressQueue::Account(int64_t delta_bytes) {
  queued_bytes_ = static_cast<size_t>(static_cast<int64_t>(queued_bytes_) + delta_bytes);
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Add(delta_bytes);
  }
}

uint32_t EgressQueue::ShedQueuedEvents(size_t bytes) {
  // Replies and errors stay: a client blocked in a round-trip is owed its
  // answer.
  uint32_t dropped = 0;
  for (auto it = frames_.begin();
       it != frames_.end() && queued_bytes_ + bytes > budget_bytes_;) {
    if (it->type != MessageType::kEvent) {
      ++it;
      continue;
    }
    if (it->batched_events == 0) {
      Account(-static_cast<int64_t>(EntryBytes(*it)));
      it = frames_.erase(it);
      ++dropped;
      continue;
    }
    auto [events, cut] = ShedBatchFront(&*it, queued_bytes_ + bytes - budget_bytes_);
    Account(-static_cast<int64_t>(cut));
    dropped += events;
    it = it->batched_events == 0 ? frames_.erase(it) : std::next(it);
  }
  return dropped;
}

EgressPushResult EgressQueue::Push(EgressFrame frame) {
  size_t bytes = EntryBytes(frame);
  EgressPushResult result{EgressPushStatus::kQueued, 0};
  MutexLock lock(&mu_);
  if (closed_ || draining_) {
    return {EgressPushStatus::kClosed, 0};
  }
  if (queued_bytes_ + bytes > budget_bytes_) {
    result.dropped_events = ShedQueuedEvents(bytes);
    if (queued_bytes_ + bytes > budget_bytes_) {
      // Undroppable backlog still over budget. Incoming events are
      // themselves sheddable, a batch from its oldest event on; anything
      // else means the client has stopped reading replies — overflow, let
      // the caller disconnect it.
      if (frame.type != MessageType::kEvent) {
        result.status = EgressPushStatus::kOverflow;
      } else if (frame.batched_events == 0) {
        ++result.dropped_events;  // a lone event is shed on arrival
      } else {
        auto [events, cut] = ShedBatchFront(&frame, queued_bytes_ + bytes - budget_bytes_);
        result.dropped_events += events;
        bytes -= cut;
      }
      // Nothing left to queue: an overflowing reply, a shed lone event, or
      // a batch shed whole.
      if (frame.batched_events == 0) {
        dropped_events_.fetch_add(result.dropped_events, std::memory_order_relaxed);
        return result;
      }
    }
  }
  Account(static_cast<int64_t>(bytes));
  frames_.push_back(std::move(frame));
  dropped_events_.fetch_add(result.dropped_events, std::memory_order_relaxed);
  return result;
}

bool EgressQueue::TryPop(EgressFrame* out) {
  MutexLock lock(&mu_);
  if (closed_ || frames_.empty()) {
    return false;
  }
  *out = std::move(frames_.front());
  frames_.pop_front();
  Account(-static_cast<int64_t>(EntryBytes(*out)));
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
  Account(-static_cast<int64_t>(queued_bytes_));
  frames_.clear();
}

size_t EgressQueue::queued_bytes() const {
  MutexLock lock(&mu_);
  return queued_bytes_;
}

}  // namespace aud
