// Bounded, byte-budgeted outbound frame queue — the mechanism behind
// DESIGN.md decision 11 ("no socket I/O under mu_"). The dispatcher and
// engine enqueue replies/errors/events here without ever touching the
// transport; the event loop that owns the connection drains the queue and
// performs the non-blocking writes outside every server lock. A stalled
// client therefore backs up only its own queue, never the big lock.
//
// Events arrive as batches: one entry holding every event a tick emitted
// for the connection, already encoded (one lock and one write arm per
// connection per tick). A single frame — a reply, an error — is one entry.
//
// On overflow the queue does what an X server does: it drops the oldest
// events, one event at a time even inside a batch. Replies and errors are
// never dropped — the protocol is request/response and clients wait on
// them. If the non-droppable backlog alone exceeds the budget the client is
// not reading replies at all, and the queue reports overflow so the caller
// can disconnect it.
//
// Lock rank: EgressQueue::mu_ is a leaf (rank 2 in DESIGN.md's inventory,
// below the big lock and the per-root engine locks). TryPop moves one entry
// out under the lock; the actual transport write happens with no queue lock
// held.

#ifndef SRC_SERVER_EGRESS_QUEUE_H_
#define SRC_SERVER_EGRESS_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/obs.h"
#include "src/common/thread_annotations.h"
#include "src/transport/framer.h"
#include "src/wire/messages.h"

namespace aud {

// One queue entry, owned: a framed message, or a batch of encoded events.
// Its size in bytes is kHeaderSize + payload for a frame, and the payload
// alone for a batch.
struct EgressFrame {
  MessageType type;
  uint16_t code = 0;
  uint32_t sequence = 0;
  std::vector<uint8_t> payload;
  // Nonzero for an event batch (type kEvent): `payload` then holds that
  // many complete event frames back to back, headers included and
  // sequences stamped, and code/sequence are unused.
  uint32_t batched_events = 0;
  // Request-trace propagation (DESIGN.md decision 13): when trace != 0 the
  // drain records a kSpanWrite span for this frame, parented on `parent`
  // (the enqueue-side kSpanEgress span's seq).
  uint64_t trace = 0;
  uint64_t parent = 0;
};

// Appends one complete event frame — header and payload — to an event
// batch: the wire bytes of EventMessage{type, resource, server_time, args}.
// `args` is encoded bytes or a typed args struct (EventMessage::Encode).
// The frame is written in place: its length is counted first, the batch
// grows once, and each field is stored through a cursor. The header's
// sequence is left 0; ClientConnection::SendEvents stamps it when the
// batch is queued.
template <typename Args>
void AppendEventFrame(std::vector<uint8_t>* batch, EventType type, ResourceId resource,
                      int64_t server_time, const Args& args) {
  ByteCounter payload;
  EventMessage::Encode(&payload, type, resource, server_time, args);
  MessageHeader header;
  header.type = MessageType::kEvent;
  header.code = static_cast<uint16_t>(type);
  header.length = static_cast<uint32_t>(payload.size());
  const size_t start = batch->size();
  batch->resize(start + kHeaderSize + payload.size());
  ByteCursor w(batch->data() + start);
  header.Encode(&w);
  EventMessage::Encode(&w, type, resource, server_time, args);
}
inline void AppendEventFrame(std::vector<uint8_t>* batch, EventType type, ResourceId resource,
                             int64_t server_time, std::span<const uint8_t> args) {
  AppendEventFrame<std::span<const uint8_t>>(batch, type, resource, server_time, args);
}

// Size of the encoded frame at `offset` of an event batch: its header plus
// the payload length that header carries.
size_t BatchedFrameBytes(const std::vector<uint8_t>& batch, size_t offset);

enum class EgressPushStatus : uint8_t {
  kQueued,    // frame accepted (possibly after shedding older events)
  kOverflow,  // budget exhausted by undroppable frames: disconnect client
  kClosed,    // queue already draining/closed; frame discarded
};

struct EgressPushResult {
  EgressPushStatus status;
  // Events shed to make room (includes the pushed frame itself when an
  // incoming event is dropped because even shedding could not fit it).
  uint32_t dropped_events = 0;
};

class EgressQueue {
 public:
  // `bytes_gauge`, when set, is a server-wide gauge mirroring this queue's
  // backlog; it is adjusted on every enqueue/dequeue/shed.
  explicit EgressQueue(size_t budget_bytes, obs::Gauge* bytes_gauge = nullptr)
      : budget_bytes_(budget_bytes), bytes_gauge_(bytes_gauge) {}

  // Never blocks. Sheds the oldest events when the entry would push the
  // backlog past the byte budget; an incoming batch may itself lose its
  // oldest events.
  EgressPushResult Push(EgressFrame frame);

  // Takes the next entry if one is queued; returns false immediately
  // otherwise (whether empty, draining-and-empty, or closed). Never blocks.
  bool TryPop(EgressFrame* out);

  // True once CloseNow ran, or BeginDrain ran and the backlog is empty —
  // i.e. a drain-to-completion has nothing left to flush.
  bool finished_draining() const;

  // No further pushes; TryPop still hands out the remaining backlog. Used
  // when a connection stops reading, so a final reply/error still flushes.
  void BeginDrain();

  // Discards the backlog (slow-client disconnect, server shutdown).
  void CloseNow();

  size_t queued_bytes() const;
  uint64_t dropped_events_total() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }

 private:
  // Sheds queued events, oldest first, until `bytes` more fit the budget
  // or no sheddable event is left; returns the number shed.
  uint32_t ShedQueuedEvents(size_t bytes) AUD_REQUIRES(mu_);
  void Account(int64_t delta_bytes) AUD_REQUIRES(mu_);

  size_t budget_bytes_;
  obs::Gauge* bytes_gauge_;

  mutable Mutex mu_{LockRank::kEgressQueue, "EgressQueue::mu_"};
  std::deque<EgressFrame> frames_ AUD_GUARDED_BY(mu_);
  size_t queued_bytes_ AUD_GUARDED_BY(mu_) = 0;
  bool draining_ AUD_GUARDED_BY(mu_) = false;
  bool closed_ AUD_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> dropped_events_{0};
};

}  // namespace aud

#endif  // SRC_SERVER_EGRESS_QUEUE_H_
