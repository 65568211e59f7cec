// One client connection: the transport endpoint plus per-client protocol
// state. The connection manager creates one of these per accepted stream
// and keeps "a container object for each client connection" (section 6.1);
// the object registry tags every resource with its owning connection so
// disconnect cleanup is exact.
//
// A connection owns no threads: the server's event loop that the
// connection is sharded to reads and reassembles its requests, dispatches
// them, and drains its bounded egress queue (DESIGN.md decision 14). Send*
// enqueue and never perform transport I/O, so they are safe to call with
// the big lock held (DESIGN.md decision 11); they ask the owning loop to
// flush instead.

#ifndef SRC_SERVER_CONNECTION_H_
#define SRC_SERVER_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/server/egress_queue.h"
#include "src/server/metrics.h"
#include "src/server/token_bucket.h"
#include "src/transport/framer.h"
#include "src/transport/stream.h"

namespace aud {

// Default per-connection egress budget. Generous enough that only a client
// that has genuinely stopped reading ever overflows it.
inline constexpr size_t kDefaultEgressBudgetBytes = 1u << 20;  // 1 MiB

// Per-connection statistics (GetEntityStats). Same contract as the global
// ServerMetrics: every member is relaxed-atomic, so the owning loop, a
// dispatching thread and the engine may all bump them lock-free, and a
// snapshot taken from any thread never tears.
struct ConnectionStats {
  obs::Counter requests;
  obs::Counter errors;
  obs::Counter bytes_in;
  obs::Counter bytes_out;
  obs::Counter events_sent;
  obs::LatencyHistogram dispatch_us;
  // events_dropped lives on the egress queue (dropped_events_total()).
};

class ClientConnection {
 public:
  // `metrics` is the byte/event accounting sink (the server's metrics
  // aggregate; counters are atomic, so writes need no lock) and must
  // outlive the connection.
  ClientConnection(uint32_t index, std::unique_ptr<ByteStream> stream, ServerMetrics& metrics,
                   size_t egress_budget_bytes = kDefaultEgressBudgetBytes)
      : index_(index),
        stream_(std::move(stream)),
        metrics_(metrics),
        egress_(egress_budget_bytes, &metrics.egress_queued_bytes) {}

  uint32_t index() const { return index_; }

  const std::string& client_name() const { return client_name_; }
  void set_client_name(std::string name) { client_name_ = std::move(name); }

  bool closed() const { return closed_.load(); }
  void MarkClosed() { closed_.store(true); }

  // Sequence of the last request processed (stamped onto events, as in X).
  uint32_t last_sequence() const { return last_sequence_.load(); }
  void set_last_sequence(uint32_t seq) { last_sequence_.store(seq); }

  // Stops accepting new frames; the owning loop keeps flushing what is
  // already queued (a final error/refusal still reaches the client),
  // bounded by the server's drain deadline.
  void BeginDrain() {
    MarkClosed();
    egress_.BeginDrain();
  }

  // Immediate teardown: mark closed, discard the egress backlog, shut the
  // stream down so the owning loop sees it readable and tears it down. Safe
  // from any thread and idempotent; used for slow-client disconnect and
  // server shutdown.
  void HardClose();

  // Enqueues one framed message; never blocks on transport I/O. Returns
  // false once the connection is closed or the client was disconnected for
  // a reply backlog past the egress budget. Event frames may be shed under
  // pressure (counted in events_dropped) without failing the call. A
  // nonzero `trace` marks the frame request-scoped: enqueue records a
  // kSpanEgress span parented on `parent`, and the drain records a
  // kSpanWrite span for the socket write itself.
  bool Send(MessageType type, uint16_t code, uint32_t sequence,
            std::span<const uint8_t> payload, uint64_t trace = 0, uint64_t parent = 0);

  // Convenience senders.
  bool SendReply(uint16_t opcode, uint32_t sequence, std::span<const uint8_t> payload,
                 uint64_t trace = 0, uint64_t parent = 0);
  bool SendError(uint32_t sequence, const ErrorMessage& error, uint64_t trace = 0,
                 uint64_t parent = 0);
  // Queues `events` event frames built by AppendEventFrame as one egress
  // entry: one queue lock and at most one write arm for the lot. Stamps
  // each header with the sequence of the last request processed, as X
  // does. Under pressure the oldest events are shed one at a time.
  bool SendEvents(std::vector<uint8_t> frames, uint32_t events);

  uint64_t events_dropped() const { return egress_.dropped_events_total(); }
  size_t egress_queued_bytes() const { return egress_.queued_bytes(); }

  // Per-connection statistic block (lock-free; see ConnectionStats).
  ConnectionStats& stats() { return stats_; }
  const ConnectionStats& stats() const { return stats_; }

  // Per-connection trace-sampling state, owned by the loop that reads this
  // connection (only it touches it, so a plain field suffices).
  uint64_t& trace_sample_counter() { return trace_sample_counter_; }

  // Rate-limit buckets (DESIGN.md decision 15), owned by the same thread
  // that reads this connection — plain fields like the sample counter.
  // Configure (from AddConnection, before the first read) via
  // ConfigureRateLimits; check via CheckRateLimit on the server.
  void ConfigureRateLimits(double rps, double rps_burst, double bps,
                           double bps_burst) {
    rps_bucket_.Configure(rps, rps_burst);
    bps_bucket_.Configure(bps, bps_burst);
  }
  TokenBucket& rps_bucket() { return rps_bucket_; }
  TokenBucket& bps_bucket() { return bps_bucket_; }

  // ---- Event-loop driving (DESIGN.md decision 14) ----

  // Binds the connection to its loop. `arm_write` asks that loop to flush
  // this connection; Send calls it after every queued frame. Call before
  // the fd is registered (and before any Send can happen).
  void AttachLoop(uint32_t loop_index, std::function<void()> arm_write) {
    loop_index_ = loop_index;
    arm_write_ = std::move(arm_write);
  }
  uint32_t loop_index() const { return loop_index_; }
  int pollable_fd() const { return stream_->pollable_fd(); }

  // One write arm in flight at a time: a sender on another thread claims
  // the arm (true: submit it) only if none is pending since the owning
  // loop last serviced the connection. The loop releases it before it
  // flushes, so a frame queued before the release goes out with that flush
  // and one queued after it arms anew. Both are read-modify-writes, so a
  // claim that saw the arm pending is ordered before the release, and its
  // frame before the flush.
  bool ClaimWriteArm() { return !write_arm_pending_.exchange(true); }
  void ReleaseWriteArm() { write_arm_pending_.exchange(false); }

  // Batched frame reassembly (loop thread only): one read per round into
  // the framer's input buffer, then every frame it completed, then
  // kWouldBlock; a partial frame resumes across readiness events. Counts
  // each frame's bytes in.
  FrameStatus TryReadFrame(FramedMessage* out);

  // Non-blocking egress drain (loop thread only): encodes queued frames
  // into one output buffer (up to kFlushBytes) and sends it with one write
  // per batch. kIdle: nothing left to send (write interest can be
  // disarmed); kBlocked: the socket buffer filled (arm write interest);
  // kError: transport dead.
  enum class DrainStatus : uint8_t { kIdle, kBlocked, kError };
  DrainStatus DrainEgress();

  // Connection-plane driver state, touched only by the owning loop thread
  // (the sweep also runs there), so plain fields suffice.
  struct LoopState {
    bool awaiting_setup = true;
    bool draining = false;
    std::chrono::steady_clock::time_point drain_deadline{};
  };
  LoopState& loop_state() { return loop_state_; }

 private:
  // Soft cap on one flush batch: frames are encoded until the buffer
  // reaches it (a single larger frame still goes out whole).
  static constexpr size_t kFlushBytes = 64 * 1024;

  // A request-scoped frame inside the current batch, for its kSpanWrite.
  struct TracedWrite {
    uint64_t trace;
    uint64_t parent;
    uint32_t bytes;
  };

  // Encodes queued frames into out_ until it reaches kFlushBytes or the
  // queue runs dry.
  void FillBatch();
  // Queues one entry and applies the outcome: counts shed events, arms the
  // write, or cuts the client off on overflow.
  bool Enqueue(EgressFrame frame);

  uint32_t index_;
  std::unique_ptr<ByteStream> stream_;
  ServerMetrics& metrics_;
  std::string client_name_;
  ConnectionStats stats_;
  uint64_t trace_sample_counter_ = 0;
  TokenBucket rps_bucket_;
  TokenBucket bps_bucket_;
  EgressQueue egress_;
  // Loop-thread I/O state: the framer with its input buffer, and the
  // encoded batch with its write offset carried across EPOLLOUT rounds.
  Framer framer_;
  std::vector<uint8_t> out_;
  size_t out_off_ = 0;
  std::vector<TracedWrite> out_traced_;
  int64_t out_t0_ = 0;
  LoopState loop_state_;
  uint32_t loop_index_ = 0;
  std::function<void()> arm_write_;
  std::atomic<bool> write_arm_pending_{false};
  std::atomic<bool> closed_{false};
  std::atomic<uint32_t> last_sequence_{0};
};

}  // namespace aud

#endif  // SRC_SERVER_CONNECTION_H_
