// AudioServer: the composed server process — connection manager, request
// dispatcher and engine pump around a ServerState. One server controls one
// workstation's audio hardware (section 4.1).
//
// Threading (section 6.1's thread inventory, adapted):
//   * the connection-manager thread accepts TCP connections;
//   * kConnectionLoops event-loop threads serve every client connection,
//     TCP and in-process alike: each parses its connections' requests,
//     dispatches them and flushes their egress (DESIGN.md decision 14);
//   * the engine thread (realtime mode) pumps the board every period and
//     runs the whole tick on that one thread.
// All protocol *mutation* is serialized by one state lock; the loops take
// it once per batch of up to kHoldFrames buffered requests. The engine
// tick does NOT hold it across the fan-out (DESIGN.md decision 12): Tick()
// takes the lock only for the short epoch open (runnable-root snapshot)
// and epoch commit (event batches, codec resolve, board advance) critical
// sections. During the fan-out the tick
// holds one root LOUD's engine shard lock (Loud::engine_mutex()) at a
// time, while it ticks that root, which is what serializes it against
// engine-plane requests on the same root; structural requests
// (create/destroy/rewire/activate/sound data) wait for the epoch boundary
// via ServerState::WaitEngineIdle(). Lock rank: state lock -> one root
// engine lock -> leaf locks.
//
// Time can instead be driven manually with StepFrames() for deterministic
// tests and virtual-time benches.

#ifndef SRC_SERVER_SERVER_H_
#define SRC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/server/connection.h"
#include "src/server/server_state.h"
#include "src/transport/event_loop.h"
#include "src/transport/fault_stream.h"
#include "src/transport/socket_stream.h"
#include "src/transport/stream.h"

namespace aud {

// Most frames one hold of the state lock dispatches (DESIGN.md decision
// 14): long enough to amortise the acquire over a pipelined burst, short
// enough that an epoch open or commit queued behind it waits for a few
// dozen requests at most.
inline constexpr uint32_t kHoldFrames = 64;

// Event-loop threads serving all connections, sharded by connection index.
// Fixed: on a 4-vCPU host two loops matched or beat one on every perfbench
// workload and held the bench_capacity ladder (DESIGN.md decision 14).
inline constexpr uint32_t kConnectionLoops = 2;

struct ServerOptions {
  std::string name = "netaudio";
  // Engine period in frames at the board rate (160 = 20 ms at 8 kHz).
  size_t period_frames = 160;
  // Byte budget for the decoded-PCM cache (linear samples already resampled
  // to the engine rate, keyed by sound generation). 0 disables caching and
  // every Play decodes incrementally. 8 MiB holds ~8.7 minutes of 8 kHz
  // audio — plenty for a prompt catalogue.
  size_t decoded_cache_bytes = 8 * 1024 * 1024;
  // Per-connection outbound byte budget (DESIGN.md decision 11). A slow
  // client that fills it loses its oldest events first; replies and errors
  // are never dropped, and a reply backlog alone past the budget
  // disconnects the client.
  size_t egress_buffer_bytes = kDefaultEgressBudgetBytes;
  // Server-side transport fault injection for chaos tests: every accepted
  // stream is wrapped in a per-connection seeded FaultStream. Disabled by
  // default.
  FaultOptions fault;
  // Request-trace sampling period: every Nth request per connection gets a
  // root span and request-scoped child spans down the audio path (DESIGN.md
  // decision 13). 0 disables tracing entirely (the default) — the hot path
  // then pays only one integer increment per request.
  uint32_t trace_sample_every = 0;
  // -- Overload protection (DESIGN.md decision 15). Zero disables each
  // limit; all limits are per connection except max_connections.
  // Admission control: connections beyond this, and always beyond
  // kMaxClientConnections, are politely closed at accept time (and
  // counted).
  size_t max_connections = 0;
  // Token-bucket rate limits checked by the owning loop before dispatch:
  // requests per second and ingress bytes per second, each with a burst
  // capacity (0 = one second's worth of the rate). An over-rate request is
  // answered with kRateLimited and the connection is kept.
  uint32_t limit_rps = 0;
  uint32_t limit_rps_burst = 0;
  uint64_t limit_bps = 0;
  uint64_t limit_bps_burst = 0;
  // Per-client resource quotas enforced in the dispatcher with
  // kQuotaExceeded: live virtual devices, stored sound bytes, and
  // concurrent plays/records (started command queues) per connection.
  uint32_t quota_devices = 0;
  uint64_t quota_sound_bytes = 0;
  uint32_t quota_plays = 0;
};

// Sampling decision for one request, made by the owning loop before it
// queues for the state lock and threaded through dispatch so every span the
// request produces shares one trace id and hangs off one root span.
// trace_id == 0 means "not sampled" everywhere.
struct TraceContext {
  uint64_t trace_id = 0;  // (client id-base << 32) | request sequence
  uint64_t root_seq = 0;  // pre-reserved seq of the root kSpanRequest span
};

class AudioServer {
 public:
  // `board` must outlive the server.
  explicit AudioServer(Board* board);
  AudioServer(Board* board, ServerOptions options);
  ~AudioServer();

  AudioServer(const AudioServer&) = delete;
  AudioServer& operator=(const AudioServer&) = delete;

  // -- Connections -------------------------------------------------------------

  // Adopts a connected transport endpoint — an accepted TCP socket, or one
  // end of CreatePipePair whose other end goes to an in-process Alib
  // client — and registers it with its event loop.
  void AddConnection(std::unique_ptr<ByteStream> stream);

  // Starts the connection-manager thread on 127.0.0.1:`port` (0 for an
  // ephemeral port). Returns false if the bind failed.
  bool ListenTcp(uint16_t port);
  uint16_t tcp_port() const { return listener_.port(); }

  // Direct listener access for tests (errno injection, retry counters).
  SocketListener& listener_for_test() { return listener_; }

  size_t connection_count();

  // -- Time ---------------------------------------------------------------------

  // Manual time: advances the engine by `frames` (in whole periods; a
  // trailing partial period is run as its own smaller tick). Must not be
  // mixed with StartRealtime.
  void StepFrames(int64_t frames);

  // Realtime mode: an engine thread pumps one period every period-length
  // of wall time.
  void StartRealtime();
  void StopRealtime();
  bool realtime() const { return engine_running_; }

  // -- Introspection ----------------------------------------------------------------

  // The state lock; tests take it around direct state() access.
  Mutex& mutex() AUD_RETURN_CAPABILITY(mu_) { return mu_; }
  ServerState& state() AUD_REQUIRES(mu_) { return state_; }
  const ServerOptions& options() const { return options_; }

  // Stops all threads and closes all connections.
  void Shutdown();

  // Graceful drain (DESIGN.md decision 15): stop accepting, keep answering
  // in-flight requests, wait for every connection's egress backlog to flush
  // (bounded by `deadline`), hang up any off-hook telephone lines, then
  // Shutdown. Returns true when every backlog flushed inside the deadline;
  // false when the deadline expired and connections with unflushed egress
  // were forced closed (and counted).
  bool Drain(std::chrono::milliseconds deadline);
  bool draining() const { return draining_.load(); }

  // Occupied connection slots: every connection whose teardown has not
  // yet run (tests).
  size_t connection_objects_for_test();

  // Number of event-loop threads actually running (kConnectionLoops unless
  // one failed to start).
  size_t connection_loops() const { return loops_.size(); }
  // The loop that serves connection index `i`'s shard (tests).
  EventLoop& loop_for_test(uint32_t i) { return *loops_[i % loops_.size()]; }

  // Runs on a loop thread each time a hold ends at kHoldFrames with more
  // frames buffered, after the state lock is released (tests). Set before
  // any client connects.
  void set_hold_released_for_test(std::function<void()> hook) {
    hold_released_for_test_ = std::move(hook);
  }

 private:
  void AcceptLoop();
  void EngineLoop();

  // What a request carries into dispatch: when it started waiting (for
  // the state lock, if it opens a hold) and its trace sampling decision.
  struct Arrival {
    std::chrono::steady_clock::time_point at;
    TraceContext trace;
    int64_t trace_t0_us = 0;  // root-span start, when sampled
  };
  Arrival Arrive(ClientConnection* conn, const FramedMessage& message);

  // Everything a request goes through between framing and its reply, under
  // the caller's hold of the state lock: HandleRequest, its one
  // lock_wait_us sample, and the root span.
  void DispatchRequest(ClientConnection* conn, const FramedMessage& message,
                       const Arrival& arrival, uint64_t lock_wait_us) AUD_REQUIRES(mu_);

  // Dispatches `*message`, which passed the rate gate, and the frames
  // buffered behind it under one hold of the state lock: at most
  // kHoldFrames, ending early at the round's last frame or once the
  // connection closes. Leaves in `*status` the read that ended the hold;
  // kMessage means `*message` is the next frame, not yet gated.
  void DispatchHold(ClientConnection* conn, FramedMessage* message, FrameStatus* status)
      AUD_EXCLUDES(mu_);

  // Token-bucket rate gate, checked by the owning loop thread after
  // byte accounting and before dispatch (DESIGN.md decision 15). True:
  // within budget, dispatch. False: the request was answered with
  // kRateLimited and must not be dispatched.
  bool CheckRateLimit(ClientConnection* conn, const FramedMessage& message);

  // Event-loop connection plane (DESIGN.md decision 14). All of these run
  // on the loop thread that owns the connection's fd; teardown for a
  // connection therefore never races itself.
  void StartLoops();
  // The bool-returning loop helpers report liveness: false means the
  // connection was torn down and destroyed, and the caller must not touch
  // it again.
  void LoopHandleReady(ClientConnection* conn, uint32_t events);
  bool LoopReadAndDispatch(ClientConnection* conn);
  bool LoopFlush(ClientConnection* conn);
  bool LoopBeginDrain(ClientConnection* conn);
  void LoopTeardown(ClientConnection* conn);
  void LoopSweep(uint32_t loop_index);

  // Frees every resource a departed client owned (the paper's
  // per-connection container teardown): waits out any in-flight epoch,
  // destroys the client's objects with one activation pass, closes the
  // connection's gauge and trace, and empties its slot onto the free list,
  // all in one hold of the state lock; then destroys `conn` once the lock
  // is released. The one destroy point of a connection, reached from the
  // loop teardown and, for connections whose loop stopped first, Shutdown.
  void ReclaimConnection(ClientConnection* conn) AUD_EXCLUDES(mu_);

  // Tick-driver access to the state. Tick() manages the state lock itself
  // (epoch open/commit take it; the fan-out runs without it — the state
  // was constructed with the lock), so the callers must NOT hold mu_; the
  // annotation opt-out reflects that inverted ownership.
  ServerState& tick_state() AUD_NO_THREAD_SAFETY_ANALYSIS { return state_; }

  // Dispatcher (dispatcher.cc). `received_at` is taken by the loop thread
  // before it queues for the state lock (for the first request of a hold;
  // the rest as their dispatch starts), so dispatch_us covers state-lock
  // wait + handling — the end-to-end server-side dispatch latency that the
  // epoch-snapshot tick is designed to bound (DESIGN.md decision 12).
  void HandleRequest(ClientConnection* conn, const FramedMessage& message,
                     std::chrono::steady_clock::time_point received_at,
                     const TraceContext& trace) AUD_REQUIRES(mu_);
  bool HandleSetup(ClientConnection* conn, const FramedMessage& message);

  // Queues encoded events (AppendEventFrame) on one connection. The
  // event-sender target of ServerState (dispatch or epoch commit), also
  // called by the dispatcher's redirection; all run with mu_ held, but the
  // std::function indirection hides that from the analysis, hence the
  // opt-out.
  void DeliverEvents(uint32_t conn_index, std::vector<uint8_t> frames, uint32_t events)
      AUD_NO_THREAD_SAFETY_ANALYSIS;

  Board* board_;
  ServerOptions options_;
  Mutex mu_{LockRank::kServerState, "AudioServer::mu_"};
  // All protocol state — devices, queues, the registry — is one
  // unit under the big lock (DESIGN.md decision 9).
  ServerState state_ AUD_GUARDED_BY(mu_);
  // state_.metrics() is all relaxed atomics; this unguarded alias lets the
  // loop/engine hot paths count bytes and jitter without taking mu_.
  ServerMetrics* metrics_ = nullptr;

  // Shard-lock wait the request being dispatched has met so far; folded
  // into its lock_wait_us sample.
  uint64_t shard_wait_us_ AUD_GUARDED_BY(mu_) = 0;
  std::function<void()> hold_released_for_test_;

  // The connection slot table: a connection's index is its slot (and names
  // its id block), so DeliverEvents is one lookup. ReclaimConnection empties
  // a slot and pushes it on free_slots_; AddConnection takes the most
  // recently freed slot before it grows the table, which never exceeds
  // kMaxClientConnections.
  std::vector<std::unique_ptr<ClientConnection>> connections_ AUD_GUARDED_BY(mu_);
  std::vector<uint32_t> free_slots_ AUD_GUARDED_BY(mu_);

  SocketListener listener_;
  std::thread accept_thread_;

  // The event-loop pool. Started at construction, stopped by Shutdown
  // after every connection is hard-closed.
  std::vector<std::unique_ptr<EventLoop>> loops_;

  std::thread engine_thread_;
  std::atomic<bool> engine_running_{false};
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> draining_{false};
};

}  // namespace aud

#endif  // SRC_SERVER_SERVER_H_
