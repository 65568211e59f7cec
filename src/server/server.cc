#include "src/server/server.h"

#include <algorithm>

#include "src/common/logging.h"

namespace aud {

namespace {

// The connection the calling loop thread is dispatching right now, or null
// (on every other thread, and between dispatches).
thread_local ClientConnection* t_dispatching = nullptr;

}  // namespace

AudioServer::AudioServer(Board* board) : AudioServer(board, ServerOptions{}) {}

AudioServer::AudioServer(Board* board, ServerOptions options)
    : board_(board), options_(options), state_(board, options.name, mu_) {
  state_.ConfigureDecodedCache(options.decoded_cache_bytes);
  state_.set_trace_sample_every(options.trace_sample_every);
  metrics_ = &state_.metrics();
  state_.set_event_sender(
      [this](uint32_t conn_index, std::vector<uint8_t> frames, uint32_t events) {
        DeliverEvents(conn_index, std::move(frames), events);
      });
  StartLoops();
  state_.set_connection_loops(static_cast<uint32_t>(loops_.size()));
}

void AudioServer::StartLoops() {
  EventLoopOptions lo;
  lo.metrics.epoll_waits = &metrics_->epoll_waits;
  lo.metrics.wakeups = &metrics_->wakeups;
  lo.metrics.readiness_spurious = &metrics_->readiness_spurious;
  lo.metrics.fds_watched = &metrics_->fds_watched;
  lo.metrics.dispatch_us = &metrics_->loop_dispatch_us;
  for (uint32_t i = 0; i < kConnectionLoops; ++i) {
    auto loop = std::make_unique<EventLoop>(lo);
    loop->set_sweep([this, i] { LoopSweep(i); });
    if (!loop->Start()) {
      // Out of fds or kernel memory at startup: serve on the loops that
      // did start (AddConnection refuses every client if none did).
      LogLine(LogLevel::kError) << "event loop " << i << " failed to start";
      return;
    }
    loops_.push_back(std::move(loop));
  }
}

// Called with mu_ held (from dispatch or epoch commit) — see the declaration
// for why the analysis is opted out here.
void AudioServer::DeliverEvents(uint32_t conn_index, std::vector<uint8_t> frames,
                                uint32_t events) {
  ClientConnection* conn =
      conn_index < connections_.size() ? connections_[conn_index].get() : nullptr;
  if (conn != nullptr && !conn->closed()) {
    conn->SendEvents(std::move(frames), events);
  }
}

AudioServer::~AudioServer() { Shutdown(); }

void AudioServer::AddConnection(std::unique_ptr<ByteStream> stream) {
  MutexLock lock(&mu_);
  // Admission control (decision 15): over capacity — the operator's cap or
  // the slot table's — or draining toward shutdown, the connection is
  // politely closed before it gets an fd registration, and the accept loop
  // keeps running. A stream no loop can watch is refused the same way.
  const size_t live = connections_.size() - free_slots_.size();
  if ((options_.max_connections != 0 && live >= options_.max_connections) ||
      live >= kMaxClientConnections || draining_.load() || loops_.empty() ||
      stream->pollable_fd() < 0) {
    metrics_->admission_rejects.Increment();
    stream->Close();
    return;
  }
  uint32_t index = static_cast<uint32_t>(connections_.size());
  if (free_slots_.empty()) {
    connections_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  // Fault injection is seeded per accepted connection, not per slot, so a
  // reconnecting client meets a fresh fault schedule.
  stream = MaybeWrapFault(std::move(stream),
                          options_.fault.ForInstance(metrics_->connections_total.value()));
  auto conn = std::make_unique<ClientConnection>(index, std::move(stream), *metrics_,
                                                 options_.egress_buffer_bytes);
  ClientConnection* raw = conn.get();
  // Burst defaults to one second's worth of the rate (decision 15).
  raw->ConfigureRateLimits(
      static_cast<double>(options_.limit_rps),
      static_cast<double>(options_.limit_rps_burst != 0 ? options_.limit_rps_burst
                                                        : options_.limit_rps),
      static_cast<double>(options_.limit_bps),
      static_cast<double>(options_.limit_bps_burst != 0 ? options_.limit_bps_burst
                                                        : options_.limit_bps));
  metrics_->connections_total.Increment();
  metrics_->connections_open.Add(1);
  obs::Trace(obs::TraceReason::kConnectionOpen, raw->index());
  // Shard by connection index, not fd: a socket pair's two fds are
  // adjacent, so with an even loop count every in-process server end would
  // hash to the same loop.
  const int fd = raw->pollable_fd();
  const uint32_t loop_index = index % static_cast<uint32_t>(loops_.size());
  EventLoop* loop = loops_[loop_index].get();
  raw->AttachLoop(loop_index, [loop, fd, raw] {
    // The loop flushes the connection it is dispatching once the dispatch
    // returns; every other target — a connection of another loop, or of
    // this one (a request on A emitting an event for B) — needs its write
    // interest armed, or the frame waits for the target's next read. An
    // arm still pending covers this frame too, so only one is submitted.
    if (t_dispatching != raw && raw->ClaimWriteArm()) {
      loop->SetWantWrite(fd, true);
    }
  });
  // The fd is registered after the connection is published (still under
  // mu_, so the first readiness dispatch — which takes mu_ — cannot
  // overtake us).
  connections_[index] = std::move(conn);
  loop->Add(fd, [this, raw](uint32_t events) { LoopHandleReady(raw, events); });
}

bool AudioServer::ListenTcp(uint16_t port) {
  if (!listener_.Listen(port)) {
    return false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

size_t AudioServer::connection_count() {
  MutexLock lock(&mu_);
  return static_cast<size_t>(std::ranges::count_if(connections_, [](const auto& conn) {
    return conn != nullptr && !conn->closed();
  }));
}

void AudioServer::AcceptLoop() {
  uint64_t retries_seen = 0;
  while (!shutting_down_.load()) {
    // Transient accept failures (EINTR, ECONNABORTED, fd exhaustion) are
    // retried inside Accept with bounded backoff; nullptr means the
    // listener itself was closed.
    std::unique_ptr<ByteStream> stream = listener_.Accept();
    const uint64_t retries = listener_.accept_retries();
    if (retries > retries_seen) {
      metrics_->accept_retries.Increment(retries - retries_seen);
      retries_seen = retries;
    }
    if (stream == nullptr) {
      return;
    }
    AddConnection(std::move(stream));
  }
}

AudioServer::Arrival AudioServer::Arrive(ClientConnection* conn,
                                        const FramedMessage& message) {
  // Sampling decision (dispatching-thread-local counter, so no atomics).
  // The root span's seq is reserved up front: children recorded during
  // dispatch parent on it, and the root itself is written last with its
  // start backdated to arrival so the sort-by-time merge nests correctly.
  Arrival arrival;
  const uint32_t sample_every = options_.trace_sample_every;
  if (sample_every != 0 && (conn->trace_sample_counter()++ % sample_every) == 0) {
    auto& tracer = obs::TraceRegistry::Instance();
    arrival.trace.trace_id = (static_cast<uint64_t>(ClientIdBaseFor(conn->index())) << 32) |
                             message.header.sequence;
    arrival.trace.root_seq = tracer.ReserveSeq();
    arrival.trace_t0_us = tracer.NowUs();
  }
  arrival.at = std::chrono::steady_clock::now();
  return arrival;
}

void AudioServer::DispatchRequest(ClientConnection* conn, const FramedMessage& message,
                                  const Arrival& arrival, uint64_t lock_wait_us) {
  conn->set_last_sequence(message.header.sequence);
  shard_wait_us_ = 0;
  HandleRequest(conn, message, arrival.at, arrival.trace);
  // One sample per request, like dispatch_us: the state-lock wait it
  // carried plus any shard-lock wait its handler met.
  metrics_->lock_wait_us.Record(lock_wait_us + shard_wait_us_);
  if (arrival.trace.trace_id != 0) {
    auto& tracer = obs::TraceRegistry::Instance();
    tracer.SpanWithSeq(arrival.trace.root_seq, obs::TraceReason::kSpanRequest,
                       arrival.trace.trace_id, 0, arrival.trace_t0_us,
                       static_cast<uint32_t>(tracer.NowUs() - arrival.trace_t0_us),
                       message.header.code);
    metrics_->trace_spans.Increment();
    metrics_->trace_requests_sampled.Increment();
    metrics_->last_trace_id.store(arrival.trace.trace_id, std::memory_order_relaxed);
  }
}

bool AudioServer::CheckRateLimit(ClientConnection* conn, const FramedMessage& message) {
  TokenBucket& rps = conn->rps_bucket();
  TokenBucket& bps = conn->bps_bucket();
  if (!rps.enabled() && !bps.enabled()) {
    return true;
  }
  const auto now = std::chrono::steady_clock::now();
  // Both buckets are charged even when one refuses, so a client that is
  // over on requests still pays for the bytes it made the server read.
  const bool rps_ok = rps.TryAcquire(1.0, now);
  const bool bps_ok = bps.TryAcquire(
      static_cast<double>(kHeaderSize + message.payload.size()), now);
  if (rps_ok && bps_ok) {
    return true;
  }
  metrics_->rate_limited.Increment();
  // The request is dropped without dispatch and answered with kRateLimited
  // on its own sequence; the connection stays. Not counted in
  // requests_total — the dispatcher never saw it.
  ErrorMessage error;
  error.code = ErrorCode::kRateLimited;
  error.resource = kNoResource;
  error.opcode = message.header.code;
  error.detail = rps_ok ? "ingress byte rate exceeded" : "request rate exceeded";
  conn->SendError(message.header.sequence, error);
  return false;
}

// ---- Event-loop connection plane (DESIGN.md decision 14) -------------------
//
// Every function below runs on the loop thread owning the connection's fd
// (handlers and the sweep are dispatched there, and teardown removes the fd
// before finishing), so the per-connection LoopState needs no lock.

void AudioServer::LoopHandleReady(ClientConnection* conn, uint32_t events) {
  // LoopTeardown destroys the connection and removes its fd, so this
  // handler never runs for it again. Every helper below returns false the
  // moment the connection was torn down, and no code path touches `conn`
  // after a false return.
  auto& ls = conn->loop_state();
  // Frames queued for `conn` during this call are flushed at its end, so
  // its Sends skip arming write interest; see AddConnection.
  struct Dispatching {
    explicit Dispatching(ClientConnection* conn) { t_dispatching = conn; }
    ~Dispatching() { t_dispatching = nullptr; }
  } dispatching(conn);
  // Whatever is queued now is flushed below, including every frame whose
  // write arm is pending; a frame queued from here on arms anew.
  conn->ReleaseWriteArm();
  if ((events & kLoopError) != 0) {
    // EPOLLERR/EPOLLHUP: the transport is gone both ways — nothing queued
    // can be flushed, so skip draining and reclaim immediately.
    LoopTeardown(conn);
    return;
  }
  if (conn->closed() && !ls.draining) {
    // A foreign thread hard-closed this connection (egress overflow cut a
    // slow client off); the stream shutdown made the fd readable. The
    // backlog was already discarded, so there is nothing to drain.
    LoopTeardown(conn);
    return;
  }
  if ((events & kLoopReadable) != 0 && !ls.draining && !conn->closed()) {
    if (!LoopReadAndDispatch(conn)) {
      return;
    }
  }
  // Flush whatever dispatch queued; also services write readiness.
  LoopFlush(conn);
}

bool AudioServer::LoopReadAndDispatch(ClientConnection* conn) {
  auto& ls = conn->loop_state();
  // One read round: the framer reads once and this loop serves every frame
  // that read completed. Stopping short would strand complete frames in
  // user space, where level-triggered readiness never reports them, so the
  // round's bound is the framer's input buffer, not a frame count.
  FramedMessage message;  // reused by every frame of the round
  FrameStatus status = conn->TryReadFrame(&message);
  if (status == FrameStatus::kWouldBlock) {
    // Woken readable but not even one byte to show for it.
    metrics_->readiness_spurious.Increment();
    return true;
  }
  while (status == FrameStatus::kMessage) {
    if (conn->closed() || shutting_down_.load()) {
      return true;
    }
    if (ls.awaiting_setup) {
      ls.awaiting_setup = false;
      if (!HandleSetup(conn, message)) {
        // The refusal reply still flushes through the drain.
        return LoopBeginDrain(conn);
      }
      status = conn->TryReadFrame(&message);
      continue;
    }
    if (!CheckRateLimit(conn, message)) {
      status = conn->TryReadFrame(&message);
      continue;
    }
    DispatchHold(conn, &message, &status);
    if (status == FrameStatus::kMessage && hold_released_for_test_) {
      hold_released_for_test_();
    }
  }
  if (status == FrameStatus::kWouldBlock) {
    return true;
  }
  // kEof (peer died, possibly mid-frame) or kMalformed (poisoned framing):
  // stop reading, flush what the client is still owed.
  return LoopBeginDrain(conn);
}

void AudioServer::DispatchHold(ClientConnection* conn, FramedMessage* message,
                               FrameStatus* status) {
  Arrival arrival = Arrive(conn, *message);
  MutexLock lock(&mu_);
  // The first request of the hold carries the wait; the rest found the
  // lock already held.
  uint64_t lock_wait_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - arrival.at)
          .count());
  bool dispatch = true;
  for (uint32_t held = 1;; ++held) {
    if (dispatch) {
      DispatchRequest(conn, *message, arrival, lock_wait_us);
      lock_wait_us = 0;
    }
    // Frames already buffered only: the round's one read happened before
    // the hold, so nothing here blocks or enters the kernel.
    *status = conn->TryReadFrame(message);
    if (*status != FrameStatus::kMessage || held == kHoldFrames || conn->closed() ||
        shutting_down_.load()) {
      return;
    }
    dispatch = CheckRateLimit(conn, *message);
    if (dispatch) {
      arrival = Arrive(conn, *message);
    }
  }
}

bool AudioServer::LoopFlush(ClientConnection* conn) {
  auto& ls = conn->loop_state();
  const int fd = conn->pollable_fd();
  switch (conn->DrainEgress()) {
    case ClientConnection::DrainStatus::kBlocked:
      loops_[conn->loop_index()]->SetWantWrite(fd, true);
      return true;
    case ClientConnection::DrainStatus::kError:
      LoopTeardown(conn);
      return false;
    case ClientConnection::DrainStatus::kIdle:
      if (ls.draining || conn->closed()) {
        // Drain-to-completion (the backlog has fully flushed), or an
        // overflow disconnect during dispatch discarded it; reclaim.
        LoopTeardown(conn);
        return false;
      }
      loops_[conn->loop_index()]->SetWantWrite(fd, false);
      return true;
  }
  return true;
}

bool AudioServer::LoopBeginDrain(ClientConnection* conn) {
  auto& ls = conn->loop_state();
  if (ls.draining) {
    return true;
  }
  ls.draining = true;
  // A peer that stops reading mid-flush cannot pin the connection: the
  // sweep forces teardown at the deadline.
  ls.drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  conn->BeginDrain();
  return LoopFlush(conn);
}

void AudioServer::LoopTeardown(ClientConnection* conn) {
  // On the loop thread the removal applies at once: no readiness round
  // dispatches to this handler again.
  loops_[conn->loop_index()]->Remove(conn->pollable_fd());
  conn->HardClose();
  ReclaimConnection(conn);
}

void AudioServer::ReclaimConnection(ClientConnection* conn) {
  // Declared before the lock so the connection is destroyed after it is
  // released.
  std::unique_ptr<ClientConnection> dead;
  MutexLock lock(&mu_);
  // Structural teardown: wait out any in-flight epoch so the tick fan-out
  // holds no pointers into the objects about to be destroyed.
  state_.WaitEngineIdle();
  const uint32_t index = conn->index();
  // Nothing keyed by the slot survives this hold: the client's objects,
  // its event selections, its batch slot and any redirect it held go with
  // DestroyConnectionObjects, so the slot's next client starts clean.
  state_.DestroyConnectionObjects(index);
  metrics_->connections_open.Sub(1);
  obs::Trace(obs::TraceReason::kConnectionClose, index);
  dead = std::move(connections_[index]);
  free_slots_.push_back(index);
}

void AudioServer::LoopSweep(uint32_t loop_index) {
  if (shutting_down_.load()) {
    return;
  }
  // Collect under mu_, tear down outside it (LoopTeardown takes mu_
  // itself). All state read here belongs to this loop thread.
  std::vector<ClientConnection*> expired;
  const auto now = std::chrono::steady_clock::now();
  {
    MutexLock lock(&mu_);
    for (auto& conn : connections_) {
      if (conn == nullptr || conn->loop_index() != loop_index) {
        continue;
      }
      auto& ls = conn->loop_state();
      if (ls.draining && now >= ls.drain_deadline) {
        expired.push_back(conn.get());
      }
    }
  }
  for (ClientConnection* conn : expired) {
    LoopTeardown(conn);
  }
}

bool AudioServer::HandleSetup(ClientConnection* conn, const FramedMessage& message) {
  ByteReader r(message.payload);
  SetupRequest request = SetupRequest::Decode(&r);

  SetupReply reply;
  if (message.header.code != kSetupOpcode || request.magic != kSetupMagic || !r.ok()) {
    reply.success = 0;
    reply.reason = "bad setup message";
  } else if (request.major != kProtocolMajor) {
    reply.success = 0;
    reply.reason = "protocol version mismatch";
  } else {
    reply.success = 1;
    MutexLock lock(&mu_);
    reply.id_base = ClientIdBaseFor(conn->index());
    reply.id_count = kClientIdBlockSize;
    reply.device_loud = state_.device_loud_root();
    reply.server_name = state_.server_name();
    conn->set_client_name(request.client_name);
  }

  ByteWriter w;
  reply.Encode(&w);
  conn->SendReply(kSetupOpcode, message.header.sequence, w.bytes());
  return reply.success != 0;
}

void AudioServer::StepFrames(int64_t frames) {
  while (frames > 0) {
    size_t step = std::min<int64_t>(frames, static_cast<int64_t>(options_.period_frames));
    // Tick manages the state lock itself (epoch open/commit).
    tick_state().Tick(step);
    frames -= static_cast<int64_t>(step);
  }
}

void AudioServer::StartRealtime() {
  if (engine_running_.exchange(true)) {
    return;
  }
  engine_thread_ = std::thread([this] { EngineLoop(); });
}

void AudioServer::StopRealtime() {
  if (!engine_running_.exchange(false)) {
    return;
  }
  if (engine_thread_.joinable()) {
    engine_thread_.join();
  }
}

void AudioServer::EngineLoop() {
  RealClock clock;
  Ticks period =
      SamplesToTicks(static_cast<int64_t>(options_.period_frames), board_->sample_rate_hz());
  Ticks next = clock.Now() + period;
  while (engine_running_.load() && !shutting_down_.load()) {
    // Tick manages the state lock itself; the fan-out runs without it, so
    // dispatch on untouched roots overlaps the engine freely.
    tick_state().Tick(options_.period_frames);
    clock.SleepUntil(next);
    // Wakeup lateness: how far past the deadline the engine resumed
    // (Ticks are microseconds). 0 when the tick finished inside the period.
    Ticks late = clock.Now() - next;
    metrics_->tick_jitter_us.Record(late > 0 ? static_cast<uint64_t>(late) : 0);
    next += period;
  }
}

bool AudioServer::Drain(std::chrono::milliseconds deadline) {
  if (shutting_down_.load()) {
    return true;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto cutoff = t0 + deadline;
  if (!draining_.exchange(true)) {
    metrics_->draining.Set(1);
  }
  // Stop accepting: close the listener and join the accept thread. Late
  // in-process AddConnection calls are refused by the admission check.
  listener_.Close();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // In-flight requests keep dispatching and their replies keep flushing
  // (the loops and the engine stay up); wait for every
  // connection's egress backlog to empty, bounded by the deadline.
  while (std::chrono::steady_clock::now() < cutoff &&
         metrics_->egress_queued_bytes.value() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bool flushed = true;
  {
    MutexLock lock(&mu_);
    // Connections the deadline is about to force closed with unflushed
    // egress — the price of a slow client meeting a finite drain window.
    for (auto& conn : connections_) {
      if (conn != nullptr && conn->egress_queued_bytes() != 0) {
        metrics_->drain_forced_closes.Increment();
        flushed = false;
      }
    }
    // Hang up every off-hook telephone line: a terminating server must
    // leave the building's lines on-hook, exactly as it does when a single
    // owning client dies (DestroyConnectionObjects).
    state_.WaitEngineIdle();
    state_.HangUpAllLines();
  }
  metrics_->drain_duration_ms.Set(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  Shutdown();
  return flushed;
}

size_t AudioServer::connection_objects_for_test() {
  MutexLock lock(&mu_);
  return connections_.size() - free_slots_.size();
}

void AudioServer::Shutdown() {
  if (shutting_down_.exchange(true)) {
    return;
  }
  StopRealtime();
  listener_.Close();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Hard-close everything first (under the lock), then stop the event
  // loops: in-flight loop handlers finish their teardown against live
  // connection objects before any destruction below.
  {
    MutexLock lock(&mu_);
    for (auto& conn : connections_) {
      if (conn != nullptr) {
        conn->HardClose();
      }
    }
  }
  for (auto& loop : loops_) {
    loop->Stop();
  }
  // Connections whose teardown never ran (their loop stopped first) get
  // the same reclamation, so gauges and the registry end balanced. With
  // the loops and the accept thread stopped, nothing else empties a slot.
  std::vector<ClientConnection*> stranded;
  {
    MutexLock lock(&mu_);
    for (auto& conn : connections_) {
      if (conn != nullptr) {
        stranded.push_back(conn.get());
      }
    }
  }
  for (ClientConnection* conn : stranded) {
    ReclaimConnection(conn);
  }
}

}  // namespace aud
