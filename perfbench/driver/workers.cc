#include "perfbench/driver/workers.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace perfbench {

using aud::Opcode;
using aud::ResourceId;

namespace {

// Probe: 2 kHz open-loop Syncs; one of sixteen probe chains restarted every
// 7.5-12.5 ms (each chain plays a 60 ms sound and waits ~160 ms for its
// next turn, so it is idle when restarted). The seeded jitter spreads
// restarts uniformly over the 20 ms engine phase.
constexpr int64_t kProbeIntervalUs = 500;
constexpr int kProbeChains = 16;
constexpr int kProbeSoundPeriods = 3;
constexpr int64_t kRestartEveryUs = 7500;
constexpr int64_t kRestartJitterUs = 5000;

// Load chains keep this many plays queued (over a second of audio), so the
// queue never runs dry even when the driver is held up for a while.
constexpr int kQueuedPlays = 4;
// Shared sounds per load worker, so the decoded-PCM cache serves nearly
// every play. Their lengths (240-480 ms) are a seeded permutation of a fixed
// set, so every seed plays the same mean length.
constexpr int kSoundPeriods[] = {12, 16, 20, 24};

// Control: reads kept in flight per load connection. A deep pipeline makes
// the request rate bound by server and driver CPU, with the server reading
// requests in batches, rather than by the host's wakeup latency, which swings
// from run to run; properties per chain.
constexpr int kReadsInFlight = 32;
constexpr int kPropsPerChain = 8;

// Churn uploads: 4-64 KB of 16-bit PCM at 192 kHz, so a cycle's play lasts
// 11-171 ms and the cycle measures server work rather than audio length.
constexpr size_t kMinUploadBytes = 4096;
constexpr size_t kMaxUploadBytes = 65536;
constexpr aud::AudioFormat kUploadFormat{aud::Encoding::kPcm16, 192000};
// The cycle phase of the playback and control workloads: one cycle at a
// time per load worker, each with a fixed 8 KB upload (two engine periods of
// audio) so its latency reads the server, not the luck of upload sizes.
// More concurrent cycles queue behind each other's structural writes and
// make the phase far noisier run to run, so the phase is long instead: 10 s
// gives the p99 about 750 samples.
constexpr int64_t kCyclePhaseUs = 10000000;
constexpr int kPhaseCycleSlots = 1;
constexpr size_t kPhaseUploadBytes = 8192;

constexpr int64_t kWarmMinUs = 500000;  // warm-up: at least this long ...
constexpr uint64_t kWarmMarks = 3;      // ... and this many marks per chain
constexpr int64_t kPhaseTimeoutUs = 30000000;
constexpr int64_t kFinishTimeoutUs = 5000000;
constexpr int64_t kTraceFetchLagUs = 1000;
constexpr size_t kMaxNotes = 8;

aud::CommandSpec PlaySpec(ResourceId player, ResourceId sound, uint32_t tag) {
  aud::CommandSpec spec;
  spec.device = player;
  spec.command = aud::DeviceCommand::kPlay;
  spec.tag = tag;
  aud::PlayArgs args;
  args.sound = sound;
  spec.args = args.Encode();
  return spec;
}

std::vector<uint8_t> U64Bytes(uint64_t v) {
  std::vector<uint8_t> out(8);
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
  return out;
}

std::string PropName(int prop) { return "p" + std::to_string(prop); }

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPlayback: return "playback";
    case Workload::kControl: return "control";
    case Workload::kChurn: return "churn";
  }
  return "?";
}

Plan PlanFor(Workload w) {
  Plan plan;
  switch (w) {
    case Workload::kPlayback:
      plan.playing_chains = 1024;
      plan.idle_roots = 3072;
      plan.cycle_phase_us = kCyclePhaseUs;
      break;
    case Workload::kControl:
      // One load connection: its busy threads (the driver's, and audiond's
      // reader and writer for it) fit in four vCPUs beside the probe's.
      // With three the rate swung +-10% between runs with the scheduler,
      // and with two +-8%.
      plan.load_workers = 1;
      plan.playing_chains = 16;
      plan.control_mix = true;
      plan.cycle_phase_us = kCyclePhaseUs;
      break;
    case Workload::kChurn:
      plan.playing_chains = 256;
      plan.cycle_slots = 4;
      break;
  }
  return plan;
}

Worker::Worker(int index, Role role, const Plan& plan, Shared* shared)
    : index_(index),
      role_(role),
      plan_(plan),
      shared_(shared),
      rng_(shared->seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index) + 1) {}

bool Worker::Connect() {
  const std::string name =
      role_ == Role::kProbe ? "perfbench-probe" : "perfbench-load-" + std::to_string(index_);
  return conn_.Open(shared_->port, name, shared_->trace_every);
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

bool Worker::InWindow(int64_t t_us) const {
  const int64_t open = shared_->open_us.load();
  return open != 0 && t_us >= open && t_us < shared_->close_us.load();
}

bool Worker::WindowClosed(int64_t t_us) const {
  const int64_t close = shared_->close_us.load();
  return close != 0 && t_us >= close;
}

bool Worker::InCycleWindow(int64_t t_us) const {
  if (plan_.cycle_phase_us == 0) {
    return InWindow(t_us);
  }
  const int64_t close = shared_->close_us.load();
  return close != 0 && t_us >= close && t_us < close + plan_.cycle_phase_us;
}

void Worker::Fail(const std::string& what) {
  ++results_.failed;
  if (results_.notes.size() < kMaxNotes) {
    results_.notes.push_back("failed: " + what);
  }
}

void Worker::Violation(const std::string& what) {
  ++results_.violations;
  if (results_.notes.size() < kMaxNotes) {
    results_.notes.push_back("check: " + what);
  }
}

uint32_t Worker::SendLoad(uint32_t seq) {
  if (seq == 0) {
    Fail("connection lost while sending");
    return 0;
  }
  unconfirmed_load_.push_back(seq);
  if (InWindow(NowUs())) {
    ++results_.attempted;
  }
  return seq;
}

void Worker::ConfirmLoad(int64_t now_us) {
  const bool in_window = InWindow(now_us);
  const size_t slice =
      in_window ? static_cast<size_t>((now_us - shared_->open_us.load()) / kSliceUs) : 0;
  while (!unconfirmed_load_.empty() && unconfirmed_load_.front() <= conn_.confirmed()) {
    unconfirmed_load_.pop_front();
    if (in_window) {
      ++results_.load_completed;
      if (results_.completed_per_slice.size() <= slice) {
        results_.completed_per_slice.resize(slice + 1, 0);
      }
      ++results_.completed_per_slice[slice];
    }
  }
}

bool Worker::Fence() {
  const uint32_t seq = conn_.SendEmpty(Opcode::kSync);
  if (seq == 0) {
    Fail("fence send");
    return false;
  }
  Pending p;
  p.seq = seq;
  p.kind = PendingKind::kFence;
  pending_.push_back(p);
  fence_seq_ = seq;
  fence_done_ = false;
  const int64_t deadline = NowUs() + kPhaseTimeoutUs;
  while (!fence_done_) {
    if (!Pump(5000)) {
      return false;
    }
    if (NowUs() > deadline) {
      Fail("fence never answered");
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Population
// ---------------------------------------------------------------------------

bool Worker::BuildChain(Chain* chain, bool with_events) {
  chain->loud = conn_.AllocId();
  chain->player = conn_.AllocId();
  chain->output = conn_.AllocId();
  aud::CreateLoudReq loud;
  loud.id = chain->loud;
  bool ok = conn_.Send(Opcode::kCreateLoud, loud) != 0;
  for (auto [id, cls] : {std::pair{chain->player, aud::DeviceClass::kPlayer},
                         std::pair{chain->output, aud::DeviceClass::kOutput}}) {
    aud::CreateVirtualDeviceReq dev;
    dev.id = id;
    dev.loud = chain->loud;
    dev.device_class = cls;
    ok = ok && conn_.Send(Opcode::kCreateVirtualDevice, dev) != 0;
  }
  aud::CreateWireReq wire;
  wire.id = conn_.AllocId();
  wire.src_device = chain->player;
  wire.dst_device = chain->output;
  ok = ok && conn_.Send(Opcode::kCreateWire, wire) != 0;
  if (with_events) {
    aud::SelectEventsReq select;
    select.resource = chain->loud;
    select.mask = aud::kQueueEvents | aud::kSyncEvents;
    ok = ok && conn_.Send(Opcode::kSelectEvents, select) != 0;
    aud::SetSyncMarksReq marks;
    marks.loud = chain->loud;
    marks.interval_ms = kMarkIntervalMs;
    ok = ok && conn_.Send(Opcode::kSetSyncMarks, marks) != 0;
  }
  aud::MapLoudReq map;
  map.loud = chain->loud;
  ok = ok && conn_.Send(Opcode::kMapLoud, map) != 0;
  return ok;
}

bool Worker::CreateSharedSounds() {
  std::vector<int> lengths(std::begin(kSoundPeriods), std::end(kSoundPeriods));
  std::shuffle(lengths.begin(), lengths.end(), rng_);
  if (role_ == Role::kProbe) {
    lengths = {kProbeSoundPeriods};
  }
  for (int periods : lengths) {
    aud::CreateSoundReq create;
    create.id = conn_.AllocId();
    create.format = aud::kTelephoneFormat;
    aud::WriteSoundDataReq write;
    write.id = create.id;
    write.data.resize(static_cast<size_t>(periods * kPeriodSamples));
    for (uint8_t& b : write.data) {
      b = static_cast<uint8_t>(rng_());
    }
    if (conn_.Send(Opcode::kCreateSound, create) == 0 ||
        conn_.Send(Opcode::kWriteSoundData, write) == 0) {
      return false;
    }
    sounds_.push_back(create.id);
  }
  return true;
}

bool Worker::Build() {
  if (!CreateSharedSounds()) {
    Fail("build: sounds");
    return false;
  }
  int playing = kProbeChains;
  int idle = 0;
  if (role_ == Role::kLoad) {
    const int n = shared_->load_workers;
    const int i = index_ - 1;  // load workers are 1..n
    playing = plan_.playing_chains * (i + 1) / n - plan_.playing_chains * i / n;
    idle = plan_.idle_roots * (i + 1) / n - plan_.idle_roots * i / n;
  }
  chains_.resize(static_cast<size_t>(playing));
  for (size_t c = 0; c < chains_.size(); ++c) {
    Chain& chain = chains_[c];
    chain.back_to_back = role_ == Role::kLoad;
    if (!BuildChain(&chain, /*with_events=*/true)) {
      Fail("build: chain");
      return false;
    }
    chain_by_loud_[chain.loud] = c;
    chain_by_player_[chain.player] = c;
    if (c % 64 == 63 && !Fence()) {
      return false;
    }
  }
  for (int r = 0; r < idle; ++r) {
    Chain root;
    if (!BuildChain(&root, /*with_events=*/false)) {
      Fail("build: idle root");
      return false;
    }
    if (r % 128 == 127 && !Fence()) {
      return false;
    }
  }
  props_.assign(chains_.size() * kPropsPerChain, 0);
  if (role_ == Role::kLoad && (plan_.cycle_slots > 0 || plan_.cycle_phase_us > 0)) {
    noise_.resize(kMaxUploadBytes);
    for (uint8_t& b : noise_) {
      b = static_cast<uint8_t>(rng_());
    }
  }
  return Fence();
}

bool Worker::EnqueuePlay(Chain* chain) {
  const ResourceId sound = sounds_[rng_() % sounds_.size()];
  aud::EnqueueCommandsReq enqueue;
  enqueue.loud = chain->loud;
  enqueue.commands.push_back(PlaySpec(chain->player, sound, chain->next_tag++));
  return SendLoad(conn_.Send(Opcode::kEnqueueCommands, enqueue)) != 0;
}

bool Worker::StartChain(Chain* chain) {
  aud::ResourceReq start;
  start.id = chain->loud;
  return SendLoad(conn_.Send(Opcode::kStartQueue, start)) != 0;
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

void Worker::IssueControl() {
  while (reads_in_flight_ < kReadsInFlight && conn_.alive()) {
    const size_t c = rng_() % chains_.size();
    const int prop = static_cast<int>(rng_() % kPropsPerChain);
    Chain& chain = chains_[c];
    const uint64_t pick = rng_() % 1000;
    if (pick < 300) {
      aud::ChangePropertyReq req;
      req.resource = chain.loud;
      req.name = PropName(prop);
      req.type = "u64";
      req.value = U64Bytes(++prop_counter_);
      props_[c * kPropsPerChain + static_cast<size_t>(prop)] = prop_counter_;
      SendLoad(conn_.Send(Opcode::kChangeProperty, req));
      continue;
    }
    if (pick < 450) {
      aud::ImmediateCommandReq req;
      req.loud = chain.loud;
      req.command.device = chain.output;
      req.command.command = aud::DeviceCommand::kChangeGain;
      aud::GainArgs gain;
      gain.gain = 5000 + static_cast<int32_t>(rng_() % 5001);
      req.command.args = gain.Encode();
      SendLoad(conn_.Send(Opcode::kImmediateCommand, req));
      continue;
    }
    Pending p;
    p.kind = PendingKind::kLoadRead;
    p.arg = static_cast<int>(c);
    if (pick < 750) {
      aud::NamedPropertyReq req;
      req.resource = chain.loud;
      req.name = PropName(prop);
      p.opcode = Opcode::kGetProperty;
      p.prop = prop;
      p.expect = props_[c * kPropsPerChain + static_cast<size_t>(prop)];
      p.seq = conn_.Send(p.opcode, req);
    } else {
      aud::ResourceReq req;
      req.id = chain.loud;
      p.opcode = pick < 875 ? Opcode::kQueryQueue : Opcode::kQueryLoud;
      p.seq = conn_.Send(p.opcode, req);
    }
    p.sent_us = NowUs();
    if (SendLoad(p.seq) == 0) {
      return;
    }
    pending_.push_back(p);
    ++reads_in_flight_;
  }
}

void Worker::StartCycle(size_t slot) {
  Cycle& c = cycles_[slot];
  c.started_us = NowUs();
  c.loud = conn_.AllocId();
  c.player = conn_.AllocId();
  const ResourceId output = conn_.AllocId();
  const ResourceId wire_id = conn_.AllocId();
  c.sound = conn_.AllocId();

  aud::CreateLoudReq loud;
  loud.id = c.loud;
  SendLoad(conn_.Send(Opcode::kCreateLoud, loud));
  for (auto [id, cls] : {std::pair{c.player, aud::DeviceClass::kPlayer},
                         std::pair{output, aud::DeviceClass::kOutput}}) {
    aud::CreateVirtualDeviceReq dev;
    dev.id = id;
    dev.loud = c.loud;
    dev.device_class = cls;
    SendLoad(conn_.Send(Opcode::kCreateVirtualDevice, dev));
  }
  aud::CreateWireReq wire;
  wire.id = wire_id;
  wire.src_device = c.player;
  wire.dst_device = output;
  SendLoad(conn_.Send(Opcode::kCreateWire, wire));
  aud::SelectEventsReq select;
  select.resource = c.loud;
  select.mask = aud::kQueueEvents;
  SendLoad(conn_.Send(Opcode::kSelectEvents, select));
  aud::CreateSoundReq sound;
  sound.id = c.sound;
  sound.format = kUploadFormat;
  SendLoad(conn_.Send(Opcode::kCreateSound, sound));
  aud::WriteSoundDataReq write;
  write.id = c.sound;
  const size_t bytes =
      plan_.cycle_slots == 0
          ? kPhaseUploadBytes
          : (kMinUploadBytes + rng_() % (kMaxUploadBytes - kMinUploadBytes + 1)) & ~size_t{1};
  write.data.assign(noise_.begin(), noise_.begin() + static_cast<ptrdiff_t>(bytes));
  SendLoad(conn_.Send(Opcode::kWriteSoundData, write));
  aud::MapLoudReq map;
  map.loud = c.loud;
  SendLoad(conn_.Send(Opcode::kMapLoud, map));
  aud::EnqueueCommandsReq enqueue;
  enqueue.loud = c.loud;
  enqueue.commands.push_back(PlaySpec(c.player, c.sound, 1));
  SendLoad(conn_.Send(Opcode::kEnqueueCommands, enqueue));
  aud::ResourceReq start;
  start.id = c.loud;
  SendLoad(conn_.Send(Opcode::kStartQueue, start));
  c.stage = CycleStage::kPlaying;
  cycle_by_player_[c.player] = slot;
}

void Worker::RestartProbeChain() {
  // Only a chain whose last play is done may restart: a stop that reached
  // a play the engine had not started yet would drop it without a
  // CommandDone. After a long stall of the host or the server, the chains
  // still playing simply sit this turn out.
  Chain* next = nullptr;
  for (size_t i = 0; i < chains_.size() && next == nullptr; ++i) {
    Chain& candidate = chains_[next_probe_chain_++ % chains_.size()];
    if (candidate.done_tag == candidate.next_tag) {
      next = &candidate;
    }
  }
  if (next == nullptr) {
    return;
  }
  Chain& chain = *next;
  aud::ResourceReq stop;
  stop.id = chain.loud;
  const bool in_window = InWindow(NowUs());
  bool ok = conn_.Send(Opcode::kStopQueue, stop) != 0;
  aud::EnqueueCommandsReq enqueue;
  enqueue.loud = chain.loud;
  enqueue.commands.push_back(PlaySpec(chain.player, sounds_[0], chain.next_tag++));
  ok = ok && conn_.Send(Opcode::kEnqueueCommands, enqueue) != 0;
  ok = ok && conn_.Send(Opcode::kStartQueue, stop) != 0;
  if (!ok) {
    Fail("probe restart send");
    return;
  }
  chain.start_sent_us = NowUs();
  chain.continuity.Reset();
  if (in_window) {
    results_.attempted += 3;
  }
}

void Worker::FetchTrace(uint32_t seq, int64_t client_rtt_us) {
  aud::GetRequestTraceReq req;
  req.trace_id = conn_.TraceIdFor(seq);
  Pending p;
  p.kind = PendingKind::kTrace;
  p.opcode = Opcode::kGetRequestTrace;
  p.traced_seq = seq;
  p.client_rtt_us = client_rtt_us;
  p.seq = conn_.Send(p.opcode, req);
  if (p.seq == 0) {
    Fail("trace fetch send");
    return;
  }
  pending_.push_back(p);
}

// ---------------------------------------------------------------------------
// Receiving
// ---------------------------------------------------------------------------

bool Worker::Pump(int64_t timeout_us) {
  std::vector<Conn::Message> messages;
  const bool alive = conn_.Poll(timeout_us, &messages);
  for (Conn::Message& msg : messages) {
    Handle(msg);
  }
  if (!alive) {
    Fail("connection closed by the server");
  }
  return alive;
}

void Worker::Handle(Conn::Message& msg) {
  conn_.Note(msg.frame);
  switch (msg.frame.header.type) {
    case aud::MessageType::kReply:
      OnReply(msg);
      break;
    case aud::MessageType::kError:
      OnError(msg);
      break;
    case aud::MessageType::kEvent:
      OnEvent(msg);
      break;
    case aud::MessageType::kRequest:
      Violation("server sent a request frame");
      break;
  }
  ConfirmLoad(msg.arrival_us);
}

void Worker::OnReply(Conn::Message& msg) {
  const uint32_t seq = msg.frame.header.sequence;
  while (!pending_.empty() && pending_.front().seq < seq) {
    Fail("request " + std::to_string(pending_.front().seq) + " never answered");
    if (pending_.front().kind == PendingKind::kLoadRead) {
      --reads_in_flight_;
    }
    pending_.pop_front();
  }
  if (pending_.empty() || pending_.front().seq != seq) {
    Violation("reply to unexpected sequence " + std::to_string(seq));
    return;
  }
  const Pending p = pending_.front();
  pending_.pop_front();
  const int64_t now = msg.arrival_us;
  bool ok = true;
  switch (p.kind) {
    case PendingKind::kFence:
      if (seq == fence_seq_) {
        fence_done_ = true;
      }
      break;
    case PendingKind::kProbeSync:
      if (InWindow(p.due_us)) {
        results_.probe_rtt_us.push_back({p.due_us, static_cast<double>(now - p.due_us)});
      }
      if (shared_->trace_every != 0 && conn_.Sampled(seq) && InWindow(p.due_us)) {
        fetches_.push_back({seq, now - p.sent_us, now + kTraceFetchLagUs});
      }
      break;
    case PendingKind::kStats: {
      aud::ServerStatsReply stats = conn_.Decode<aud::ServerStatsReply>(msg.frame, &ok);
      if (!ok) {
        Violation("undecodable ServerStatsReply");
        break;
      }
      if (p.arg == 0) {
        results_.stats_open = std::move(stats);
        results_.have_open = true;
        shared_->open_snapshot.store(true);
      } else if (p.arg == 1) {
        results_.stats_close = std::move(stats);
        results_.have_close = true;
      } else {
        results_.stats_after = std::move(stats);
        results_.have_after = true;
      }
      break;
    }
    case PendingKind::kTrace: {
      aud::RequestTraceReply reply = conn_.Decode<aud::RequestTraceReply>(msg.frame, &ok);
      if (!ok || reply.spans.empty()) {
        Violation("no spans for sampled request " + std::to_string(p.traced_seq));
        break;
      }
      ++results_.traces_fetched;
      const SpanSelfTimes self = ComputeSpanSelfTimes(reply.spans);
      if (self.request >= 0) results_.span_request.Add(self.request);
      if (self.dispatch >= 0) results_.span_dispatch.Add(self.dispatch);
      if (self.egress >= 0) results_.span_egress.Add(self.egress);
      if (self.write >= 0) results_.span_write.Add(self.write);
      if (p.client_rtt_us >= 0 && self.request_dur >= 0 && self.egress >= 0 &&
          self.write_dur >= 0) {
        // What no server span covers: kernel, wakeups and the driver.
        results_.span_client.Add(static_cast<double>(p.client_rtt_us) - self.request_dur -
                                 self.egress - self.write_dur);
      }
      std::string line = "{\"trace\": " + std::to_string(reply.trace_id) +
                         ", \"client_rtt_us\": " + std::to_string(p.client_rtt_us) +
                         ", \"spans\": [";
      for (size_t i = 0; i < reply.spans.size(); ++i) {
        const aud::TraceEventWire& span = reply.spans[i];
        line += std::string(i ? ", " : "") + "{\"name\": \"" +
                std::string(aud::obs::TraceReasonName(
                    static_cast<aud::obs::TraceReason>(span.reason))) +
                "\", \"seq\": " + std::to_string(span.seq) +
                ", \"parent\": " + std::to_string(span.parent) +
                ", \"t_us\": " + std::to_string(span.t_us) +
                ", \"dur_us\": " + std::to_string(span.dur_us) + "}";
      }
      results_.trace_lines.push_back(line + "]}");
      break;
    }
    case PendingKind::kLoadRead: {
      --reads_in_flight_;
      const Chain& chain = chains_[static_cast<size_t>(p.arg)];
      if (p.opcode == Opcode::kGetProperty) {
        aud::PropertyReply reply = conn_.Decode<aud::PropertyReply>(msg.frame, &ok);
        const bool want_found = p.expect != 0;
        if (!ok || (reply.found != 0) != want_found ||
            (want_found && reply.value != U64Bytes(p.expect))) {
          Violation("GetProperty did not return the last value written");
        }
      } else if (p.opcode == Opcode::kQueryQueue) {
        aud::QueueStateReply reply = conn_.Decode<aud::QueueStateReply>(msg.frame, &ok);
        if (!ok || reply.loud != chain.loud || reply.state != aud::QueueState::kStarted) {
          Violation("QueryQueue: playing chain not started");
        }
      } else {
        aud::LoudStateReply reply = conn_.Decode<aud::LoudStateReply>(msg.frame, &ok);
        if (!ok || reply.loud != chain.loud || reply.mapped != 1 || reply.devices != 2) {
          Violation("QueryLoud: chain not mapped with two devices");
        }
      }
      if (shared_->trace_every != 0 && conn_.Sampled(seq) && InWindow(now)) {
        // A pipelined read's round trip includes its queue behind the other
        // reads in flight, so only the probe's trips feed span.client_self.
        fetches_.push_back({seq, -1, now + kTraceFetchLagUs});
      }
      break;
    }
    case PendingKind::kCycleSync: {
      Cycle& c = cycles_[static_cast<size_t>(p.arg)];
      if (InCycleWindow(now)) {
        results_.cycle_ms.push_back({now, static_cast<double>(now - c.started_us) / 1000.0});
      }
      c.stage = CycleStage::kIdle;
      break;
    }
  }
}

void Worker::OnError(Conn::Message& msg) {
  bool ok = true;
  aud::ErrorMessage error = conn_.Decode<aud::ErrorMessage>(msg.frame, &ok);
  const uint32_t seq = msg.frame.header.sequence;
  Fail("error " + std::to_string(static_cast<int>(error.code)) + " (" + error.detail +
       ") on " + std::string(aud::OpcodeName(static_cast<Opcode>(error.opcode))) +
       " seq " + std::to_string(seq));
  if (!pending_.empty() && pending_.front().seq == seq) {
    const Pending p = pending_.front();
    pending_.pop_front();
    if (p.kind == PendingKind::kLoadRead) {
      --reads_in_flight_;
    } else if (p.kind == PendingKind::kFence && seq == fence_seq_) {
      fence_done_ = true;
    }
  }
}

void Worker::OnEvent(Conn::Message& msg) {
  bool ok = true;
  aud::EventMessage event = conn_.Decode<aud::EventMessage>(msg.frame, &ok);
  if (!ok) {
    Violation("undecodable event");
    return;
  }
  const int64_t now = msg.arrival_us;
  if (event.type == aud::EventType::kSyncMark) {
    auto it = chain_by_loud_.find(event.resource);
    if (it == chain_by_loud_.end()) {
      return;
    }
    Chain& chain = chains_[it->second];
    const aud::SyncMarkArgs mark = aud::SyncMarkArgs::Decode(event.args);
    ++chain.marks;
    if (!chain.continuity.Feed(mark.position_samples, mark.total_samples,
                               event.server_time) &&
        InWindow(now)) {
      Violation("sync marks of chain " + std::to_string(chain.loud) +
                " skipped or repeated a period at position " +
                std::to_string(mark.position_samples));
    }
    const int64_t open = shared_->open_us.load();
    if (open != 0 && now >= open) {
      results_.marks.emplace_back(event.server_time, now - event.server_time);
    }
    if (chain.start_sent_us != 0) {
      // The engine emits a mark when it produces the period that ends at
      // the mark's position, i.e. one period ahead of playback, so the
      // audio already heard is position minus that one period.
      const double heard_ms =
          static_cast<double>(static_cast<int64_t>(mark.position_samples) - kPeriodSamples) *
          1000.0 / kRateHz;
      if (InWindow(chain.start_sent_us)) {
        results_.start_ms.push_back(
            {chain.start_sent_us,
             static_cast<double>(now - chain.start_sent_us) / 1000.0 - heard_ms});
      }
      chain.start_sent_us = 0;
    }
    return;
  }
  if (event.type != aud::EventType::kCommandDone) {
    return;
  }
  const aud::CommandDoneArgs done = aud::CommandDoneArgs::Decode(event.args);
  if (auto it = chain_by_player_.find(event.resource); it != chain_by_player_.end()) {
    Chain& chain = chains_[it->second];
    if (done.aborted != 0) {
      Fail("play on chain " + std::to_string(chain.loud) + " aborted");
    }
    if (done.tag != chain.done_tag) {
      Violation("CommandDone out of order on chain " + std::to_string(chain.loud));
    }
    chain.done_tag = done.tag + 1;
    if (chain.back_to_back && !stopping_) {
      EnqueuePlay(&chain);
    }
    return;
  }
  if (auto it = cycle_by_player_.find(event.resource); it != cycle_by_player_.end()) {
    Cycle& c = cycles_[it->second];
    cycle_by_player_.erase(it);
    if (done.aborted != 0) {
      Fail("cycle play aborted");
    }
    aud::ResourceReq destroy;
    destroy.id = c.loud;
    SendLoad(conn_.Send(Opcode::kDestroyLoud, destroy));
    destroy.id = c.sound;
    SendLoad(conn_.Send(Opcode::kDestroySound, destroy));
    Pending p;
    p.kind = PendingKind::kCycleSync;
    p.arg = static_cast<int>(&c - cycles_.data());
    p.seq = SendLoad(conn_.SendEmpty(Opcode::kSync));
    if (p.seq != 0) {
      pending_.push_back(p);
    }
    c.stage = CycleStage::kDestroying;
  }
}

// ---------------------------------------------------------------------------
// Thread bodies
// ---------------------------------------------------------------------------

void Worker::Run() {
  if (role_ == Role::kProbe) {
    RunProbe();
  } else {
    RunLoad();
  }
}

void Worker::RunLoad() {
  // Start every playing chain, then warm up until each has produced marks.
  for (Chain& chain : chains_) {
    for (int i = 0; i < kQueuedPlays; ++i) {
      EnqueuePlay(&chain);
    }
    StartChain(&chain);
  }
  const int64_t warm_from = NowUs();
  while (true) {
    if (!Pump(2000)) {
      return;
    }
    const bool warm = std::all_of(chains_.begin(), chains_.end(),
                                  [](const Chain& c) { return c.marks >= kWarmMarks; });
    if (warm && NowUs() - warm_from >= kWarmMinUs) {
      break;
    }
    if (NowUs() - warm_from > kPhaseTimeoutUs) {
      Fail("warm-up: chains produced no sync marks");
      shared_->abort.store(true);
      return;
    }
  }
  // Drain everything queued during warm-up before the window can open.
  if (!Fence()) {
    shared_->abort.store(true);
    return;
  }
  shared_->ready.fetch_add(1);
  while (!shared_->open_snapshot.load()) {
    if (shared_->abort.load()) {
      return;
    }
    if (!Pump(1000)) {
      shared_->load_done.fetch_add(1);  // the probe must not wait for us
      return;
    }
  }

  const int slots = plan_.cycle_phase_us > 0 ? kPhaseCycleSlots : plan_.cycle_slots;
  cycles_.assign(static_cast<size_t>(slots), Cycle{});
  int64_t finish_deadline = 0;
  while (true) {
    const int64_t now = NowUs();
    if (!stopping_ && WindowClosed(now - plan_.cycle_phase_us)) {
      stopping_ = true;
      finish_deadline = now + kFinishTimeoutUs;
    }
    if (!stopping_) {
      if (plan_.control_mix) {
        IssueControl();
      }
      for (size_t s = 0; s < cycles_.size(); ++s) {
        if (cycles_[s].stage == CycleStage::kIdle && InCycleWindow(now)) {
          StartCycle(s);
        }
      }
      while (!fetches_.empty() && fetches_.front().not_before_us <= now) {
        FetchTrace(fetches_.front().seq, fetches_.front().client_rtt_us);
        fetches_.pop_front();
      }
    } else {
      const bool cycles_idle =
          std::all_of(cycles_.begin(), cycles_.end(),
                      [](const Cycle& c) { return c.stage == CycleStage::kIdle; });
      if (cycles_idle && pending_.empty()) {
        break;
      }
      if (now > finish_deadline) {
        Fail("load still outstanding " + std::to_string(kFinishTimeoutUs / 1000000) +
             " s after the window closed");
        break;
      }
    }
    if (!Pump(1000)) {
      break;
    }
  }
  if (conn_.alive()) {
    Fence();
  }
  results_.layers = conn_.layers();
  shared_->load_done.fetch_add(1);
}

void Worker::RunProbe() {
  if (!Fence()) {
    shared_->abort.store(true);
    return;
  }
  // Wait for the load workers to warm up; then the setup is complete.
  const int64_t wait_from = NowUs();
  while (shared_->ready.load() < shared_->load_workers) {
    if (shared_->abort.load() || !Pump(1000)) {
      shared_->abort.store(true);
      return;
    }
    if (NowUs() - wait_from > 4 * kPhaseTimeoutUs) {
      Fail("load workers never became ready");
      shared_->abort.store(true);
      return;
    }
  }
  const int64_t setup_done = NowUs();
  shared_->setup_done_us.store(setup_done);
  if (shared_->setup_only) {
    shared_->abort.store(true);
    return;
  }
  // Run the probe a little before the window so the schedule is steady.
  const int64_t open = setup_done + 100000;
  shared_->open_us.store(open);
  shared_->close_us.store(open + shared_->window_us);

  auto send_stats = [&](int which) {
    aud::GetServerStatsReq req;
    req.include_opcodes = 1;
    Pending p;
    p.kind = PendingKind::kStats;
    p.opcode = Opcode::kGetServerStats;
    p.arg = which;
    p.seq = conn_.Send(p.opcode, req);
    if (p.seq == 0) {
      Fail("stats send");
      return;
    }
    pending_.push_back(p);
  };

  int64_t next_due = NowUs();
  int64_t next_restart = next_due + kRestartEveryUs;
  bool sent_open = false, sent_close = false, sent_after = false;
  const int64_t give_up = open + shared_->window_us + 4 * kPhaseTimeoutUs;
  while (!results_.have_after) {
    const int64_t now = NowUs();
    if (now > give_up) {
      Fail("window never completed");
      break;
    }
    if (!sent_open && now >= open) {
      sent_open = true;
      results_.open_sent_us = now;
      results_.proc_open = ReadProcStat(shared_->server_pid).value_or(ProcStat{});
      results_.self_open = ReadProcStat(0).value_or(ProcStat{});
      results_.steal_open = ReadStealTicks().value_or(0);
      send_stats(0);
    }
    if (!sent_close && WindowClosed(now)) {
      sent_close = true;
      results_.close_sent_us = now;
      results_.proc_close = ReadProcStat(shared_->server_pid).value_or(ProcStat{});
      results_.self_close = ReadProcStat(0).value_or(ProcStat{});
      results_.steal_close = ReadStealTicks().value_or(0);
      send_stats(1);
    }
    if (sent_close && results_.have_close && !sent_after &&
        shared_->load_done.load() >= shared_->load_workers) {
      sent_after = true;
      send_stats(2);
    }
    int64_t wake = now + 1000;
    if (!sent_close) {
      if (now >= next_due) {
        Pending p;
        p.kind = PendingKind::kProbeSync;
        p.due_us = next_due;
        p.seq = conn_.SendEmpty(Opcode::kSync);
        p.sent_us = NowUs();
        if (p.seq == 0) {
          Fail("probe send");
          break;
        }
        pending_.push_back(p);
        if (InWindow(next_due)) {
          ++results_.attempted;
          results_.probe_send_late_us.push_back(p.sent_us - next_due);
        }
        next_due += kProbeIntervalUs;
      }
      if (now >= next_restart) {
        // Restarts missed in a stall are dropped rather than sent in a burst.
        RestartProbeChain();
        next_restart = std::max(next_restart, now - kRestartEveryUs) + kRestartEveryUs +
                       static_cast<int64_t>(rng_() % kRestartJitterUs);
      }
      while (!fetches_.empty() && fetches_.front().not_before_us <= now) {
        FetchTrace(fetches_.front().seq, fetches_.front().client_rtt_us);
        fetches_.pop_front();
      }
      wake = std::min(next_due, next_restart);
      if (!fetches_.empty()) {
        wake = std::min(wake, fetches_.front().not_before_us);
      }
      if (!sent_open) {
        wake = std::min(wake, open);
      } else {
        wake = std::min(wake, shared_->close_us.load());
      }
    }
    if (!Pump(std::max<int64_t>(0, wake - NowUs()))) {
      break;
    }
  }
  // Let late probe replies land so none is counted as unanswered.
  if (conn_.alive()) {
    Fence();
  }
  results_.layers = conn_.layers();
}

}  // namespace perfbench
