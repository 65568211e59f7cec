// Request dispatcher: decodes each framed request, validates it against
// the object registry, performs it, and sends replies or asynchronous
// errors (section 4.1's request/reply/error model). Runs with the server
// state lock held.
//
// Each opcode's request and reply types and its dispatch class come from
// its row of the opcode table (AUD_OPCODES, src/wire/protocol.h). The class
// says how the request runs beside a concurrent engine fan-out (DESIGN.md
// decision 12): drain-class requests wait for the engine to go idle before
// the switch, so before any registry lookup; shard-class requests take
// their root LOUD's engine shard lock (EngineShardGuard); state-class
// requests need nothing beyond the state lock.

#include <chrono>
#include <ranges>
#include <type_traits>

#include "src/server/server.h"

namespace aud {

namespace {

// Largest accepted sound (64 MiB): a resource-exhaustion guard.
constexpr uint64_t kMaxSoundBytes = 64ull << 20;

// Serializes one engine-plane request against the tick fan-out by holding
// the target root LOUD's engine shard lock for the scope (taken after the
// state lock; see the rank order in server.h). A contended acquire adds its
// wait to `*wait_us`. The device LOUD is special: its root is never ticked,
// but the fan-out reads its per-connection event masks when emitting
// device-LOUD events, so requests against it drain the epoch instead of
// taking a shard lock. The analysis opt-outs cover the conditional
// acquisition.
class EngineShardGuard {
 public:
  EngineShardGuard(ServerState* state, ServerMetrics* metrics, Loud* loud, uint64_t* wait_us)
      AUD_NO_THREAD_SAFETY_ANALYSIS {
    Loud* root = loud->Root();
    if (root->owner() == kServerOwner) {
      state->WaitEngineIdle();
      return;
    }
    Mutex* mu = root->engine_mutex();
    if (mu->TryLock()) {
      locked_ = mu;
      return;
    }
    // The fan-out is ticking this root right now: count the contention and
    // wait it out (bounded by the fan-out, not the commit).
    metrics->dispatch_shard_contention.Increment();
    const auto wait_t0 = std::chrono::steady_clock::now();
    mu->Lock();
    *wait_us += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_t0)
            .count());
    locked_ = mu;
  }

  ~EngineShardGuard() AUD_NO_THREAD_SAFETY_ANALYSIS {
    if (locked_ != nullptr) {
      locked_->Unlock();
    }
  }

  EngineShardGuard(const EngineShardGuard&) = delete;
  EngineShardGuard& operator=(const EngineShardGuard&) = delete;

 private:
  Mutex* locked_ = nullptr;
};

// True when every opcode of a shared case decodes the same request struct.
template <Opcode first, Opcode... rest>
constexpr bool kSameRequest = (std::is_same_v<RequestOf<first>, RequestOf<rest>> && ...);

ErrorMessage MakeError(ErrorCode code, ResourceId resource, Opcode opcode,
                       std::string detail = {}) {
  ErrorMessage error;
  error.code = code;
  error.resource = resource;
  error.opcode = static_cast<uint16_t>(opcode);
  error.detail = std::move(detail);
  return error;
}

}  // namespace

void AudioServer::HandleRequest(ClientConnection* conn, const FramedMessage& message,
                                std::chrono::steady_clock::time_point received_at,
                                const TraceContext& trace) {
  const uint32_t seq = message.header.sequence;
  const Opcode opcode = static_cast<Opcode>(message.header.code);
  ByteReader r(message.payload);

  // The dispatch switch below is exhaustive over Opcode with no default, so
  // -Werror=switch makes an unwired opcode a compile error; that guarantee
  // only holds if the per-opcode metrics arrays cover the same range.
  static_assert(ServerMetrics::kOpcodes == static_cast<size_t>(Opcode::kOpcodeCount),
                "per-opcode metrics arrays must cover every dispatched opcode");

  // Per-opcode accounting (unknown opcodes only hit the totals).
  ServerMetrics& metrics = state_.metrics();
  const bool known_opcode = message.header.code < ServerMetrics::kOpcodes;
  // Clock dispatch from when the loop thread started queueing for the
  // state lock: dispatch_us = lock wait + handling, so a tick that stalls
  // dispatch shows up here even though the stall happens before the handler.
  const auto dispatch_t0 = received_at;
  metrics.requests_total.Increment();
  conn->stats().requests.Increment();
  if (known_opcode) {
    metrics.requests[message.header.code].Increment();
  }

  // Validates that a client-chosen id lies in the connection's block.
  auto id_ok = [&](ResourceId id) {
    ResourceId base = ClientIdBaseFor(conn->index());
    return id >= base && id < base + kClientIdBlockSize;
  };
  auto send_error = [&](ErrorCode code, ResourceId resource, std::string detail = {}) {
    metrics.request_errors_total.Increment();
    conn->stats().errors.Increment();
    if (known_opcode) {
      metrics.request_errors[message.header.code].Increment();
    }
    obs::Trace(obs::TraceReason::kDispatchError, message.header.code,
               static_cast<uint32_t>(code));
    conn->SendError(seq, MakeError(code, resource, opcode, std::move(detail)),
                    trace.trace_id, trace.root_seq);
  };
  auto send_status = [&](const Status& status, ResourceId resource) {
    if (!status.ok()) {
      send_error(status.code(), resource, status.message());
    }
    return status.ok();
  };
  auto send_reply = [&](const auto& reply) {
    ByteWriter w;
    reply.Encode(&w);
    conn->SendReply(static_cast<uint16_t>(opcode), seq, w.bytes(), trace.trace_id,
                    trace.root_seq);
  };

  // Unknown opcodes are rejected by range before the switch, which lets the
  // switch itself stay default-free (exhaustive under -Werror=switch).
  if (Status request_ok = ValidateRequestHeader(message.header); !request_ok.ok()) {
    send_error(request_ok.code(), kNoResource, request_ok.message());
    metrics.dispatch_us.Record(0);
    obs::Trace(obs::TraceReason::kDispatch, message.header.code, 0);
    return;
  }

  if (OpcodeDispatchClass(opcode) == DispatchClass::kDrain) {
    state_.WaitEngineIdle();
  }

  switch (opcode) {
    case Opcode::kNoOp:
      break;

    // -- LOUD tree ---------------------------------------------------------------

    case Opcode::kCreateLoud: {
      auto req = RequestOf<Opcode::kCreateLoud>::Decode(&r);
      if (!r.ok() || !id_ok(req.id)) {
        send_error(ErrorCode::kBadIdChoice, req.id);
        break;
      }
      Loud* parent = nullptr;
      if (req.parent != kNoResource) {
        parent = state_.FindLoud(req.parent);
        if (parent == nullptr || parent->owner() != conn->index()) {
          send_error(ErrorCode::kBadResource, req.parent, "bad parent LOUD");
          break;
        }
      }
      auto loud = std::make_unique<Loud>(req.id, conn->index(), &state_, parent,
                                         std::move(req.attrs));
      Loud* raw = loud.get();
      if (send_status(state_.Register(std::move(loud)), req.id) && parent != nullptr) {
        parent->AddChild(raw);
      }
      break;
    }

    case Opcode::kDestroyLoud: {
      auto req = RequestOf<Opcode::kDestroyLoud>::Decode(&r);
      Loud* loud = state_.FindLoud(req.id);
      if (loud == nullptr || loud->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      if (Status destroyed = state_.Destroy(req.id); !destroyed.ok()) {
        send_error(destroyed.code(), req.id);
        break;
      }
      break;
    }

    case Opcode::kCreateVirtualDevice: {
      auto req = RequestOf<Opcode::kCreateVirtualDevice>::Decode(&r);
      if (!r.ok() || !id_ok(req.id)) {
        send_error(ErrorCode::kBadIdChoice, req.id);
        break;
      }
      Loud* loud = state_.FindLoud(req.loud);
      if (loud == nullptr || loud->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.loud, "bad LOUD for device");
        break;
      }
      if (options_.quota_devices != 0 &&
          state_.CountOwnedDevices(conn->index()) >= options_.quota_devices) {
        metrics.quota_denials.Increment();
        send_error(ErrorCode::kQuotaExceeded, req.id, "device quota exceeded");
        break;
      }
      auto device = CreateVirtualDevice(req.id, conn->index(), req.device_class, loud,
                                        std::move(req.attrs));
      if (device == nullptr) {
        send_error(ErrorCode::kBadValue, req.id, "unknown device class");
        break;
      }
      VirtualDevice* raw = device.get();
      if (send_status(state_.Register(std::move(device)), req.id)) {
        loud->AddDevice(raw);
        state_.ActivationChanged(loud->Root());
      }
      break;
    }

    case Opcode::kDestroyVirtualDevice: {
      auto req = RequestOf<Opcode::kDestroyVirtualDevice>::Decode(&r);
      VirtualDevice* device = state_.FindDevice(req.id);
      if (device == nullptr || device->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      if (Status destroyed = state_.Destroy(req.id); !destroyed.ok()) {
        send_error(destroyed.code(), req.id);
        break;
      }
      break;
    }

    case Opcode::kAugmentVirtualDevice: {
      auto req = RequestOf<Opcode::kAugmentVirtualDevice>::Decode(&r);
      VirtualDevice* device = state_.FindDevice(req.id);
      if (device == nullptr || device->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      device->Augment(req.attrs);
      state_.ActivationChanged(device->loud()->Root());
      break;
    }

    case Opcode::kQueryVirtualDevice: {
      auto req = RequestOf<Opcode::kQueryVirtualDevice>::Decode(&r);
      VirtualDevice* device = state_.FindDevice(req.id);
      if (device == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      ReplyOf<Opcode::kQueryVirtualDevice> reply;
      reply.id = device->id();
      reply.device_class = device->device_class();
      reply.mapped = device->loud()->Root()->mapped() ? 1 : 0;
      reply.active = device->active() ? 1 : 0;
      reply.bound_device = device->bound_device_id();
      reply.attrs = device->attrs();
      if (device->bound_device() != nullptr) {
        // Include the matched hardware's capabilities (section 5.3).
        reply.attrs.Merge(device->bound_device()->Attributes());
        reply.attrs.SetU32(AttrTag::kDeviceId, device->bound_device_id());
      }
      send_reply(reply);
      break;
    }

    // -- Wires ---------------------------------------------------------------------

    case Opcode::kCreateWire: {
      auto req = RequestOf<Opcode::kCreateWire>::Decode(&r);
      if (!r.ok() || !id_ok(req.id)) {
        send_error(ErrorCode::kBadIdChoice, req.id);
        break;
      }
      VirtualDevice* src = state_.FindDevice(req.src_device);
      VirtualDevice* dst = state_.FindDevice(req.dst_device);
      if (src == nullptr || dst == nullptr) {
        send_error(ErrorCode::kBadResource,
                   src == nullptr ? req.src_device : req.dst_device);
        break;
      }
      if (src->loud()->Root() != dst->loud()->Root()) {
        send_error(ErrorCode::kBadWiring, req.id, "wire crosses LOUD trees");
        break;
      }
      if (req.src_port >= src->source_port_count() ||
          req.dst_port >= dst->sink_port_count()) {
        send_error(ErrorCode::kBadValue, req.id, "no such port");
        break;
      }
      // Hard-wired constraint (section 5.2): if either endpoint is pinned
      // (kDeviceId) to a device in a hard-wired group, the other endpoint,
      // when also pinned, must name one of its permanent partners.
      PhysicalDevice* src_phys = nullptr;
      PhysicalDevice* dst_phys = nullptr;
      if (auto pinned = src->attrs().GetU32(AttrTag::kDeviceId)) {
        src_phys = state_.PhysicalForId(*pinned);
      }
      if (auto pinned = dst->attrs().GetU32(AttrTag::kDeviceId)) {
        dst_phys = state_.PhysicalForId(*pinned);
      }
      if (src_phys != nullptr && dst_phys != nullptr &&
          !state_.HardWireCompatible(src_phys, dst_phys)) {
        send_error(ErrorCode::kBadWiring, req.id,
                   "endpoints are hard-wired to different devices");
        break;
      }

      AudioFormat src_format = src->PortFormat(true, req.src_port);
      AudioFormat dst_format = dst->PortFormat(false, req.dst_port);
      // Wire type checking (section 5.2): endpoint encodings must agree,
      // and an explicitly typed wire must match both ends.
      if (src_format.encoding != dst_format.encoding) {
        send_error(ErrorCode::kBadMatch, req.id, "port encodings differ");
        break;
      }
      if (req.has_format != 0 && req.format.encoding != src_format.encoding) {
        send_error(ErrorCode::kBadMatch, req.id, "wire type does not match ports");
        break;
      }
      AudioFormat wire_format = req.has_format != 0 ? req.format : src_format;
      auto wire = std::make_unique<WireObject>(req.id, conn->index(), src, req.src_port, dst,
                                               req.dst_port, wire_format);
      WireObject* raw = wire.get();
      if (send_status(state_.Register(std::move(wire)), req.id)) {
        src->AttachWire(raw, true);
        dst->AttachWire(raw, false);
      }
      break;
    }

    case Opcode::kDestroyWire: {
      auto req = RequestOf<Opcode::kDestroyWire>::Decode(&r);
      WireObject* wire = state_.FindWire(req.id);
      if (wire == nullptr || wire->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      if (Status destroyed = state_.Destroy(req.id); !destroyed.ok()) {
        send_error(destroyed.code(), req.id);
        break;
      }
      break;
    }

    case Opcode::kQueryWires: {
      auto req = RequestOf<Opcode::kQueryWires>::Decode(&r);
      VirtualDevice* device = state_.FindDevice(req.id);
      if (device == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      ReplyOf<Opcode::kQueryWires> reply;
      for (WireObject* wire : device->source_wires()) {
        reply.wires.push_back(CompleteWireInfo(*wire));
      }
      for (WireObject* wire : device->sink_wires()) {
        reply.wires.push_back(CompleteWireInfo(*wire));
      }
      send_reply(reply);
      break;
    }

    // -- Mapping and the active stack ----------------------------------------------

    case Opcode::kMapLoud: {
      auto req = RequestOf<Opcode::kMapLoud>::Decode(&r);
      Loud* loud = state_.FindLoud(req.loud);
      // The redirect-holding audio manager may map other clients' LOUDs on
      // their behalf (section 5.8).
      bool is_manager = state_.redirect_conn() == conn->index();
      if (loud == nullptr || (loud->owner() != conn->index() && !is_manager)) {
        send_error(ErrorCode::kBadResource, req.loud);
        break;
      }
      // Audio-manager redirection (section 5.8): the map request is sent
      // to the manager instead of being performed.
      if (state_.redirect_conn().has_value() && *state_.redirect_conn() != conn->index() &&
          req.override_redirect == 0) {
        MapRequestArgs args;
        args.loud = req.loud;
        std::vector<uint8_t> frame;
        AppendEventFrame(&frame, EventType::kMapRequest, req.loud, state_.server_time(),
                         args.Encode());
        DeliverEvents(*state_.redirect_conn(), std::move(frame), 1);
        break;
      }
      send_status(state_.MapLoud(loud), req.loud);
      break;
    }

    case Opcode::kUnmapLoud: {
      auto req = RequestOf<Opcode::kUnmapLoud>::Decode(&r);
      Loud* loud = state_.FindLoud(req.id);
      if (loud == nullptr || loud->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      send_status(state_.UnmapLoud(loud), req.id);
      break;
    }

    case Opcode::kRaiseLoud:
    case Opcode::kLowerLoud: {
      static_assert(kSameRequest<Opcode::kRaiseLoud, Opcode::kLowerLoud>);
      auto req = RequestOf<Opcode::kRaiseLoud>::Decode(&r);
      Loud* loud = state_.FindLoud(req.loud);
      bool is_manager = state_.redirect_conn() == conn->index();
      if (loud == nullptr || (loud->owner() != conn->index() && !is_manager)) {
        send_error(ErrorCode::kBadResource, req.loud);
        break;
      }
      if (state_.redirect_conn().has_value() && *state_.redirect_conn() != conn->index() &&
          req.override_redirect == 0) {
        MapRequestArgs args;
        args.loud = req.loud;
        args.raise = opcode == Opcode::kRaiseLoud ? 1 : 0;
        std::vector<uint8_t> frame;
        AppendEventFrame(&frame, EventType::kRestackRequest, req.loud, state_.server_time(),
                         args.Encode());
        DeliverEvents(*state_.redirect_conn(), std::move(frame), 1);
        break;
      }
      Status status = opcode == Opcode::kRaiseLoud ? state_.RaiseLoud(loud)
                                                   : state_.LowerLoud(loud);
      send_status(status, req.loud);
      break;
    }

    // -- Sounds --------------------------------------------------------------------

    case Opcode::kCreateSound: {
      auto req = RequestOf<Opcode::kCreateSound>::Decode(&r);
      if (!r.ok() || !id_ok(req.id)) {
        send_error(ErrorCode::kBadIdChoice, req.id);
        break;
      }
      if (req.format.sample_rate_hz == 0) {
        send_error(ErrorCode::kBadValue, req.id, "zero sample rate");
        break;
      }
      send_status(
          state_.Register(std::make_unique<SoundObject>(req.id, conn->index(), req.format)),
          req.id);
      break;
    }

    case Opcode::kDestroySound: {
      auto req = RequestOf<Opcode::kDestroySound>::Decode(&r);
      SoundObject* sound = state_.FindSound(req.id);
      if (sound == nullptr || sound->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      if (Status destroyed = state_.Destroy(req.id); !destroyed.ok()) {
        send_error(destroyed.code(), req.id);
        break;
      }
      break;
    }

    case Opcode::kWriteSoundData: {
      auto req = RequestOf<Opcode::kWriteSoundData>::Decode(&r);
      SoundObject* sound = state_.FindSound(req.id);
      if (sound == nullptr || !r.ok()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      if (req.offset + req.data.size() > kMaxSoundBytes) {
        send_error(ErrorCode::kAlloc, req.id, "sound too large");
        break;
      }
      const uint64_t end = req.offset + req.data.size();
      const uint64_t growth = end > sound->size_bytes() ? end - sound->size_bytes() : 0;
      if (options_.quota_sound_bytes != 0 && growth > 0 &&
          state_.CountOwnedSoundBytes(sound->owner()) + growth >
              options_.quota_sound_bytes) {
        metrics.quota_denials.Increment();
        send_error(ErrorCode::kQuotaExceeded, req.id, "sound byte quota exceeded");
        break;
      }
      sound->Write(req.offset, req.data);
      break;
    }

    case Opcode::kReadSoundData: {
      auto req = RequestOf<Opcode::kReadSoundData>::Decode(&r);
      SoundObject* sound = state_.FindSound(req.id);
      if (sound == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      ReplyOf<Opcode::kReadSoundData> reply;
      reply.id = req.id;
      reply.offset = req.offset;
      reply.data = sound->Read(req.offset, req.length);
      send_reply(reply);
      break;
    }

    case Opcode::kQuerySound: {
      auto req = RequestOf<Opcode::kQuerySound>::Decode(&r);
      SoundObject* sound = state_.FindSound(req.id);
      if (sound == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      ReplyOf<Opcode::kQuerySound> reply;
      reply.id = req.id;
      reply.format = sound->format();
      reply.size_bytes = sound->size_bytes();
      reply.samples = static_cast<uint64_t>(sound->sample_count());
      send_reply(reply);
      break;
    }

    case Opcode::kLoadCatalogueSound: {
      auto req = RequestOf<Opcode::kLoadCatalogueSound>::Decode(&r);
      if (!r.ok() || !id_ok(req.id)) {
        send_error(ErrorCode::kBadIdChoice, req.id);
        break;
      }
      const CatalogueSound* entry = state_.FindCatalogueSound(req.name);
      if (entry == nullptr) {
        send_error(ErrorCode::kBadName, req.id, "no catalogue sound: " + req.name);
        break;
      }
      if (options_.quota_sound_bytes != 0 &&
          state_.CountOwnedSoundBytes(conn->index()) + entry->data.size() >
              options_.quota_sound_bytes) {
        metrics.quota_denials.Increment();
        send_error(ErrorCode::kQuotaExceeded, req.id, "sound byte quota exceeded");
        break;
      }
      auto sound = std::make_unique<SoundObject>(req.id, conn->index(), entry->format);
      sound->Write(0, entry->data);
      send_status(state_.Register(std::move(sound)), req.id);
      break;
    }

    case Opcode::kSaveCatalogueSound: {
      auto req = RequestOf<Opcode::kSaveCatalogueSound>::Decode(&r);
      SoundObject* sound = state_.FindSound(req.id);
      if (sound == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      if (req.name.empty()) {
        send_error(ErrorCode::kBadName, req.id, "empty catalogue name");
        break;
      }
      CatalogueSound entry;
      entry.format = sound->format();
      entry.data = sound->data();
      state_.catalogue()[req.name] = std::move(entry);
      break;
    }

    case Opcode::kListCatalogue: {
      ReplyOf<Opcode::kListCatalogue> reply;
      for (const auto& [name, entry] : state_.catalogue()) {
        CatalogueEntry item;
        item.name = name;
        item.format = entry.format;
        item.size_bytes = entry.data.size();
        reply.entries.push_back(std::move(item));
      }
      send_reply(reply);
      break;
    }

    // -- Command queues -------------------------------------------------------------

    case Opcode::kEnqueueCommands: {
      auto req = RequestOf<Opcode::kEnqueueCommands>::Decode(&r);
      Loud* loud = state_.FindLoud(req.loud);
      if (loud == nullptr || loud->owner() != conn->index() || !r.ok()) {
        send_error(ErrorCode::kBadResource, req.loud);
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      const bool already_started = loud->queue()->state() == QueueState::kStarted;
      if (send_status(loud->queue()->Enqueue(req.commands), req.loud) &&
          already_started && trace.trace_id != 0) {
        // Commands landing on a running queue feed the next epoch directly:
        // start the mouth-to-ear clock here (mirrors kStartQueue below).
        state_.NotePlayAccepted(trace.trace_id, trace.root_seq);
      }
      break;
    }

    case Opcode::kImmediateCommand: {
      auto req = RequestOf<Opcode::kImmediateCommand>::Decode(&r);
      Loud* loud = state_.FindLoud(req.loud);
      if (loud == nullptr || loud->owner() != conn->index() || !r.ok()) {
        send_error(ErrorCode::kBadResource, req.loud);
        break;
      }
      if (IsQueuedOnlyCommand(req.command.command)) {
        send_error(ErrorCode::kBadValue, req.loud,
                   "command is queued-mode only (section 5.1)");
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      VirtualDevice* device = state_.FindDevice(req.command.device);
      if (device == nullptr || device->loud()->Root() != loud->Root()) {
        send_error(ErrorCode::kBadResource, req.command.device);
        break;
      }
      send_status(device->ImmediateCommand(req.command), req.command.device);
      break;
    }

    case Opcode::kStartQueue:
    case Opcode::kStopQueue:
    case Opcode::kPauseQueue:
    case Opcode::kResumeQueue:
    case Opcode::kFlushQueue: {
      static_assert(kSameRequest<Opcode::kStartQueue, Opcode::kStopQueue, Opcode::kPauseQueue,
                                 Opcode::kResumeQueue, Opcode::kFlushQueue>);
      auto req = RequestOf<Opcode::kStartQueue>::Decode(&r);
      Loud* loud = state_.FindLoud(req.id);
      if (loud == nullptr || loud->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      CommandQueue* queue = loud->queue();
      // Concurrent-play quota: only a Start that actually brings a stopped
      // queue to life consumes a slot (re-starting a started queue is an
      // error further down, and pause/resume keep the slot they hold).
      if (opcode == Opcode::kStartQueue && options_.quota_plays != 0 &&
          queue->state() == QueueState::kStopped &&
          state_.CountRunningQueues(conn->index()) >= options_.quota_plays) {
        metrics.quota_denials.Increment();
        send_error(ErrorCode::kQuotaExceeded, req.id, "concurrent play quota exceeded");
        break;
      }
      Status status;
      switch (opcode) {
        case Opcode::kStartQueue:
          status = queue->Start(nullptr);
          break;
        case Opcode::kStopQueue:
          status = queue->Stop(nullptr);
          break;
        case Opcode::kPauseQueue:
          status = queue->ClientPause(nullptr);
          break;
        case Opcode::kResumeQueue:
          status = queue->Resume(nullptr);
          break;
        default:
          queue->Flush();
          break;
      }
      if (send_status(status, req.id) && opcode == Opcode::kStartQueue &&
          trace.trace_id != 0) {
        // Mouth-to-ear (ISSUE: play accept -> first mixed frame): the accept
        // timestamp is now; EpochCommit records the latency when the first
        // epoch that can mix this queue commits.
        state_.NotePlayAccepted(trace.trace_id, trace.root_seq);
      }
      break;
    }

    case Opcode::kQueryQueue: {
      auto req = RequestOf<Opcode::kQueryQueue>::Decode(&r);
      Loud* loud = state_.FindLoud(req.id);
      if (loud == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      ReplyOf<Opcode::kQueryQueue> reply;
      reply.loud = loud->Root()->id();
      reply.state = loud->queue()->state();
      reply.depth = loud->queue()->Depth();
      reply.current_tag = loud->queue()->CurrentTag();
      send_reply(reply);
      break;
    }

    // -- Events ----------------------------------------------------------------------

    case Opcode::kSelectEvents: {
      auto req = RequestOf<Opcode::kSelectEvents>::Decode(&r);
      Loud* loud = state_.FindLoud(req.resource);
      if (loud == nullptr) {
        send_error(ErrorCode::kBadResource, req.resource);
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      loud->SetEventMask(conn->index(), req.mask);
      break;
    }

    case Opcode::kSetSyncMarks: {
      auto req = RequestOf<Opcode::kSetSyncMarks>::Decode(&r);
      Loud* loud = state_.FindLoud(req.loud);
      if (loud == nullptr || loud->owner() != conn->index()) {
        send_error(ErrorCode::kBadResource, req.loud);
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      loud->set_sync_interval_ms(req.interval_ms);
      break;
    }

    // -- Properties and redirection ---------------------------------------------------

    case Opcode::kChangeProperty: {
      auto req = RequestOf<Opcode::kChangeProperty>::Decode(&r);
      Loud* loud = state_.FindLoud(req.resource);
      if (loud == nullptr || !r.ok()) {
        send_error(ErrorCode::kBadResource, req.resource);
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      loud->properties()[req.name] = Property{req.type, req.value};
      PropertyNotifyArgs args;
      args.name = req.name;
      args.deleted = 0;
      state_.EmitEvent(loud, EventType::kPropertyNotify, req.resource, args.Encode());
      break;
    }

    case Opcode::kDeleteProperty: {
      auto req = RequestOf<Opcode::kDeleteProperty>::Decode(&r);
      Loud* loud = state_.FindLoud(req.resource);
      if (loud == nullptr) {
        send_error(ErrorCode::kBadResource, req.resource);
        break;
      }
      EngineShardGuard shard(&state_, &metrics, loud, &shard_wait_us_);
      if (loud->properties().erase(req.name) > 0) {
        PropertyNotifyArgs args;
        args.name = req.name;
        args.deleted = 1;
        state_.EmitEvent(loud, EventType::kPropertyNotify, req.resource, args.Encode());
      }
      break;
    }

    case Opcode::kGetProperty: {
      auto req = RequestOf<Opcode::kGetProperty>::Decode(&r);
      Loud* loud = state_.FindLoud(req.resource);
      if (loud == nullptr) {
        send_error(ErrorCode::kBadResource, req.resource);
        break;
      }
      ReplyOf<Opcode::kGetProperty> reply;
      reply.resource = req.resource;
      reply.name = req.name;
      auto it = loud->properties().find(req.name);
      if (it != loud->properties().end()) {
        reply.found = 1;
        reply.type = it->second.type;
        reply.value = it->second.value;
      }
      send_reply(reply);
      break;
    }

    case Opcode::kListProperties: {
      auto req = RequestOf<Opcode::kListProperties>::Decode(&r);
      Loud* loud = state_.FindLoud(req.id);
      if (loud == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      ReplyOf<Opcode::kListProperties> reply;
      for (const auto& [name, value] : loud->properties()) {
        reply.names.push_back(name);
      }
      send_reply(reply);
      break;
    }

    case Opcode::kSetRedirect: {
      auto req = RequestOf<Opcode::kSetRedirect>::Decode(&r);
      if (req.enable != 0) {
        if (state_.redirect_conn().has_value() &&
            *state_.redirect_conn() != conn->index()) {
          send_error(ErrorCode::kDeviceBusy, kNoResource,
                     "another audio manager holds redirection");
          break;
        }
        state_.set_redirect_conn(conn->index());
      } else if (state_.redirect_conn() == conn->index()) {
        state_.set_redirect_conn(std::nullopt);
      }
      break;
    }

    // -- Introspection -----------------------------------------------------------------

    case Opcode::kQueryDeviceLoud:
      send_reply(state_.DescribeDeviceLoud());
      break;

    case Opcode::kQueryActiveStack: {
      ReplyOf<Opcode::kQueryActiveStack> reply;
      for (Loud* loud : std::views::reverse(state_.active_stack())) {
        ActiveStackEntry entry;
        entry.loud = loud->id();
        entry.active = loud->active() ? 1 : 0;
        reply.entries.push_back(entry);
      }
      send_reply(reply);
      break;
    }

    case Opcode::kGetServerTime: {
      ReplyOf<Opcode::kGetServerTime> reply;
      reply.server_time = state_.server_time();
      send_reply(reply);
      break;
    }

    case Opcode::kSync: {
      // Round-trip no-op: the reply is the synchronization point.
      ReplyOf<Opcode::kSync> reply;
      reply.server_time = state_.server_time();
      send_reply(reply);
      break;
    }

    case Opcode::kGetServerStats: {
      auto req = RequestOf<Opcode::kGetServerStats>::Decode(&r);
      send_reply(state_.BuildServerStats(req.include_opcodes != 0));
      break;
    }

    case Opcode::kGetServerTrace: {
      auto req = RequestOf<Opcode::kGetServerTrace>::Decode(&r);
      // Each per-thread ring carries its own mutex (see obs.h), so this
      // snapshot is safe against the tick thread still tracing mid-fan-out —
      // the tick no longer runs under the state lock.
      size_t max_events =
          req.max_events == 0 ? obs::TraceRing::kDefaultSnapshotEvents : req.max_events;
      ReplyOf<Opcode::kGetServerTrace> reply;
      for (const obs::TraceEvent& e :
           obs::TraceRegistry::Instance().Snapshot(max_events)) {
        TraceEventWire wire;
        wire.t_us = e.t_us;
        wire.seq = e.seq;
        wire.tid = e.tid;
        wire.reason = static_cast<uint16_t>(e.reason);
        wire.arg0 = e.arg0;
        wire.arg1 = e.arg1;
        wire.trace = e.trace;
        wire.parent = e.parent;
        wire.dur_us = e.dur_us;
        reply.events.push_back(wire);
      }
      send_reply(reply);
      break;
    }

    case Opcode::kGetRequestTrace: {
      auto req = RequestOf<Opcode::kGetRequestTrace>::Decode(&r);
      // trace_id 0 asks for the most recently sampled request — the common
      // interactive path ("show me a trace") without guessing ids.
      const uint64_t want = req.trace_id != 0
                                ? req.trace_id
                                : metrics.last_trace_id.load(std::memory_order_relaxed);
      const size_t max_spans =
          req.max_spans == 0 ? obs::TraceRing::kCapacity : req.max_spans;
      ReplyOf<Opcode::kGetRequestTrace> reply;
      reply.trace_id = want;
      if (want != 0) {
        for (const obs::TraceEvent& e : obs::TraceRegistry::Instance().Snapshot(0, want)) {
          if (reply.spans.size() >= max_spans) {
            break;
          }
          TraceEventWire wire;
          wire.t_us = e.t_us;
          wire.seq = e.seq;
          wire.tid = e.tid;
          wire.reason = static_cast<uint16_t>(e.reason);
          wire.arg0 = e.arg0;
          wire.arg1 = e.arg1;
          wire.trace = e.trace;
          wire.parent = e.parent;
          wire.dur_us = e.dur_us;
          reply.spans.push_back(wire);
        }
      }
      send_reply(reply);
      break;
    }

    case Opcode::kGetEntityStats: {
      auto req = RequestOf<Opcode::kGetEntityStats>::Decode(&r);
      ReplyOf<Opcode::kGetEntityStats> reply;
      // connections_ is guarded by the state lock, which dispatch holds;
      // the per-connection counters themselves are lock-free atomics, so
      // the loops serving other clients keep running.
      for (const auto& c : connections_) {
        if (c == nullptr) {
          continue;
        }
        ConnectionStatsWire wire;
        wire.index = c->index();
        wire.name = c->client_name();
        wire.requests = c->stats().requests.value();
        wire.errors = c->stats().errors.value();
        wire.bytes_in = c->stats().bytes_in.value();
        wire.bytes_out = c->stats().bytes_out.value();
        wire.events_sent = c->stats().events_sent.value();
        wire.events_dropped = c->events_dropped();
        wire.dispatch_us = c->stats().dispatch_us.Snapshot();
        reply.connections.push_back(std::move(wire));
      }
      if (req.include_devices != 0) {
        state_.AppendDeviceStats(&reply);
      }
      send_reply(reply);
      break;
    }

    case Opcode::kQueryLoud: {
      auto req = RequestOf<Opcode::kQueryLoud>::Decode(&r);
      Loud* loud = state_.FindLoud(req.id);
      if (loud == nullptr) {
        send_error(ErrorCode::kBadResource, req.id);
        break;
      }
      ReplyOf<Opcode::kQueryLoud> reply;
      reply.loud = loud->id();
      reply.parent = loud->parent() != nullptr ? loud->parent()->id() : kNoResource;
      reply.mapped = loud->Root()->mapped() ? 1 : 0;
      reply.active = loud->active() ? 1 : 0;
      reply.children = static_cast<uint32_t>(loud->children().size());
      reply.devices = static_cast<uint32_t>(loud->devices().size());
      send_reply(reply);
      break;
    }

    case Opcode::kOpcodeCount:
      break;  // unreachable: rejected by the range check above
  }

  const uint64_t dispatch_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - dispatch_t0)
          .count());
  metrics.dispatch_us.Record(dispatch_us);
  conn->stats().dispatch_us.Record(dispatch_us);
  if (known_opcode) {
    metrics.opcode_us[message.header.code].Increment(dispatch_us);
  }
  obs::Trace(obs::TraceReason::kDispatch, message.header.code,
             static_cast<uint32_t>(dispatch_us));
  if (trace.trace_id != 0) {
    // Dispatch span: lock wait + handling, backdated to when the loop
    // started queueing for the state lock (same window dispatch_us clocks).
    auto& tracer = obs::TraceRegistry::Instance();
    const int64_t now_us = tracer.NowUs();
    tracer.Span(obs::TraceReason::kSpanDispatch, trace.trace_id, trace.root_seq,
                now_us - static_cast<int64_t>(dispatch_us),
                static_cast<uint32_t>(dispatch_us), message.header.code);
    metrics.trace_spans.Increment();
  }
}

}  // namespace aud
