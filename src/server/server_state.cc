#include "src/server/server_state.h"

#include <algorithm>
#include <chrono>
#include <ranges>

#include "src/common/logging.h"
#include "src/dsp/encoding.h"
#include "src/dsp/resampler.h"
#include "src/dsp/tone.h"

namespace aud {

namespace {

// The state whose fan-out the calling thread is running, or null. Its
// events go to the epoch's per-connection batches: the fan-out holds no
// state lock, so the transport must not be written from it. Dispatcher
// threads go straight through.
thread_local const ServerState* tls_fanout = nullptr;

// Prefetches every cache line of the `bytes` at `object`. A prefetch
// neither faults nor reads: only the pointer itself must be valid to form.
void PrefetchLines(const void* object, size_t bytes) {
  const char* at = static_cast<const char*>(object);
  for (size_t offset = 0; offset < bytes; offset += 64) {
    __builtin_prefetch(at + offset);
  }
}

// Server-side registration uses ids the server just allocated, so a failure
// means the registry is inconsistent with itself — worth a warning, never
// worth aborting startup.
void WarnIfError(const Status& status, const char* what) {
  if (!status.ok()) {
    LogLine(LogLevel::kWarning) << what << ": " << status.ToString();
  }
}

}  // namespace

ServerState::ServerState(Board* board, std::string server_name, Mutex& state_mu)
    : board_(board), server_name_(std::move(server_name)), state_mu_(state_mu) {
  BuildDeviceLoud();
  SeedCatalogue();
  // Route every phone line's events into the server.
  for (PhoneLineUnit* unit : board_->phone_lines()) {
    unit->SetEventSink(
        [this, unit](const ExchangeLine::Event& event) { OnPhoneEvent(unit, event); });
  }
}

ServerState::~ServerState() = default;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Status ServerState::Register(std::unique_ptr<ServerObject> object) {
  ResourceId id = object->id();
  if (id == kNoResource || objects_.count(id) != 0) {
    return Status(ErrorCode::kBadIdChoice, "resource id in use");
  }
  objects_[id] = std::move(object);
  return Status::Ok();
}

ServerObject* ServerState::Find(ResourceId id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

Loud* ServerState::FindLoud(ResourceId id) {
  ServerObject* obj = Find(id);
  return obj != nullptr && obj->kind() == ObjectKind::kLoud ? static_cast<Loud*>(obj) : nullptr;
}

VirtualDevice* ServerState::FindDevice(ResourceId id) {
  ServerObject* obj = Find(id);
  return obj != nullptr && obj->kind() == ObjectKind::kVirtualDevice
             ? static_cast<VirtualDevice*>(obj)
             : nullptr;
}

WireObject* ServerState::FindWire(ResourceId id) {
  ServerObject* obj = Find(id);
  return obj != nullptr && obj->kind() == ObjectKind::kWire ? static_cast<WireObject*>(obj)
                                                            : nullptr;
}

SoundObject* ServerState::FindSound(ResourceId id) {
  ServerObject* obj = Find(id);
  return obj != nullptr && obj->kind() == ObjectKind::kSound ? static_cast<SoundObject*>(obj)
                                                             : nullptr;
}

Status ServerState::Destroy(ResourceId id) {
  ServerObject* obj = Find(id);
  if (obj == nullptr) {
    return Status(ErrorCode::kBadResource, "destroy: no such resource");
  }
  // The surviving tree whose devices change. A destroyed root has none:
  // its unmap recorded whether it held claims. Wires and sounds change no
  // activation, so the pass below is a no-op for them.
  Loud* root = nullptr;
  if (obj->kind() == ObjectKind::kLoud && !static_cast<Loud*>(obj)->IsRoot()) {
    root = static_cast<Loud*>(obj)->Root();
  } else if (obj->kind() == ObjectKind::kVirtualDevice) {
    root = static_cast<VirtualDevice*>(obj)->loud()->Root();
  }
  DestroyObject(obj);
  ActivationChanged(root);
  return Status::Ok();
}

void ServerState::DestroyObject(ServerObject* obj) {
  const ResourceId id = obj->id();
  switch (obj->kind()) {
    case ObjectKind::kLoud: {
      Loud* loud = static_cast<Loud*>(obj);
      if (loud->IsRoot() && loud->mapped()) {
        std::erase(active_stack_, loud);
        Withdraw(loud);
      }
      // Children and devices first (copy lists: destruction mutates them).
      std::vector<Loud*> children = loud->children();
      for (Loud* child : children) {
        DestroyObject(child);
      }
      std::vector<VirtualDevice*> devices = loud->devices();
      for (VirtualDevice* dev : devices) {
        DestroyObject(dev);
      }
      if (loud->parent() != nullptr) {
        loud->parent()->RemoveChild(loud);
      }
      break;
    }
    case ObjectKind::kVirtualDevice: {
      VirtualDevice* dev = static_cast<VirtualDevice*>(obj);
      // Destroy attached wires. Deduplicate: a self-wire appears in both
      // the source and sink lists.
      std::set<WireObject*> wires(dev->source_wires().begin(), dev->source_wires().end());
      wires.insert(dev->sink_wires().begin(), dev->sink_wires().end());
      for (WireObject* wire : wires) {
        DestroyObject(wire);
      }
      if (dev->active()) {
        dev->AbortCommand();
        // A dying owner must not leave the phone line off-hook (the
        // paper's answering-machine crash case): hang up before the line
        // unit is released back to the exchange.
        if (auto* telephone = dynamic_cast<TelephoneDevice*>(dev);
            telephone != nullptr && telephone->line_unit() != nullptr &&
            telephone->line_unit()->line_state() != LineState::kOnHook) {
          telephone->line_unit()->HangUp();
        }
        dev->Unbind();
      }
      // The root queue's program may still reference this device (a child
      // LOUD can be destroyed before its root on connection teardown);
      // drop those references before the pointer dangles.
      dev->loud()->queue()->ForgetDevice(dev);
      dev->loud()->RemoveDevice(dev);
      break;
    }
    case ObjectKind::kWire: {
      WireObject* wire = static_cast<WireObject*>(obj);
      wire->src()->DetachWire(wire);
      wire->dst()->DetachWire(wire);
      break;
    }
    case ObjectKind::kSound:
      ++sound_destroys_;
      decoded_cache_.EraseSound(id);
      metrics_.decoded_cache_bytes.Set(static_cast<int64_t>(decoded_cache_.bytes()));
      break;
  }
  objects_.erase(id);
}

void ServerState::DestroyConnectionObjects(uint32_t conn) {
  // A dying owner must not leave a phone line off-hook (the paper's
  // answering-machine crash case). Hang up every line the connection's
  // telephone devices still hold before the teardown below unbinds them —
  // withdrawing a mapped root deactivates it, which clears the device/line
  // binding and would lose the line pointer.
  for (const auto& [id, obj] : objects_) {
    if (obj->owner() != conn || obj->kind() != ObjectKind::kVirtualDevice) {
      continue;
    }
    if (auto* telephone = dynamic_cast<TelephoneDevice*>(obj.get());
        telephone != nullptr && telephone->line_unit() != nullptr &&
        telephone->line_unit()->line_state() != LineState::kOnHook) {
      telephone->line_unit()->HangUp();
    }
  }
  // Every root the connection mapped leaves the stack in one pass; the
  // single activation pass at the end covers them all.
  for (Loud* loud : std::views::reverse(active_stack_)) {
    if (loud->owner() == conn) {
      Withdraw(loud);
    }
  }
  std::erase_if(active_stack_, [conn](const Loud* loud) { return loud->owner() == conn; });
  // Louds first (they cascade), then stray devices/wires/sounds.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<ResourceId> ids;
    for (const auto& [id, obj] : objects_) {
      if (obj->owner() != conn) {
        continue;
      }
      bool is_loud = obj->kind() == ObjectKind::kLoud;
      if ((pass == 0) == is_loud) {
        ids.push_back(id);
      }
    }
    for (ResourceId id : ids) {
      if (ServerObject* obj = Find(id); obj != nullptr) {
        DestroyObject(obj);
      }
    }
  }
  // Drop event selections the connection held on surviving objects (the
  // device LOUD tree), and its batch-size hint.
  for (auto& [id, obj] : objects_) {
    if (obj->kind() == ObjectKind::kLoud) {
      static_cast<Loud*>(obj.get())->SetEventMask(conn, 0);
    }
  }
  batch_slots_[conn] = BatchSlot{};
  if (redirect_conn_ == conn) {
    redirect_conn_.reset();
  }
  ActivationChanged(nullptr);
}

// ---------------------------------------------------------------------------
// Device LOUD
// ---------------------------------------------------------------------------

void ServerState::BuildDeviceLoud() {
  auto root = std::make_unique<Loud>(next_server_id_++, kServerOwner, this, nullptr, AttrList{});
  device_loud_root_ = root->id();
  Loud* root_ptr = root.get();
  WarnIfError(Register(std::move(root)), "device loud: register root");

  for (PhysicalDevice* device : board_->devices()) {
    auto entry = std::make_unique<Loud>(next_server_id_++, kServerOwner, this, root_ptr,
                                        device->Attributes());
    root_ptr->AddChild(entry.get());
    device_loud_entries_[entry->id()] = device;
    physical_ids_[device] = entry->id();
    WarnIfError(Register(std::move(entry)), "device loud: register entry");
  }
}

PhysicalDevice* ServerState::PhysicalForId(ResourceId id) {
  auto it = device_loud_entries_.find(id);
  return it == device_loud_entries_.end() ? nullptr : it->second;
}

ResourceId ServerState::IdForPhysical(PhysicalDevice* device) {
  auto it = physical_ids_.find(device);
  return it == physical_ids_.end() ? kNoResource : it->second;
}

DeviceLoudReply ServerState::DescribeDeviceLoud() {
  DeviceLoudReply reply;
  reply.root = device_loud_root_;
  for (const auto& [id, device] : device_loud_entries_) {
    DeviceInfo info;
    info.id = id;
    info.parent = device_loud_root_;
    info.device_class = device->device_class();
    info.attrs = device->Attributes();
    reply.devices.push_back(std::move(info));
  }
  // Permanent physical connections appear as wires of the device LOUD
  // (section 5.2: "the existence of a wire between two virtual devices [in
  // the device LOUD] indicates a permanent connection").
  for (const auto& [src, dst] : board_->hard_wires()) {
    WireInfo wire;
    wire.id = kNoResource;  // hard wires are not client-destroyable objects
    wire.src_device = IdForPhysical(src);
    wire.dst_device = IdForPhysical(dst);
    wire.format = {Encoding::kMulaw8, src->sample_rate_hz()};
    reply.hard_wires.push_back(wire);
  }
  return reply;
}

bool ServerState::HardWireCompatible(PhysicalDevice* a, PhysicalDevice* b) {
  auto check = [this](PhysicalDevice* from, PhysicalDevice* to) {
    auto partners = board_->HardWirePartners(from);
    if (partners.empty()) {
      return true;  // not part of a hard-wired group: wire anywhere
    }
    return std::find(partners.begin(), partners.end(), to) != partners.end();
  };
  return check(a, b) && check(b, a);
}

// ---------------------------------------------------------------------------
// Active stack & activation
// ---------------------------------------------------------------------------

Status ServerState::MapLoud(Loud* loud) {
  if (!loud->IsRoot()) {
    return Status(ErrorCode::kBadValue, "only root LOUDs are mapped");
  }
  if (loud->mapped()) {
    return Status::Ok();
  }
  loud->set_mapped(true);
  active_stack_.push_back(loud);  // mapped on top
  EmitEvent(loud, EventType::kMapNotify, loud->id(), {});
  ActivationChanged(loud);
  return Status::Ok();
}

Status ServerState::UnmapLoud(Loud* loud) {
  if (!loud->mapped()) {
    return Status::Ok();
  }
  std::erase(active_stack_, loud);
  Withdraw(loud);
  ActivationChanged(loud);
  return Status::Ok();
}

void ServerState::Withdraw(Loud* loud) {
  loud->set_mapped(false);
  if (loud->active()) {
    claims_released_ = claims_released_ || loud->may_claim();
    Deactivate(loud);
  }
  EmitEvent(loud, EventType::kUnmapNotify, loud->id(), {});
}

Status ServerState::RaiseLoud(Loud* loud) {
  auto it = std::find(active_stack_.begin(), active_stack_.end(), loud);
  if (it == active_stack_.end()) {
    return Status(ErrorCode::kBadState, "raise: LOUD not mapped");
  }
  active_stack_.erase(it);
  active_stack_.push_back(loud);
  ActivationChanged(loud);
  return Status::Ok();
}

Status ServerState::LowerLoud(Loud* loud) {
  auto it = std::find(active_stack_.begin(), active_stack_.end(), loud);
  if (it == active_stack_.end()) {
    return Status(ErrorCode::kBadState, "lower: LOUD not mapped");
  }
  active_stack_.erase(it);
  active_stack_.insert(active_stack_.begin(), loud);
  ActivationChanged(loud);
  return Status::Ok();
}

PhysicalDevice* ServerState::MatchPhysical(const VirtualDevice& vdev,
                                           const std::set<PhysicalDevice*>& claimed_phones) {
  const AttrList& want = vdev.attrs();
  for (PhysicalDevice* device : board_->devices()) {
    // Class compatibility.
    if (device->device_class() != vdev.device_class()) {
      continue;
    }
    if (vdev.device_class() == DeviceClass::kTelephone && claimed_phones.count(device) != 0) {
      continue;
    }
    if (auto id = want.GetU32(AttrTag::kDeviceId)) {
      if (IdForPhysical(device) != *id) {
        continue;
      }
    }
    if (auto name = want.GetString(AttrTag::kName)) {
      if (device->name() != *name) {
        continue;
      }
    }
    if (auto domain = want.GetU32(AttrTag::kAmbientDomain)) {
      if (device->ambient_domain() != *domain) {
        continue;
      }
    }
    if (auto rate = want.GetU32(AttrTag::kSampleRate)) {
      if (device->sample_rate_hz() != *rate) {
        continue;
      }
    }
    if (auto position = want.GetString(AttrTag::kPosition)) {
      auto attrs = device->Attributes();
      if (attrs.GetString(AttrTag::kPosition).value_or("") != *position) {
        continue;
      }
    }
    if (auto number = want.GetString(AttrTag::kPhoneNumber)) {
      auto attrs = device->Attributes();
      if (attrs.GetString(AttrTag::kPhoneNumber).value_or("") != *number) {
        continue;
      }
    }
    return device;
  }
  return nullptr;
}

bool ServerState::TryActivate(Loud* loud, const Claims& claims, bool dry_run,
                              Bindings* bindings) {
  std::vector<VirtualDevice*> devices;
  loud->CollectDevices(&devices);
  for (VirtualDevice* vdev : devices) {
    if (!vdev->NeedsPhysicalDevice()) {
      bindings->push_back({vdev, nullptr});
      continue;
    }
    PhysicalDevice* match = nullptr;
    if (dry_run || vdev->device_class() == DeviceClass::kTelephone) {
      match = MatchPhysical(*vdev, claims.phones);
    } else {
      if (!vdev->cached_match().has_value()) {
        vdev->set_cached_match(MatchPhysical(*vdev, claims.phones));
      }
      match = *vdev->cached_match();
    }
    if (match == nullptr) {
      return false;
    }
    // Exclusive-domain preemption (section 5.8): a higher LOUD holding
    // exclusive input/output in this ambient domain blocks us.
    if (vdev->device_class() == DeviceClass::kInput &&
        claims.exclusive_in.count(match->ambient_domain()) != 0) {
      return false;
    }
    if (vdev->device_class() == DeviceClass::kOutput &&
        claims.exclusive_out.count(match->ambient_domain()) != 0) {
      return false;
    }
    bindings->push_back({vdev, match});
  }
  return true;
}

void ServerState::Claims::Add(const Bindings& bindings) {
  for (const auto& [vdev, device] : bindings) {
    if (device == nullptr) {
      continue;
    }
    if (device->device_class() == DeviceClass::kTelephone) {
      phones.insert(device);
    }
    if (vdev->attrs().GetBool(AttrTag::kExclusiveInput)) {
      exclusive_in.insert(device->ambient_domain());
    }
    if (vdev->attrs().GetBool(AttrTag::kExclusiveOutput)) {
      exclusive_out.insert(device->ambient_domain());
    }
  }
}

bool ServerState::MayClaim(Loud* root) {
  bool may_claim = false;
  root->ForEachDevice([&may_claim](const VirtualDevice* vdev) {
    may_claim = may_claim || vdev->device_class() == DeviceClass::kTelephone ||
                vdev->attrs().GetBool(AttrTag::kExclusiveInput) ||
                vdev->attrs().GetBool(AttrTag::kExclusiveOutput);
  });
  return may_claim;
}

void ServerState::Activate(Loud* loud, const Bindings& bindings) {
  for (const auto& [vdev, device] : bindings) {
    if (device != nullptr) {
      vdev->Bind(device, IdForPhysical(device));
    }
    vdev->set_active(true);
  }
  std::vector<Loud*> louds;
  loud->CollectLouds(&louds);
  for (Loud* entry : louds) {
    entry->set_active(true);
  }
  EmitEvent(loud, EventType::kActivateNotify, loud->id(), {});
  loud->queue()->ServerResume(nullptr);
}

void ServerState::Deactivate(Loud* loud) {
  loud->queue()->ServerPause(nullptr);
  std::vector<VirtualDevice*> devices;
  loud->CollectDevices(&devices);
  for (VirtualDevice* vdev : devices) {
    if (vdev->bound_device() != nullptr) {
      vdev->Unbind();
    }
    vdev->set_active(false);
  }
  std::vector<Loud*> louds;
  loud->CollectLouds(&louds);
  for (Loud* entry : louds) {
    entry->set_active(false);
  }
  EmitEvent(loud, EventType::kDeactivateNotify, loud->id(), {});
}

void ServerState::ApplyActivation(const RootActivation& outcome) {
  Loud* loud = outcome.root;
  if (!outcome.active) {
    if (loud->active()) {
      Deactivate(loud);
    }
    return;
  }
  if (!loud->active()) {
    Activate(loud, outcome.bindings);
    return;
  }
  // Still active: move only the devices whose match changed — a device
  // added since activation, augmented attributes, or a line a higher root
  // now holds. The queue keeps running; no lifecycle events.
  for (const auto& [vdev, device] : outcome.bindings) {
    if (vdev->active() && vdev->bound_device() == device) {
      continue;
    }
    if (vdev->bound_device() != nullptr) {
      vdev->Unbind();
    }
    if (device != nullptr) {
      vdev->Bind(device, IdForPhysical(device));
    }
    vdev->set_active(true);
  }
}

std::vector<ServerState::RootActivation> ServerState::PlanActivation(bool dry_run) {
  std::vector<RootActivation> plan(active_stack_.size());
  Claims claims;
  for (size_t i = 0; i < active_stack_.size(); ++i) {
    RootActivation& outcome = plan[i];
    outcome.root = active_stack_[active_stack_.size() - 1 - i];
    outcome.active = TryActivate(outcome.root, claims, dry_run, &outcome.bindings);
    if (outcome.active) {
      claims.Add(outcome.bindings);
    } else {
      outcome.bindings.clear();
    }
  }
  return plan;
}

std::vector<ServerState::RootActivation> ServerState::ActivationOracle() {
  return PlanActivation(/*dry_run=*/true);
}

void ServerState::ActivationChanged(Loud* root) {
  bool whole_walk = claims_released_;
  if (root != nullptr) {
    whole_walk = whole_walk || (root->active() && root->may_claim());  // held claims
    root->set_may_claim(MayClaim(root));
    whole_walk = whole_walk || (root->mapped() && root->may_claim());  // may hold them
  }
  claims_released_ = false;
  if (whole_walk) {
    ++activation_walks_;
    for (const RootActivation& outcome : PlanActivation(/*dry_run=*/false)) {
      ApplyActivation(outcome);
    }
    return;
  }
  if (root == nullptr || !root->mapped()) {
    return;  // an unmapped root is already inactive, and it held no claims
  }
  // The claim set every other root sees is unchanged, so their outcomes
  // are too. Only roots that may claim contribute to the set above
  // `root`, so walking just those reproduces the whole walk's claims at
  // its position.
  Claims claims;
  for (Loud* above : std::views::reverse(active_stack_)) {
    if (above == root) {
      break;
    }
    Bindings held;
    if (above->may_claim() && TryActivate(above, claims, /*dry_run=*/false, &held)) {
      claims.Add(held);
    }
  }
  RootActivation outcome{root, false, {}};
  outcome.active = TryActivate(root, claims, /*dry_run=*/false, &outcome.bindings);
  ApplyActivation(outcome);
}

// ---------------------------------------------------------------------------
// Engine tick
// ---------------------------------------------------------------------------

void ServerState::AccumulateOutput(PhysicalDevice* device, std::span<const Sample> samples,
                                   int32_t gain) {
  auto it = output_acc_.find(device);
  if (it == output_acc_.end()) {
    it = output_acc_.emplace(device, MixAccumulator(current_tick_frames_)).first;
  }
  it->second.Accumulate(samples, gain);
}

void ServerState::PrepareOutputAccumulator(PhysicalDevice* device, size_t frames) {
  MixAccumulator& acc = output_acc_[device];
  if (acc.size() != frames) {
    acc.Reset(frames);  // re-sizes in place (period change / first tick)
  } else {
    acc.Clear();
  }
}

void ServerState::WaitEngineIdle() {
  if (!epoch_in_flight_) {
    return;
  }
  ++drain_waiters_;
  while (epoch_in_flight_) {
    epoch_cv_.Wait(state_mu_);
  }
  --drain_waiters_;
  if (drain_waiters_ == 0) {
    epoch_cv_.NotifyAll();  // a deferred epoch open may now proceed
  }
}

void ServerState::EpochOpen(size_t frames) {
  MutexLock lock(&state_mu_);
  // Two rules keep the boundary fair and exclusive: a second tick driver
  // waits out the in-flight epoch (epochs never overlap), and structural
  // mutators already queued behind the previous epoch go first — a
  // back-to-back tick storm must not starve create/destroy/activation.
  while (epoch_in_flight_ || drain_waiters_ > 0) {
    epoch_cv_.Wait(state_mu_);
  }
  current_tick_frames_ = frames;
  obs::Trace(obs::TraceReason::kTickStart, static_cast<uint32_t>(frames));

  // Prepare output accumulators (one per output-capable physical device,
  // reused across ticks).
  for (SpeakerUnit* speaker : board_->speakers()) {
    PrepareOutputAccumulator(speaker, frames);
  }
  for (PhoneLineUnit* phone : board_->phone_lines()) {
    PrepareOutputAccumulator(phone, frames);
  }

  // The roots with work, in stack order: a mapped root that is idle
  // (inactive, or a stopped queue and only queue-driven devices) costs the
  // epoch nothing past this check.
  tick_louds_.clear();
  for (Loud* loud : std::views::reverse(active_stack_)) {
    if (loud->runnable()) {
      tick_louds_.push_back(loud);
    }
  }
  epoch_in_flight_ = true;
}

void ServerState::EpochFanOut(EngineTick* tick, size_t frames) {
  // One root at a time, under that root's engine lock alone: wires never
  // cross LOUD trees, so a root's phases need nothing from another root.
  //
  // The roots are scattered on the heap, so while one ticks the next ones'
  // objects are fetched ahead (DESIGN.md decision 12). Only fields that are
  // readable without that root's lock are read: the Loud pointer itself,
  // its queue (fixed at construction) and its device list (changed only by
  // drain-class requests, never during an epoch). Another root's queue
  // program is never touched: shard-class requests rewrite it under that
  // root's lock.
  constexpr size_t kLoudAhead = 4;
  constexpr size_t kDevicesAhead = 2;
  tls_fanout = this;
  const size_t n = tick_louds_.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kLoudAhead < n) {
      PrefetchLines(tick_louds_[i + kLoudAhead], sizeof(Loud));
    }
    if (i + kDevicesAhead < n) {
      Loud* ahead = tick_louds_[i + kDevicesAhead];
      PrefetchLines(ahead->queue(), sizeof(CommandQueue));
      // Sized for a player, the largest device of a playing root.
      for (VirtualDevice* dev : ahead->devices()) {
        PrefetchLines(dev, sizeof(PlayerDevice));
      }
    }
    Loud* root = tick_louds_[i];
    MutexLock lock(root->engine_mutex());
    TickRoot(root, tick, frames);
  }
  tls_fanout = nullptr;
}

void ServerState::TickRoot(Loud* root, EngineTick* tick, size_t frames) {
  uint64_t produced = 0;
  uint64_t consumed = 0;
  // 1. The command queue: players/synths produce, commands advance (gapless
  //    transitions happen inside this call).
  CommandQueue* queue = root->queue();
  queue->Tick(tick, frames);
  if (queue->state() == QueueState::kStarted) {
    produced += frames;
  }

  // 2. Free-running sources: inputs and telephones stream regardless of
  //    queue state.
  root->ForEachDevice([&](VirtualDevice* dev) {
    if (dev->device_class() == DeviceClass::kInput ||
        dev->device_class() == DeviceClass::kTelephone) {
      dev->Produce(tick, frames);
      produced += frames;
    }
  });

  // 3. Transforms, in creation order (covers transform chains built in
  //    order).
  root->ForEachDevice([&](VirtualDevice* dev) {
    switch (dev->device_class()) {
      case DeviceClass::kMixer:
      case DeviceClass::kCrossbar:
      case DeviceClass::kDsp:
        dev->Produce(tick, frames);
        produced += frames;
        break;
      default:
        break;
    }
  });

  // 4. Sinks.
  root->ForEachDevice([&](VirtualDevice* dev) {
    switch (dev->device_class()) {
      case DeviceClass::kOutput:
      case DeviceClass::kRecorder:
      case DeviceClass::kTelephone:
      case DeviceClass::kSpeechRecognizer:
        dev->Consume(tick);
        consumed += frames;
        break;
      default:
        break;
    }
  });
  root->CountFrames(produced, consumed);
}

void ServerState::EpochCommit(size_t frames, obs::PhaseClock* clock) {
  const auto commit_t0 = clock->last();
  MutexLock lock(&state_mu_);

  // Hand each connection the batch the fan-out encoded for it: one egress
  // entry per connection, its events in emission order.
  if (!tick_batches_.empty()) {
    uint32_t events = 0;
    for (EventBatch& batch : tick_batches_) {
      events += batch.events;
      BatchSlot& slot = batch_slots_[batch.conn];
      slot.index = BatchSlot::kNoBatch;
      slot.size_hint = batch.frames.size();
      event_sender_(batch.conn, std::move(batch.frames), batch.events);
    }
    obs::Trace(obs::TraceReason::kEventFlush, events);
    tick_batches_.clear();
  }
  clock->Lap(&metrics_.tick_flush_us);

  // Resolve the transparent mixers into the codecs. The server keeps every
  // output codec fed (silence when idle) so the device clock runs
  // continuously.
  resolved_.resize(frames);
  for (auto& [device, acc] : output_acc_) {
    acc.Resolve(resolved_);
    device->engine_codec().WritePlayback(resolved_);
  }
  clock->Lap(&metrics_.tick_resolve_us);

  // Hardware time advances; phone/exchange events fire here (delivered
  // directly — the state lock is held).
  board_->Advance(frames);
  clock->Lap(&metrics_.tick_advance_us);

  engine_frame_.fetch_add(static_cast<int64_t>(frames), std::memory_order_relaxed);
  ++ticks_run_;

  // Mouth-to-ear: traced plays whose first possible mix epoch has now
  // committed. Record the accept->mix latency and close the loop in the
  // trace: kSpanEpoch marks the epoch that mixed, kMouthToEar spans the
  // whole accept->mix interval (both parented on the request's root span).
  if (!m2e_pending_.empty()) {
    auto& tracer = obs::TraceRegistry::Instance();
    const int64_t now_us = tracer.NowUs();
    for (auto it = m2e_pending_.begin(); it != m2e_pending_.end();) {
      if (it->required_epoch > ticks_run_) {
        ++it;
        continue;
      }
      const uint64_t latency_us =
          now_us > it->t_accept_us ? static_cast<uint64_t>(now_us - it->t_accept_us) : 0;
      metrics_.mouth_to_ear_us.Record(latency_us);
      tracer.Span(obs::TraceReason::kSpanEpoch, it->trace, it->root_seq, now_us, 0,
                  static_cast<uint32_t>(ticks_run_));
      tracer.Span(obs::TraceReason::kMouthToEar, it->trace, it->root_seq, it->t_accept_us,
                  static_cast<uint32_t>(latency_us), static_cast<uint32_t>(latency_us));
      metrics_.trace_spans.Increment(2);
      it = m2e_pending_.erase(it);
    }
  }

  // Publish the epoch boundary: wake structural mutators queued on it and
  // account the commit critical section.
  epoch_in_flight_ = false;
  epoch_cv_.NotifyAll();
  metrics_.epoch_commits.Increment();
  metrics_.epoch_commit_us.Record(obs::PhaseClock::UsSince(commit_t0));
}

void ServerState::Tick(size_t frames) {
  // Each phase is timed once per tick, one clock read at each boundary.
  obs::PhaseClock clock;

  // Epoch open: snapshot the active graph under the state lock.
  EpochOpen(frames);
  clock.Lap(&metrics_.tick_open_us);
  EngineTick tick{this, frames, engine_frame()};

  // Phases 1-4: queues, sources, transforms, sinks — with the state lock
  // dropped.
  EpochFanOut(&tick, frames);
  clock.Lap(&metrics_.tick_fanout_us);

  // Phases 5-6 + publication, in the commit critical section.
  EpochCommit(frames, &clock);

  const uint64_t tick_dur_us = obs::PhaseClock::UsSince(clock.start());
  metrics_.tick_us.Record(tick_dur_us);
  const uint64_t period_us =
      static_cast<uint64_t>(frames) * 1'000'000 / engine_rate();
  if (tick_dur_us > period_us) {
    // The tick body took longer than the audio it produced: in realtime
    // mode the codec would have underrun.
    metrics_.tick_overruns.Increment();
    obs::Trace(obs::TraceReason::kTickOverrun, static_cast<uint32_t>(tick_dur_us),
               static_cast<uint32_t>(period_us));
  }
  obs::Trace(obs::TraceReason::kTickEnd, static_cast<uint32_t>(tick_dur_us));
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

// Maps an event type to its selection-mask category (section 5.7's three
// categories, subdivided for finer control).
uint32_t ServerState::EventCategory(EventType type) {
  switch (type) {
    case EventType::kQueueStarted:
    case EventType::kQueueStopped:
    case EventType::kQueuePaused:
    case EventType::kQueueResumed:
    case EventType::kCommandDone:
      return kQueueEvents;
    case EventType::kMapNotify:
    case EventType::kUnmapNotify:
    case EventType::kActivateNotify:
    case EventType::kDeactivateNotify:
      return kLifecycleEvents;
    case EventType::kMapRequest:
    case EventType::kRestackRequest:
      return kRedirectEvents;
    case EventType::kTelephoneRing:
    case EventType::kTelephoneAnswered:
    case EventType::kTelephoneDialDone:
    case EventType::kCallProgress:
    case EventType::kDtmfReceived:
      return kTelephoneEvents;
    case EventType::kRecorderStarted:
    case EventType::kRecorderStopped:
      return kRecorderEvents;
    case EventType::kRecognition:
      return kRecognitionEvents;
    case EventType::kSyncMark:
      return kSyncEvents;
    case EventType::kPropertyNotify:
      return kPropertyEvents;
    case EventType::kEventTypeCount:
      break;
  }
  return 0;
}

bool ServerState::InFanOut() const { return tls_fanout == this; }

ServerState::EventBatch& ServerState::BatchFor(uint32_t conn) {
  BatchSlot& slot = batch_slots_[conn];
  if (slot.index == BatchSlot::kNoBatch) {
    slot.index = tick_batches_.size();
    EventBatch& batch = tick_batches_.emplace_back();
    batch.conn = conn;
    batch.frames.reserve(slot.size_hint);
  }
  return tick_batches_[slot.index];
}

size_t ServerState::batch_size_hint(uint32_t conn) const {
  return batch_slots_[conn].size_hint;
}

void ServerState::EmitDeviceLoudEvent(ResourceId device_loud_id, EventType type,
                                      std::span<const uint8_t> args) {
  Loud* entry = FindLoud(device_loud_id);
  if (entry == nullptr || !event_sender_) {
    return;
  }
  Deliver(entry->event_masks(), type, device_loud_id, args);
}

void ServerState::OnPhoneEvent(PhoneLineUnit* unit, const ExchangeLine::Event& event) {
  // Forward to the bound telephone virtual device, if any.
  auto it = telephone_bindings_.find(unit);
  if (it != telephone_bindings_.end() && it->second != nullptr) {
    it->second->OnLineEvent(event, nullptr);
  }

  // Deliver to device-LOUD monitors (the unmapped answering machine
  // watching for rings, section 5.9).
  ResourceId device_id = IdForPhysical(unit);
  if (device_id == kNoResource) {
    return;
  }
  switch (event.type) {
    case ExchangeLine::Event::Type::kRing: {
      TelephoneRingArgs args;
      args.caller_id = event.caller_id;
      args.line = 0;
      EmitDeviceLoudEvent(device_id, EventType::kTelephoneRing, args.Encode());
      break;
    }
    case ExchangeLine::Event::Type::kAnswered:
      EmitDeviceLoudEvent(device_id, EventType::kTelephoneAnswered, {});
      break;
    case ExchangeLine::Event::Type::kProgress: {
      CallProgressArgs args;
      args.state = event.state;
      EmitDeviceLoudEvent(device_id, EventType::kCallProgress, args.Encode());
      break;
    }
    case ExchangeLine::Event::Type::kDtmf: {
      DtmfReceivedArgs args;
      args.digit = event.digit;
      EmitDeviceLoudEvent(device_id, EventType::kDtmfReceived, args.Encode());
      break;
    }
  }
}

void ServerState::BindTelephone(PhoneLineUnit* unit, TelephoneDevice* device) {
  telephone_bindings_[unit] = device;
}

void ServerState::UnbindTelephone(PhoneLineUnit* unit, TelephoneDevice* device) {
  auto it = telephone_bindings_.find(unit);
  if (it != telephone_bindings_.end() && it->second == device) {
    telephone_bindings_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Catalogue
// ---------------------------------------------------------------------------

void ServerState::SeedCatalogue() {
  uint32_t rate = engine_rate();
  // The answering machine's "beep".
  {
    std::vector<Sample> beep = MakeBeep(rate, 250, 1000.0, 0.5);
    StreamEncoder encoder(Encoding::kMulaw8);
    CatalogueSound sound;
    sound.format = {Encoding::kMulaw8, rate};
    encoder.Encode(beep, &sound.data);
    catalogue_["beep"] = std::move(sound);
  }
  // A gentle alert tone (two short 440 Hz bursts).
  {
    std::vector<Sample> tone = MakeBeep(rate, 120, 440.0, 0.4);
    std::vector<Sample> alert = tone;
    alert.insert(alert.end(), rate / 20, 0);
    alert.insert(alert.end(), tone.begin(), tone.end());
    StreamEncoder encoder(Encoding::kMulaw8);
    CatalogueSound sound;
    sound.format = {Encoding::kMulaw8, rate};
    encoder.Encode(alert, &sound.data);
    catalogue_["alert"] = std::move(sound);
  }
  // A long spoken-prompt stand-in: ~2 s of varied tones stored as 4-bit
  // ADPCM at 16 kHz. Playing it costs an ADPCM decode plus a 16 kHz →
  // engine-rate resample, which is exactly the repeated-catalogue-play work
  // the decoded-PCM cache amortizes (answering-machine greeting, section 7).
  {
    constexpr uint32_t kPromptRate = 16000;
    std::vector<Sample> prompt;
    constexpr double kNotes[] = {392.0, 523.25, 659.25, 523.25,
                                 440.0, 587.33, 493.88, 392.0};
    for (double freq : kNotes) {
      std::vector<Sample> note = MakeBeep(kPromptRate, 230, freq, 0.45);
      prompt.insert(prompt.end(), note.begin(), note.end());
      prompt.insert(prompt.end(), kPromptRate / 50, 0);
    }
    StreamEncoder encoder(Encoding::kAdpcm4);
    CatalogueSound sound;
    sound.format = {Encoding::kAdpcm4, kPromptRate};
    encoder.Encode(prompt, &sound.data);
    catalogue_["prompt"] = std::move(sound);
  }
}

const CatalogueSound* ServerState::FindCatalogueSound(const std::string& name) const {
  auto it = catalogue_.find(name);
  return it == catalogue_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

ServerStatsReply ServerState::BuildServerStats(bool include_opcodes) {
  ServerStatsReply reply;
  metrics_.CopyTo(&reply);
  reply.proto_major = kProtocolMajor;
  reply.proto_minor = kProtocolMinor;
  reply.uptime_ms = metrics_.uptime_ms();
  reply.server_time = server_time();
  reply.engine_threads = 1;  // fixed: the tick runs on one thread
  reply.engine_rate_hz = engine_rate();
  reply.ticks_run = static_cast<uint64_t>(ticks_run_);
  if (include_opcodes) {
    for (size_t op = 0; op < ServerMetrics::kOpcodes; ++op) {
      uint64_t count = metrics_.requests[op].value();
      uint64_t errors = metrics_.request_errors[op].value();
      if (count == 0 && errors == 0) {
        continue;  // only opcodes actually seen go on the wire
      }
      reply.opcodes.push_back(
          {static_cast<uint16_t>(op), count, errors, metrics_.opcode_us[op].value()});
    }
  }
  reply.objects = static_cast<uint32_t>(objects_.size());
  for (Loud* loud : active_stack_) {
    if (loud->active()) {
      ++reply.active_louds;
    }
  }
  reply.trace_sample_every = trace_sample_every_;
  reply.loops = connection_loops_;
  return reply;
}

// ---------------------------------------------------------------------------
// Overload protection (DESIGN.md decision 15)
// ---------------------------------------------------------------------------

void ServerState::HangUpAllLines() {
  // Same contract as the owner-death path in DestroyConnectionObjects: a
  // terminating server must leave every building line on-hook, whoever's
  // telephone device held it. Bound devices first (the binding registry is
  // exact), then any off-hook line unit with no binding at all.
  for (const auto& [unit, device] : telephone_bindings_) {
    if (unit->line_state() != LineState::kOnHook) {
      unit->HangUp();
    }
  }
  for (PhoneLineUnit* unit : board_->phone_lines()) {
    if (unit->line_state() != LineState::kOnHook) {
      unit->HangUp();
    }
  }
}

uint32_t ServerState::CountOwnedDevices(uint32_t conn) const {
  uint32_t n = 0;
  for (const auto& [id, obj] : objects_) {
    if (obj->owner() == conn && obj->kind() == ObjectKind::kVirtualDevice) {
      ++n;
    }
  }
  return n;
}

uint64_t ServerState::CountOwnedSoundBytes(uint32_t conn) const {
  uint64_t bytes = 0;
  for (const auto& [id, obj] : objects_) {
    if (obj->owner() == conn && obj->kind() == ObjectKind::kSound) {
      bytes += static_cast<const SoundObject*>(obj.get())->size_bytes();
    }
  }
  return bytes;
}

uint32_t ServerState::CountRunningQueues(uint32_t conn) const {
  uint32_t n = 0;
  for (const auto& [id, obj] : objects_) {
    if (obj->owner() != conn || obj->kind() != ObjectKind::kLoud) {
      continue;
    }
    CommandQueue* queue = static_cast<Loud*>(obj.get())->queue();
    if (queue != nullptr && queue->state() != QueueState::kStopped) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Request tracing (DESIGN.md decision 13)
// ---------------------------------------------------------------------------

void ServerState::NotePlayAccepted(uint64_t trace, uint64_t root_seq) {
  PendingMouthToEar pending;
  pending.trace = trace;
  pending.root_seq = root_seq;
  pending.t_accept_us = obs::TraceRegistry::Instance().NowUs();
  // The first epoch whose fan-out can see this play: the next one — or the
  // one after, when a fan-out is already running off its own snapshot.
  pending.required_epoch = ticks_run_ + (epoch_in_flight_ ? 2 : 1);
  m2e_pending_.push_back(pending);
}

void ServerState::AppendDeviceStats(EntityStatsReply* reply) {
  for (const auto& [id, object] : objects_) {
    if (object->kind() != ObjectKind::kLoud) {
      continue;
    }
    auto* loud = static_cast<Loud*>(object.get());
    if (!loud->IsRoot()) {
      continue;
    }
    DeviceStatsWire wire;
    wire.root = loud->id();
    wire.owner = loud->owner();
    wire.active = loud->active() ? 1 : 0;
    wire.frames_produced = loud->frames_produced();
    wire.frames_consumed = loud->frames_consumed();
    reply->devices.push_back(wire);
  }
  // Stable output for tools and tests (the registry map is unordered).
  std::sort(reply->devices.begin(), reply->devices.end(),
            [](const DeviceStatsWire& a, const DeviceStatsWire& b) {
              return a.root < b.root;
            });
}

// ---------------------------------------------------------------------------
// Decoded-PCM cache
// ---------------------------------------------------------------------------

void ServerState::ConfigureDecodedCache(size_t max_bytes) {
  decoded_cache_.SetMaxBytes(max_bytes);
  metrics_.decoded_cache_bytes.Set(static_cast<int64_t>(decoded_cache_.bytes()));
}

DecodedSoundCache::Entry ServerState::GetDecodedSound(SoundObject* sound) {
  const uint32_t rate = engine_rate();
  const DecodedSoundCache::Key key{sound->id(), sound->generation(), rate};
  if (DecodedSoundCache::Entry hit = decoded_cache_.Lookup(key)) {
    metrics_.decoded_cache_hits.Increment();
    return hit;
  }
  metrics_.decoded_cache_misses.Increment();
  // Full decode to linear at the sound's native rate, then resample to the
  // engine rate. Decoders are chunk-invariant and the resampler's output is
  // a prefix-exact stream, so this whole-sound conversion is bit-identical
  // to the incremental per-tick path it replaces.
  auto pcm = std::make_shared<std::vector<Sample>>();
  StreamDecoder decoder(sound->format().encoding);
  decoder.Decode(sound->data(), pcm.get());
  if (sound->format().sample_rate_hz != rate) {
    Resampler resampler(sound->format().sample_rate_hz, rate);
    std::vector<Sample> resampled;
    resampled.reserve(static_cast<size_t>(
        resampler.OutputSizeFor(static_cast<int64_t>(pcm->size())) + 2));
    resampler.Process(*pcm, &resampled);
    *pcm = std::move(resampled);
  }
  DecodedSoundCache::Entry entry = std::move(pcm);
  const size_t evicted = decoded_cache_.Insert(key, entry);
  if (evicted > 0) {
    metrics_.decoded_cache_evictions.Increment(evicted);
  }
  metrics_.decoded_cache_bytes.Set(static_cast<int64_t>(decoded_cache_.bytes()));
  return entry;
}

}  // namespace aud
