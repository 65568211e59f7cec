#include "src/server/loud.h"

#include <algorithm>

#include "src/server/command_queue.h"
#include "src/server/server_state.h"

namespace aud {

Loud::Loud(ResourceId id, uint32_t owner, ServerState* server, Loud* parent, AttrList attrs)
    : ServerObject(id, ObjectKind::kLoud, owner),
      server_(server),
      parent_(parent),
      attrs_(std::move(attrs)) {
  if (parent_ == nullptr) {
    queue_ = std::make_unique<CommandQueue>(this);
  }
}

Loud::~Loud() = default;

Loud* Loud::Root() {
  Loud* loud = this;
  while (loud->parent_ != nullptr) {
    loud = loud->parent_;
  }
  return loud;
}

CommandQueue* Loud::queue() { return Root()->queue_.get(); }

namespace {

// The device classes the epoch fan-out runs whatever the queue's state.
bool RunsWithoutQueue(DeviceClass device_class) {
  switch (device_class) {
    case DeviceClass::kInput:
    case DeviceClass::kTelephone:
    case DeviceClass::kMixer:
    case DeviceClass::kCrossbar:
    case DeviceClass::kDsp:
    case DeviceClass::kRecorder:
    case DeviceClass::kSpeechRecognizer:
      return true;
    default:
      return false;
  }
}

}  // namespace

void Loud::RefreshRunnable() {
  Loud* root = Root();
  bool runnable = root->active_ && root->queue_->state() == QueueState::kStarted;
  if (root->active_ && !runnable) {
    root->ForEachDevice([&runnable](const VirtualDevice* dev) {
      runnable = runnable || RunsWithoutQueue(dev->device_class());
    });
  }
  root->runnable_.store(runnable, std::memory_order_relaxed);
}

void Loud::AddChild(Loud* child) {
  children_.push_back(child);
  RefreshRunnable();
}

void Loud::RemoveChild(Loud* child) {
  std::erase(children_, child);
  RefreshRunnable();
}

void Loud::AddDevice(VirtualDevice* dev) {
  devices_.push_back(dev);
  RefreshRunnable();
}

void Loud::RemoveDevice(VirtualDevice* dev) {
  std::erase(devices_, dev);
  RefreshRunnable();
}

void Loud::CollectDevices(std::vector<VirtualDevice*>* out) const {
  ForEachDevice([out](VirtualDevice* dev) { out->push_back(dev); });
}

void Loud::CollectLouds(std::vector<Loud*>* out) {
  out->push_back(this);
  for (Loud* child : children_) {
    child->CollectLouds(out);
  }
}

void Loud::SetEventMask(uint32_t conn, uint32_t mask) {
  auto it = std::lower_bound(event_masks_.begin(), event_masks_.end(), conn,
                             [](const EventMask& m, uint32_t c) { return m.conn < c; });
  const bool present = it != event_masks_.end() && it->conn == conn;
  if (mask == 0) {
    if (present) {
      event_masks_.erase(it);
    }
  } else if (present) {
    it->mask = mask;
  } else {
    event_masks_.insert(it, {conn, mask});
  }
}

void Loud::NoteSyncProgress(int64_t position_samples, int64_t total_samples,
                            int64_t device_time) {
  if (sync_interval_ms_ == 0) {
    return;
  }
  int64_t interval_samples =
      static_cast<int64_t>(server_->engine_rate()) * sync_interval_ms_ / 1000;
  if (interval_samples <= 0) {
    return;
  }
  int64_t mark = position_samples / interval_samples;
  if (mark != last_sync_position_) {
    last_sync_position_ = mark;
    SyncMarkArgs args;
    args.position_samples = static_cast<uint64_t>(position_samples);
    args.device_time = device_time;
    args.total_samples = static_cast<uint64_t>(total_samples);
    server_->EmitEvent(Root(), EventType::kSyncMark, id(), args);
  }
}

}  // namespace aud
