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
  // The epoch fan-out acquires the active roots' locks at the same rank in
  // ascending id order; the order key is what the rank checker validates.
  engine_mu_.SetRankOrder(static_cast<uint64_t>(id));
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

void Loud::RemoveChild(Loud* child) { std::erase(children_, child); }

void Loud::RemoveDevice(VirtualDevice* dev) { std::erase(devices_, dev); }

void Loud::CollectDevices(std::vector<VirtualDevice*>* out) const {
  out->insert(out->end(), devices_.begin(), devices_.end());
  for (const Loud* child : children_) {
    child->CollectDevices(out);
  }
}

void Loud::CollectLouds(std::vector<Loud*>* out) {
  out->push_back(this);
  for (Loud* child : children_) {
    child->CollectLouds(out);
  }
}

uint32_t Loud::MaskFor(uint32_t conn) const {
  auto it = event_masks_.find(conn);
  return it == event_masks_.end() ? 0 : it->second;
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
    server_->EmitEvent(Root(), EventType::kSyncMark, id(), args.Encode());
  }
}

}  // namespace aud
