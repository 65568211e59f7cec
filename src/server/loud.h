// LOUD: Logical aUdio Device (section 5.1). A container organizing virtual
// devices into a tree; the root of each tree owns a command queue and is
// the unit of mapping, activation and event selection.

#ifndef SRC_SERVER_LOUD_H_
#define SRC_SERVER_LOUD_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/server/core.h"
#include "src/server/virtual_device.h"

namespace aud {

class CommandQueue;
class ServerState;

class Loud : public ServerObject {
 public:
  Loud(ResourceId id, uint32_t owner, ServerState* server, Loud* parent, AttrList attrs);
  ~Loud() override;

  ServerState* server() const { return server_; }
  Loud* parent() const { return parent_; }
  const std::vector<Loud*>& children() const { return children_; }
  const std::vector<VirtualDevice*>& devices() const { return devices_; }

  const AttrList& attrs() const { return attrs_; }
  AttrList& mutable_attrs() { return attrs_; }

  bool IsRoot() const { return parent_ == nullptr; }
  Loud* Root();

  // Only root LOUDs have a queue (section 5.5: "a command queue is provided
  // for each root LOUD"); non-roots return the root's queue.
  CommandQueue* queue();

  // Per-root engine shard lock (DESIGN.md decision 12). The engine fan-out
  // holds it while it ticks this root, and only then; the dispatcher takes
  // it (after the state lock, see the documented rank order) for
  // engine-plane requests, so a request waits only while its own root is
  // being ticked. Non-roots forward to the root, mirroring queue().
  Mutex* engine_mutex() { return &Root()->engine_mu_; }

  bool mapped() const { return mapped_; }
  void set_mapped(bool mapped) { mapped_ = mapped; }
  bool active() const { return active_; }
  void set_active(bool active) {
    active_ = active;
    RefreshRunnable();
  }
  // Whether the epoch fan-out ticks this tree (meaningful on roots): the
  // root is active, and either its queue is started or the tree holds a
  // device the fan-out runs regardless of the queue — input, telephone,
  // mixer, crossbar, DSP, recorder or speech recognizer. Kept current by
  // RefreshRunnable on every change to its inputs (queue state,
  // activation, devices and children). Atomic: EpochOpen reads it under the
  // state lock alone, while a queue changes state under the root's engine
  // lock.
  bool runnable() const { return runnable_.load(std::memory_order_relaxed); }
  // Recomputes the root's runnable flag from scratch. Any LOUD of the tree
  // may call it.
  void RefreshRunnable();
  // Activation's cache, meaningful on roots: whether some device in the
  // tree can claim a resource against lower roots — a telephone line, or
  // an exclusive input or output domain (ServerState::ActivationChanged).
  bool may_claim() const { return may_claim_; }
  void set_may_claim(bool may_claim) { may_claim_ = may_claim; }

  // Tree maintenance (called by the dispatcher).
  void AddChild(Loud* child);
  void RemoveChild(Loud* child);
  void AddDevice(VirtualDevice* dev);
  void RemoveDevice(VirtualDevice* dev);

  // Visits every device in this subtree, depth-first: this LOUD's devices
  // in creation order, then each child's subtree.
  template <typename Fn>
  void ForEachDevice(Fn&& fn) const {
    for (VirtualDevice* dev : devices_) {
      fn(dev);
    }
    for (const Loud* child : children_) {
      child->ForEachDevice(fn);
    }
  }
  // All devices in this subtree, in ForEachDevice order.
  void CollectDevices(std::vector<VirtualDevice*>* out) const;
  void CollectLouds(std::vector<Loud*>* out);

  // Properties (section 5.8).
  std::map<std::string, Property>& properties() { return properties_; }

  // Event selection: per-connection masks, ascending by connection (the
  // order events fan out to subscribers). A flat vector: the tick walks it
  // for every event the root emits.
  struct EventMask {
    uint32_t conn;
    uint32_t mask;
  };
  const std::vector<EventMask>& event_masks() const { return event_masks_; }
  // Sets `conn`'s mask; 0 clears the selection.
  void SetEventMask(uint32_t conn, uint32_t mask);

  // Sync marks (section 5.7). Interval 0 disables.
  uint32_t sync_interval_ms() const { return sync_interval_ms_; }
  void set_sync_interval_ms(uint32_t ms) {
    sync_interval_ms_ = ms;
    last_sync_position_ = -1;
  }
  // Called by a playing player after producing; emits kSyncMark events on
  // interval boundaries.
  void NoteSyncProgress(int64_t position_samples, int64_t total_samples, int64_t device_time);

  // Per-root frame accounting (GetEntityStats), added once per tick by the
  // fan-out on the root. Relaxed atomics, so a stats snapshot from the
  // dispatcher is safe against a concurrent fan-out; the fan-out is the
  // only writer, so a load and a store do without a locked add.
  void CountFrames(uint64_t produced, uint64_t consumed) {
    frames_produced_.store(frames_produced_.load(std::memory_order_relaxed) + produced,
                           std::memory_order_relaxed);
    frames_consumed_.store(frames_consumed_.load(std::memory_order_relaxed) + consumed,
                           std::memory_order_relaxed);
  }
  uint64_t frames_produced() const {
    return frames_produced_.load(std::memory_order_relaxed);
  }
  uint64_t frames_consumed() const {
    return frames_consumed_.load(std::memory_order_relaxed);
  }

 private:
  ServerState* server_;
  Loud* parent_;
  AttrList attrs_;
  std::vector<Loud*> children_;
  std::vector<VirtualDevice*> devices_;
  std::unique_ptr<CommandQueue> queue_;
  bool mapped_ = false;
  bool active_ = false;
  bool may_claim_ = false;
  std::atomic<bool> runnable_{false};
  std::map<std::string, Property> properties_;
  std::vector<EventMask> event_masks_;
  uint32_t sync_interval_ms_ = 0;
  int64_t last_sync_position_ = -1;
  // Meaningful on roots only (engine_mutex() resolves through Root()).
  Mutex engine_mu_{LockRank::kEngineRoot, "Loud::engine_mu_"};
  // Meaningful on roots only (Count* resolve through Root()).
  std::atomic<uint64_t> frames_produced_{0};
  std::atomic<uint64_t> frames_consumed_{0};
};

}  // namespace aud

#endif  // SRC_SERVER_LOUD_H_
