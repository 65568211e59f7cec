// ServerState: the protocol-object world of one audio server — registry,
// device LOUD, active stack, catalogue, event routing, and the engine tick
// that moves audio.
//
// Locking — the epoch-snapshot tick (DESIGN.md decision 12): all *protocol*
// mutation still runs with the server's state lock held (the dispatcher per
// request), mirroring the paper's per-server serialization point for
// resource arbitration. The engine tick, however, no longer holds that lock
// across its fan-out. Tick() runs in three phases:
//   1. Epoch open (state lock held, short): capture the runnable root LOUDs
//      in stack order — active roots with a started queue or a device that
//      runs without one (Loud::runnable()) — and clear the per-device
//      output accumulators. Idle mapped roots cost nothing past this.
//   2. Fan-out (state lock NOT held): each runnable root in turn runs its
//      queue, sources, transforms and sinks under its own engine shard
//      lock (Loud::engine_mutex()), then releases it; the tick thread never
//      holds two. A request on a root waits only while that root is being
//      ticked. Events are encoded into one batch per connection. Structure
//      (registry, wiring, activation) cannot change mid-epoch: mutating
//      requests wait for the epoch via WaitEngineIdle().
//   3. Commit (state lock held, short): hand each connection its event
//      batch, resolve accumulators into the codecs, advance the board,
//      publish engine time, and wake any structural mutators waiting for
//      the epoch boundary.

#ifndef SRC_SERVER_SERVER_STATE_H_
#define SRC_SERVER_SERVER_STATE_H_

#include <atomic>
#include <concepts>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/thread_annotations.h"

#include "src/dsp/mixer_kernel.h"
#include "src/hw/board.h"
#include "src/server/command_queue.h"
#include "src/server/core.h"
#include "src/server/decoded_cache.h"
#include "src/server/devices.h"
#include "src/server/egress_queue.h"
#include "src/server/loud.h"
#include "src/server/metrics.h"

namespace aud {

// A named catalogue entry (section 5.6: "sounds are grouped into libraries
// or catalogues").
struct CatalogueSound {
  AudioFormat format;
  std::vector<uint8_t> data;
};

class ServerState {
 public:
  // Delivers encoded events to a connection (index): `frames` holds
  // `events` complete event frames built by AppendEventFrame, sequences
  // unstamped. Wired to the transport by AudioServer.
  using EventSender =
      std::function<void(uint32_t conn, std::vector<uint8_t> frames, uint32_t events)>;

  // `board` must outlive the state. `state_mu` is the server's state lock:
  // Tick() takes it for the epoch open and commit critical sections (and
  // runs its fan-out without it); WaitEngineIdle() releases it while
  // waiting.
  ServerState(Board* board, std::string server_name, Mutex& state_mu);
  ~ServerState();

  Board* board() { return board_; }
  const std::string& server_name() const { return server_name_; }
  uint32_t engine_rate() const { return board_->sample_rate_hz(); }
  // Engine time is published atomically at epoch commit so the fan-out can
  // stamp events without the state lock.
  int64_t engine_frame() const { return engine_frame_.load(std::memory_order_relaxed); }
  Ticks server_time() const { return SamplesToTicks(engine_frame(), engine_rate()); }

  void set_event_sender(EventSender sender) { event_sender_ = std::move(sender); }

  // Blocks until no epoch fan-out is in flight. Callers must hold the
  // state lock (the wait releases and reacquires it); on return the engine
  // is quiescent and cannot start a new epoch until the caller drops the
  // lock, so structural mutation (registry, wiring, activation, sound
  // data) is safe. Invisible to the analysis because the lock is the
  // server's, reached through a reference the annotations cannot tie to
  // the server's member.
  void WaitEngineIdle() AUD_NO_THREAD_SAFETY_ANALYSIS;

  // -- Registry ---------------------------------------------------------------

  // Registers a new object; fails with kBadIdChoice on collision.
  Status Register(std::unique_ptr<ServerObject> object);

  ServerObject* Find(ResourceId id);
  Loud* FindLoud(ResourceId id);
  VirtualDevice* FindDevice(ResourceId id);
  WireObject* FindWire(ResourceId id);
  SoundObject* FindSound(ResourceId id);
  // Sounds destroyed so far. A player keeps its sound's pointer and looks
  // the sound up again only when this count has moved. Destroys are
  // drain-class, so the count never moves while a fan-out runs.
  uint64_t sound_destroys() const { return sound_destroys_; }

  // Destroys one object (recursively for LOUDs: children, devices, wires),
  // then runs one activation pass for the tree it changed.
  Status Destroy(ResourceId id);

  // Destroys everything a disconnected client owned: its roots leave the
  // active stack in one pass, and activation runs once for all of them.
  void DestroyConnectionObjects(uint32_t conn);

  size_t object_count() const { return objects_.size(); }

  // -- Device LOUD (section 5.1) -----------------------------------------------

  ResourceId device_loud_root() const { return device_loud_root_; }
  PhysicalDevice* PhysicalForId(ResourceId id);
  ResourceId IdForPhysical(PhysicalDevice* device);
  DeviceLoudReply DescribeDeviceLoud();

  // Hard-wiring rule (section 5.2): when either device belongs to a
  // hard-wired group (speaker-phone), the other must be one of its
  // permanent partners.
  bool HardWireCompatible(PhysicalDevice* a, PhysicalDevice* b);

  // -- Active stack (section 5.4) ------------------------------------------------

  // Bottom to top: mapping or raising a root appends it. Walks that need
  // stack order (activation, the epoch's runnable roots, the
  // QueryActiveStack reply) iterate it in reverse.
  const std::vector<Loud*>& active_stack() const { return active_stack_; }

  Status MapLoud(Loud* loud);
  Status UnmapLoud(Loud* loud);
  Status RaiseLoud(Loud* loud);
  Status LowerLoud(Loud* loud);

  // The one activation entry point (DESIGN.md decision 5), called after a
  // structural change to `root`'s tree: map, unmap, restack, a device
  // added or destroyed, attributes augmented. `root` must still show the
  // activation it had before the change; null when the changed root no
  // longer exists. A root's outcome depends only on the claims (phone
  // lines, exclusive domains) of the active roots above it, so a change
  // to a root that neither held a claim nor may hold one re-evaluates
  // that root alone; any other change runs the whole top-down walk.
  void ActivationChanged(Loud* root);

  // One root's outcome in the top-down walk: whether it activates, and the
  // physical device each of its devices binds to (null for software
  // devices). Inactive roots carry no bindings.
  using Bindings = std::vector<std::pair<VirtualDevice*, PhysicalDevice*>>;
  struct RootActivation {
    Loud* root = nullptr;
    bool active = false;
    Bindings bindings;
  };

  // The whole-stack walk as a dry run: mutates nothing, matches every
  // device live (no cache), and returns the outcomes in stack order. Tests
  // hold the incremental result to it.
  std::vector<RootActivation> ActivationOracle();

  // Whole-stack walks run so far (tests check that teardown batches them).
  uint64_t activation_walks() const { return activation_walks_; }

  // -- Engine -------------------------------------------------------------------

  // One engine tick: open an epoch (snapshot the runnable roots under the
  // state lock), run each one's queue/produce/transform/consume for
  // `frames` with the lock dropped, then commit — hand out event batches,
  // resolve codecs, advance the board — in a short critical section at the
  // tick boundary. Callers must NOT hold the attached state lock.
  void Tick(size_t frames);

  // Output mixing: devices add their streams here during Consume; the tick
  // resolves each physical output's accumulator into its codec. This is the
  // transparent mixing of section 6.1.
  void AccumulateOutput(PhysicalDevice* device, std::span<const Sample> samples, int32_t gain);

  // -- Events (section 5.7) --------------------------------------------------------

  // Emits to every connection whose event mask on `loud` includes the
  // event's category. Inside the tick fan-out the event is encoded into
  // each subscriber's batch for the epoch, handed out at commit.
  void EmitEvent(Loud* loud, EventType type, ResourceId resource,
                 std::span<const uint8_t> args) {
    EmitEvent<std::span<const uint8_t>>(loud, type, resource, args);
  }
  // Typed-args form (sync marks, command completions): the args are
  // written straight into each subscriber's frame, with no staging copy.
  template <typename Args>
    requires WriterEncodable<Args> || std::same_as<Args, std::span<const uint8_t>>
  void EmitEvent(Loud* loud, EventType type, ResourceId resource, const Args& args) {
    if (!event_sender_) {
      return;
    }
    if (EventCategory(type) == kQueueEvents) {
      metrics_.queue_events.Increment();
    }
    Deliver(loud->event_masks(), type, resource, args);
  }

  // Emits to subscribers of a device-LOUD entry (e.g. monitoring the
  // telephone while the answering machine is unmapped, section 5.9).
  void EmitDeviceLoudEvent(ResourceId device_loud_id, EventType type,
                           std::span<const uint8_t> args);

  // Phone-line events enter here (wired to each PhoneLineUnit at startup).
  void OnPhoneEvent(PhoneLineUnit* unit, const ExchangeLine::Event& event);

  // Telephone vdev binding registry (who gets line events).
  void BindTelephone(PhoneLineUnit* unit, TelephoneDevice* device);
  void UnbindTelephone(PhoneLineUnit* unit, TelephoneDevice* device);

  // The size `conn`'s last event batch reached, which its next batch is
  // reserved at; 0 once the connection is reclaimed.
  size_t batch_size_hint(uint32_t conn) const;

  // -- Audio manager support (section 5.8) ---------------------------------------

  std::optional<uint32_t> redirect_conn() const { return redirect_conn_; }
  void set_redirect_conn(std::optional<uint32_t> conn) { redirect_conn_ = conn; }

  // -- Catalogue (section 5.6) ------------------------------------------------------

  std::map<std::string, CatalogueSound>& catalogue() { return catalogue_; }
  const CatalogueSound* FindCatalogueSound(const std::string& name) const;

  // Saved recognizer vocabularies (SaveVocabulary / kVocabularyName attr).
  std::map<std::string, std::vector<uint8_t>>& vocabularies() { return vocabularies_; }

  // -- Decoded-PCM cache ---------------------------------------------------------

  // Sets the cache byte budget (0 disables). Called once at server startup
  // from ServerOptions::decoded_cache_bytes; tests may reconfigure.
  void ConfigureDecodedCache(size_t max_bytes);
  DecodedSoundCache& decoded_cache() { return decoded_cache_; }

  // Returns `sound`'s full data decoded to linear PCM at the engine rate,
  // from cache when possible (decode-and-insert on miss). Metrics are
  // bumped either way. Safe to call from the tick fan-out: the registry is
  // not touched, only the sound object and the cache (internally locked).
  DecodedSoundCache::Entry GetDecodedSound(SoundObject* sound);

  // -- Stats ---------------------------------------------------------------------

  int64_t ticks_run() const { return ticks_run_; }

  // The server-wide metrics aggregate. Counters/gauges/histograms are all
  // relaxed atomics and may be bumped from any thread (see metrics.h).
  ServerMetrics& metrics() { return metrics_; }

  // Snapshot for GetServerStats. Called with the state lock held (the
  // structural fields it reads — registry size, active stack — only change
  // under that lock).
  ServerStatsReply BuildServerStats(bool include_opcodes);

  // Effective trace sampling period (ServerOptions::trace_sample_every),
  // mirrored here so GetServerStats can report it. 0 = tracing off.
  void set_trace_sample_every(uint32_t n) { trace_sample_every_ = n; }
  uint32_t trace_sample_every() const { return trace_sample_every_; }

  // Number of event-loop connection threads actually started (the fixed
  // kConnectionLoops), mirrored for GetServerStats.
  void set_connection_loops(uint32_t n) { connection_loops_ = n; }
  uint32_t connection_loops() const { return connection_loops_; }

  // -- Request tracing (DESIGN.md decision 13) -----------------------------------

  // Registers a traced play acceptance for mouth-to-ear measurement: the
  // first epoch commit whose fan-out could have mixed the play records the
  // latency (metrics_.mouth_to_ear_us) plus kSpanEpoch / kMouthToEar spans
  // linked under `root_seq`. Called with the state lock held (dispatcher);
  // the pending list is drained inside the commit critical section.
  void NotePlayAccepted(uint64_t trace, uint64_t root_seq);

  // Appends one DeviceStatsWire per root LOUD (client trees and the device
  // LOUD) to `reply`. Called with the state lock held.
  void AppendDeviceStats(EntityStatsReply* reply);

  // -- Overload protection (DESIGN.md decision 15) --------------------------------

  // Hangs up every off-hook telephone line (graceful drain's last act: a
  // terminating server leaves the building's lines on-hook). Called with
  // the state lock held and the engine idle.
  void HangUpAllLines();

  // Per-client quota accounting, counted on demand at the few dispatcher
  // sites that grow the resource (create device / store sound / start
  // queue) — no shadow counters to keep balanced through every teardown
  // path. Called with the state lock held; registry walks are O(objects),
  // fine at admission-control scale.
  uint32_t CountOwnedDevices(uint32_t conn) const;
  uint64_t CountOwnedSoundBytes(uint32_t conn) const;
  uint32_t CountRunningQueues(uint32_t conn) const;

 private:
  // What the active roots above a position hold against it (section 5.8).
  struct Claims {
    std::set<uint32_t> exclusive_in;
    std::set<uint32_t> exclusive_out;
    std::set<PhysicalDevice*> phones;
    void Add(const Bindings& bindings);
  };

  void BuildDeviceLoud();
  void SeedCatalogue();
  // Cascade teardown without activation; Destroy and owner death run
  // activation once afterwards.
  void DestroyObject(ServerObject* obj);
  // Takes a root off the active stack's bookkeeping (the caller erases it
  // from active_stack_): unmapped, deactivated, kUnmapNotify emitted.
  void Withdraw(Loud* loud);
  static bool MayClaim(Loud* root);
  // The top-down walk over the whole stack. `dry_run` matches every device
  // live and leaves the binding cache alone.
  std::vector<RootActivation> PlanActivation(bool dry_run);
  bool TryActivate(Loud* loud, const Claims& claims, bool dry_run, Bindings* bindings);
  PhysicalDevice* MatchPhysical(const VirtualDevice& vdev,
                                const std::set<PhysicalDevice*>& claimed_phones);
  // Brings `outcome.root` to its outcome: activate, deactivate, or (still
  // active) rebind the devices whose match moved.
  void ApplyActivation(const RootActivation& outcome);
  void Activate(Loud* loud, const Bindings& bindings);
  void Deactivate(Loud* loud);

  // Engine internals.
  void PrepareOutputAccumulator(PhysicalDevice* device, size_t frames);
  // Epoch phases (Tick). Open/Commit run under the state lock; the fan-out
  // does not.
  void EpochOpen(size_t frames) AUD_NO_THREAD_SAFETY_ANALYSIS;
  void EpochFanOut(EngineTick* tick, size_t frames);
  void TickRoot(Loud* root, EngineTick* tick, size_t frames);
  void EpochCommit(size_t frames, obs::PhaseClock* clock) AUD_NO_THREAD_SAFETY_ANALYSIS;
  // The selection-mask category of an event type (section 5.7).
  static uint32_t EventCategory(EventType type);
  // Whether the calling thread is running this state's fan-out.
  bool InFanOut() const;
  // `conn`'s batch for the epoch, opened on its first event at the size
  // its previous batch reached (fan-out only).
  struct EventBatch;
  EventBatch& BatchFor(uint32_t conn);
  // Sends one event to every connection in `masks` that selected its
  // category: into the epoch's batches from the fan-out, directly
  // otherwise.
  template <typename Args>
  void Deliver(const std::vector<Loud::EventMask>& masks, EventType type, ResourceId resource,
               const Args& args) {
    const uint32_t category = EventCategory(type);
    const int64_t time = server_time();
    if (InFanOut()) {
      // Encoded once per subscriber, straight into its batch for the epoch.
      for (const Loud::EventMask& m : masks) {
        if ((m.mask & category) != 0) {
          EventBatch& batch = BatchFor(m.conn);
          AppendEventFrame(&batch.frames, type, resource, time, args);
          ++batch.events;
        }
      }
      return;
    }
    // Outside the fan-out (the state lock is held): a batch of one each.
    std::vector<uint8_t> frame;
    for (const Loud::EventMask& m : masks) {
      if ((m.mask & category) == 0) {
        continue;
      }
      if (frame.empty()) {
        AppendEventFrame(&frame, type, resource, time, args);
      }
      event_sender_(m.conn, frame, 1);
    }
  }

  Board* board_;
  std::string server_name_;
  EventSender event_sender_;

  std::unordered_map<ResourceId, std::unique_ptr<ServerObject>> objects_;

  ResourceId device_loud_root_ = kNoResource;
  std::map<ResourceId, PhysicalDevice*> device_loud_entries_;
  std::map<PhysicalDevice*, ResourceId> physical_ids_;
  ResourceId next_server_id_ = kServerIdBase;
  uint64_t sound_destroys_ = 0;

  std::vector<Loud*> active_stack_;  // back() = top
  // Set when a root holding claims leaves the stack; the next
  // ActivationChanged then runs the whole walk.
  bool claims_released_ = false;
  uint64_t activation_walks_ = 0;

  std::map<PhoneLineUnit*, TelephoneDevice*> telephone_bindings_;

  std::map<PhysicalDevice*, MixAccumulator> output_acc_;
  size_t current_tick_frames_ = 0;
  std::atomic<int64_t> engine_frame_{0};
  int64_t ticks_run_ = 0;

  // Epoch machinery (decision 12). `state_mu_` is the server's state lock;
  // epoch_in_flight_ is true exactly while a fan-out runs without it.
  // Structural mutators queue on epoch_cv_ (WaitEngineIdle) and the next
  // epoch open defers to them so a tick storm cannot starve mutation.
  Mutex& state_mu_;
  CondVar epoch_cv_;
  bool epoch_in_flight_ = false;
  int drain_waiters_ = 0;
  // The epoch's snapshot: runnable roots in stack order. A member, so its
  // capacity is reused across ticks.
  std::vector<Loud*> tick_louds_;
  // The events the fan-out emits, encoded once into one batch per
  // connection in emission order; EpochCommit hands each batch over whole.
  struct EventBatch {
    uint32_t conn = 0;
    uint32_t events = 0;
    std::vector<uint8_t> frames;
  };
  std::vector<EventBatch> tick_batches_;
  // Per connection slot, sized once for every slot: its tick_batches_
  // index this epoch (kNoBatch when none is open), and the size its last
  // batch reached, so the next one is reserved once instead of regrown
  // from empty. DestroyConnectionObjects resets the slot.
  struct BatchSlot {
    static constexpr size_t kNoBatch = ~size_t{0};
    size_t index = kNoBatch;
    size_t size_hint = 0;
  };
  std::vector<BatchSlot> batch_slots_ = std::vector<BatchSlot>(kMaxClientConnections);
  std::vector<Sample> resolved_;

  // Traced plays awaiting their first possible mix (NotePlayAccepted).
  // Guarded by the state lock like the epoch machinery above: appended by
  // the dispatcher, drained by EpochCommit once ticks_run_ reaches
  // required_epoch.
  struct PendingMouthToEar {
    uint64_t trace = 0;
    uint64_t root_seq = 0;
    int64_t t_accept_us = 0;
    int64_t required_epoch = 0;
  };
  std::vector<PendingMouthToEar> m2e_pending_;

  std::optional<uint32_t> redirect_conn_;

  std::map<std::string, CatalogueSound> catalogue_;
  std::map<std::string, std::vector<uint8_t>> vocabularies_;

  DecodedSoundCache decoded_cache_;

  uint32_t trace_sample_every_ = 0;
  uint32_t connection_loops_ = 0;

  ServerMetrics metrics_;
};

}  // namespace aud

#endif  // SRC_SERVER_SERVER_STATE_H_
