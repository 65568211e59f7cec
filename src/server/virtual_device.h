// VirtualDevice: the device-independent building block of audio structures
// (section 5.1). Each class of device is a subclass of this common object
// class (mirroring the prototype's design, section 6.1). A virtual device
// lives in a LOUD, exposes typed source/sink ports that wires connect, may
// bind to a physical device when its LOUD is activated, and executes the
// class-specific commands of section 5.1.

#ifndef SRC_SERVER_VIRTUAL_DEVICE_H_
#define SRC_SERVER_VIRTUAL_DEVICE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/hw/physical_device.h"
#include "src/server/core.h"

namespace aud {

class Loud;
class ServerState;

// Context handed to devices during an engine tick.
struct EngineTick {
  ServerState* server = nullptr;
  // Frames in this tick (at the engine's base rate).
  size_t frames = 0;
  // Engine frame count at tick start (the server-side time base).
  int64_t start_frame = 0;
  // Frames of this tick already consumed by the current queue branch
  // before the running command's Produce call (a Delay that expires
  // mid-tick leaves a nonzero offset). Producers align their wire pushes
  // to this offset so mid-tick starts are sample-accurate.
  size_t branch_offset = 0;
};

// How a queued command finished (for CommandDone events).
enum class CommandOutcome : uint8_t {
  kCompleted = 0,
  kAborted = 1,
};

class VirtualDevice : public ServerObject {
 public:
  VirtualDevice(ResourceId id, uint32_t owner, DeviceClass device_class, Loud* loud,
                AttrList attrs);
  ~VirtualDevice() override;

  DeviceClass device_class() const { return class_; }
  Loud* loud() const { return loud_; }

  const AttrList& attrs() const { return attrs_; }
  // Merges `attrs` over the device's attributes (AugmentVirtualDevice,
  // section 5.3) and drops the cached physical match.
  void Augment(const AttrList& attrs);

  // Port shape. Source ports emit audio; sink ports accept it.
  virtual int source_port_count() const { return 0; }
  virtual int sink_port_count() const { return 0; }

  // Declared format of a port (wire type checking, section 5.2). Defaults
  // to the device's kEncoding/kSampleRate attributes or telephone quality.
  virtual AudioFormat PortFormat(bool is_source, uint16_t port) const;

  // Wires attached to this device.
  const std::vector<WireObject*>& source_wires() const { return source_wires_; }
  const std::vector<WireObject*>& sink_wires() const { return sink_wires_; }
  void AttachWire(WireObject* wire, bool as_source);
  void DetachWire(WireObject* wire);

  // -- Binding (section 5.3) -------------------------------------------------

  // True classes that require physical hardware return a non-null match
  // requirement; software devices bind trivially.
  virtual bool NeedsPhysicalDevice() const { return false; }

  PhysicalDevice* bound_device() const { return bound_; }
  ResourceId bound_device_id() const { return bound_device_id_; }

  // Called by activation once a physical device has been matched (software
  // devices get nullptr). Override to hook hardware event sinks etc.
  virtual void Bind(PhysicalDevice* device, ResourceId device_loud_id);
  virtual void Unbind();

  bool active() const { return active_; }
  void set_active(bool active) { active_ = active; }

  // Activation's memo of this device's attribute match against the board
  // (ServerState::MatchPhysical with no lines claimed). The board's device
  // set is fixed and attributes change only through Augment(), so the memo
  // stays exact until then. Telephones do not use it: their match depends
  // on which lines higher roots hold.
  const std::optional<PhysicalDevice*>& cached_match() const { return cached_match_; }
  void set_cached_match(PhysicalDevice* device) { cached_match_ = device; }

  // -- Commands ---------------------------------------------------------------

  // Starts a queued command on this device. On success the command runs
  // until Done() or Abort(). `tag` is echoed in the CommandDone event.
  virtual Status StartCommand(const CommandSpec& spec, EngineTick* tick);

  // True while a started command is still running.
  virtual bool CommandRunning() const { return command_running_; }

  // Executes an immediate-mode command (Stop/Pause/Resume/ChangeGain...).
  // An immediate Stop aborts the running queued command (section 5.1).
  virtual Status ImmediateCommand(const CommandSpec& spec);

  // Pauses/resumes the device as part of queue pause propagation (5.5).
  // Returns false if this device cannot pause (the queue then stops).
  virtual bool PauseDevice();
  virtual void ResumeDevice();
  bool paused() const { return paused_; }

  // Aborts any running command (queue stop / immediate stop / unmap).
  virtual void AbortCommand();

  // True once, if the last command ended by abort rather than completion
  // (consumed by the queue when it emits CommandDone).
  bool ConsumeAbortLatch() {
    bool latched = abort_latch_;
    abort_latch_ = false;
    return latched;
  }

  // -- Engine tick -------------------------------------------------------------

  // Produce phase: push up to tick->frames samples into source wires.
  // Returns frames produced (players return fewer at end-of-sound so the
  // queue can pre-issue the next command inside the same tick).
  virtual size_t Produce(EngineTick* tick, size_t frames);

  // Consume phase: drain sink wires (into hardware, sound data, or the
  // recognizer).
  virtual void Consume(EngineTick* tick);

  // Gain applied to this device's stream (ChangeGain).
  int32_t gain() const { return gain_; }
  void set_gain(int32_t gain) { gain_ = gain; }

 protected:
  void set_command_running(bool running) {
    command_running_ = running;
    if (running) {
      abort_latch_ = false;
    }
  }

 private:
  DeviceClass class_;
  Loud* loud_;
  AttrList attrs_;
  std::vector<WireObject*> source_wires_;
  std::vector<WireObject*> sink_wires_;
  PhysicalDevice* bound_ = nullptr;
  ResourceId bound_device_id_ = kNoResource;
  std::optional<PhysicalDevice*> cached_match_;
  bool active_ = false;
  bool command_running_ = false;
  bool abort_latch_ = false;
  bool paused_ = false;
  int32_t gain_ = 10000;
};

// Factory: builds the subclass for `device_class`.
std::unique_ptr<VirtualDevice> CreateVirtualDevice(ResourceId id, uint32_t owner,
                                                   DeviceClass device_class, Loud* loud,
                                                   AttrList attrs);

// Wire description with both endpoint device ids resolved.
WireInfo CompleteWireInfo(const WireObject& wire);

}  // namespace aud

#endif  // SRC_SERVER_VIRTUAL_DEVICE_H_
