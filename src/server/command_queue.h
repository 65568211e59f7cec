// Command queues (section 5.5): sequential processing of device commands
// inside the server, without client round trips, with the CoBegin/CoEnd/
// Delay/DelayEnd synchronization pseudo-commands ("not a programming
// language ... no conditionals or branches").
//
// Gapless transitions: the queue is ticked with a frame budget; when a
// producing command (Play) finishes mid-tick, the next command starts
// immediately and produces the remainder of the budget, so back-to-back
// plays are sample-accurate ("without a single dropped or inserted
// sample", section 6.2). This is the engine-side realization of the
// paper's pre-issued commands: completion is accounted in device frames,
// never server CPU time (footnote 8).

#ifndef SRC_SERVER_COMMAND_QUEUE_H_
#define SRC_SERVER_COMMAND_QUEUE_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/server/core.h"
#include "src/server/virtual_device.h"

namespace aud {

class Loud;

class CommandQueue {
 public:
  explicit CommandQueue(Loud* loud) : loud_(loud) {}

  QueueState state() const { return state_; }

  // Parses and appends commands (CoBegin/Delay build nested structure).
  // Errors on malformed nesting (CoEnd without CoBegin, etc.).
  Status Enqueue(const std::vector<CommandSpec>& commands);

  // Control requests.
  Status Start(EngineTick* tick);
  Status Stop(EngineTick* tick);            // Aborts the current command.
  Status ClientPause(EngineTick* tick);     // client-paused state
  Status Resume(EngineTick* tick);
  void Flush();                             // Drops all queued commands.

  // Server-side pause/resume driven by LOUD deactivation (section 5.5:
  // "if a LOUD is made inactive while processing a command, the server
  // pauses the queue"; reactivation auto-resumes).
  void ServerPause(EngineTick* tick);
  void ServerResume(EngineTick* tick);

  // Advances the queue by up to `frames` frames. Called once per engine
  // tick while the LOUD is active and the queue is started.
  void Tick(EngineTick* tick, size_t frames);

  // Commands waiting or running.
  uint32_t Depth() const;

  // Tag of the command currently in flight (0 when idle).
  uint32_t CurrentTag() const;

  // Drops every reference to `device` from the program. Called when the
  // device is destroyed while the queue still exists (e.g. a child LOUD
  // torn down before its root on connection teardown); a started command
  // on the device is marked aborted/done so the queue skips past it.
  void ForgetDevice(const VirtualDevice* device);

 private:
  struct Node {
    enum class Kind : uint8_t { kCommand, kCo, kDelay };
    Kind kind = Kind::kCommand;
    CommandSpec spec;        // kCommand
    uint32_t delay_ms = 0;   // kDelay
    std::vector<std::unique_ptr<Node>> children;  // kCo branches / kDelay body

    // Execution state.
    bool started = false;
    bool done = false;
    bool aborted = false;
    VirtualDevice* device = nullptr;
    size_t child_index = 0;       // kDelay sequential body position
    int64_t delay_frames_left = -1;
  };

  // Returns frames consumed; marks node->done when complete.
  size_t TickNode(Node* node, EngineTick* tick, size_t frames);
  size_t TickCommand(Node* node, EngineTick* tick, size_t frames);

  void StartCommandNode(Node* node, EngineTick* tick);
  void FinishCommandNode(Node* node, EngineTick* tick);
  void AbortNode(Node* node, EngineTick* tick);
  void PausePropagate(Node* node, bool* pausable);
  void ResumePropagate(Node* node);
  static uint32_t CountNodes(const Node& node);
  static uint32_t FirstTag(const Node& node);
  static void ForgetNodeDevice(Node* node, const VirtualDevice* device);

  void SetState(QueueState state, EngineTick* tick, bool server_initiated);

  Loud* loud_;
  QueueState state_ = QueueState::kStopped;
  std::deque<std::unique_ptr<Node>> program_;
  // Parse stack for incremental CoBegin/Delay nesting.
  std::vector<Node*> parse_stack_;
};

}  // namespace aud

#endif  // SRC_SERVER_COMMAND_QUEUE_H_
