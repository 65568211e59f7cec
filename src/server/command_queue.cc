#include "src/server/command_queue.h"

#include <algorithm>

#include "src/server/loud.h"
#include "src/server/server_state.h"

namespace aud {

// ---------------------------------------------------------------------------
// Parsing (incremental CoBegin/CoEnd/Delay/DelayEnd nesting)
// ---------------------------------------------------------------------------

Status CommandQueue::Enqueue(const std::vector<CommandSpec>& commands) {
  for (const CommandSpec& spec : commands) {
    switch (spec.command) {
      case DeviceCommand::kCoBegin: {
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::kCo;
        Node* raw = node.get();
        if (parse_stack_.empty()) {
          program_.push_back(std::move(node));
        } else {
          parse_stack_.back()->children.push_back(std::move(node));
        }
        parse_stack_.push_back(raw);
        break;
      }
      case DeviceCommand::kDelay: {
        DelayArgs args = DelayArgs::Decode(spec.args);
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::kDelay;
        node->delay_ms = args.milliseconds;
        Node* raw = node.get();
        if (parse_stack_.empty()) {
          program_.push_back(std::move(node));
        } else {
          parse_stack_.back()->children.push_back(std::move(node));
        }
        parse_stack_.push_back(raw);
        break;
      }
      case DeviceCommand::kCoEnd:
        if (parse_stack_.empty() || parse_stack_.back()->kind != Node::Kind::kCo) {
          return Status(ErrorCode::kBadQueue, "CoEnd without matching CoBegin");
        }
        parse_stack_.pop_back();
        break;
      case DeviceCommand::kDelayEnd:
        if (parse_stack_.empty() || parse_stack_.back()->kind != Node::Kind::kDelay) {
          return Status(ErrorCode::kBadQueue, "DelayEnd without matching Delay");
        }
        parse_stack_.pop_back();
        break;
      default: {
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::kCommand;
        node->spec = spec;
        if (parse_stack_.empty()) {
          program_.push_back(std::move(node));
        } else {
          parse_stack_.back()->children.push_back(std::move(node));
        }
        loud_->server()->metrics().commands_enqueued.Increment();
        break;
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------

void CommandQueue::SetState(QueueState state, EngineTick* tick, bool server_initiated) {
  if (state_ == state) {
    return;
  }
  QueueState old = state_;
  state_ = state;
  loud_->RefreshRunnable();
  ServerState* server = loud_->server();
  switch (state) {
    case QueueState::kStarted:
      if (old == QueueState::kStopped) {
        server->EmitEvent(loud_, EventType::kQueueStarted, loud_->id(), {});
      } else {
        server->EmitEvent(loud_, EventType::kQueueResumed, loud_->id(), {});
      }
      break;
    case QueueState::kStopped:
      server->EmitEvent(loud_, EventType::kQueueStopped, loud_->id(), {});
      break;
    case QueueState::kClientPaused:
    case QueueState::kServerPaused: {
      QueuePausedArgs args;
      args.server_paused = server_initiated ? 1 : 0;
      server->EmitEvent(loud_, EventType::kQueuePaused, loud_->id(), args.Encode());
      break;
    }
  }
  (void)tick;
}

Status CommandQueue::Start(EngineTick* tick) {
  if (state_ == QueueState::kStarted) {
    return Status::Ok();
  }
  if (state_ == QueueState::kClientPaused || state_ == QueueState::kServerPaused) {
    return Resume(tick);
  }
  SetState(QueueState::kStarted, tick, false);
  return Status::Ok();
}

Status CommandQueue::Stop(EngineTick* tick) {
  if (state_ == QueueState::kStopped) {
    return Status::Ok();
  }
  if (!program_.empty()) {
    AbortNode(program_.front().get(), tick);
    program_.pop_front();
  }
  SetState(QueueState::kStopped, tick, false);
  return Status::Ok();
}

Status CommandQueue::ClientPause(EngineTick* tick) {
  if (state_ != QueueState::kStarted) {
    return Status(ErrorCode::kBadState, "queue not started");
  }
  // Pausing propagates to the devices the current command operates on; if
  // one cannot pause, the queue is stopped instead (section 5.5).
  bool pausable = true;
  if (!program_.empty()) {
    PausePropagate(program_.front().get(), &pausable);
  }
  if (!pausable) {
    return Stop(tick);
  }
  SetState(QueueState::kClientPaused, tick, false);
  return Status::Ok();
}

Status CommandQueue::Resume(EngineTick* tick) {
  if (state_ != QueueState::kClientPaused && state_ != QueueState::kServerPaused) {
    return Status(ErrorCode::kBadState, "queue not paused");
  }
  if (!program_.empty()) {
    ResumePropagate(program_.front().get());
  }
  SetState(QueueState::kStarted, tick, false);
  return Status::Ok();
}

void CommandQueue::Flush() {
  program_.clear();
  parse_stack_.clear();
}

void CommandQueue::ServerPause(EngineTick* tick) {
  if (state_ != QueueState::kStarted) {
    return;
  }
  bool pausable = true;
  if (!program_.empty()) {
    PausePropagate(program_.front().get(), &pausable);
  }
  if (!pausable) {
    // Stop never fails on a started queue; it returns Status only so the
    // wire dispatch path can reuse it.
    (void)Stop(tick);
    return;
  }
  SetState(QueueState::kServerPaused, tick, true);
}

void CommandQueue::ServerResume(EngineTick* tick) {
  // Only a *server*-paused queue auto-resumes on activation; an explicit
  // client pause survives preemption (section 5.5).
  if (state_ != QueueState::kServerPaused) {
    return;
  }
  if (!program_.empty()) {
    ResumePropagate(program_.front().get());
  }
  SetState(QueueState::kStarted, tick, false);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void CommandQueue::Tick(EngineTick* tick, size_t frames) {
  if (state_ != QueueState::kStarted) {
    return;
  }
  size_t budget = frames;
  // Sequential top level: run nodes back to back within the tick so
  // transitions are sample-accurate.
  while (!program_.empty()) {
    Node* node = program_.front().get();
    size_t used = TickNode(node, tick, budget);
    if (!node->done) {
      break;
    }
    program_.pop_front();
    if (used >= budget) {
      budget = 0;
      break;
    }
    budget -= used;
  }
}

size_t CommandQueue::TickNode(Node* node, EngineTick* tick, size_t frames) {
  switch (node->kind) {
    case Node::Kind::kCommand:
      return TickCommand(node, tick, frames);

    case Node::Kind::kCo: {
      // All branches advance in parallel over the same wall frames.
      size_t max_used = 0;
      bool all_done = true;
      for (auto& child : node->children) {
        if (child->done) {
          continue;
        }
        size_t used = TickNode(child.get(), tick, frames);
        max_used = std::max(max_used, used);
        if (!child->done) {
          all_done = false;
        }
      }
      node->started = true;
      if (all_done) {
        node->done = true;
        return max_used;
      }
      return frames;
    }

    case Node::Kind::kDelay: {
      if (node->delay_frames_left < 0) {
        node->delay_frames_left =
            static_cast<int64_t>(loud_->server()->engine_rate()) * node->delay_ms / 1000;
        node->started = true;
      }
      size_t used = 0;
      if (node->delay_frames_left > 0) {
        size_t wait = static_cast<size_t>(
            std::min<int64_t>(node->delay_frames_left, static_cast<int64_t>(frames)));
        node->delay_frames_left -= static_cast<int64_t>(wait);
        used = wait;
        if (node->delay_frames_left > 0) {
          return frames;
        }
      }
      // Delay elapsed: run the body sequentially with whatever budget is
      // left in this tick.
      size_t budget = frames - used;
      while (node->child_index < node->children.size()) {
        Node* child = node->children[node->child_index].get();
        size_t child_used = TickNode(child, tick, budget);
        used += child_used;
        if (!child->done) {
          return frames;
        }
        ++node->child_index;
        budget = child_used >= budget ? 0 : budget - child_used;
      }
      node->done = true;
      return used;
    }
  }
  node->done = true;
  return 0;
}

size_t CommandQueue::TickCommand(Node* node, EngineTick* tick, size_t frames) {
  if (!node->started) {
    StartCommandNode(node, tick);
    if (node->done) {
      return 0;  // Failed to start; error already reported.
    }
  }
  if (node->device == nullptr) {
    node->done = true;
    return 0;
  }

  size_t used = 0;
  if (node->device->CommandRunning()) {
    // Give producing commands their frame budget; non-producing commands
    // return 0 and simply wait for their completion event. The branch
    // offset tells producers how far into the tick this branch already is,
    // so a command starting mid-tick (after a Delay or a predecessor on
    // another device) lands at the exact sample position.
    tick->branch_offset = tick->frames - frames;
    used = node->device->Produce(tick, frames);
    tick->branch_offset = 0;
  }
  if (!node->device->CommandRunning()) {
    FinishCommandNode(node, tick);
  }
  return used;
}

void CommandQueue::StartCommandNode(Node* node, EngineTick* tick) {
  node->started = true;
  ServerState* server = loud_->server();
  VirtualDevice* device = server->FindDevice(node->spec.device);
  if (device == nullptr || device->loud()->Root() != loud_) {
    node->done = true;
    node->aborted = true;
    server->metrics().commands_aborted.Increment();
    // Report asynchronously as a CommandDone(aborted).
    CommandDoneArgs args;
    args.tag = node->spec.tag;
    args.command = static_cast<uint16_t>(node->spec.command);
    args.aborted = 1;
    server->EmitEvent(loud_, EventType::kCommandDone, node->spec.device, args);
    return;
  }
  node->device = device;
  Status status = device->StartCommand(node->spec, tick);
  if (!status.ok()) {
    node->done = true;
    node->aborted = true;
    server->metrics().commands_aborted.Increment();
    CommandDoneArgs args;
    args.tag = node->spec.tag;
    args.command = static_cast<uint16_t>(node->spec.command);
    args.aborted = 1;
    server->EmitEvent(loud_, EventType::kCommandDone, device->id(), args);
    return;
  }
  // Instantaneous commands (ChangeGain, Answer, SendDTMF...) may already be
  // complete; TickCommand notices via CommandRunning().
}

void CommandQueue::FinishCommandNode(Node* node, EngineTick* tick) {
  node->done = true;
  if (node->device != nullptr && node->device->ConsumeAbortLatch()) {
    node->aborted = true;
  }
  ServerMetrics& metrics = loud_->server()->metrics();
  (node->aborted ? metrics.commands_aborted : metrics.commands_done).Increment();
  CommandDoneArgs args;
  args.tag = node->spec.tag;
  args.command = static_cast<uint16_t>(node->spec.command);
  args.aborted = node->aborted ? 1 : 0;
  loud_->server()->EmitEvent(loud_, EventType::kCommandDone,
                             node->device != nullptr ? node->device->id() : kNoResource,
                             args);
  (void)tick;
}

void CommandQueue::AbortNode(Node* node, EngineTick* tick) {
  switch (node->kind) {
    case Node::Kind::kCommand:
      if (node->started && !node->done && node->device != nullptr) {
        node->aborted = true;
        node->device->AbortCommand();
        FinishCommandNode(node, tick);
      } else if (!node->started) {
        node->done = true;
      }
      break;
    case Node::Kind::kCo:
    case Node::Kind::kDelay:
      for (auto& child : node->children) {
        if (!child->done) {
          AbortNode(child.get(), tick);
        }
      }
      node->done = true;
      break;
  }
}

void CommandQueue::PausePropagate(Node* node, bool* pausable) {
  switch (node->kind) {
    case Node::Kind::kCommand:
      if (node->started && !node->done && node->device != nullptr &&
          node->device->CommandRunning()) {
        if (!node->device->PauseDevice()) {
          *pausable = false;
        }
      }
      break;
    case Node::Kind::kCo:
      for (auto& child : node->children) {
        if (!child->done) {
          PausePropagate(child.get(), pausable);
        }
      }
      break;
    case Node::Kind::kDelay:
      if (node->child_index < node->children.size()) {
        PausePropagate(node->children[node->child_index].get(), pausable);
      }
      break;
  }
}

void CommandQueue::ResumePropagate(Node* node) {
  switch (node->kind) {
    case Node::Kind::kCommand:
      if (node->started && !node->done && node->device != nullptr) {
        node->device->ResumeDevice();
      }
      break;
    case Node::Kind::kCo:
      for (auto& child : node->children) {
        if (!child->done) {
          ResumePropagate(child.get());
        }
      }
      break;
    case Node::Kind::kDelay:
      if (node->child_index < node->children.size()) {
        ResumePropagate(node->children[node->child_index].get());
      }
      break;
  }
}

uint32_t CommandQueue::CountNodes(const Node& node) {
  if (node.kind == Node::Kind::kCommand) {
    return node.done ? 0 : 1;
  }
  uint32_t n = 0;
  for (const auto& child : node.children) {
    n += CountNodes(*child);
  }
  return n;
}

uint32_t CommandQueue::FirstTag(const Node& node) {
  if (node.kind == Node::Kind::kCommand) {
    return node.started && !node.done ? node.spec.tag : 0;
  }
  for (const auto& child : node.children) {
    uint32_t tag = FirstTag(*child);
    if (tag != 0) {
      return tag;
    }
  }
  return 0;
}

void CommandQueue::ForgetDevice(const VirtualDevice* device) {
  for (auto& node : program_) {
    ForgetNodeDevice(node.get(), device);
  }
}

void CommandQueue::ForgetNodeDevice(Node* node, const VirtualDevice* device) {
  if (node->kind == Node::Kind::kCommand && node->device == device) {
    node->device = nullptr;
    if (node->started && !node->done) {
      // The device died under a running command; there is nothing left to
      // finish, so the queue skips past it on the next tick.
      node->aborted = true;
      node->done = true;
    }
  }
  for (auto& child : node->children) {
    ForgetNodeDevice(child.get(), device);
  }
}

uint32_t CommandQueue::Depth() const {
  uint32_t n = 0;
  for (const auto& node : program_) {
    n += CountNodes(*node);
  }
  return n;
}

uint32_t CommandQueue::CurrentTag() const {
  if (program_.empty()) {
    return 0;
  }
  return FirstTag(*program_.front());
}

}  // namespace aud
