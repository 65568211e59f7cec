#include "src/server/connection.h"

#include "src/common/logging.h"

namespace aud {

FrameStatus ClientConnection::TryReadFrame(FramedMessage* out) {
  const FrameStatus status = framer_.TryReadMessage(stream_.get(), out);
  if (status == FrameStatus::kMessage) {
    const size_t bytes = kHeaderSize + out->payload.size();
    stats_.bytes_in.Increment(bytes);
    metrics_.bytes_in.Increment(bytes);
  }
  return status;
}

void ClientConnection::FillBatch() {
  EgressFrame frame;
  while (out_.size() < kFlushBytes && egress_.TryPop(&frame)) {
    if (frame.batched_events != 0) {
      out_.insert(out_.end(), frame.payload.begin(), frame.payload.end());
      continue;
    }
    const size_t start = out_.size();
    ByteWriter w(&out_);
    MessageHeader header;
    header.type = frame.type;
    header.code = frame.code;
    header.length = static_cast<uint32_t>(frame.payload.size());
    header.sequence = frame.sequence;
    header.Encode(&w);
    w.WriteBytes(frame.payload);
    if (frame.trace != 0) {
      out_traced_.push_back({frame.trace, frame.parent,
                             static_cast<uint32_t>(out_.size() - start)});
    }
  }
}

ClientConnection::DrainStatus ClientConnection::DrainEgress() {
  auto& tracer = obs::TraceRegistry::Instance();
  while (true) {
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
      out_traced_.clear();
      FillBatch();
      if (out_.empty()) {
        if (out_.capacity() > kFlushBytes) {
          std::vector<uint8_t>().swap(out_);  // one huge reply: don't pin it
        }
        return DrainStatus::kIdle;
      }
      out_t0_ = out_traced_.empty() ? 0 : tracer.NowUs();
    }
    IoResult r = stream_->WriteSome(std::span<const uint8_t>(out_).subspan(out_off_));
    if (r.status == IoStatus::kWouldBlock) {
      return DrainStatus::kBlocked;
    }
    if (r.status != IoStatus::kOk) {
      // Transport dead: the owning loop tears the connection down.
      MarkClosed();
      egress_.CloseNow();
      return DrainStatus::kError;
    }
    out_off_ += r.bytes;
    stats_.bytes_out.Increment(r.bytes);
    metrics_.bytes_out.Increment(r.bytes);
    if (out_off_ == out_.size() && !out_traced_.empty()) {
      const auto dur = static_cast<uint32_t>(tracer.NowUs() - out_t0_);
      for (const TracedWrite& t : out_traced_) {
        tracer.Span(obs::TraceReason::kSpanWrite, t.trace, t.parent, out_t0_, dur, t.bytes);
      }
      metrics_.trace_spans.Increment(out_traced_.size());
    }
  }
}

void ClientConnection::HardClose() {
  MarkClosed();
  egress_.CloseNow();
  stream_->Close();
}

bool ClientConnection::Send(MessageType type, uint16_t code, uint32_t sequence,
                            std::span<const uint8_t> payload, uint64_t trace,
                            uint64_t parent) {
  if (closed_.load()) {
    return false;
  }
  EgressFrame frame{type, code, sequence,
                    std::vector<uint8_t>(payload.begin(), payload.end())};
  if (trace != 0) {
    // Point span marking the enqueue; the drain's kSpanWrite links to it.
    auto& tracer = obs::TraceRegistry::Instance();
    frame.trace = trace;
    frame.parent = tracer.Span(obs::TraceReason::kSpanEgress, trace, parent,
                               tracer.NowUs(), 0, code);
    metrics_.trace_spans.Increment();
  }
  return Enqueue(std::move(frame));
}

bool ClientConnection::Enqueue(EgressFrame frame) {
  EgressPushResult result = egress_.Push(std::move(frame));
  if (result.dropped_events > 0) {
    metrics_.events_dropped.Increment(result.dropped_events);
  }
  switch (result.status) {
    case EgressPushStatus::kQueued:
      if (arm_write_) {
        arm_write_();
      }
      return true;
    case EgressPushStatus::kClosed:
      return false;
    case EgressPushStatus::kOverflow:
      // Slow client: it stopped reading even its replies. Cut it off; the
      // owning loop observes the closed stream and reclaims its resources.
      LogLine(LogLevel::kWarning)
          << "egress overflow, disconnecting slow client #" << index_
          << (client_name_.empty() ? "" : " (" + client_name_ + ")");
      metrics_.egress_disconnects.Increment();
      HardClose();
      return false;
  }
  return false;
}

bool ClientConnection::SendReply(uint16_t opcode, uint32_t sequence,
                                 std::span<const uint8_t> payload, uint64_t trace,
                                 uint64_t parent) {
  return Send(MessageType::kReply, opcode, sequence, payload, trace, parent);
}

bool ClientConnection::SendError(uint32_t sequence, const ErrorMessage& error,
                                 uint64_t trace, uint64_t parent) {
  ByteWriter w;
  error.Encode(&w);
  return Send(MessageType::kError, static_cast<uint16_t>(error.code), sequence,
              w.bytes(), trace, parent);
}

bool ClientConnection::SendEvents(std::vector<uint8_t> frames, uint32_t events) {
  if (closed_.load() || events == 0) {
    return false;
  }
  // The header's last field is the sequence (MessageHeader::Encode).
  const uint32_t sequence = last_sequence_.load();
  ByteWriter w(&frames);
  for (size_t offset = 0; offset < frames.size(); offset += BatchedFrameBytes(frames, offset)) {
    w.PatchU32(offset + kHeaderSize - 4, sequence);
  }
  EgressFrame batch{MessageType::kEvent, 0, 0, std::move(frames)};
  batch.batched_events = events;
  if (!Enqueue(std::move(batch))) {
    return false;
  }
  stats_.events_sent.Increment(events);
  metrics_.events_sent.Increment(events);
  return true;
}

}  // namespace aud
