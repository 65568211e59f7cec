#include "src/alib/alib.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/logging.h"
#include "src/transport/socket_stream.h"

namespace aud {

AudioConnection::AudioConnection(std::unique_ptr<ByteStream> stream, const SetupReply& setup)
    : stream_(std::move(stream)),
      server_name_(setup.server_name),
      device_loud_(setup.device_loud),
      id_base_(setup.id_base),
      id_next_(setup.id_base),
      id_end_(setup.id_base + setup.id_count) {
  reader_ = std::thread([this] { ReceiveLoop(); });
}

AudioConnection::~AudioConnection() { Close(); }

std::unique_ptr<AudioConnection> AudioConnection::Open(std::unique_ptr<ByteStream> stream,
                                                       const std::string& client_name) {
  SetupRequest request;
  request.client_name = client_name;
  ByteWriter w;
  request.Encode(&w);
  if (!WriteMessage(stream.get(), MessageType::kRequest, kSetupOpcode, 0, w.bytes())) {
    return nullptr;
  }
  std::optional<FramedMessage> reply = ReadMessage(stream.get());
  if (!reply || reply->header.code != kSetupOpcode) {
    return nullptr;
  }
  ByteReader r(reply->payload);
  SetupReply setup = SetupReply::Decode(&r);
  if (!r.ok() || setup.success == 0) {
    LogLine(LogLevel::kWarning) << "connection setup refused: " << setup.reason;
    return nullptr;
  }
  return std::unique_ptr<AudioConnection>(new AudioConnection(std::move(stream), setup));
}

std::unique_ptr<AudioConnection> AudioConnection::OpenTcp(const std::string& host,
                                                          uint16_t port,
                                                          const std::string& client_name) {
  std::unique_ptr<ByteStream> stream = ConnectTcp(host, port);
  if (stream == nullptr) {
    return nullptr;
  }
  return Open(std::move(stream), client_name);
}

std::unique_ptr<AudioConnection> AudioConnection::OpenTcpRetry(
    const std::string& host, uint16_t port, const std::string& client_name,
    const ConnectRetryOptions& retry) {
  uint64_t rng = retry.jitter_seed != 0 ? retry.jitter_seed : 1;
  uint32_t backoff = std::max<uint32_t>(retry.backoff_ms, 1);
  for (int attempt = 1; ; ++attempt) {
    std::unique_ptr<AudioConnection> conn = OpenTcp(host, port, client_name);
    if (conn != nullptr) {
      return conn;
    }
    if (attempt >= retry.attempts) {
      LogLine(LogLevel::kWarning) << "connect to " << host << ":" << port
                                  << " gave up after " << attempt << " attempts";
      return nullptr;
    }
    // xorshift64 full jitter: sleep in [backoff/2, backoff].
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const uint32_t sleep_ms = backoff / 2 + static_cast<uint32_t>(rng % (backoff / 2 + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff = std::min(backoff * 2, std::max<uint32_t>(retry.max_backoff_ms, 1));
  }
}

ResourceId AudioConnection::AllocId() {
  MutexLock lock(&write_mu_);
  if (id_next_ >= id_end_) {
    return kNoResource;
  }
  return id_next_++;
}

void AudioConnection::ReceiveLoop() {
  while (!closed_.load()) {
    std::optional<FramedMessage> message = ReadMessage(stream_.get());
    if (!message) {
      break;
    }
    MutexLock lock(&queue_mu_);
    switch (message->header.type) {
      case MessageType::kReply:
        replies_[message->header.sequence] = std::move(*message);
        break;
      case MessageType::kEvent: {
        ByteReader r(message->payload);
        events_.push_back(EventMessage::Decode(&r));
        break;
      }
      case MessageType::kError: {
        ByteReader r(message->payload);
        AsyncError error;
        error.sequence = message->header.sequence;
        error.error = ErrorMessage::Decode(&r);
        // Errors are visible both to WaitReply (keyed) and NextError.
        reply_errors_[error.sequence] = error;
        errors_.push_back(std::move(error));
        break;
      }
      case MessageType::kRequest:
        break;  // Servers do not send requests.
    }
    queue_cv_.NotifyAll();
  }
  closed_.store(true);
  MutexLock lock(&queue_mu_);
  queue_cv_.NotifyAll();
}

uint32_t AudioConnection::SendRequest(Opcode opcode, std::span<const uint8_t> payload) {
  uint32_t seq;
  bool failed = false;
  {
    MutexLock lock(&write_mu_);
    seq = next_sequence_++;
    if (!WriteMessage(stream_.get(), MessageType::kRequest, static_cast<uint16_t>(opcode), seq,
                      payload)) {
      closed_.store(true);
      failed = true;
    }
  }
  if (failed) {
    // Server died mid-call: wake any blocked WaitReply so it surfaces
    // kConnection instead of waiting on a reply that will never come.
    // (write_mu_ and queue_mu_ are never held together.)
    MutexLock q(&queue_mu_);
    queue_cv_.NotifyAll();
  }
  return seq;
}

Result<std::vector<uint8_t>> AudioConnection::WaitReply(uint32_t sequence) {
  const int deadline_ms = rpc_deadline_ms_.load();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  MutexLock lock(&queue_mu_);
  while (replies_.count(sequence) == 0 && reply_errors_.count(sequence) == 0 &&
         !closed_.load()) {
    if (deadline_ms <= 0) {
      queue_cv_.Wait(queue_mu_);
    } else if (queue_cv_.WaitUntil(queue_mu_, deadline) == std::cv_status::timeout &&
               replies_.count(sequence) == 0 && reply_errors_.count(sequence) == 0 &&
               !closed_.load()) {
      return Status(ErrorCode::kTimeout, "reply deadline exceeded");
    }
  }
  auto reply_it = replies_.find(sequence);
  if (reply_it != replies_.end()) {
    std::vector<uint8_t> payload = std::move(reply_it->second.payload);
    replies_.erase(reply_it);
    return payload;
  }
  auto error_it = reply_errors_.find(sequence);
  if (error_it != reply_errors_.end()) {
    Status status(error_it->second.error.code, error_it->second.error.detail);
    reply_errors_.erase(error_it);
    return status;
  }
  return Status(ErrorCode::kConnection, "connection closed");
}

Result<std::vector<uint8_t>> AudioConnection::RoundTrip(Opcode opcode,
                                                        std::span<const uint8_t> payload) {
  return WaitReply(SendRequest(opcode, payload));
}

bool AudioConnection::PollEvent(EventMessage* event) {
  MutexLock lock(&queue_mu_);
  if (events_.empty()) {
    return false;
  }
  *event = std::move(events_.front());
  events_.pop_front();
  return true;
}

bool AudioConnection::WaitEvent(EventMessage* event, int timeout_ms) {
  MutexLock lock(&queue_mu_);
  if (timeout_ms < 0) {
    while (events_.empty() && !closed_.load()) {
      queue_cv_.Wait(queue_mu_);
    }
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (events_.empty() && !closed_.load()) {
      if (queue_cv_.WaitUntil(queue_mu_, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }
  if (events_.empty()) {
    return false;
  }
  *event = std::move(events_.front());
  events_.pop_front();
  return true;
}

bool AudioConnection::NextError(AsyncError* error) {
  MutexLock lock(&queue_mu_);
  if (errors_.empty()) {
    return false;
  }
  *error = std::move(errors_.front());
  errors_.pop_front();
  return true;
}

size_t AudioConnection::pending_errors() {
  MutexLock lock(&queue_mu_);
  return errors_.size();
}

Status AudioConnection::Sync() { return Call<Opcode::kSync>({}).status(); }

void AudioConnection::Close() {
  if (closed_.exchange(true)) {
    if (reader_.joinable()) {
      reader_.join();
    }
    return;
  }
  stream_->Close();
  {
    MutexLock lock(&queue_mu_);
    queue_cv_.NotifyAll();
  }
  if (reader_.joinable()) {
    reader_.join();
  }
}

}  // namespace aud
