// Alib: the procedural client-side interface to the audio protocol
// (section 4.2) — "a veneer over the protocol and the lowest level
// interface that applications will expect to use."
//
// AudioConnection is the Display-equivalent: it owns the byte stream, the
// client's resource-id range, the reply/event/error queues and a reader
// thread. Requests are asynchronous (SendRequest returns immediately);
// queries block for their reply; protocol errors arrive asynchronously and
// are drained with NextError (section 4.1).

#ifndef SRC_ALIB_ALIB_H_
#define SRC_ALIB_ALIB_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/transport/framer.h"
#include "src/transport/stream.h"
#include "src/wire/messages.h"

namespace aud {

// An asynchronous protocol error, tagged with the failing request.
struct AsyncError {
  uint32_t sequence = 0;
  ErrorMessage error;
};

// Retry schedule for OpenTcpRetry: exponential backoff with seeded full
// jitter, so a herd of restarting clients spreads out instead of hammering
// a recovering server in lockstep — and a test replays the exact schedule
// from the seed.
struct ConnectRetryOptions {
  int attempts = 5;               // total connect attempts (>= 1)
  uint32_t backoff_ms = 10;       // delay before the first retry
  uint32_t max_backoff_ms = 500;  // exponential growth cap
  uint64_t jitter_seed = 1;
};

class AudioConnection {
 public:
  ~AudioConnection();

  AudioConnection(const AudioConnection&) = delete;
  AudioConnection& operator=(const AudioConnection&) = delete;

  // Performs connection setup over an established stream. Returns nullptr
  // (and closes the stream) if the server refuses.
  static std::unique_ptr<AudioConnection> Open(std::unique_ptr<ByteStream> stream,
                                               const std::string& client_name);

  // Connects to host:port over TCP and performs setup.
  static std::unique_ptr<AudioConnection> OpenTcp(const std::string& host, uint16_t port,
                                                  const std::string& client_name);

  // OpenTcp with retries: exponential backoff + jitter between attempts.
  // Returns nullptr only after `retry.attempts` failures.
  static std::unique_ptr<AudioConnection> OpenTcpRetry(
      const std::string& host, uint16_t port, const std::string& client_name,
      const ConnectRetryOptions& retry = {});

  bool connected() const { return !closed_; }
  const std::string& server_name() const { return server_name_; }
  ResourceId device_loud() const { return device_loud_; }

  // Base of this connection's resource-id block (from the setup reply).
  ResourceId id_base() const { return id_base_; }

  // The trace id the server assigns to the request with `sequence` on this
  // connection: (id-block base << 32) | sequence. The client can therefore
  // stamp/predict ids without a server round trip — send a request, note
  // its sequence, and ask GetRequestTrace for exactly that request.
  uint64_t TraceIdFor(uint32_t sequence) const {
    return (static_cast<uint64_t>(id_base_) << 32) | sequence;
  }

  // Allocates a fresh resource id from this connection's block.
  ResourceId AllocId();

  // -- Raw protocol ---------------------------------------------------------------

  // Sends one request; returns its sequence number without waiting.
  uint32_t SendRequest(Opcode opcode, std::span<const uint8_t> payload);

  // Blocks until the reply for `sequence` arrives. An error for that
  // sequence surfaces as a non-OK status; if the connection dies mid-wait
  // the status is kConnection, and if an rpc deadline is set and passes
  // first it is kTimeout (the request may still execute server-side).
  Result<std::vector<uint8_t>> WaitReply(uint32_t sequence);

  // Deadline applied to every blocking round-trip; <= 0 (default) waits
  // forever. Takes effect from the next WaitReply.
  void set_rpc_deadline_ms(int ms) { rpc_deadline_ms_.store(ms); }
  int rpc_deadline_ms() const { return rpc_deadline_ms_.load(); }

  // Round trip: send + wait, like the many small query wrappers below.
  Result<std::vector<uint8_t>> RoundTrip(Opcode opcode, std::span<const uint8_t> payload);

  // -- Typed protocol, by the opcode table (AUD_OPCODES) ------------------------

  // Encodes the opcode's request struct and sends it without waiting, for
  // the opcodes without a reply; returns the request's sequence number.
  template <Opcode op>
    requires std::is_void_v<ReplyOf<op>>
  uint32_t Send(const RequestOf<op>& req) {
    return SendRequest(op, req.Encode());
  }

  // Sends the opcode's request and waits for its reply struct. A reply the
  // struct's decoder overruns is a kConnection error.
  template <Opcode op>
    requires(!std::is_void_v<ReplyOf<op>>)
  Result<ReplyOf<op>> Call(const RequestOf<op>& req) {
    Result<std::vector<uint8_t>> raw = RoundTrip(op, req.Encode());
    if (!raw.ok()) {
      return raw.status();
    }
    ByteReader r(raw.value());
    ReplyOf<op> reply = ReplyOf<op>::Decode(&r);
    if (!r.ok()) {
      return Status(ErrorCode::kConnection, "malformed reply");
    }
    return reply;
  }

  // -- Events and errors -----------------------------------------------------------

  // Non-blocking; returns false when the queue is empty.
  bool PollEvent(EventMessage* event);

  // Blocks up to timeout_ms (-1 = forever) for the next event.
  bool WaitEvent(EventMessage* event, int timeout_ms = -1);

  // Drains one queued asynchronous error.
  bool NextError(AsyncError* error);
  size_t pending_errors();

  // Flushes the pipeline: a Sync round trip guarantees every prior request
  // has been processed and its errors (if any) queued locally.
  Status Sync();

  // Sends a NoOp request (a pipeline filler; the server does nothing).
  void NoOp();

  // -- Typed request wrappers (requests.cc) ------------------------------------------

  ResourceId CreateLoud(ResourceId parent, const AttrList& attrs);
  void DestroyLoud(ResourceId loud);
  ResourceId CreateDevice(ResourceId loud, DeviceClass device_class, const AttrList& attrs);
  void DestroyDevice(ResourceId device);
  void AugmentDevice(ResourceId device, const AttrList& attrs);
  Result<VirtualDeviceReply> QueryDevice(ResourceId device);

  ResourceId CreateWire(ResourceId src_device, uint16_t src_port, ResourceId dst_device,
                        uint16_t dst_port);
  ResourceId CreateTypedWire(ResourceId src_device, uint16_t src_port, ResourceId dst_device,
                             uint16_t dst_port, AudioFormat format);
  void DestroyWire(ResourceId wire);
  Result<WiresReply> QueryWires(ResourceId device);

  void MapLoud(ResourceId loud, bool override_redirect = false);
  void UnmapLoud(ResourceId loud);
  void RaiseLoud(ResourceId loud, bool override_redirect = false);
  void LowerLoud(ResourceId loud, bool override_redirect = false);
  Result<LoudStateReply> QueryLoud(ResourceId loud);

  ResourceId CreateSound(AudioFormat format);
  void DestroySound(ResourceId sound);
  void WriteSound(ResourceId sound, uint64_t offset, std::span<const uint8_t> data);
  Result<std::vector<uint8_t>> ReadSound(ResourceId sound, uint64_t offset, uint32_t length);
  Result<SoundInfoReply> QuerySound(ResourceId sound);
  ResourceId LoadCatalogueSound(const std::string& name);
  void SaveCatalogueSound(ResourceId sound, const std::string& name);
  Result<CatalogueReply> ListCatalogue();

  void Enqueue(ResourceId loud, const std::vector<CommandSpec>& commands);
  void Immediate(ResourceId loud, const CommandSpec& command);
  void StartQueue(ResourceId loud);
  void StopQueue(ResourceId loud);
  void PauseQueue(ResourceId loud);
  void ResumeQueue(ResourceId loud);
  void FlushQueue(ResourceId loud);
  Result<QueueStateReply> QueryQueue(ResourceId loud);

  void SelectEvents(ResourceId resource, uint32_t mask);
  void SetSyncMarks(ResourceId loud, uint32_t interval_ms);

  void ChangeProperty(ResourceId resource, const std::string& name, const std::string& type,
                      std::span<const uint8_t> value);
  void DeleteProperty(ResourceId resource, const std::string& name);
  Result<PropertyReply> GetProperty(ResourceId resource, const std::string& name);
  Result<PropertyListReply> ListProperties(ResourceId resource);
  void SetRedirect(bool enable);

  Result<DeviceLoudReply> QueryDeviceLoud();
  Result<ActiveStackReply> QueryActiveStack();
  Result<int64_t> GetServerTime();

  // Server introspection (protocol minor 1).
  Result<ServerStatsReply> GetServerStats(bool include_opcodes = true);
  Result<ServerTraceReply> GetServerTrace(uint32_t max_events = 0);

  // Request tracing and per-entity statistics (protocol minor 2).
  // trace_id 0 fetches the most recently sampled request's spans.
  Result<RequestTraceReply> GetRequestTrace(uint64_t trace_id = 0,
                                            uint32_t max_spans = 0);
  Result<EntityStatsReply> GetEntityStats(bool include_devices = true);

  void Close();

 private:
  AudioConnection(std::unique_ptr<ByteStream> stream, const SetupReply& setup);

  void ReceiveLoop();

  // The stream object is not guarded: the reader thread calls
  // stream_->Read() concurrently with writers (ByteStream impls are
  // duplex-safe); write_mu_ serializes the writers.
  std::unique_ptr<ByteStream> stream_;
  std::string server_name_;
  ResourceId device_loud_ = kNoResource;
  // Immutable after setup; read without a lock by TraceIdFor.
  ResourceId id_base_ = kNoResource;

  // Serializes outbound frames, sequence allocation and id allocation.
  // Leaf lock; never held together with queue_mu_ (DESIGN.md decision 9).
  Mutex write_mu_{LockRank::kAlibWrite, "AudioConnection::write_mu_"};
  ResourceId id_next_ AUD_GUARDED_BY(write_mu_) = kNoResource;
  ResourceId id_end_ AUD_GUARDED_BY(write_mu_) = kNoResource;
  uint32_t next_sequence_ AUD_GUARDED_BY(write_mu_) = 1;

  // Guards everything the reader thread hands to waiting callers.
  Mutex queue_mu_{LockRank::kAlibQueue, "AudioConnection::queue_mu_"};
  CondVar queue_cv_;
  std::deque<EventMessage> events_ AUD_GUARDED_BY(queue_mu_);
  std::deque<AsyncError> errors_ AUD_GUARDED_BY(queue_mu_);
  std::map<uint32_t, FramedMessage> replies_ AUD_GUARDED_BY(queue_mu_);
  std::map<uint32_t, AsyncError> reply_errors_ AUD_GUARDED_BY(queue_mu_);

  std::thread reader_;
  std::atomic<bool> closed_{false};
  std::atomic<int> rpc_deadline_ms_{0};
};

// -- Introspection conveniences -----------------------------------------------------

// Free-function spellings of the stats/trace queries, matching the Aud*
// naming of the original library veneer.
inline Result<ServerStatsReply> AudGetServerStats(AudioConnection& conn,
                                                  bool include_opcodes = true) {
  return conn.GetServerStats(include_opcodes);
}

inline Result<ServerTraceReply> AudGetServerTrace(AudioConnection& conn,
                                                  uint32_t max_events = 0) {
  return conn.GetServerTrace(max_events);
}

inline Result<RequestTraceReply> AudGetRequestTrace(AudioConnection& conn,
                                                    uint64_t trace_id = 0,
                                                    uint32_t max_spans = 0) {
  return conn.GetRequestTrace(trace_id, max_spans);
}

inline Result<EntityStatsReply> AudGetEntityStats(AudioConnection& conn,
                                                  bool include_devices = true) {
  return conn.GetEntityStats(include_devices);
}

// -- Command builders (the queue vocabulary of section 5.5) -----------------------

CommandSpec PlayCommand(ResourceId device, ResourceId sound, uint32_t tag = 0,
                        int64_t start_sample = 0, int64_t end_sample = -1);
CommandSpec RecordCommand(ResourceId device, ResourceId sound, uint8_t termination,
                          uint32_t max_ms = 0, uint32_t tag = 0);
CommandSpec StopCommand(ResourceId device, uint32_t tag = 0);
CommandSpec PauseCommand(ResourceId device, uint32_t tag = 0);
CommandSpec ResumeCommand(ResourceId device, uint32_t tag = 0);
CommandSpec ChangeGainCommand(ResourceId device, int32_t gain, uint32_t tag = 0);
CommandSpec DialCommand(ResourceId device, const std::string& number, uint32_t tag = 0);
CommandSpec AnswerCommand(ResourceId device, uint32_t tag = 0);
CommandSpec HangUpCommand(ResourceId device, uint32_t tag = 0);
CommandSpec SendDtmfCommand(ResourceId device, const std::string& digits, uint32_t tag = 0);
CommandSpec SetInputGainCommand(ResourceId device, uint16_t input, int32_t gain,
                                uint32_t tag = 0);
CommandSpec SpeakTextCommand(ResourceId device, const std::string& text, uint32_t tag = 0);
CommandSpec SetTextLanguageCommand(ResourceId device, const std::string& language,
                                   uint32_t tag = 0);
CommandSpec SetValuesCommand(ResourceId device, const AttrList& values, uint32_t tag = 0);
CommandSpec SetExceptionListCommand(
    ResourceId device, const std::vector<std::pair<std::string, std::string>>& entries,
    uint32_t tag = 0);
CommandSpec TrainCommand(ResourceId device, const std::string& word, ResourceId sound,
                         uint32_t tag = 0);
CommandSpec SetVocabularyCommand(ResourceId device, const std::vector<std::string>& words,
                                 uint32_t tag = 0);
CommandSpec AdjustContextCommand(ResourceId device, const std::vector<std::string>& words,
                                 uint32_t tag = 0);
CommandSpec SaveVocabularyCommand(ResourceId device, const std::string& name,
                                  uint32_t tag = 0);
CommandSpec NoteCommand(ResourceId device, uint8_t midi_note, uint8_t velocity,
                        uint32_t duration_ms, uint32_t tag = 0);
CommandSpec SetVoiceCommand(ResourceId device, const VoiceArgs& voice, uint32_t tag = 0);
CommandSpec SetCrossbarStateCommand(ResourceId device, const CrossbarStateArgs& state,
                                    uint32_t tag = 0);
CommandSpec CoBeginCommand();
CommandSpec CoEndCommand();
CommandSpec DelayCommand(uint32_t milliseconds);
CommandSpec DelayEndCommand();

}  // namespace aud

#endif  // SRC_ALIB_ALIB_H_
