// One raw-protocol client connection of the benchmark driver. It speaks the
// wire protocol through the repo's own src/wire messages and src/transport
// framing over a TCP SocketStream — no Alib, so no per-connection reader
// thread. Owned by exactly one driver thread.
//
// The connection also keeps the driver's own per-layer costs (encode,
// socket write, socket read, decode) and the sequence bookkeeping every
// workload shares: the highest request sequence the server has confirmed
// (replies, errors and events all carry one) and the order of replies.

#ifndef PERFBENCH_DRIVER_CONN_H_
#define PERFBENCH_DRIVER_CONN_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/transport/framer.h"
#include "src/transport/stream.h"
#include "src/wire/messages.h"

namespace perfbench {

// Microseconds on the driver's monotonic clock (steady_clock epoch).
int64_t NowUs();

// Accumulated time of one driver layer.
struct LayerTimer {
  uint64_t total_ns = 0;
  uint64_t count = 0;

  void Add(uint64_t ns) {
    total_ns += ns;
    ++count;
  }
  void Merge(const LayerTimer& other) {
    total_ns += other.total_ns;
    count += other.count;
  }
  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1000.0 / count;
  }
};

struct ClientLayers {
  LayerTimer encode;  // request payload encode + framing
  LayerTimer write;   // socket write of one framed request
  LayerTimer read;    // socket reads, per message completed
  LayerTimer decode;  // reply / event payload decode

  void Merge(const ClientLayers& other) {
    encode.Merge(other.encode);
    write.Merge(other.write);
    read.Merge(other.read);
    decode.Merge(other.decode);
  }
};

// Read-side buffer over the socket so one recv() serves many small frames;
// the Framer reassembles messages out of it.
class BufferedStream : public aud::ByteStream {
 public:
  explicit BufferedStream(std::unique_ptr<aud::ByteStream> inner)
      : inner_(std::move(inner)) {}

  bool Write(std::span<const uint8_t> data) override { return inner_->Write(data); }
  size_t Read(std::span<uint8_t> out) override;
  void Close() override { inner_->Close(); }
  aud::IoResult ReadSome(std::span<uint8_t> out) override;
  int pollable_fd() const override { return inner_->pollable_fd(); }

  bool buffered() const { return pos_ < len_; }
  // Socket-read time spent since the last call.
  uint64_t TakeReadNs() {
    const uint64_t ns = pending_read_ns_;
    pending_read_ns_ = 0;
    return ns;
  }

 private:
  std::unique_ptr<aud::ByteStream> inner_;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(1 << 16);
  size_t pos_ = 0;
  size_t len_ = 0;
  uint64_t pending_read_ns_ = 0;
};

class Conn {
 public:
  // Connects to 127.0.0.1:`port` and runs the setup handshake. `trace_every`
  // is the server's --trace-sample period (0 = off), used to predict which
  // of this connection's requests the server samples.
  bool Open(uint16_t port, const std::string& name, uint32_t trace_every);
  void Close();

  aud::ResourceId AllocId() { return id_base_ + next_id_++; }

  // Encodes, frames and writes one request; returns its sequence, or 0 when
  // the connection failed.
  template <typename Req>
  uint32_t Send(aud::Opcode opcode, const Req& req) {
    const auto t0 = std::chrono::steady_clock::now();
    aud::ByteWriter w;
    req.Encode(&w);
    return SendEncoded(opcode, w.bytes(), t0);
  }
  uint32_t SendEmpty(aud::Opcode opcode);

  // Waits up to `timeout_us` for input (0 = just drain what is readable),
  // then completes every buffered message into `out` with its arrival time.
  // False when the connection died.
  struct Message {
    aud::FramedMessage frame;
    int64_t arrival_us = 0;
  };
  bool Poll(int64_t timeout_us, std::vector<Message>* out);

  // Decodes a payload into T, charging the decode layer.
  template <typename T>
  T Decode(const aud::FramedMessage& frame, bool* ok) {
    const auto t0 = std::chrono::steady_clock::now();
    aud::ByteReader r(frame.payload);
    T value = T::Decode(&r);
    *ok = r.ok();
    layers_.decode.Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    return value;
  }

  // Sequence bookkeeping. Every reply, error and event carries a sequence
  // the server has processed; Note() folds it in and checks reply order.
  void Note(const aud::FramedMessage& frame);
  uint32_t confirmed() const { return confirmed_; }
  uint64_t reply_order_violations() const { return reply_order_violations_; }

  // Request tracing: the server samples every Nth request a connection
  // dispatches, counting from its first, and names it (id_base << 32) | seq.
  bool Sampled(uint32_t seq) const {
    return trace_every_ != 0 && (seq - 1) % trace_every_ == 0;
  }
  uint64_t TraceIdFor(uint32_t seq) const {
    return (static_cast<uint64_t>(id_base_) << 32) | seq;
  }

  ClientLayers& layers() { return layers_; }
  bool alive() const { return stream_ != nullptr; }

 private:
  uint32_t SendEncoded(aud::Opcode opcode, std::span<const uint8_t> payload,
                       std::chrono::steady_clock::time_point t0);

  std::unique_ptr<BufferedStream> stream_;
  aud::Framer framer_;
  aud::ResourceId id_base_ = 0;
  uint32_t next_id_ = 0;
  uint32_t sequence_ = 0;
  uint32_t confirmed_ = 0;
  uint32_t last_reply_ = 0;
  uint64_t reply_order_violations_ = 0;
  uint32_t trace_every_ = 0;
  ClientLayers layers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CONN_H_
