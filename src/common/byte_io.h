// Little-endian byte serialization primitives used by the wire protocol.
// The protocol is defined as a stream of 8-bit bytes (section 4.1); all
// multi-byte quantities are little-endian on the wire regardless of host
// order, so readers/writers go through these helpers.

#ifndef SRC_COMMON_BYTE_IO_H_
#define SRC_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aud {

// Appends little-endian encoded values to a byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Writes into an existing buffer (appended at the end).
  explicit ByteWriter(std::vector<uint8_t>* out) : external_(out) {}

  void WriteU8(uint8_t v) { buf().push_back(v); }
  void WriteU16(uint16_t v) {
    buf().push_back(static_cast<uint8_t>(v));
    buf().push_back(static_cast<uint8_t>(v >> 8));
  }
  void WriteU32(uint32_t v) {
    WriteU16(static_cast<uint16_t>(v));
    WriteU16(static_cast<uint16_t>(v >> 16));
  }
  void WriteU64(uint64_t v) {
    WriteU32(static_cast<uint32_t>(v));
    WriteU32(static_cast<uint32_t>(v >> 32));
  }
  void WriteI16(int16_t v) { WriteU16(static_cast<uint16_t>(v)); }
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

  // Length-prefixed (u32) string.
  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }

  // Raw bytes, no length prefix.
  void WriteBytes(std::span<const uint8_t> data) {
    buf().insert(buf().end(), data.begin(), data.end());
  }

  // Length-prefixed (u32) byte blob.
  void WriteBlob(std::span<const uint8_t> data) {
    WriteU32(static_cast<uint32_t>(data.size()));
    WriteBytes(data);
  }

  // Patches a previously written u32 at `offset` (for length back-fill).
  void PatchU32(size_t offset, uint32_t v) {
    buf()[offset] = static_cast<uint8_t>(v);
    buf()[offset + 1] = static_cast<uint8_t>(v >> 8);
    buf()[offset + 2] = static_cast<uint8_t>(v >> 16);
    buf()[offset + 3] = static_cast<uint8_t>(v >> 24);
  }

  size_t size() const { return external_ ? external_->size() : own_.size(); }
  const std::vector<uint8_t>& bytes() const { return external_ ? *external_ : own_; }
  std::vector<uint8_t> Take() { return std::move(own_); }

 private:
  std::vector<uint8_t>& buf() { return external_ ? *external_ : own_; }

  std::vector<uint8_t> own_;
  std::vector<uint8_t>* external_ = nullptr;
};

// Stores little-endian values through a raw cursor into memory the caller
// has already sized — the in-place writer for hot encoders that know their
// length up front (ByteCounter measures it). It has the Write* calls the
// templated encoders use, so one encoder serves it and ByteWriter both.
class ByteCursor {
 public:
  explicit ByteCursor(uint8_t* at) : at_(at) {}

  void WriteU8(uint8_t v) { *at_++ = v; }
  void WriteU16(uint16_t v) { Store(v); }
  void WriteU32(uint32_t v) { Store(v); }
  void WriteU64(uint64_t v) { Store(v); }
  void WriteI64(int64_t v) { Store(static_cast<uint64_t>(v)); }
  void WriteBytes(std::span<const uint8_t> data) {
    if (!data.empty()) {
      std::memcpy(at_, data.data(), data.size());
      at_ += data.size();
    }
  }
  void WriteBlob(std::span<const uint8_t> data) {
    WriteU32(static_cast<uint32_t>(data.size()));
    WriteBytes(data);
  }

 private:
  // Byte by byte, so the stored order is little-endian on any host; the
  // compiler merges the stores into one.
  template <typename U>
  void Store(U v) {
    for (size_t i = 0; i < sizeof(U); ++i) {
      at_[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    at_ += sizeof(U);
  }

  uint8_t* at_;
};

// Counts the bytes an encoder would write, writing nothing: sizes a
// ByteCursor's buffer from the same encoder.
class ByteCounter {
 public:
  void WriteU8(uint8_t) { size_ += 1; }
  void WriteU16(uint16_t) { size_ += 2; }
  void WriteU32(uint32_t) { size_ += 4; }
  void WriteU64(uint64_t) { size_ += 8; }
  void WriteI64(int64_t) { size_ += 8; }
  void WriteBytes(std::span<const uint8_t> data) { size_ += data.size(); }
  void WriteBlob(std::span<const uint8_t> data) { size_ += 4 + data.size(); }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

// Reads little-endian values from a byte span. Over-reads are reported via
// ok() turning false and zero values returned, so a malformed message can
// never read out of bounds; callers check ok() once at the end of parsing.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  uint8_t ReadU8() {
    if (!Require(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  uint16_t ReadU16() {
    if (!Require(2)) {
      return 0;
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_]) |
                 static_cast<uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }
  uint32_t ReadU32() {
    uint32_t lo = ReadU16();
    uint32_t hi = ReadU16();
    return lo | hi << 16;
  }
  uint64_t ReadU64() {
    uint64_t lo = ReadU32();
    uint64_t hi = ReadU32();
    return lo | hi << 32;
  }
  int16_t ReadI16() { return static_cast<int16_t>(ReadU16()); }
  int32_t ReadI32() { return static_cast<int32_t>(ReadU32()); }
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }

  std::string ReadString() {
    uint32_t len = ReadU32();
    if (!Require(len)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  std::vector<uint8_t> ReadBlob() {
    uint32_t len = ReadU32();
    if (!Require(len)) {
      return {};
    }
    std::vector<uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + len);
    pos_ += len;
    return out;
  }

  // Returns a view of n raw bytes without copying.
  std::span<const uint8_t> ReadBytes(size_t n) {
    if (!Require(n)) {
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  bool Require(size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return ok_;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace aud

#endif  // SRC_COMMON_BYTE_IO_H_
