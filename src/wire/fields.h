// The generic message codec. A message lists its members once, in wire
// order, with AUD_FIELDS; its Encode, Decode and operator== are generated
// from that list. Each field's wire form is chosen by its type, through one
// set of PutField / GetField overloads:
//
//   uint8_t, char            u8
//   uint16_t / uint32_t / int32_t / uint64_t / int64_t   little-endian
//   enums                    their underlying integer width
//   std::string              u32 length + bytes
//   std::vector<uint8_t>     u32 length + bytes (a blob)
//   std::vector<T>           u32 count + each element
//   std::pair<A, B>          A then B
//   AttrList                 its own tagged form (attributes.h)
//   a field-listed struct    its fields in order
//
// Encoders take any writer with the Write* calls of ByteWriter (ByteWriter,
// ByteCursor, ByteCounter). Decoders read through a saturating ByteReader:
// a short message decodes its missing fields as zero and leaves the reader
// !ok(), which every caller checks once at the end.

#ifndef SRC_WIRE_FIELDS_H_
#define SRC_WIRE_FIELDS_H_

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/byte_io.h"
#include "src/common/obs.h"
#include "src/common/sample.h"
#include "src/wire/attributes.h"

namespace aud {

// Inside a struct, after its members: lists them in wire order and
// generates the struct's codec. `Type` is the struct itself.
//
//   Encode(Writer*)          writes the fields (any byte writer);
//   Encode()                 the same, into a fresh byte vector;
//   Decode(ByteReader*)      reads them back;
//   Decode(span)             the same, from bytes (command and event args);
//   operator==               member-wise.
#define AUD_FIELDS(Type, ...)                                                          \
  auto Fields() {                                                                      \
    static_assert(std::is_same_v<Type, std::remove_cvref_t<decltype(*this)>>);         \
    return std::tie(__VA_ARGS__);                                                      \
  }                                                                                    \
  auto Fields() const { return std::tie(__VA_ARGS__); }                                \
  template <typename Writer>                                                           \
  void Encode(Writer* w) const {                                                       \
    PutField(w, *this);                                                                \
  }                                                                                    \
  std::vector<uint8_t> Encode() const {                                                \
    ByteWriter w;                                                                      \
    PutField(&w, *this);                                                               \
    return w.Take();                                                                   \
  }                                                                                    \
  static Type Decode(ByteReader* r) {                                                  \
    Type m;                                                                            \
    GetField(r, &m);                                                                   \
    return m;                                                                          \
  }                                                                                    \
  static Type Decode(std::span<const uint8_t> bytes) {                                 \
    ByteReader r(bytes);                                                               \
    return Decode(&r);                                                                 \
  }                                                                                    \
  bool operator==(const Type&) const = default

// The field lists of the common types messages carry, which live below the
// wire layer and so cannot name AUD_FIELDS.
template <typename Format>
  requires std::is_same_v<std::remove_const_t<Format>, AudioFormat>
auto FieldsOf(Format& f) {
  return std::tie(f.encoding, f.sample_rate_hz);
}

template <typename Snapshot>
  requires std::is_same_v<std::remove_const_t<Snapshot>, obs::HistogramSnapshot>
auto FieldsOf(Snapshot& h) {
  return std::tie(h.count, h.sum, h.min, h.max, h.buckets);
}

template <typename Message>
auto FieldsOf(Message& m) -> decltype(m.Fields()) {
  return m.Fields();
}

template <typename T>
concept FieldListed = requires(T& m) { FieldsOf(m); };

// -- Encoding ------------------------------------------------------------------

template <typename Writer>
void PutField(Writer* w, uint8_t v) {
  w->WriteU8(v);
}
template <typename Writer>
void PutField(Writer* w, char v) {
  w->WriteU8(static_cast<uint8_t>(v));
}
template <typename Writer>
void PutField(Writer* w, uint16_t v) {
  w->WriteU16(v);
}
template <typename Writer>
void PutField(Writer* w, uint32_t v) {
  w->WriteU32(v);
}
template <typename Writer>
void PutField(Writer* w, int32_t v) {
  w->WriteU32(static_cast<uint32_t>(v));
}
template <typename Writer>
void PutField(Writer* w, uint64_t v) {
  w->WriteU64(v);
}
template <typename Writer>
void PutField(Writer* w, int64_t v) {
  w->WriteI64(v);
}
template <typename Writer, typename Enum>
  requires std::is_enum_v<Enum>
void PutField(Writer* w, Enum v) {
  PutField(w, static_cast<std::underlying_type_t<Enum>>(v));
}
template <typename Writer>
void PutField(Writer* w, const std::string& s) {
  w->WriteBlob({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
}
template <typename Writer>
void PutField(Writer* w, const std::vector<uint8_t>& blob) {
  w->WriteBlob(blob);
}
template <typename Writer>
void PutField(Writer* w, const AttrList& attrs) {
  attrs.Encode(w);
}
template <typename Writer, typename A, typename B>
void PutField(Writer* w, const std::pair<A, B>& p) {
  PutField(w, p.first);
  PutField(w, p.second);
}
template <typename Writer, typename T>
void PutField(Writer* w, const std::vector<T>& items) {
  w->WriteU32(static_cast<uint32_t>(items.size()));
  for (const T& item : items) {
    PutField(w, item);
  }
}
template <typename Writer, FieldListed T>
void PutField(Writer* w, const T& m) {
  std::apply([w](const auto&... field) { (PutField(w, field), ...); }, FieldsOf(m));
}

// -- Decoding ------------------------------------------------------------------

inline void GetField(ByteReader* r, uint8_t* v) { *v = r->ReadU8(); }
inline void GetField(ByteReader* r, char* v) { *v = static_cast<char>(r->ReadU8()); }
inline void GetField(ByteReader* r, uint16_t* v) { *v = r->ReadU16(); }
inline void GetField(ByteReader* r, uint32_t* v) { *v = r->ReadU32(); }
inline void GetField(ByteReader* r, int32_t* v) { *v = r->ReadI32(); }
inline void GetField(ByteReader* r, uint64_t* v) { *v = r->ReadU64(); }
inline void GetField(ByteReader* r, int64_t* v) { *v = r->ReadI64(); }
template <typename Enum>
  requires std::is_enum_v<Enum>
void GetField(ByteReader* r, Enum* v) {
  std::underlying_type_t<Enum> raw{};
  GetField(r, &raw);
  *v = static_cast<Enum>(raw);
}
inline void GetField(ByteReader* r, std::string* s) { *s = r->ReadString(); }
inline void GetField(ByteReader* r, std::vector<uint8_t>* blob) { *blob = r->ReadBlob(); }
inline void GetField(ByteReader* r, AttrList* attrs) { *attrs = AttrList::Decode(r); }
template <typename A, typename B>
void GetField(ByteReader* r, std::pair<A, B>* p) {
  GetField(r, &p->first);
  GetField(r, &p->second);
}
// The count is peer-controlled: the loop ends as soon as the reader runs
// dry, so a huge count costs no more than the bytes actually sent.
template <typename T>
void GetField(ByteReader* r, std::vector<T>* items) {
  const uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    T item{};
    GetField(r, &item);
    items->push_back(std::move(item));
  }
}
template <FieldListed T>
void GetField(ByteReader* r, T* m) {
  std::apply([r](auto&... field) { (GetField(r, &field), ...); }, FieldsOf(*m));
}

}  // namespace aud

#endif  // SRC_WIRE_FIELDS_H_
