// Device attributes (section 5.1 "Device Attributes"). Attributes describe
// virtual devices (to constrain mapping onto physical devices) and physical
// devices (to describe actual capabilities). An application specifies a
// desired device "loosely" ("give me a speaker") or "tightly" ("give me
// the left speaker", or even a specific device id).
//
// On the wire an attribute list is: u16 count, then per entry
// (u16 tag, u8 kind, value) where kind selects u32 / i32 / string.

#ifndef SRC_WIRE_ATTRIBUTES_H_
#define SRC_WIRE_ATTRIBUTES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/common/byte_io.h"
#include "src/common/ids.h"
#include "src/common/sample.h"

namespace aud {

// Attribute tags. Wire-stable; append only.
enum class AttrTag : uint16_t {
  // Matching constraints / descriptions.
  kClass = 0,            // u32: DeviceClass
  kEncoding = 1,         // u32: Encoding a port produces/accepts
  kSampleRate = 2,       // u32: Hz
  kDeviceId = 3,         // u32: bind to this physical device (device LOUD id)
  kName = 4,             // string: human-readable device name
  kDirection = 5,        // u32: 0 source-ish, 1 sink-ish (informational)

  // Acoustic policy (section 5.8).
  kAmbientDomain = 6,    // u32: domain id (e.g. desktop=1, phone-line=2)
  kExclusiveInput = 7,   // u32 bool: preempt other inputs in the domain
  kExclusiveOutput = 8,  // u32 bool: preempt other outputs in the domain

  // Recorder capabilities (section 5.1).
  kAgc = 9,              // u32 bool
  kPauseCompression = 10,// u32 bool
  kPauseDetect = 11,     // u32 bool

  // Telephone capabilities (section 5.1).
  kPhoneNumber = 12,     // string
  kAreaCode = 13,        // string
  kLineCount = 14,       // u32
  kCallerId = 15,        // u32 bool: reports incoming caller identity
  kDigitalLine = 16,     // u32 bool: ISDN-style digital line

  // Mixer / crossbar shape.
  kInputPorts = 17,      // u32
  kOutputPorts = 18,     // u32

  // Synthesizer.
  kLanguage = 19,        // string

  // Positional hints ("the left speaker").
  kPosition = 20,        // string: "left", "right", "center"...

  // Speech-synthesizer vocal-tract values (SetValues command payload).
  kPitch = 21,           // u32: glottal pitch in Hz
  kSpeakingRate = 22,    // u32: percent of nominal rate (100 = 1.0x)
  kVolume = 23,          // u32: percent of full output
  kFormantShift = 24,    // u32: percent formant scaling (vocal-tract length)

  // Speech-recognizer: preload a vocabulary saved with SaveVocabulary.
  kVocabularyName = 25,  // string
};

// One attribute value.
using AttrValue = std::variant<uint32_t, int32_t, std::string>;

struct Attr {
  AttrTag tag;
  AttrValue value;

  bool operator==(const Attr&) const = default;
};

// An ordered attribute list with typed accessors.
class AttrList {
 public:
  AttrList() = default;
  AttrList(std::initializer_list<Attr> attrs) : attrs_(attrs) {}

  bool empty() const { return attrs_.empty(); }
  size_t size() const { return attrs_.size(); }
  const std::vector<Attr>& entries() const { return attrs_; }

  // Sets or replaces the value for `tag`.
  void Set(AttrTag tag, AttrValue value);
  void SetU32(AttrTag tag, uint32_t v) { Set(tag, v); }
  void SetI32(AttrTag tag, int32_t v) { Set(tag, v); }
  void SetString(AttrTag tag, std::string v) { Set(tag, std::move(v)); }
  void SetBool(AttrTag tag, bool v) { Set(tag, static_cast<uint32_t>(v ? 1 : 0)); }

  // Removes `tag` if present; returns whether it was.
  bool Remove(AttrTag tag);

  // Typed lookups; nullopt when absent or wrong type.
  std::optional<uint32_t> GetU32(AttrTag tag) const;
  std::optional<int32_t> GetI32(AttrTag tag) const;
  std::optional<std::string> GetString(AttrTag tag) const;
  bool GetBool(AttrTag tag, bool default_value = false) const;

  bool Has(AttrTag tag) const;

  // Merges `other` into this list, overwriting duplicate tags (used by
  // AugmentVirtualDevice, section 5.3).
  void Merge(const AttrList& other);

  // Wire encoding, through any byte writer (ByteWriter, ByteCursor,
  // ByteCounter).
  template <typename Writer>
  void Encode(Writer* w) const {
    w->WriteU16(static_cast<uint16_t>(attrs_.size()));
    for (const Attr& a : attrs_) {
      w->WriteU16(static_cast<uint16_t>(a.tag));
      if (const auto* u = std::get_if<uint32_t>(&a.value)) {
        w->WriteU8(kKindU32);
        w->WriteU32(*u);
      } else if (const auto* i = std::get_if<int32_t>(&a.value)) {
        w->WriteU8(kKindI32);
        w->WriteU32(static_cast<uint32_t>(*i));
      } else {
        const std::string& s = std::get<std::string>(a.value);
        w->WriteU8(kKindString);
        w->WriteBlob({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
      }
    }
  }
  static AttrList Decode(ByteReader* r);

  bool operator==(const AttrList&) const = default;

 private:
  // Wire kinds for AttrValue alternatives.
  static constexpr uint8_t kKindU32 = 0;
  static constexpr uint8_t kKindI32 = 1;
  static constexpr uint8_t kKindString = 2;

  std::vector<Attr> attrs_;
};

}  // namespace aud

#endif  // SRC_WIRE_ATTRIBUTES_H_
