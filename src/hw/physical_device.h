// Base class for the board's physical audio units. The server's device
// LOUD (section 5.1 "What does the hardware do, really?") is built by
// wrapping each of these in a server-side device object; the engine pumps
// them every tick.

#ifndef SRC_HW_PHYSICAL_DEVICE_H_
#define SRC_HW_PHYSICAL_DEVICE_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/common/clock.h"
#include "src/common/sample.h"
#include "src/wire/attributes.h"
#include "src/wire/protocol.h"

namespace aud {

// Ambient-domain ids used by the default board (section 5.8: the desktop
// speakers/microphone share an acoustic environment; each phone line is
// its own domain).
inline constexpr uint32_t kDesktopDomain = 1;
inline constexpr uint32_t kPhoneDomainBase = 100;

class Codec;

class PhysicalDevice {
 public:
  PhysicalDevice(DeviceClass device_class, std::string name, uint32_t rate,
                 uint32_t ambient_domain)
      : class_(device_class), name_(std::move(name)), rate_(rate), domain_(ambient_domain) {}
  virtual ~PhysicalDevice() = default;

  PhysicalDevice(const PhysicalDevice&) = delete;
  PhysicalDevice& operator=(const PhysicalDevice&) = delete;

  DeviceClass device_class() const { return class_; }
  const std::string& name() const { return name_; }
  uint32_t sample_rate_hz() const { return rate_; }
  uint32_t ambient_domain() const { return domain_; }

  // Capability attributes for the device LOUD entry.
  virtual AttrList Attributes() const;

  // Advances device time by `frames` (consumes playback / produces capture
  // through the codec rings). Called once per engine tick.
  virtual void Advance(size_t frames) = 0;

  // Device-clock frame count (see Codec::device_frames).
  virtual int64_t device_frames() const = 0;

  // The codec the engine exchanges this unit's audio through: a speaker's
  // and a phone line's transmit side take the resolved mix, a microphone's
  // is read for capture.
  virtual Codec& engine_codec() = 0;

 private:
  DeviceClass class_;
  std::string name_;
  uint32_t rate_;
  uint32_t domain_;
};

}  // namespace aud

#endif  // SRC_HW_PHYSICAL_DEVICE_H_
