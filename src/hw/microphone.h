// Microphone unit: a capture-only CODEC channel. What the microphone
// "hears" comes from a configurable signal source — silence, an oscillator,
// a prerecorded vector, or a custom callback — so recognition and recording
// paths can be exercised deterministically.

#ifndef SRC_HW_MICROPHONE_H_
#define SRC_HW_MICROPHONE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/hw/codec.h"
#include "src/hw/physical_device.h"

namespace aud {

class MicrophoneUnit : public PhysicalDevice {
 public:
  // Fills a block with "ambient" audio for the period.
  using SignalSource = std::function<void(std::span<Sample>)>;

  MicrophoneUnit(std::string name, uint32_t rate, uint32_t ambient_domain,
                 size_t ring_frames = 8192);

  AttrList Attributes() const override;

  Codec& codec() { return codec_; }

  // Replaces the signal source (default: silence).
  void set_source(SignalSource source) { source_ = std::move(source); }

  // Convenience: queue a vector to be "spoken into" the microphone once;
  // silence after it drains. Appends to any pending audio.
  void AddPendingAudio(std::vector<Sample> samples);

  // Frames of queued pending audio not yet heard.
  size_t pending_frames() const { return pending_.size() - pending_offset_; }

  void Advance(size_t frames) override;
  int64_t device_frames() const override { return frames_elapsed_; }
  Codec& engine_codec() override { return codec_; }

 private:
  Codec codec_;
  SignalSource source_;
  std::vector<Sample> pending_;
  size_t pending_offset_ = 0;
  std::vector<Sample> period_;
  int64_t frames_elapsed_ = 0;
};

}  // namespace aud

#endif  // SRC_HW_MICROPHONE_H_
