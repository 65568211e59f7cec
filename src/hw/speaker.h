// Speaker unit: a playback-only CODEC channel. What the codec "plays" is
// delivered to a configurable sink: discarded (bench), retained in memory
// (tests/examples), or streamed to a callback (WAV writers, the terminal
// Soundviewer demo).

#ifndef SRC_HW_SPEAKER_H_
#define SRC_HW_SPEAKER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/hw/codec.h"
#include "src/hw/physical_device.h"

namespace aud {

class SpeakerUnit : public PhysicalDevice {
 public:
  using PlaybackSink = std::function<void(std::span<const Sample>)>;

  SpeakerUnit(std::string name, uint32_t rate, uint32_t ambient_domain,
              size_t ring_frames = 8192, std::string position = "center");

  AttrList Attributes() const override;

  Codec& codec() { return codec_; }
  const Codec& codec() const { return codec_; }

  // Retain everything played in played() (off by default; costs memory).
  void set_capture_output(bool capture) { capture_output_ = capture; }
  const std::vector<Sample>& played() const { return played_; }
  void clear_played() { played_.clear(); }

  // Optional streaming sink invoked each Advance with the period's audio.
  void set_sink(PlaybackSink sink) { sink_ = std::move(sink); }

  void Advance(size_t frames) override;
  int64_t device_frames() const override { return codec_.device_frames(); }
  Codec& engine_codec() override { return codec_; }

 private:
  Codec codec_;
  std::string position_;
  bool capture_output_ = false;
  std::vector<Sample> played_;
  std::vector<Sample> period_;
  PlaybackSink sink_;
};

}  // namespace aud

#endif  // SRC_HW_SPEAKER_H_
