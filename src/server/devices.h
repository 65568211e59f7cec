// Concrete virtual-device classes (section 5.1). Each subclass implements
// the class's command set and its role in the engine's produce/transform/
// consume tick.

#ifndef SRC_SERVER_DEVICES_H_
#define SRC_SERVER_DEVICES_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dsp/agc.h"
#include "src/dsp/encoding.h"
#include "src/dsp/pause_detector.h"
#include "src/dsp/resampler.h"
#include "src/hw/microphone.h"
#include "src/hw/phone_line.h"
#include "src/hw/speaker.h"
#include "src/music/note_synth.h"
#include "src/recognize/recognizer.h"
#include "src/server/decoded_cache.h"
#include "src/server/virtual_device.h"
#include "src/synth/synthesizer.h"

namespace aud {

// ---------------------------------------------------------------------------
// Inputs and outputs: connections to external devices (speakers, mics).
// ---------------------------------------------------------------------------

class InputDevice : public VirtualDevice {
 public:
  InputDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return 1; }
  bool NeedsPhysicalDevice() const override { return true; }

  size_t Produce(EngineTick* tick, size_t frames) override;

 private:
  std::vector<Sample> scratch_;
  std::vector<Sample> gain_scratch_;
};

class OutputDevice : public VirtualDevice {
 public:
  OutputDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int sink_port_count() const override { return 1; }
  bool NeedsPhysicalDevice() const override { return true; }

  void Consume(EngineTick* tick) override;
};

// The sound a player or recorder works on: kept from StartCommand instead
// of a registry lookup per tick, and looked up again only after some sound
// was destroyed (ServerState::sound_destroys() moved).
class SoundRef {
 public:
  void Reset(ResourceId id, SoundObject* sound, EngineTick* tick);
  // Null once the sound is gone.
  SoundObject* Get(EngineTick* tick);

 private:
  ResourceId id_ = kNoResource;
  SoundObject* sound_ = nullptr;
  uint64_t destroys_seen_ = 0;
};

// ---------------------------------------------------------------------------
// Player: sound data -> output port (Play, Stop, Pause, Restart).
// ---------------------------------------------------------------------------

class PlayerDevice : public VirtualDevice {
 public:
  PlayerDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return 1; }

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  void AbortCommand() override;
  size_t Produce(EngineTick* tick, size_t frames) override;

  // Playback position in samples of the current/last sound (for sync).
  int64_t position_samples() const { return position_; }
  int64_t total_samples() const { return total_; }
  bool playing() const { return CommandRunning(); }

 private:
  // Rebuilds the incremental decode machinery, discarding the first
  // `consumed` engine-rate samples (used when a cached play must fall back
  // to streaming decode after the sound mutated mid-play).
  void SwitchToIncremental(SoundObject* sound, EngineTick* tick, size_t consumed);

  SoundRef sound_;
  int64_t position_ = 0;   // next sample index to decode
  int64_t end_sample_ = -1;
  int64_t total_ = 0;
  int64_t start_sample_ = 0;  // first sound sample the play covers
  int64_t skip_samples_ = 0;  // engine-rate samples still to discard
  std::unique_ptr<StreamDecoder> decoder_;
  std::unique_ptr<Resampler> resampler_;
  int64_t decode_byte_pos_ = 0;
  std::vector<Sample> decoded_;
  // Cache fast path (whole-sound plays only): engine-rate PCM shared with
  // the server's decoded-sound cache, plus the generation it was decoded
  // from. A generation mismatch mid-play falls back to the incremental
  // decoder; bit-exactness is preserved because the cached stream is a
  // prefix of the re-decoded one.
  DecodedSoundCache::Entry cached_;
  size_t cache_pos_ = 0;
  uint64_t cache_generation_ = 0;
  std::vector<Sample> gain_scratch_;
};

// ---------------------------------------------------------------------------
// Recorder: input port -> sound data (Record, Stop, Pause, Restart).
// ---------------------------------------------------------------------------

class RecorderDevice : public VirtualDevice {
 public:
  RecorderDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int sink_port_count() const override { return 1; }

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  void AbortCommand() override;
  void Consume(EngineTick* tick) override;

  uint64_t samples_recorded() const { return samples_recorded_; }

 private:
  void FinishRecording(EngineTick* tick, RecordStopReason reason);

  SoundRef sound_;
  uint8_t termination_ = kTerminateOnStop;
  int64_t max_samples_ = 0;  // 0 = unlimited
  uint64_t samples_recorded_ = 0;
  std::unique_ptr<StreamEncoder> encoder_;
  std::unique_ptr<Resampler> out_resampler_;
  std::unique_ptr<PauseDetector> pause_detector_;
  std::unique_ptr<AutomaticGainControl> agc_;
  bool agc_enabled_ = false;
  std::vector<Sample> scratch_;
  // Pause compression keeps the pristine linear take (at the sound's rate)
  // so FinishRecording compresses directly instead of re-decoding the whole
  // encoded sound.
  bool keep_linear_history_ = false;
  std::vector<Sample> linear_history_;
  // Per-tick scratch, members so steady-state recording is allocation-free.
  std::vector<Sample> resample_scratch_;
  std::vector<uint8_t> encode_scratch_;
};

// ---------------------------------------------------------------------------
// Telephone: combined input/output with call control (Dial, Answer,
// SendDTMF, HangUp...).
// ---------------------------------------------------------------------------

class TelephoneDevice : public VirtualDevice {
 public:
  TelephoneDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return 1; }  // audio from the line
  int sink_port_count() const override { return 1; }    // audio to the line
  bool NeedsPhysicalDevice() const override { return true; }

  void Bind(PhysicalDevice* device, ResourceId device_loud_id) override;
  void Unbind() override;

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  Status ImmediateCommand(const CommandSpec& spec) override;
  void AbortCommand() override;

  size_t Produce(EngineTick* tick, size_t frames) override;
  void Consume(EngineTick* tick) override;

  PhoneLineUnit* line_unit() const { return phone_; }
  CallState call_state() const { return call_state_; }

  // Routed from the bound line by the server (also when unmapped monitors
  // watch via the device LOUD).
  void OnLineEvent(const ExchangeLine::Event& event, EngineTick* tick);

 private:
  PhoneLineUnit* phone_ = nullptr;
  CallState call_state_ = CallState::kIdle;
  // Which command is awaiting an event (Dial waits for connect/busy/fail).
  DeviceCommand pending_ = DeviceCommand::kStop;
  std::vector<Sample> scratch_;
};

// ---------------------------------------------------------------------------
// Mixer: N inputs -> combined outputs, per-input percentages (SetGain).
// ---------------------------------------------------------------------------

class MixerDevice : public VirtualDevice {
 public:
  MixerDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return outputs_; }
  int sink_port_count() const override { return inputs_; }

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  Status ImmediateCommand(const CommandSpec& spec) override;

  // Transform step: pulls sink wires, mixes by per-input gain, pushes the
  // mix to every source wire.
  size_t Produce(EngineTick* tick, size_t frames) override;

  int32_t input_gain(uint16_t input) const;

 private:
  Status SetInputGain(const CommandSpec& spec);

  int inputs_;
  int outputs_;
  std::vector<int32_t> gains_;
  std::vector<Sample> pulled_;
  std::vector<int32_t> acc_;
  std::vector<Sample> mixed_;
};

// ---------------------------------------------------------------------------
// Crossbar: routing switch (SetState).
// ---------------------------------------------------------------------------

class CrossbarDevice : public VirtualDevice {
 public:
  CrossbarDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return outputs_; }
  int sink_port_count() const override { return inputs_; }

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  Status ImmediateCommand(const CommandSpec& spec) override;

  size_t Produce(EngineTick* tick, size_t frames) override;

  bool route_enabled(uint16_t input, uint16_t output) const;

 private:
  Status SetState(const CommandSpec& spec);

  int inputs_;
  int outputs_;
  std::vector<uint8_t> matrix_;  // inputs_ x outputs_
  std::vector<std::vector<Sample>> pulled_;
  std::vector<int32_t> acc_;
  std::vector<Sample> out_;
};

// ---------------------------------------------------------------------------
// DSP: software stream manipulation (pass-through with gain; the protocol
// leaves DSP commands unspecified).
// ---------------------------------------------------------------------------

class DspDevice : public VirtualDevice {
 public:
  DspDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return 1; }
  int sink_port_count() const override { return 1; }

  size_t Produce(EngineTick* tick, size_t frames) override;

 private:
  std::vector<Sample> pulled_;
};

// ---------------------------------------------------------------------------
// Speech synthesizer: SpeakText and vocal-tract controls.
// ---------------------------------------------------------------------------

class SynthesizerDevice : public VirtualDevice {
 public:
  SynthesizerDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return 1; }

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  Status ImmediateCommand(const CommandSpec& spec) override;
  void AbortCommand() override;

  size_t Produce(EngineTick* tick, size_t frames) override;

  TextToSpeech* tts() { return tts_.get(); }

 private:
  Status ApplyControl(const CommandSpec& spec);

  std::unique_ptr<TextToSpeech> tts_;
  std::vector<Sample> pending_;
  size_t pending_offset_ = 0;
};

// ---------------------------------------------------------------------------
// Speech recognizer: Train/SetVocabulary/AdjustContext/SaveVocabulary,
// recognition events.
// ---------------------------------------------------------------------------

class RecognizerDevice : public VirtualDevice {
 public:
  RecognizerDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int sink_port_count() const override { return 1; }

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  Status ImmediateCommand(const CommandSpec& spec) override;

  void Consume(EngineTick* tick) override;

  WordRecognizer* recognizer() { return recognizer_.get(); }

 private:
  Status ApplyControl(const CommandSpec& spec, EngineTick* tick);

  std::unique_ptr<WordRecognizer> recognizer_;
  std::vector<Sample> pulled_;
};

// ---------------------------------------------------------------------------
// Music synthesizer: Note / SetVoice.
// ---------------------------------------------------------------------------

class MusicDevice : public VirtualDevice {
 public:
  MusicDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs);

  int source_port_count() const override { return 1; }

  Status StartCommand(const CommandSpec& spec, EngineTick* tick) override;
  Status ImmediateCommand(const CommandSpec& spec) override;
  void AbortCommand() override;

  size_t Produce(EngineTick* tick, size_t frames) override;

  NoteSynthesizer* synth() { return synth_.get(); }

 private:
  std::unique_ptr<NoteSynthesizer> synth_;
  int64_t note_frames_left_ = 0;
  std::vector<Sample> block_;
};

}  // namespace aud

#endif  // SRC_SERVER_DEVICES_H_
