// Input, Output, Player and Recorder device classes.

#include <algorithm>

#include "src/dsp/gain.h"
#include "src/server/devices.h"
#include "src/server/loud.h"
#include "src/server/server_state.h"

namespace aud {

namespace {

// Pushes `samples` (with device gain applied) into every wire in `wires`,
// aligned to `offset` frames into tick `tick_id` (see WireObject::PushAt).
void PushToWires(const std::vector<WireObject*>& wires, std::span<const Sample> samples,
                 int32_t gain, std::vector<Sample>* scratch, int64_t tick_id,
                 size_t offset) {
  if (wires.empty() || samples.empty()) {
    return;
  }
  if (gain != kUnityGain) {
    scratch->assign(samples.begin(), samples.end());
    ApplyGain(*scratch, gain);
    samples = *scratch;
  }
  for (WireObject* wire : wires) {
    wire->PushAt(tick_id, offset, samples);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// InputDevice
// ---------------------------------------------------------------------------

InputDevice::InputDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs)
    : VirtualDevice(id, owner, DeviceClass::kInput, loud, std::move(attrs)) {}

size_t InputDevice::Produce(EngineTick* tick, size_t frames) {
  // An input device binds only to an input unit (a microphone).
  PhysicalDevice* mic = bound_device();
  if (mic == nullptr || source_wires().empty()) {
    return 0;
  }
  scratch_.assign(frames, 0);
  mic->engine_codec().ReadCapture(scratch_);  // short reads leave trailing silence
  PushToWires(source_wires(), scratch_, gain(), &gain_scratch_, tick->start_frame, 0);
  return frames;
}

// ---------------------------------------------------------------------------
// OutputDevice
// ---------------------------------------------------------------------------

OutputDevice::OutputDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs)
    : VirtualDevice(id, owner, DeviceClass::kOutput, loud, std::move(attrs)) {}

void OutputDevice::Consume(EngineTick* tick) {
  if (bound_device() == nullptr) {
    return;
  }
  // Accumulates straight from each wire's buffer, then drops what it took.
  for (WireObject* wire : sink_wires()) {
    std::vector<Sample>& buffer = wire->buffer();
    const size_t n = std::min(tick->frames, buffer.size());
    if (n > 0) {
      tick->server->AccumulateOutput(bound_device(), std::span<const Sample>(buffer).first(n),
                                     gain());
      buffer.erase(buffer.begin(), buffer.begin() + static_cast<ptrdiff_t>(n));
    }
  }
}

// ---------------------------------------------------------------------------
// SoundRef
// ---------------------------------------------------------------------------

void SoundRef::Reset(ResourceId id, SoundObject* sound, EngineTick* tick) {
  id_ = id;
  sound_ = sound;
  destroys_seen_ = tick->server->sound_destroys();
}

SoundObject* SoundRef::Get(EngineTick* tick) {
  if (destroys_seen_ != tick->server->sound_destroys()) {
    destroys_seen_ = tick->server->sound_destroys();
    sound_ = tick->server->FindSound(id_);
  }
  return sound_;
}

// ---------------------------------------------------------------------------
// PlayerDevice
// ---------------------------------------------------------------------------

PlayerDevice::PlayerDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs)
    : VirtualDevice(id, owner, DeviceClass::kPlayer, loud, std::move(attrs)) {}

Status PlayerDevice::StartCommand(const CommandSpec& spec, EngineTick* tick) {
  if (spec.command != DeviceCommand::kPlay) {
    return VirtualDevice::StartCommand(spec, tick);
  }
  PlayArgs args = PlayArgs::Decode(spec.args);
  SoundObject* sound = tick->server->FindSound(args.sound);
  if (sound == nullptr) {
    return Status(ErrorCode::kBadResource, "Play: no such sound");
  }
  sound_.Reset(args.sound, sound, tick);
  position_ = 0;
  end_sample_ = args.end_sample;
  decode_byte_pos_ = 0;
  decoded_.clear();
  total_ = sound->sample_count();
  // A nonzero start plays from mid-sound; stateful codecs (ADPCM) must
  // decode from the beginning, so we decode-and-discard up to the start.
  start_sample_ = std::max<int64_t>(args.start_sample, 0);
  skip_samples_ = 0;
  cached_.reset();
  cache_pos_ = 0;
  // Fast path: a whole-sound play (no start offset, no end bound) serves
  // straight from the decoded-PCM cache. Bounded plays keep the incremental
  // decoder so the end-sample trim stays in sound-sample space.
  const bool whole_sound = start_sample_ == 0 && (end_sample_ < 0 || end_sample_ >= total_);
  if (whole_sound && tick->server->decoded_cache().enabled()) {
    cache_generation_ = sound->generation();
    cached_ = tick->server->GetDecodedSound(sound);
  }
  if (cached_ == nullptr) {
    decoder_ = std::make_unique<StreamDecoder>(sound->format().encoding);
    resampler_ = std::make_unique<Resampler>(sound->format().sample_rate_hz,
                                             tick->server->engine_rate());
  } else {
    decoder_.reset();
    resampler_.reset();
  }
  set_command_running(true);
  return Status::Ok();
}

void PlayerDevice::AbortCommand() {
  VirtualDevice::AbortCommand();
  decoded_.clear();
  cached_.reset();
  cache_pos_ = 0;
}

void PlayerDevice::SwitchToIncremental(SoundObject* sound, EngineTick* tick,
                                       size_t consumed) {
  decoder_ = std::make_unique<StreamDecoder>(sound->format().encoding);
  resampler_ = std::make_unique<Resampler>(sound->format().sample_rate_hz,
                                           tick->server->engine_rate());
  decode_byte_pos_ = 0;
  position_ = 0;
  decoded_.clear();
  // The cached stream is a prefix of the re-decode (appends only extend
  // the sound; a rewrite re-keys and we restart the decode anyway), so
  // discarding the engine-rate samples already served resumes seamlessly.
  skip_samples_ = static_cast<int64_t>(consumed);
  cached_.reset();
  cache_pos_ = 0;
}

size_t PlayerDevice::Produce(EngineTick* tick, size_t frames) {
  if (!CommandRunning() || paused()) {
    return 0;
  }
  SoundObject* sound = sound_.Get(tick);
  if (sound == nullptr) {
    // Sound destroyed mid-play: the command ends aborted.
    AbortCommand();
    return 0;
  }

  if (cached_ != nullptr) {
    if (sound->generation() != cache_generation_) {
      // Sound mutated mid-play (real-time data supply, overwrite): the
      // cached decode is stale. Fall back to the streaming decoder for the
      // rest of this play, resuming after the samples already served.
      SwitchToIncremental(sound, tick, cache_pos_);
    } else {
      const std::vector<Sample>& pcm = *cached_;
      size_t avail = pcm.size() > cache_pos_ ? pcm.size() - cache_pos_ : 0;
      size_t n = std::min(frames, avail);
      if (n > 0) {
        PushToWires(source_wires(), std::span<const Sample>(pcm).subspan(cache_pos_, n),
                    gain(), &gain_scratch_, tick->start_frame, tick->branch_offset);
        cache_pos_ += n;
      }
      // Track position in sound-sample space for sync marks: cache_pos_ is
      // engine-rate samples served, mapped back through the rate ratio.
      const uint32_t out_rate = tick->server->engine_rate();
      const uint32_t in_rate = sound->format().sample_rate_hz;
      if (cache_pos_ >= pcm.size()) {
        position_ = total_;
        set_command_running(false);
      } else {
        position_ = std::min<int64_t>(
            total_, static_cast<int64_t>(cache_pos_) * in_rate / out_rate);
      }
      loud()->Root()->NoteSyncProgress(position_, total_, tick->server->server_time());
      return n;
    }
  }

  // Fill decoded_ (engine-rate linear samples) until we can cover `frames`
  // or the sound is exhausted.
  const std::vector<uint8_t>& data = sound->data();
  bool exhausted = false;
  while (decoded_.size() < frames + static_cast<size_t>(skip_samples_)) {
    if (decode_byte_pos_ >= static_cast<int64_t>(data.size())) {
      exhausted = true;
      break;
    }
    if (end_sample_ >= 0 && position_ >= end_sample_) {
      exhausted = true;
      break;
    }
    size_t chunk_bytes = std::min<size_t>(1024, data.size() - decode_byte_pos_);
    std::vector<Sample> linear;
    decoder_->Decode(std::span<const uint8_t>(data).subspan(
                         static_cast<size_t>(decode_byte_pos_), chunk_bytes),
                     &linear);
    decode_byte_pos_ += static_cast<int64_t>(chunk_bytes);
    // Honor the start and end bounds in sound-sample space, before the
    // resampler turns sound samples into engine-rate ones.
    int64_t sound_samples = static_cast<int64_t>(linear.size());
    if (end_sample_ >= 0 && position_ + sound_samples > end_sample_) {
      sound_samples = end_sample_ - position_;
    }
    const int64_t first = std::clamp<int64_t>(start_sample_ - position_, 0, sound_samples);
    position_ += sound_samples;
    resampler_->Process(std::span<const Sample>(linear).subspan(
                            static_cast<size_t>(first),
                            static_cast<size_t>(sound_samples - first)),
                        &decoded_);
  }

  // Discard engine-rate samples a cached play already served.
  if (skip_samples_ > 0) {
    size_t drop = std::min<size_t>(static_cast<size_t>(skip_samples_), decoded_.size());
    decoded_.erase(decoded_.begin(), decoded_.begin() + static_cast<ptrdiff_t>(drop));
    skip_samples_ -= static_cast<int64_t>(drop);
  }

  size_t n = std::min(frames, decoded_.size());
  if (n > 0) {
    PushToWires(source_wires(), std::span<const Sample>(decoded_).first(n), gain(),
                &gain_scratch_, tick->start_frame, tick->branch_offset);
    decoded_.erase(decoded_.begin(), decoded_.begin() + static_cast<ptrdiff_t>(n));
  }

  if (exhausted && decoded_.empty() && skip_samples_ == 0) {
    set_command_running(false);
  }

  loud()->Root()->NoteSyncProgress(position_, total_, tick->server->server_time());
  return n;
}

// ---------------------------------------------------------------------------
// RecorderDevice
// ---------------------------------------------------------------------------

RecorderDevice::RecorderDevice(ResourceId id, uint32_t owner, Loud* loud, AttrList attrs)
    : VirtualDevice(id, owner, DeviceClass::kRecorder, loud, std::move(attrs)) {
  agc_enabled_ = this->attrs().GetBool(AttrTag::kAgc);
}

Status RecorderDevice::StartCommand(const CommandSpec& spec, EngineTick* tick) {
  if (spec.command != DeviceCommand::kRecord) {
    return VirtualDevice::StartCommand(spec, tick);
  }
  RecordArgs args = RecordArgs::Decode(spec.args);
  SoundObject* sound = tick->server->FindSound(args.sound);
  if (sound == nullptr) {
    return Status(ErrorCode::kBadResource, "Record: no such sound");
  }
  sound_.Reset(args.sound, sound, tick);
  termination_ = args.termination;
  max_samples_ = args.max_ms == 0
                     ? 0
                     : static_cast<int64_t>(tick->server->engine_rate()) * args.max_ms / 1000;
  samples_recorded_ = 0;
  encoder_ = std::make_unique<StreamEncoder>(sound->format().encoding);
  out_resampler_ = sound->format().sample_rate_hz != tick->server->engine_rate()
                       ? std::make_unique<Resampler>(tick->server->engine_rate(),
                                                     sound->format().sample_rate_hz)
                       : nullptr;
  if ((termination_ & kTerminateOnPause) != 0) {
    pause_detector_ = std::make_unique<PauseDetector>(tick->server->engine_rate());
  } else {
    pause_detector_.reset();
  }
  agc_ = agc_enabled_ ? std::make_unique<AutomaticGainControl>() : nullptr;
  keep_linear_history_ = attrs().GetBool(AttrTag::kPauseCompression);
  linear_history_.clear();
  set_command_running(true);
  tick->server->EmitEvent(loud()->Root(), EventType::kRecorderStarted, id(), {});
  return Status::Ok();
}

void RecorderDevice::AbortCommand() {
  VirtualDevice::AbortCommand();
  linear_history_.clear();
}

void RecorderDevice::FinishRecording(EngineTick* tick, RecordStopReason reason) {
  set_command_running(false);

  // Recorder attribute: compress the recording "by removing pauses"
  // (section 5.1). Applied once at completion, from the pristine linear
  // take kept during Consume — the encoded sound is never round-tripped
  // back through the codec, so finishing costs one pass over the take
  // instead of a whole-sound decode + re-encode.
  if (keep_linear_history_) {
    SoundObject* sound = sound_.Get(tick);
    if (sound != nullptr) {
      auto compressed = CompressPauses(linear_history_, sound->format().sample_rate_hz);
      StreamEncoder re_encoder(sound->format().encoding);
      std::vector<uint8_t> bytes;
      re_encoder.Encode(compressed, &bytes);
      sound->mutable_data() = std::move(bytes);
      samples_recorded_ = static_cast<uint64_t>(compressed.size());
    }
    linear_history_.clear();
  }

  RecorderStoppedArgs args;
  args.reason = static_cast<uint8_t>(reason);
  args.samples = samples_recorded_;
  tick->server->EmitEvent(loud()->Root(), EventType::kRecorderStopped, id(), args.Encode());
}

void RecorderDevice::Consume(EngineTick* tick) {
  // Always drain the wires so idle recorders don't back audio up.
  scratch_.clear();
  for (WireObject* wire : sink_wires()) {
    wire->Pull(tick->frames, &scratch_);
  }
  if (!CommandRunning() || paused()) {
    return;
  }
  SoundObject* sound = sound_.Get(tick);
  if (sound == nullptr) {
    // Sound destroyed mid-record: the command ends aborted.
    AbortCommand();
    return;
  }

  // A live recorder records the line continuously: missing wire data is
  // silence, so max-duration and pause-detect termination track real time.
  if (scratch_.size() < tick->frames) {
    scratch_.resize(tick->frames, 0);
  }

  if (!scratch_.empty()) {
    if (gain() != kUnityGain) {
      ApplyGain(scratch_, gain());
    }
    if (agc_ != nullptr) {
      agc_->Process(scratch_);
    }
    // Resample engine rate -> sound rate if they differ.
    std::span<const Sample> to_encode = scratch_;
    if (out_resampler_ != nullptr) {
      resample_scratch_.clear();
      out_resampler_->Process(scratch_, &resample_scratch_);
      to_encode = resample_scratch_;
    }
    if (keep_linear_history_) {
      linear_history_.insert(linear_history_.end(), to_encode.begin(), to_encode.end());
    }
    encode_scratch_.clear();
    encoder_->Encode(to_encode, &encode_scratch_);
    sound->Write(sound->size_bytes(), encode_scratch_);
    samples_recorded_ += scratch_.size();

    if (pause_detector_ != nullptr && pause_detector_->Process(scratch_)) {
      FinishRecording(tick, RecordStopReason::kPauseDetected);
      return;
    }
  }

  if (max_samples_ > 0 && static_cast<int64_t>(samples_recorded_) >= max_samples_) {
    FinishRecording(tick, RecordStopReason::kMaxDuration);
    return;
  }

  if ((termination_ & kTerminateOnHangup) != 0) {
    // If any wire feeding us comes from a telephone whose call ended, stop.
    for (WireObject* wire : sink_wires()) {
      auto* phone = dynamic_cast<TelephoneDevice*>(wire->src());
      if (phone != nullptr && (phone->call_state() == CallState::kHungUp ||
                               phone->call_state() == CallState::kIdle)) {
        FinishRecording(tick, RecordStopReason::kSourceEnded);
        return;
      }
    }
  }
}

}  // namespace aud
