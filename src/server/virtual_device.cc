#include "src/server/virtual_device.h"

#include "src/server/devices.h"
#include "src/server/loud.h"

namespace aud {

VirtualDevice::VirtualDevice(ResourceId id, uint32_t owner, DeviceClass device_class,
                             Loud* loud, AttrList attrs)
    : ServerObject(id, ObjectKind::kVirtualDevice, owner),
      class_(device_class),
      loud_(loud),
      attrs_(std::move(attrs)) {}

VirtualDevice::~VirtualDevice() = default;

AudioFormat VirtualDevice::PortFormat(bool is_source, uint16_t port) const {
  (void)is_source;
  (void)port;
  AudioFormat format = kTelephoneFormat;
  if (auto enc = attrs_.GetU32(AttrTag::kEncoding)) {
    format.encoding = static_cast<Encoding>(*enc);
  }
  if (auto rate = attrs_.GetU32(AttrTag::kSampleRate)) {
    format.sample_rate_hz = *rate;
  }
  return format;
}

void VirtualDevice::AttachWire(WireObject* wire, bool as_source) {
  if (as_source) {
    source_wires_.push_back(wire);
  } else {
    sink_wires_.push_back(wire);
  }
}

void VirtualDevice::DetachWire(WireObject* wire) {
  std::erase(source_wires_, wire);
  std::erase(sink_wires_, wire);
}

void VirtualDevice::Augment(const AttrList& attrs) {
  attrs_.Merge(attrs);
  cached_match_.reset();
}

void VirtualDevice::Bind(PhysicalDevice* device, ResourceId device_loud_id) {
  bound_ = device;
  bound_device_id_ = device_loud_id;
}

void VirtualDevice::Unbind() {
  bound_ = nullptr;
  // bound_device_id_ is retained so reactivation can rebind the same
  // hardware when the application augmented its attributes (section 5.3).
}

Status VirtualDevice::StartCommand(const CommandSpec& spec, EngineTick* tick) {
  (void)tick;
  // Generic queued forms of the immediate commands complete instantly.
  switch (spec.command) {
    case DeviceCommand::kChangeGain: {
      GainArgs args = GainArgs::Decode(spec.args);
      gain_ = args.gain;
      return Status::Ok();
    }
    case DeviceCommand::kStop:
      AbortCommand();
      return Status::Ok();
    case DeviceCommand::kPause:
      PauseDevice();
      return Status::Ok();
    case DeviceCommand::kResume:
      ResumeDevice();
      return Status::Ok();
    default:
      return Status(ErrorCode::kBadValue, "command not supported by this device class");
  }
}

Status VirtualDevice::ImmediateCommand(const CommandSpec& spec) {
  switch (spec.command) {
    case DeviceCommand::kChangeGain: {
      GainArgs args = GainArgs::Decode(spec.args);
      gain_ = args.gain;
      return Status::Ok();
    }
    case DeviceCommand::kStop:
      AbortCommand();
      return Status::Ok();
    case DeviceCommand::kPause:
      PauseDevice();
      return Status::Ok();
    case DeviceCommand::kResume:
      ResumeDevice();
      return Status::Ok();
    default:
      return Status(ErrorCode::kBadValue, "command not valid in immediate mode");
  }
}

bool VirtualDevice::PauseDevice() {
  paused_ = true;
  return true;
}

void VirtualDevice::ResumeDevice() { paused_ = false; }

void VirtualDevice::AbortCommand() {
  if (command_running_) {
    abort_latch_ = true;
  }
  command_running_ = false;
}

size_t VirtualDevice::Produce(EngineTick* tick, size_t frames) {
  (void)tick;
  (void)frames;
  return 0;
}

void VirtualDevice::Consume(EngineTick* tick) { (void)tick; }

std::unique_ptr<VirtualDevice> CreateVirtualDevice(ResourceId id, uint32_t owner,
                                                   DeviceClass device_class, Loud* loud,
                                                   AttrList attrs) {
  switch (device_class) {
    case DeviceClass::kInput:
      return std::make_unique<InputDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kOutput:
      return std::make_unique<OutputDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kPlayer:
      return std::make_unique<PlayerDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kRecorder:
      return std::make_unique<RecorderDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kTelephone:
      return std::make_unique<TelephoneDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kMixer:
      return std::make_unique<MixerDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kSpeechSynthesizer:
      return std::make_unique<SynthesizerDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kSpeechRecognizer:
      return std::make_unique<RecognizerDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kMusicSynthesizer:
      return std::make_unique<MusicDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kCrossbar:
      return std::make_unique<CrossbarDevice>(id, owner, loud, std::move(attrs));
    case DeviceClass::kDsp:
      return std::make_unique<DspDevice>(id, owner, loud, std::move(attrs));
  }
  return nullptr;
}

// Out of line from core.h: needs VirtualDevice complete.
WireInfo CompleteWireInfo(const WireObject& wire) {
  WireInfo info;
  info.id = wire.id();
  info.src_device = wire.src() != nullptr ? wire.src()->id() : kNoResource;
  info.src_port = wire.src_port();
  info.dst_device = wire.dst() != nullptr ? wire.dst()->id() : kNoResource;
  info.dst_port = wire.dst_port();
  info.format = wire.format();
  return info;
}

}  // namespace aud
