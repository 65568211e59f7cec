#include "src/wire/messages.h"

namespace aud {

// ---------------------------------------------------------------------------
// Header & setup
// ---------------------------------------------------------------------------

MessageHeader MessageHeader::Decode(ByteReader* r) {
  MessageHeader h;
  h.type = static_cast<MessageType>(r->ReadU8());
  r->ReadU8();
  h.code = r->ReadU16();
  h.length = r->ReadU32();
  h.sequence = r->ReadU32();
  return h;
}

Result<MessageHeader> DecodeHeaderStrict(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status(ErrorCode::kConnection,
                  "truncated header: " + std::to_string(bytes.size()) + " of " +
                      std::to_string(kHeaderSize) + " bytes");
  }
  if (bytes[1] != 0) {
    return Status(ErrorCode::kConnection, "non-zero reserved header byte");
  }
  ByteReader r(bytes.first(kHeaderSize));
  MessageHeader h = MessageHeader::Decode(&r);
  uint8_t type = static_cast<uint8_t>(h.type);
  if (type < static_cast<uint8_t>(MessageType::kRequest) ||
      type > static_cast<uint8_t>(MessageType::kError)) {
    return Status(ErrorCode::kConnection,
                  "unknown message type " + std::to_string(type));
  }
  if (h.length > kMaxPayload) {
    return Status(ErrorCode::kConnection,
                  "payload length " + std::to_string(h.length) +
                      " exceeds limit " + std::to_string(kMaxPayload));
  }
  return h;
}

Status ValidateRequestHeader(const MessageHeader& header) {
  if (header.type != MessageType::kRequest) {
    return Status::Ok();
  }
  // kSetupOpcode is only legal as the first frame of the connection; the
  // setup path never consults this check, so it is unknown here too.
  if (header.code >= static_cast<uint16_t>(Opcode::kOpcodeCount)) {
    return Status(ErrorCode::kBadRequest,
                  "unknown opcode " + std::to_string(header.code));
  }
  return Status::Ok();
}

void SetupRequest::Encode(ByteWriter* w) const {
  w->WriteU32(magic);
  w->WriteU16(major);
  w->WriteU16(minor);
  w->WriteString(client_name);
}

SetupRequest SetupRequest::Decode(ByteReader* r) {
  SetupRequest s;
  s.magic = r->ReadU32();
  s.major = r->ReadU16();
  s.minor = r->ReadU16();
  s.client_name = r->ReadString();
  return s;
}

void SetupReply::Encode(ByteWriter* w) const {
  w->WriteU8(success);
  w->WriteU16(major);
  w->WriteU16(minor);
  w->WriteU32(id_base);
  w->WriteU32(id_count);
  w->WriteU32(device_loud);
  w->WriteString(server_name);
  w->WriteString(reason);
}

SetupReply SetupReply::Decode(ByteReader* r) {
  SetupReply s;
  s.success = r->ReadU8();
  s.major = r->ReadU16();
  s.minor = r->ReadU16();
  s.id_base = r->ReadU32();
  s.id_count = r->ReadU32();
  s.device_loud = r->ReadU32();
  s.server_name = r->ReadString();
  s.reason = r->ReadString();
  return s;
}

// ---------------------------------------------------------------------------
// Command specs & args
// ---------------------------------------------------------------------------

void CommandSpec::Encode(ByteWriter* w) const {
  w->WriteU32(device);
  w->WriteU16(static_cast<uint16_t>(command));
  w->WriteU32(tag);
  w->WriteBlob(args);
}

CommandSpec CommandSpec::Decode(ByteReader* r) {
  CommandSpec c;
  c.device = r->ReadU32();
  c.command = static_cast<DeviceCommand>(r->ReadU16());
  c.tag = r->ReadU32();
  c.args = r->ReadBlob();
  return c;
}

std::vector<uint8_t> PlayArgs::Encode() const {
  ByteWriter w;
  w.WriteU32(sound);
  w.WriteI64(start_sample);
  w.WriteI64(end_sample);
  return w.Take();
}

PlayArgs PlayArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  PlayArgs a;
  a.sound = r.ReadU32();
  a.start_sample = r.ReadI64();
  a.end_sample = r.ReadI64();
  return a;
}

std::vector<uint8_t> RecordArgs::Encode() const {
  ByteWriter w;
  w.WriteU32(sound);
  w.WriteU8(termination);
  w.WriteU32(max_ms);
  return w.Take();
}

RecordArgs RecordArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  RecordArgs a;
  a.sound = r.ReadU32();
  a.termination = r.ReadU8();
  a.max_ms = r.ReadU32();
  return a;
}

std::vector<uint8_t> StringArg::Encode() const {
  ByteWriter w;
  w.WriteString(value);
  return w.Take();
}

StringArg StringArg::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  StringArg a;
  a.value = r.ReadString();
  return a;
}

std::vector<uint8_t> GainArgs::Encode() const {
  ByteWriter w;
  w.WriteI32(gain);
  return w.Take();
}

GainArgs GainArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  GainArgs a;
  a.gain = r.ReadI32();
  return a;
}

std::vector<uint8_t> InputGainArgs::Encode() const {
  ByteWriter w;
  w.WriteU16(input);
  w.WriteI32(gain);
  return w.Take();
}

InputGainArgs InputGainArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  InputGainArgs a;
  a.input = r.ReadU16();
  a.gain = r.ReadI32();
  return a;
}

std::vector<uint8_t> DelayArgs::Encode() const {
  ByteWriter w;
  w.WriteU32(milliseconds);
  return w.Take();
}

DelayArgs DelayArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  DelayArgs a;
  a.milliseconds = r.ReadU32();
  return a;
}

std::vector<uint8_t> TrainArgs::Encode() const {
  ByteWriter w;
  w.WriteString(word);
  w.WriteU32(sound);
  return w.Take();
}

TrainArgs TrainArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  TrainArgs a;
  a.word = r.ReadString();
  a.sound = r.ReadU32();
  return a;
}

std::vector<uint8_t> WordListArgs::Encode() const {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(words.size()));
  for (const auto& word : words) {
    w.WriteString(word);
  }
  return w.Take();
}

WordListArgs WordListArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  WordListArgs a;
  uint32_t n = r.ReadU32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    a.words.push_back(r.ReadString());
  }
  return a;
}

std::vector<uint8_t> ExceptionListArgs::Encode() const {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [word, phonemes] : entries) {
    w.WriteString(word);
    w.WriteString(phonemes);
  }
  return w.Take();
}

ExceptionListArgs ExceptionListArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  ExceptionListArgs a;
  uint32_t n = r.ReadU32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string word = r.ReadString();
    std::string phonemes = r.ReadString();
    a.entries.emplace_back(std::move(word), std::move(phonemes));
  }
  return a;
}

std::vector<uint8_t> NoteArgs::Encode() const {
  ByteWriter w;
  w.WriteU8(midi_note);
  w.WriteU8(velocity);
  w.WriteU32(duration_ms);
  return w.Take();
}

NoteArgs NoteArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  NoteArgs a;
  a.midi_note = r.ReadU8();
  a.velocity = r.ReadU8();
  a.duration_ms = r.ReadU32();
  return a;
}

std::vector<uint8_t> VoiceArgs::Encode() const {
  ByteWriter w;
  w.WriteU8(waveform);
  w.WriteU16(attack_ms);
  w.WriteU16(decay_ms);
  w.WriteU16(sustain_centi);
  w.WriteU16(release_ms);
  return w.Take();
}

VoiceArgs VoiceArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  VoiceArgs a;
  a.waveform = r.ReadU8();
  a.attack_ms = r.ReadU16();
  a.decay_ms = r.ReadU16();
  a.sustain_centi = r.ReadU16();
  a.release_ms = r.ReadU16();
  return a;
}

std::vector<uint8_t> CrossbarStateArgs::Encode() const {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(routes.size()));
  for (const Route& route : routes) {
    w.WriteU16(route.input);
    w.WriteU16(route.output);
    w.WriteU8(route.enabled);
  }
  return w.Take();
}

CrossbarStateArgs CrossbarStateArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  CrossbarStateArgs a;
  uint32_t n = r.ReadU32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    Route route;
    route.input = r.ReadU16();
    route.output = r.ReadU16();
    route.enabled = r.ReadU8();
    a.routes.push_back(route);
  }
  return a;
}

std::vector<uint8_t> ValuesArgs::Encode() const {
  ByteWriter w;
  values.Encode(&w);
  return w.Take();
}

ValuesArgs ValuesArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  ValuesArgs a;
  a.values = AttrList::Decode(&r);
  return a;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

void CreateLoudReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU32(parent);
  attrs.Encode(w);
}

CreateLoudReq CreateLoudReq::Decode(ByteReader* r) {
  CreateLoudReq q;
  q.id = r->ReadU32();
  q.parent = r->ReadU32();
  q.attrs = AttrList::Decode(r);
  return q;
}

void ResourceReq::Encode(ByteWriter* w) const { w->WriteU32(id); }

ResourceReq ResourceReq::Decode(ByteReader* r) {
  ResourceReq q;
  q.id = r->ReadU32();
  return q;
}

void CreateVirtualDeviceReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU32(loud);
  w->WriteU8(static_cast<uint8_t>(device_class));
  attrs.Encode(w);
}

CreateVirtualDeviceReq CreateVirtualDeviceReq::Decode(ByteReader* r) {
  CreateVirtualDeviceReq q;
  q.id = r->ReadU32();
  q.loud = r->ReadU32();
  q.device_class = static_cast<DeviceClass>(r->ReadU8());
  q.attrs = AttrList::Decode(r);
  return q;
}

void AugmentVirtualDeviceReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  attrs.Encode(w);
}

AugmentVirtualDeviceReq AugmentVirtualDeviceReq::Decode(ByteReader* r) {
  AugmentVirtualDeviceReq q;
  q.id = r->ReadU32();
  q.attrs = AttrList::Decode(r);
  return q;
}

void CreateWireReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU32(src_device);
  w->WriteU16(src_port);
  w->WriteU32(dst_device);
  w->WriteU16(dst_port);
  w->WriteU8(has_format);
  EncodeFormat(w, format);
}

CreateWireReq CreateWireReq::Decode(ByteReader* r) {
  CreateWireReq q;
  q.id = r->ReadU32();
  q.src_device = r->ReadU32();
  q.src_port = r->ReadU16();
  q.dst_device = r->ReadU32();
  q.dst_port = r->ReadU16();
  q.has_format = r->ReadU8();
  q.format = DecodeFormat(r);
  return q;
}

void MapLoudReq::Encode(ByteWriter* w) const {
  w->WriteU32(loud);
  w->WriteU8(override_redirect);
}

MapLoudReq MapLoudReq::Decode(ByteReader* r) {
  MapLoudReq q;
  q.loud = r->ReadU32();
  q.override_redirect = r->ReadU8();
  return q;
}

void CreateSoundReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  EncodeFormat(w, format);
}

CreateSoundReq CreateSoundReq::Decode(ByteReader* r) {
  CreateSoundReq q;
  q.id = r->ReadU32();
  q.format = DecodeFormat(r);
  return q;
}

void WriteSoundDataReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU64(offset);
  w->WriteBlob(data);
}

WriteSoundDataReq WriteSoundDataReq::Decode(ByteReader* r) {
  WriteSoundDataReq q;
  q.id = r->ReadU32();
  q.offset = r->ReadU64();
  q.data = r->ReadBlob();
  return q;
}

void ReadSoundDataReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU64(offset);
  w->WriteU32(length);
}

ReadSoundDataReq ReadSoundDataReq::Decode(ByteReader* r) {
  ReadSoundDataReq q;
  q.id = r->ReadU32();
  q.offset = r->ReadU64();
  q.length = r->ReadU32();
  return q;
}

void NamedSoundReq::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteString(name);
}

NamedSoundReq NamedSoundReq::Decode(ByteReader* r) {
  NamedSoundReq q;
  q.id = r->ReadU32();
  q.name = r->ReadString();
  return q;
}

void EnqueueCommandsReq::Encode(ByteWriter* w) const {
  w->WriteU32(loud);
  w->WriteU32(static_cast<uint32_t>(commands.size()));
  for (const CommandSpec& c : commands) {
    c.Encode(w);
  }
}

EnqueueCommandsReq EnqueueCommandsReq::Decode(ByteReader* r) {
  EnqueueCommandsReq q;
  q.loud = r->ReadU32();
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    q.commands.push_back(CommandSpec::Decode(r));
  }
  return q;
}

void ImmediateCommandReq::Encode(ByteWriter* w) const {
  w->WriteU32(loud);
  command.Encode(w);
}

ImmediateCommandReq ImmediateCommandReq::Decode(ByteReader* r) {
  ImmediateCommandReq q;
  q.loud = r->ReadU32();
  q.command = CommandSpec::Decode(r);
  return q;
}

void SelectEventsReq::Encode(ByteWriter* w) const {
  w->WriteU32(resource);
  w->WriteU32(mask);
}

SelectEventsReq SelectEventsReq::Decode(ByteReader* r) {
  SelectEventsReq q;
  q.resource = r->ReadU32();
  q.mask = r->ReadU32();
  return q;
}

void SetSyncMarksReq::Encode(ByteWriter* w) const {
  w->WriteU32(loud);
  w->WriteU32(interval_ms);
}

SetSyncMarksReq SetSyncMarksReq::Decode(ByteReader* r) {
  SetSyncMarksReq q;
  q.loud = r->ReadU32();
  q.interval_ms = r->ReadU32();
  return q;
}

void ChangePropertyReq::Encode(ByteWriter* w) const {
  w->WriteU32(resource);
  w->WriteString(name);
  w->WriteString(type);
  w->WriteBlob(value);
}

ChangePropertyReq ChangePropertyReq::Decode(ByteReader* r) {
  ChangePropertyReq q;
  q.resource = r->ReadU32();
  q.name = r->ReadString();
  q.type = r->ReadString();
  q.value = r->ReadBlob();
  return q;
}

void NamedPropertyReq::Encode(ByteWriter* w) const {
  w->WriteU32(resource);
  w->WriteString(name);
}

NamedPropertyReq NamedPropertyReq::Decode(ByteReader* r) {
  NamedPropertyReq q;
  q.resource = r->ReadU32();
  q.name = r->ReadString();
  return q;
}

void SetRedirectReq::Encode(ByteWriter* w) const { w->WriteU8(enable); }

SetRedirectReq SetRedirectReq::Decode(ByteReader* r) {
  SetRedirectReq q;
  q.enable = r->ReadU8();
  return q;
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

void VirtualDeviceReply::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU8(static_cast<uint8_t>(device_class));
  w->WriteU8(mapped);
  w->WriteU8(active);
  w->WriteU32(bound_device);
  attrs.Encode(w);
}

VirtualDeviceReply VirtualDeviceReply::Decode(ByteReader* r) {
  VirtualDeviceReply p;
  p.id = r->ReadU32();
  p.device_class = static_cast<DeviceClass>(r->ReadU8());
  p.mapped = r->ReadU8();
  p.active = r->ReadU8();
  p.bound_device = r->ReadU32();
  p.attrs = AttrList::Decode(r);
  return p;
}

void WireInfo::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU32(src_device);
  w->WriteU16(src_port);
  w->WriteU32(dst_device);
  w->WriteU16(dst_port);
  EncodeFormat(w, format);
}

WireInfo WireInfo::Decode(ByteReader* r) {
  WireInfo i;
  i.id = r->ReadU32();
  i.src_device = r->ReadU32();
  i.src_port = r->ReadU16();
  i.dst_device = r->ReadU32();
  i.dst_port = r->ReadU16();
  i.format = DecodeFormat(r);
  return i;
}

void WiresReply::Encode(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(wires.size()));
  for (const WireInfo& wi : wires) {
    wi.Encode(w);
  }
}

WiresReply WiresReply::Decode(ByteReader* r) {
  WiresReply p;
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.wires.push_back(WireInfo::Decode(r));
  }
  return p;
}

void SoundDataReply::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU64(offset);
  w->WriteBlob(data);
}

SoundDataReply SoundDataReply::Decode(ByteReader* r) {
  SoundDataReply p;
  p.id = r->ReadU32();
  p.offset = r->ReadU64();
  p.data = r->ReadBlob();
  return p;
}

void SoundInfoReply::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  EncodeFormat(w, format);
  w->WriteU64(size_bytes);
  w->WriteU64(samples);
}

SoundInfoReply SoundInfoReply::Decode(ByteReader* r) {
  SoundInfoReply p;
  p.id = r->ReadU32();
  p.format = DecodeFormat(r);
  p.size_bytes = r->ReadU64();
  p.samples = r->ReadU64();
  return p;
}

void CatalogueEntry::Encode(ByteWriter* w) const {
  w->WriteString(name);
  EncodeFormat(w, format);
  w->WriteU64(size_bytes);
}

CatalogueEntry CatalogueEntry::Decode(ByteReader* r) {
  CatalogueEntry e;
  e.name = r->ReadString();
  e.format = DecodeFormat(r);
  e.size_bytes = r->ReadU64();
  return e;
}

void CatalogueReply::Encode(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(entries.size()));
  for (const CatalogueEntry& e : entries) {
    e.Encode(w);
  }
}

CatalogueReply CatalogueReply::Decode(ByteReader* r) {
  CatalogueReply p;
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.entries.push_back(CatalogueEntry::Decode(r));
  }
  return p;
}

void QueueStateReply::Encode(ByteWriter* w) const {
  w->WriteU32(loud);
  w->WriteU8(static_cast<uint8_t>(state));
  w->WriteU32(depth);
  w->WriteU32(current_tag);
}

QueueStateReply QueueStateReply::Decode(ByteReader* r) {
  QueueStateReply p;
  p.loud = r->ReadU32();
  p.state = static_cast<QueueState>(r->ReadU8());
  p.depth = r->ReadU32();
  p.current_tag = r->ReadU32();
  return p;
}

void PropertyReply::Encode(ByteWriter* w) const {
  w->WriteU32(resource);
  w->WriteU8(found);
  w->WriteString(name);
  w->WriteString(type);
  w->WriteBlob(value);
}

PropertyReply PropertyReply::Decode(ByteReader* r) {
  PropertyReply p;
  p.resource = r->ReadU32();
  p.found = r->ReadU8();
  p.name = r->ReadString();
  p.type = r->ReadString();
  p.value = r->ReadBlob();
  return p;
}

void PropertyListReply::Encode(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(names.size()));
  for (const std::string& n : names) {
    w->WriteString(n);
  }
}

PropertyListReply PropertyListReply::Decode(ByteReader* r) {
  PropertyListReply p;
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.names.push_back(r->ReadString());
  }
  return p;
}

void DeviceInfo::Encode(ByteWriter* w) const {
  w->WriteU32(id);
  w->WriteU32(parent);
  w->WriteU8(static_cast<uint8_t>(device_class));
  attrs.Encode(w);
}

DeviceInfo DeviceInfo::Decode(ByteReader* r) {
  DeviceInfo d;
  d.id = r->ReadU32();
  d.parent = r->ReadU32();
  d.device_class = static_cast<DeviceClass>(r->ReadU8());
  d.attrs = AttrList::Decode(r);
  return d;
}

void DeviceLoudReply::Encode(ByteWriter* w) const {
  w->WriteU32(root);
  w->WriteU32(static_cast<uint32_t>(devices.size()));
  for (const DeviceInfo& d : devices) {
    d.Encode(w);
  }
  w->WriteU32(static_cast<uint32_t>(hard_wires.size()));
  for (const WireInfo& wi : hard_wires) {
    wi.Encode(w);
  }
}

DeviceLoudReply DeviceLoudReply::Decode(ByteReader* r) {
  DeviceLoudReply p;
  p.root = r->ReadU32();
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.devices.push_back(DeviceInfo::Decode(r));
  }
  uint32_t m = r->ReadU32();
  for (uint32_t i = 0; i < m && r->ok(); ++i) {
    p.hard_wires.push_back(WireInfo::Decode(r));
  }
  return p;
}

void ActiveStackEntry::Encode(ByteWriter* w) const {
  w->WriteU32(loud);
  w->WriteU8(active);
}

ActiveStackEntry ActiveStackEntry::Decode(ByteReader* r) {
  ActiveStackEntry e;
  e.loud = r->ReadU32();
  e.active = r->ReadU8();
  return e;
}

void ActiveStackReply::Encode(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(entries.size()));
  for (const ActiveStackEntry& e : entries) {
    e.Encode(w);
  }
}

ActiveStackReply ActiveStackReply::Decode(ByteReader* r) {
  ActiveStackReply p;
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.entries.push_back(ActiveStackEntry::Decode(r));
  }
  return p;
}

void ServerTimeReply::Encode(ByteWriter* w) const { w->WriteI64(server_time); }

ServerTimeReply ServerTimeReply::Decode(ByteReader* r) {
  ServerTimeReply p;
  p.server_time = r->ReadI64();
  return p;
}

void LoudStateReply::Encode(ByteWriter* w) const {
  w->WriteU32(loud);
  w->WriteU32(parent);
  w->WriteU8(mapped);
  w->WriteU8(active);
  w->WriteU32(children);
  w->WriteU32(devices);
}

LoudStateReply LoudStateReply::Decode(ByteReader* r) {
  LoudStateReply p;
  p.loud = r->ReadU32();
  p.parent = r->ReadU32();
  p.mapped = r->ReadU8();
  p.active = r->ReadU8();
  p.children = r->ReadU32();
  p.devices = r->ReadU32();
  return p;
}

// ---------------------------------------------------------------------------
// Server statistics and trace
// ---------------------------------------------------------------------------

namespace {

void EncodeHistogram(ByteWriter* w, const obs::HistogramSnapshot& h) {
  w->WriteU64(h.count);
  w->WriteU64(h.sum);
  w->WriteU64(h.min);
  w->WriteU64(h.max);
  w->WriteU32(static_cast<uint32_t>(h.buckets.size()));
  for (uint64_t b : h.buckets) {
    w->WriteU64(b);
  }
}

obs::HistogramSnapshot DecodeHistogram(ByteReader* r) {
  obs::HistogramSnapshot h;
  h.count = r->ReadU64();
  h.sum = r->ReadU64();
  h.min = r->ReadU64();
  h.max = r->ReadU64();
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    h.buckets.push_back(r->ReadU64());
  }
  return h;
}

// One stats row's wire form, chosen by its type.
void PutStat(ByteWriter* w, uint16_t v) { w->WriteU16(v); }
void PutStat(ByteWriter* w, uint32_t v) { w->WriteU32(v); }
void PutStat(ByteWriter* w, uint64_t v) { w->WriteU64(v); }
void PutStat(ByteWriter* w, int64_t v) { w->WriteI64(v); }
void PutStat(ByteWriter* w, const Histogram& h) { EncodeHistogram(w, h); }
void PutStat(ByteWriter* w, const std::vector<OpcodeStats>& ops) {
  w->WriteU32(static_cast<uint32_t>(ops.size()));
  for (const OpcodeStats& op : ops) {
    op.Encode(w);
  }
}

void GetStat(ByteReader* r, uint16_t* v) { *v = r->ReadU16(); }
void GetStat(ByteReader* r, uint32_t* v) { *v = r->ReadU32(); }
void GetStat(ByteReader* r, uint64_t* v) { *v = r->ReadU64(); }
void GetStat(ByteReader* r, int64_t* v) { *v = r->ReadI64(); }
void GetStat(ByteReader* r, Histogram* h) { *h = DecodeHistogram(r); }
void GetStat(ByteReader* r, std::vector<OpcodeStats>* ops) {
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    ops->push_back(OpcodeStats::Decode(r));
  }
}

}  // namespace

void OpcodeStats::Encode(ByteWriter* w) const {
  w->WriteU16(opcode);
  w->WriteU64(count);
  w->WriteU64(errors);
  w->WriteU64(total_us);
}

OpcodeStats OpcodeStats::Decode(ByteReader* r) {
  OpcodeStats p;
  p.opcode = r->ReadU16();
  p.count = r->ReadU64();
  p.errors = r->ReadU64();
  p.total_us = r->ReadU64();
  return p;
}

void GetServerStatsReq::Encode(ByteWriter* w) const { w->WriteU8(include_opcodes); }

GetServerStatsReq GetServerStatsReq::Decode(ByteReader* r) {
  GetServerStatsReq p;
  p.include_opcodes = r->ReadU8();
  return p;
}

void ServerStatsReply::Encode(ByteWriter* w) const {
  w->WriteU32(stats_version);
  ForEachStatField(*this, [&](const StatRow& row, const auto& value) {
    if (stats_version >= row.version) {
      PutStat(w, value);
    }
  });
}

ServerStatsReply ServerStatsReply::Decode(ByteReader* r) {
  ServerStatsReply p;
  p.stats_version = r->ReadU32();
  ForEachStatField(p, [&](const StatRow& row, auto& value) {
    if (p.stats_version >= row.version) {
      GetStat(r, &value);
    }
  });
  return p;
}

void GetServerTraceReq::Encode(ByteWriter* w) const { w->WriteU32(max_events); }

GetServerTraceReq GetServerTraceReq::Decode(ByteReader* r) {
  GetServerTraceReq p;
  p.max_events = r->ReadU32();
  return p;
}

void TraceEventWire::Encode(ByteWriter* w) const {
  w->WriteI64(t_us);
  w->WriteU64(seq);
  w->WriteU32(tid);
  w->WriteU16(reason);
  w->WriteU32(arg0);
  w->WriteU32(arg1);
  w->WriteU64(trace);
  w->WriteU64(parent);
  w->WriteU32(dur_us);
}

TraceEventWire TraceEventWire::Decode(ByteReader* r) {
  TraceEventWire p;
  p.t_us = r->ReadI64();
  p.seq = r->ReadU64();
  p.tid = r->ReadU32();
  p.reason = r->ReadU16();
  p.arg0 = r->ReadU32();
  p.arg1 = r->ReadU32();
  p.trace = r->ReadU64();
  p.parent = r->ReadU64();
  p.dur_us = r->ReadU32();
  return p;
}

void ServerTraceReply::Encode(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(events.size()));
  for (const TraceEventWire& e : events) {
    e.Encode(w);
  }
}

ServerTraceReply ServerTraceReply::Decode(ByteReader* r) {
  ServerTraceReply p;
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.events.push_back(TraceEventWire::Decode(r));
  }
  return p;
}

void GetRequestTraceReq::Encode(ByteWriter* w) const {
  w->WriteU64(trace_id);
  w->WriteU32(max_spans);
}

GetRequestTraceReq GetRequestTraceReq::Decode(ByteReader* r) {
  GetRequestTraceReq p;
  p.trace_id = r->ReadU64();
  p.max_spans = r->ReadU32();
  return p;
}

void RequestTraceReply::Encode(ByteWriter* w) const {
  w->WriteU32(trace_version);
  w->WriteU64(trace_id);
  w->WriteU32(static_cast<uint32_t>(spans.size()));
  for (const TraceEventWire& e : spans) {
    e.Encode(w);
  }
}

RequestTraceReply RequestTraceReply::Decode(ByteReader* r) {
  RequestTraceReply p;
  p.trace_version = r->ReadU32();
  p.trace_id = r->ReadU64();
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.spans.push_back(TraceEventWire::Decode(r));
  }
  return p;
}

void GetEntityStatsReq::Encode(ByteWriter* w) const { w->WriteU8(include_devices); }

GetEntityStatsReq GetEntityStatsReq::Decode(ByteReader* r) {
  GetEntityStatsReq p;
  p.include_devices = r->ReadU8();
  return p;
}

void ConnectionStatsWire::Encode(ByteWriter* w) const {
  w->WriteU32(index);
  w->WriteString(name);
  w->WriteU64(requests);
  w->WriteU64(errors);
  w->WriteU64(bytes_in);
  w->WriteU64(bytes_out);
  w->WriteU64(events_sent);
  w->WriteU64(events_dropped);
  EncodeHistogram(w, dispatch_us);
}

ConnectionStatsWire ConnectionStatsWire::Decode(ByteReader* r) {
  ConnectionStatsWire p;
  p.index = r->ReadU32();
  p.name = r->ReadString();
  p.requests = r->ReadU64();
  p.errors = r->ReadU64();
  p.bytes_in = r->ReadU64();
  p.bytes_out = r->ReadU64();
  p.events_sent = r->ReadU64();
  p.events_dropped = r->ReadU64();
  p.dispatch_us = DecodeHistogram(r);
  return p;
}

void DeviceStatsWire::Encode(ByteWriter* w) const {
  w->WriteU32(root);
  w->WriteU32(owner);
  w->WriteU8(active);
  w->WriteU64(frames_produced);
  w->WriteU64(frames_consumed);
}

DeviceStatsWire DeviceStatsWire::Decode(ByteReader* r) {
  DeviceStatsWire p;
  p.root = r->ReadU32();
  p.owner = r->ReadU32();
  p.active = r->ReadU8();
  p.frames_produced = r->ReadU64();
  p.frames_consumed = r->ReadU64();
  return p;
}

void EntityStatsReply::Encode(ByteWriter* w) const {
  w->WriteU32(entity_version);
  w->WriteU32(static_cast<uint32_t>(connections.size()));
  for (const ConnectionStatsWire& c : connections) {
    c.Encode(w);
  }
  w->WriteU32(static_cast<uint32_t>(devices.size()));
  for (const DeviceStatsWire& d : devices) {
    d.Encode(w);
  }
}

EntityStatsReply EntityStatsReply::Decode(ByteReader* r) {
  EntityStatsReply p;
  p.entity_version = r->ReadU32();
  uint32_t n = r->ReadU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    p.connections.push_back(ConnectionStatsWire::Decode(r));
  }
  uint32_t m = r->ReadU32();
  for (uint32_t i = 0; i < m && r->ok(); ++i) {
    p.devices.push_back(DeviceStatsWire::Decode(r));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

void EventMessage::Encode(ByteWriter* w) const { Encode(w, type, resource, server_time, args); }

EventMessage EventMessage::Decode(ByteReader* r) {
  EventMessage e;
  e.type = static_cast<EventType>(r->ReadU16());
  e.resource = r->ReadU32();
  e.server_time = r->ReadI64();
  e.args = r->ReadBlob();
  return e;
}

std::vector<uint8_t> CommandDoneArgs::Encode() const {
  ByteWriter w;
  Encode(&w);
  return w.Take();
}

CommandDoneArgs CommandDoneArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  CommandDoneArgs a;
  a.tag = r.ReadU32();
  a.command = r.ReadU16();
  a.aborted = r.ReadU8();
  return a;
}

std::vector<uint8_t> QueuePausedArgs::Encode() const {
  ByteWriter w;
  w.WriteU8(server_paused);
  return w.Take();
}

QueuePausedArgs QueuePausedArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  QueuePausedArgs a;
  a.server_paused = r.ReadU8();
  return a;
}

std::vector<uint8_t> TelephoneRingArgs::Encode() const {
  ByteWriter w;
  w.WriteString(caller_id);
  w.WriteU32(line);
  return w.Take();
}

TelephoneRingArgs TelephoneRingArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  TelephoneRingArgs a;
  a.caller_id = r.ReadString();
  a.line = r.ReadU32();
  return a;
}

std::vector<uint8_t> CallProgressArgs::Encode() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(state));
  return w.Take();
}

CallProgressArgs CallProgressArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  CallProgressArgs a;
  a.state = static_cast<CallState>(r.ReadU8());
  return a;
}

std::vector<uint8_t> DtmfReceivedArgs::Encode() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(digit));
  return w.Take();
}

DtmfReceivedArgs DtmfReceivedArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  DtmfReceivedArgs a;
  a.digit = static_cast<char>(r.ReadU8());
  return a;
}

std::vector<uint8_t> RecorderStoppedArgs::Encode() const {
  ByteWriter w;
  w.WriteU8(reason);
  w.WriteU64(samples);
  return w.Take();
}

RecorderStoppedArgs RecorderStoppedArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  RecorderStoppedArgs a;
  a.reason = r.ReadU8();
  a.samples = r.ReadU64();
  return a;
}

std::vector<uint8_t> RecognitionArgs::Encode() const {
  ByteWriter w;
  w.WriteString(word);
  w.WriteU32(score);
  return w.Take();
}

RecognitionArgs RecognitionArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  RecognitionArgs a;
  a.word = r.ReadString();
  a.score = r.ReadU32();
  return a;
}

std::vector<uint8_t> SyncMarkArgs::Encode() const {
  ByteWriter w;
  Encode(&w);
  return w.Take();
}

SyncMarkArgs SyncMarkArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  SyncMarkArgs a;
  a.position_samples = r.ReadU64();
  a.device_time = r.ReadI64();
  a.total_samples = r.ReadU64();
  return a;
}

std::vector<uint8_t> PropertyNotifyArgs::Encode() const {
  ByteWriter w;
  w.WriteString(name);
  w.WriteU8(deleted);
  return w.Take();
}

PropertyNotifyArgs PropertyNotifyArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  PropertyNotifyArgs a;
  a.name = r.ReadString();
  a.deleted = r.ReadU8();
  return a;
}

std::vector<uint8_t> MapRequestArgs::Encode() const {
  ByteWriter w;
  w.WriteU32(loud);
  w.WriteU8(raise);
  return w.Take();
}

MapRequestArgs MapRequestArgs::Decode(std::span<const uint8_t> args) {
  ByteReader r(args);
  MapRequestArgs a;
  a.loud = r.ReadU32();
  a.raise = r.ReadU8();
  return a;
}

// ---------------------------------------------------------------------------
// Errors & helpers
// ---------------------------------------------------------------------------

void ErrorMessage::Encode(ByteWriter* w) const {
  w->WriteU8(static_cast<uint8_t>(code));
  w->WriteU32(resource);
  w->WriteU16(opcode);
  w->WriteString(detail);
}

ErrorMessage ErrorMessage::Decode(ByteReader* r) {
  ErrorMessage e;
  e.code = static_cast<ErrorCode>(r->ReadU8());
  e.resource = r->ReadU32();
  e.opcode = r->ReadU16();
  e.detail = r->ReadString();
  return e;
}

void EncodeFormat(ByteWriter* w, const AudioFormat& f) {
  w->WriteU8(static_cast<uint8_t>(f.encoding));
  w->WriteU32(f.sample_rate_hz);
}

AudioFormat DecodeFormat(ByteReader* r) {
  AudioFormat f;
  f.encoding = static_cast<Encoding>(r->ReadU8());
  f.sample_rate_hz = r->ReadU32();
  return f;
}

std::vector<uint8_t> FrameMessage(MessageType type, uint16_t code, uint32_t sequence,
                                  std::span<const uint8_t> payload) {
  ByteWriter w;
  MessageHeader h;
  h.type = type;
  h.code = code;
  h.length = static_cast<uint32_t>(payload.size());
  h.sequence = sequence;
  h.Encode(&w);
  w.WriteBytes(payload);
  return w.Take();
}

}  // namespace aud
