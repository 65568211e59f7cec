// Typed request wrappers and command builders: the bulk of the Alib
// procedural surface.

#include "src/alib/alib.h"

namespace aud {

void AudioConnection::NoOp() { Send<Opcode::kNoOp>({}); }

// -- LOUD tree ---------------------------------------------------------------

ResourceId AudioConnection::CreateLoud(ResourceId parent, const AttrList& attrs) {
  const ResourceId id = AllocId();
  Send<Opcode::kCreateLoud>({id, parent, attrs});
  return id;
}

void AudioConnection::DestroyLoud(ResourceId loud) { Send<Opcode::kDestroyLoud>({loud}); }

ResourceId AudioConnection::CreateDevice(ResourceId loud, DeviceClass device_class,
                                         const AttrList& attrs) {
  const ResourceId id = AllocId();
  Send<Opcode::kCreateVirtualDevice>({id, loud, device_class, attrs});
  return id;
}

void AudioConnection::DestroyDevice(ResourceId device) {
  Send<Opcode::kDestroyVirtualDevice>({device});
}

void AudioConnection::AugmentDevice(ResourceId device, const AttrList& attrs) {
  Send<Opcode::kAugmentVirtualDevice>({device, attrs});
}

Result<VirtualDeviceReply> AudioConnection::QueryDevice(ResourceId device) {
  return Call<Opcode::kQueryVirtualDevice>({device});
}

// -- Wires ----------------------------------------------------------------------

ResourceId AudioConnection::CreateWire(ResourceId src_device, uint16_t src_port,
                                       ResourceId dst_device, uint16_t dst_port) {
  const ResourceId id = AllocId();
  Send<Opcode::kCreateWire>({id, src_device, src_port, dst_device, dst_port, 0, {}});
  return id;
}

ResourceId AudioConnection::CreateTypedWire(ResourceId src_device, uint16_t src_port,
                                            ResourceId dst_device, uint16_t dst_port,
                                            AudioFormat format) {
  const ResourceId id = AllocId();
  Send<Opcode::kCreateWire>({id, src_device, src_port, dst_device, dst_port, 1, format});
  return id;
}

void AudioConnection::DestroyWire(ResourceId wire) { Send<Opcode::kDestroyWire>({wire}); }

Result<WiresReply> AudioConnection::QueryWires(ResourceId device) {
  return Call<Opcode::kQueryWires>({device});
}

// -- Mapping ------------------------------------------------------------------------

void AudioConnection::MapLoud(ResourceId loud, bool override_redirect) {
  Send<Opcode::kMapLoud>({loud, override_redirect ? uint8_t{1} : uint8_t{0}});
}

void AudioConnection::UnmapLoud(ResourceId loud) { Send<Opcode::kUnmapLoud>({loud}); }

void AudioConnection::RaiseLoud(ResourceId loud, bool override_redirect) {
  Send<Opcode::kRaiseLoud>({loud, override_redirect ? uint8_t{1} : uint8_t{0}});
}

void AudioConnection::LowerLoud(ResourceId loud, bool override_redirect) {
  Send<Opcode::kLowerLoud>({loud, override_redirect ? uint8_t{1} : uint8_t{0}});
}

Result<LoudStateReply> AudioConnection::QueryLoud(ResourceId loud) {
  return Call<Opcode::kQueryLoud>({loud});
}

// -- Sounds --------------------------------------------------------------------------

ResourceId AudioConnection::CreateSound(AudioFormat format) {
  const ResourceId id = AllocId();
  Send<Opcode::kCreateSound>({id, format});
  return id;
}

void AudioConnection::DestroySound(ResourceId sound) { Send<Opcode::kDestroySound>({sound}); }

void AudioConnection::WriteSound(ResourceId sound, uint64_t offset,
                                 std::span<const uint8_t> data) {
  Send<Opcode::kWriteSoundData>({sound, offset, {data.begin(), data.end()}});
}

Result<std::vector<uint8_t>> AudioConnection::ReadSound(ResourceId sound, uint64_t offset,
                                                        uint32_t length) {
  auto reply = Call<Opcode::kReadSoundData>({sound, offset, length});
  if (!reply.ok()) {
    return reply.status();
  }
  return std::move(reply.value().data);
}

Result<SoundInfoReply> AudioConnection::QuerySound(ResourceId sound) {
  return Call<Opcode::kQuerySound>({sound});
}

ResourceId AudioConnection::LoadCatalogueSound(const std::string& name) {
  const ResourceId id = AllocId();
  Send<Opcode::kLoadCatalogueSound>({id, name});
  return id;
}

void AudioConnection::SaveCatalogueSound(ResourceId sound, const std::string& name) {
  Send<Opcode::kSaveCatalogueSound>({sound, name});
}

Result<CatalogueReply> AudioConnection::ListCatalogue() {
  return Call<Opcode::kListCatalogue>({});
}

// -- Queues ------------------------------------------------------------------------------

void AudioConnection::Enqueue(ResourceId loud, const std::vector<CommandSpec>& commands) {
  Send<Opcode::kEnqueueCommands>({loud, commands});
}

void AudioConnection::Immediate(ResourceId loud, const CommandSpec& command) {
  Send<Opcode::kImmediateCommand>({loud, command});
}

void AudioConnection::StartQueue(ResourceId loud) { Send<Opcode::kStartQueue>({loud}); }

void AudioConnection::StopQueue(ResourceId loud) { Send<Opcode::kStopQueue>({loud}); }

void AudioConnection::PauseQueue(ResourceId loud) { Send<Opcode::kPauseQueue>({loud}); }

void AudioConnection::ResumeQueue(ResourceId loud) { Send<Opcode::kResumeQueue>({loud}); }

void AudioConnection::FlushQueue(ResourceId loud) { Send<Opcode::kFlushQueue>({loud}); }

Result<QueueStateReply> AudioConnection::QueryQueue(ResourceId loud) {
  return Call<Opcode::kQueryQueue>({loud});
}

// -- Events / properties / manager ---------------------------------------------------------

void AudioConnection::SelectEvents(ResourceId resource, uint32_t mask) {
  Send<Opcode::kSelectEvents>({resource, mask});
}

void AudioConnection::SetSyncMarks(ResourceId loud, uint32_t interval_ms) {
  Send<Opcode::kSetSyncMarks>({loud, interval_ms});
}

void AudioConnection::ChangeProperty(ResourceId resource, const std::string& name,
                                     const std::string& type,
                                     std::span<const uint8_t> value) {
  Send<Opcode::kChangeProperty>({resource, name, type, {value.begin(), value.end()}});
}

void AudioConnection::DeleteProperty(ResourceId resource, const std::string& name) {
  Send<Opcode::kDeleteProperty>({resource, name});
}

Result<PropertyReply> AudioConnection::GetProperty(ResourceId resource,
                                                   const std::string& name) {
  return Call<Opcode::kGetProperty>({resource, name});
}

Result<PropertyListReply> AudioConnection::ListProperties(ResourceId resource) {
  return Call<Opcode::kListProperties>({resource});
}

void AudioConnection::SetRedirect(bool enable) {
  Send<Opcode::kSetRedirect>({enable ? uint8_t{1} : uint8_t{0}});
}

Result<DeviceLoudReply> AudioConnection::QueryDeviceLoud() {
  return Call<Opcode::kQueryDeviceLoud>({});
}

Result<ActiveStackReply> AudioConnection::QueryActiveStack() {
  return Call<Opcode::kQueryActiveStack>({});
}

Result<int64_t> AudioConnection::GetServerTime() {
  auto reply = Call<Opcode::kGetServerTime>({});
  if (!reply.ok()) {
    return reply.status();
  }
  return reply.value().server_time;
}

Result<ServerStatsReply> AudioConnection::GetServerStats(bool include_opcodes) {
  return Call<Opcode::kGetServerStats>({include_opcodes ? uint8_t{1} : uint8_t{0}});
}

Result<ServerTraceReply> AudioConnection::GetServerTrace(uint32_t max_events) {
  return Call<Opcode::kGetServerTrace>({max_events});
}

Result<RequestTraceReply> AudioConnection::GetRequestTrace(uint64_t trace_id,
                                                           uint32_t max_spans) {
  return Call<Opcode::kGetRequestTrace>({trace_id, max_spans});
}

Result<EntityStatsReply> AudioConnection::GetEntityStats(bool include_devices) {
  return Call<Opcode::kGetEntityStats>({include_devices ? uint8_t{1} : uint8_t{0}});
}

// -- Command builders ---------------------------------------------------------------------

namespace {
CommandSpec MakeCommand(ResourceId device, DeviceCommand command, uint32_t tag,
                        std::vector<uint8_t> args = {}) {
  CommandSpec spec;
  spec.device = device;
  spec.command = command;
  spec.tag = tag;
  spec.args = std::move(args);
  return spec;
}
}  // namespace

CommandSpec PlayCommand(ResourceId device, ResourceId sound, uint32_t tag,
                        int64_t start_sample, int64_t end_sample) {
  PlayArgs args{sound, start_sample, end_sample};
  return MakeCommand(device, DeviceCommand::kPlay, tag, args.Encode());
}

CommandSpec RecordCommand(ResourceId device, ResourceId sound, uint8_t termination,
                          uint32_t max_ms, uint32_t tag) {
  RecordArgs args{sound, termination, max_ms};
  return MakeCommand(device, DeviceCommand::kRecord, tag, args.Encode());
}

CommandSpec StopCommand(ResourceId device, uint32_t tag) {
  return MakeCommand(device, DeviceCommand::kStop, tag);
}

CommandSpec PauseCommand(ResourceId device, uint32_t tag) {
  return MakeCommand(device, DeviceCommand::kPause, tag);
}

CommandSpec ResumeCommand(ResourceId device, uint32_t tag) {
  return MakeCommand(device, DeviceCommand::kResume, tag);
}

CommandSpec ChangeGainCommand(ResourceId device, int32_t gain, uint32_t tag) {
  GainArgs args{gain};
  return MakeCommand(device, DeviceCommand::kChangeGain, tag, args.Encode());
}

CommandSpec DialCommand(ResourceId device, const std::string& number, uint32_t tag) {
  StringArg args{number};
  return MakeCommand(device, DeviceCommand::kDial, tag, args.Encode());
}

CommandSpec AnswerCommand(ResourceId device, uint32_t tag) {
  return MakeCommand(device, DeviceCommand::kAnswer, tag);
}

CommandSpec HangUpCommand(ResourceId device, uint32_t tag) {
  return MakeCommand(device, DeviceCommand::kHangUp, tag);
}

CommandSpec SendDtmfCommand(ResourceId device, const std::string& digits, uint32_t tag) {
  StringArg args{digits};
  return MakeCommand(device, DeviceCommand::kSendDtmf, tag, args.Encode());
}

CommandSpec SetInputGainCommand(ResourceId device, uint16_t input, int32_t gain,
                                uint32_t tag) {
  InputGainArgs args{input, gain};
  return MakeCommand(device, DeviceCommand::kSetInputGain, tag, args.Encode());
}

CommandSpec SpeakTextCommand(ResourceId device, const std::string& text, uint32_t tag) {
  StringArg args{text};
  return MakeCommand(device, DeviceCommand::kSpeakText, tag, args.Encode());
}

CommandSpec SetTextLanguageCommand(ResourceId device, const std::string& language,
                                   uint32_t tag) {
  StringArg args{language};
  return MakeCommand(device, DeviceCommand::kSetTextLanguage, tag, args.Encode());
}

CommandSpec SetValuesCommand(ResourceId device, const AttrList& values, uint32_t tag) {
  ValuesArgs args{values};
  return MakeCommand(device, DeviceCommand::kSetValues, tag, args.Encode());
}

CommandSpec SetExceptionListCommand(
    ResourceId device, const std::vector<std::pair<std::string, std::string>>& entries,
    uint32_t tag) {
  ExceptionListArgs args{entries};
  return MakeCommand(device, DeviceCommand::kSetExceptionList, tag, args.Encode());
}

CommandSpec TrainCommand(ResourceId device, const std::string& word, ResourceId sound,
                         uint32_t tag) {
  TrainArgs args{word, sound};
  return MakeCommand(device, DeviceCommand::kTrain, tag, args.Encode());
}

CommandSpec SetVocabularyCommand(ResourceId device, const std::vector<std::string>& words,
                                 uint32_t tag) {
  WordListArgs args{words};
  return MakeCommand(device, DeviceCommand::kSetVocabulary, tag, args.Encode());
}

CommandSpec AdjustContextCommand(ResourceId device, const std::vector<std::string>& words,
                                 uint32_t tag) {
  WordListArgs args{words};
  return MakeCommand(device, DeviceCommand::kAdjustContext, tag, args.Encode());
}

CommandSpec SaveVocabularyCommand(ResourceId device, const std::string& name, uint32_t tag) {
  StringArg args{name};
  return MakeCommand(device, DeviceCommand::kSaveVocabulary, tag, args.Encode());
}

CommandSpec NoteCommand(ResourceId device, uint8_t midi_note, uint8_t velocity,
                        uint32_t duration_ms, uint32_t tag) {
  NoteArgs args{midi_note, velocity, duration_ms};
  return MakeCommand(device, DeviceCommand::kNote, tag, args.Encode());
}

CommandSpec SetVoiceCommand(ResourceId device, const VoiceArgs& voice, uint32_t tag) {
  return MakeCommand(device, DeviceCommand::kSetVoice, tag, voice.Encode());
}

CommandSpec SetCrossbarStateCommand(ResourceId device, const CrossbarStateArgs& state,
                                    uint32_t tag) {
  return MakeCommand(device, DeviceCommand::kSetState, tag, state.Encode());
}

CommandSpec CoBeginCommand() {
  return MakeCommand(kNoResource, DeviceCommand::kCoBegin, 0);
}

CommandSpec CoEndCommand() { return MakeCommand(kNoResource, DeviceCommand::kCoEnd, 0); }

CommandSpec DelayCommand(uint32_t milliseconds) {
  DelayArgs args{milliseconds};
  return MakeCommand(kNoResource, DeviceCommand::kDelay, 0, args.Encode());
}

CommandSpec DelayEndCommand() {
  return MakeCommand(kNoResource, DeviceCommand::kDelayEnd, 0);
}

}  // namespace aud
