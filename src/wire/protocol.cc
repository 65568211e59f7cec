#include "src/wire/protocol.h"

#include <iterator>

namespace aud {

std::string_view DeviceClassName(DeviceClass cls) {
  switch (cls) {
    case DeviceClass::kInput:
      return "input";
    case DeviceClass::kOutput:
      return "output";
    case DeviceClass::kPlayer:
      return "player";
    case DeviceClass::kRecorder:
      return "recorder";
    case DeviceClass::kTelephone:
      return "telephone";
    case DeviceClass::kMixer:
      return "mixer";
    case DeviceClass::kSpeechSynthesizer:
      return "speech-synthesizer";
    case DeviceClass::kSpeechRecognizer:
      return "speech-recognizer";
    case DeviceClass::kMusicSynthesizer:
      return "music-synthesizer";
    case DeviceClass::kCrossbar:
      return "crossbar";
    case DeviceClass::kDsp:
      return "dsp";
  }
  return "unknown";
}

std::string_view OpcodeName(Opcode opcode) {
  static constexpr std::string_view kNames[] = {
#define AUD_OPCODE_NAME(name, ...) #name,
      AUD_OPCODES(AUD_OPCODE_NAME)
#undef AUD_OPCODE_NAME
  };
  auto index = static_cast<size_t>(opcode);
  if (index >= std::size(kNames)) {
    return "unknown";
  }
  return kNames[index];
}

std::string_view DeviceCommandName(DeviceCommand cmd) {
  switch (cmd) {
    case DeviceCommand::kStop:
      return "Stop";
    case DeviceCommand::kPause:
      return "Pause";
    case DeviceCommand::kResume:
      return "Resume";
    case DeviceCommand::kChangeGain:
      return "ChangeGain";
    case DeviceCommand::kPlay:
      return "Play";
    case DeviceCommand::kRecord:
      return "Record";
    case DeviceCommand::kDial:
      return "Dial";
    case DeviceCommand::kAnswer:
      return "Answer";
    case DeviceCommand::kHangUp:
      return "HangUp";
    case DeviceCommand::kSendDtmf:
      return "SendDTMF";
    case DeviceCommand::kSetInputGain:
      return "SetInputGain";
    case DeviceCommand::kSpeakText:
      return "SpeakText";
    case DeviceCommand::kSetTextLanguage:
      return "SetTextLanguage";
    case DeviceCommand::kSetValues:
      return "SetValues";
    case DeviceCommand::kSetExceptionList:
      return "SetExceptionList";
    case DeviceCommand::kTrain:
      return "Train";
    case DeviceCommand::kSetVocabulary:
      return "SetVocabulary";
    case DeviceCommand::kAdjustContext:
      return "AdjustContext";
    case DeviceCommand::kSaveVocabulary:
      return "SaveVocabulary";
    case DeviceCommand::kNote:
      return "Note";
    case DeviceCommand::kSetVoice:
      return "SetVoice";
    case DeviceCommand::kSetState:
      return "SetState";
    case DeviceCommand::kCoBegin:
      return "CoBegin";
    case DeviceCommand::kCoEnd:
      return "CoEnd";
    case DeviceCommand::kDelay:
      return "Delay";
    case DeviceCommand::kDelayEnd:
      return "DelayEnd";
  }
  return "unknown";
}

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kQueueStarted:
      return "QueueStarted";
    case EventType::kQueueStopped:
      return "QueueStopped";
    case EventType::kQueuePaused:
      return "QueuePaused";
    case EventType::kQueueResumed:
      return "QueueResumed";
    case EventType::kCommandDone:
      return "CommandDone";
    case EventType::kMapNotify:
      return "MapNotify";
    case EventType::kUnmapNotify:
      return "UnmapNotify";
    case EventType::kActivateNotify:
      return "ActivateNotify";
    case EventType::kDeactivateNotify:
      return "DeactivateNotify";
    case EventType::kMapRequest:
      return "MapRequest";
    case EventType::kRestackRequest:
      return "RestackRequest";
    case EventType::kTelephoneRing:
      return "TelephoneRing";
    case EventType::kTelephoneAnswered:
      return "TelephoneAnswered";
    case EventType::kTelephoneDialDone:
      return "TelephoneDialDone";
    case EventType::kCallProgress:
      return "CallProgress";
    case EventType::kDtmfReceived:
      return "DtmfReceived";
    case EventType::kRecorderStarted:
      return "RecorderStarted";
    case EventType::kRecorderStopped:
      return "RecorderStopped";
    case EventType::kRecognition:
      return "Recognition";
    case EventType::kSyncMark:
      return "SyncMark";
    case EventType::kPropertyNotify:
      return "PropertyNotify";
    case EventType::kEventTypeCount:
      break;
  }
  return "unknown";
}

std::string_view CallStateName(CallState state) {
  switch (state) {
    case CallState::kIdle:
      return "idle";
    case CallState::kDialing:
      return "dialing";
    case CallState::kRinging:
      return "ringing";
    case CallState::kConnected:
      return "connected";
    case CallState::kBusy:
      return "busy";
    case CallState::kHungUp:
      return "hung-up";
    case CallState::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string_view QueueStateName(QueueState state) {
  switch (state) {
    case QueueState::kStopped:
      return "stopped";
    case QueueState::kStarted:
      return "started";
    case QueueState::kClientPaused:
      return "client-paused";
    case QueueState::kServerPaused:
      return "server-paused";
  }
  return "unknown";
}

}  // namespace aud
