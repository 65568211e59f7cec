#include "src/toolkit/audio_manager.h"

#include <algorithm>

namespace aud {

AudioManager::AudioManager(AudioConnection* connection, Policy policy)
    : conn_(connection), policy_(policy) {
  conn_->SetRedirect(true);
}

AudioManager::~AudioManager() {
  if (conn_->connected()) {
    conn_->SetRedirect(false);
  }
}

int AudioManager::Pump() {
  int handled = 0;
  EventMessage event;
  while (conn_->PollEvent(&event)) {
    if (event.type == EventType::kMapRequest) {
      MapRequestArgs args = MapRequestArgs::Decode(event.args);
      HandleMapRequest(args.loud);
      ++handled;
    } else if (event.type == EventType::kRestackRequest) {
      MapRequestArgs args = MapRequestArgs::Decode(event.args);
      HandleRestackRequest(args.loud, args.raise != 0);
      ++handled;
    }
  }
  return handled;
}

void AudioManager::HandleMapRequest(ResourceId loud) {
  const bool allow = filter_ ? filter_(loud) : policy_ != Policy::kDenyAll;
  if (!allow) {
    return;
  }
  if (policy_ == Policy::kFocusFollowsMap) {
    // Push everything we previously admitted below the newcomer.
    for (ResourceId other : managed_) {
      conn_->LowerLoud(other, /*override_redirect=*/true);
    }
  }
  conn_->MapLoud(loud, /*override_redirect=*/true);
  std::erase(managed_, loud);
  managed_.insert(managed_.begin(), loud);
}

void AudioManager::HandleRestackRequest(ResourceId loud, bool raise) {
  if (policy_ == Policy::kDenyAll) {
    return;
  }
  if (raise) {
    conn_->RaiseLoud(loud, /*override_redirect=*/true);
    std::erase(managed_, loud);
    managed_.insert(managed_.begin(), loud);
  } else {
    conn_->LowerLoud(loud, /*override_redirect=*/true);
  }
}

}  // namespace aud
