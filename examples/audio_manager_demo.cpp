// Audio-manager demo (sections 4.3 and 5.8): a manager client claims
// map/restack redirection and enforces a focus-follows-map policy over
// two competing applications wanting the single telephone line — the
// audio-domain analogue of a window manager arbitrating screen space.

#include <cstdio>

#include "examples/example_util.h"
#include "src/toolkit/audio_manager.h"
#include "src/transport/socket_stream.h"

int main(int argc, char** argv) {
  using namespace aud;

  ExampleWorld world("app-one", BoardConfig{}, argc, argv);
  AudioConnection& app1 = world.client();

  // Second application and the manager get their own connections.
  auto connect = [&](const char* name) {
    auto [client_end, server_end] = CreatePipePair();
    world.server().AddConnection(std::move(server_end));
    return AudioConnection::Open(std::move(client_end), name);
  };
  auto app2 = connect("app-two");
  auto manager_conn = connect("audio-manager");

  AudioManager manager(manager_conn.get(), AudioManager::Policy::kFocusFollowsMap);
  (void)manager_conn->Sync();
  std::printf("manager holds redirection with focus-follows-map policy\n");

  auto build_phone_app = [](AudioConnection& conn) {
    ResourceId loud = conn.CreateLoud(kNoResource, {});
    conn.CreateDevice(loud, DeviceClass::kTelephone, {});
    conn.SelectEvents(loud, kLifecycleEvents);
    return loud;
  };
  ResourceId loud1 = build_phone_app(app1);
  ResourceId loud2 = build_phone_app(*app2);

  auto pump_manager = [&] {
    for (int i = 0; i < 200; ++i) {
      world.server().StepFrames(160);
      if (manager.Pump() > 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  auto report = [&](const char* when) {
    (void)app1.Sync();
    (void)app2->Sync();
    auto s1 = app1.QueryLoud(loud1);
    auto s2 = app2->QueryLoud(loud2);
    std::printf("%-28s app1{mapped=%d active=%d}  app2{mapped=%d active=%d}\n", when,
                s1.ok() ? s1.value().mapped : -1, s1.ok() ? s1.value().active : -1,
                s2.ok() ? s2.value().mapped : -1, s2.ok() ? s2.value().active : -1);
  };

  std::printf("app1 asks to map (redirected to the manager)...\n");
  app1.MapLoud(loud1);
  (void)app1.Sync();
  if (!pump_manager()) {
    std::printf("manager never saw the request\n");
    return 1;
  }
  report("after app1 map:");

  std::printf("app2 asks to map; focus policy lowers app1...\n");
  app2->MapLoud(loud2);
  (void)app2->Sync();
  if (!pump_manager()) {
    return 1;
  }
  report("after app2 map:");

  std::printf("app1 asks to be raised (redirected restack)...\n");
  app1.RaiseLoud(loud1);
  (void)app1.Sync();
  if (!pump_manager()) {
    return 1;
  }
  report("after app1 raise:");

  auto s1 = app1.QueryLoud(loud1);
  auto s2 = app2->QueryLoud(loud2);
  bool ok = s1.ok() && s2.ok() && s1.value().active == 1 && s2.value().active == 0;
  std::printf("audio manager demo %s\n", ok ? "complete" : "FAILED");
  return ok ? 0 : 1;
}
