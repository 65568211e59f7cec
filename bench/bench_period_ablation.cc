// Ablation: engine period size. The period is the server's fundamental
// latency/efficiency knob — the paper's start-latency goal (E1) is bounded
// below by it, while per-tick overhead is amortized across it. Sweeps the
// period and reports per-tick cost, per-second-of-audio cost, and the
// implied worst-case command-start latency.

#include <chrono>

#include "bench/bench_util.h"

namespace aud {
namespace {

int Run() {
  PrintHeader("Ablation: engine period size",
              "playback start latency is bounded by the period; tick overhead is "
              "amortized across it (DESIGN.md decision 2)");

  std::printf("%-14s %-14s %-18s %-22s\n", "period", "tick cost", "cost/audio-sec",
              "worst-case start lat.");
  bool all_realtime = true;
  for (size_t period : {40u, 80u, 160u, 320u, 800u}) {
    ServerOptions options;
    options.period_frames = period;
    BenchWorld world(BoardConfig{}, options);
    AudioToolkit& toolkit = world.toolkit();
    AudioConnection& client = world.client();
    toolkit.set_time_pump([&] { world.server().StepFrames(static_cast<int64_t>(period)); });

    // 8 active chains playing long sounds.
    std::vector<AudioToolkit::PlaybackChain> chains;
    std::vector<Sample> pcm(8000 * 30, 100);
    for (int i = 0; i < 8; ++i) {
      ResourceId sound = toolkit.UploadSound(pcm, {Encoding::kPcm16, 8000});
      auto chain = toolkit.BuildPlaybackChain();
      client.Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
      client.StartQueue(chain.loud);
      chains.push_back(chain);
    }
    (void)client.Sync();
    world.server().StepFrames(static_cast<int64_t>(period));

    // Time 10 s of audio worth of ticks.
    size_t ticks = 10 * 8000 / period;
    auto t0 = std::chrono::steady_clock::now();
    for (size_t t = 0; t < ticks; ++t) {
      world.server().StepFrames(static_cast<int64_t>(period));
    }
    auto t1 = std::chrono::steady_clock::now();
    double total_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    double tick_us = total_us / static_cast<double>(ticks);
    double per_audio_second_us = total_us / 10.0;
    double period_ms = static_cast<double>(period) / 8.0;
    all_realtime = all_realtime && per_audio_second_us < 1e6;

    std::printf("%5.1f ms %10.1f us %13.0f us/s %15.1f ms\n", period_ms, tick_us,
                per_audio_second_us, period_ms);
  }
  std::printf("observation: smaller periods buy latency with more ticks; all stay\n"
              "far above real time, so the 20 ms default favors latency (E1).\n");
  std::printf("verdict (every period real-time capable with 8 streams): %s\n",
              all_realtime ? "MET" : "MISSED");
  return all_realtime ? 0 : 1;
}

}  // namespace
}  // namespace aud

int main() { return aud::Run(); }
