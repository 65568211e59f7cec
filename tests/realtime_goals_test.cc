// The paper's real-time goals (section 6) on the wall clock: the engine
// runs in real time and each test holds one stated bound over repeated
// observations. The bounds have wide margins (E1 measures near 10 ms
// against 300 ms, E6 well under a millisecond of skew against 60 ms), so
// they hold on a loaded host; the figures themselves are in EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "tests/server_fixture.h"

namespace aud {
namespace {

int64_t NowNs() { return std::chrono::steady_clock::now().time_since_epoch().count(); }

// The sample at fraction `q` of the sorted values (0.5 median, 0.9 p90).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(static_cast<double>(values.size()) * q)];
}

class RealtimeGoalTest : public ServerFixture {
 protected:
  void StartRealtime() {
    server_->StartRealtime();
    toolkit_->set_time_pump({});  // real time: no virtual stepping
  }
};

// E1 (paper section 6): "start playback of a sound, using an existing
// server connection, in less than several hundred milliseconds". Wall time
// from the Play request to the first audible sample leaving the speaker's
// codec, over 25 trials: p90 under 300 ms.
TEST_F(RealtimeGoalTest, PlaybackStartsWithinSeveralHundredMs) {
  // Shared with the engine thread, which may call the sink until Shutdown.
  struct FirstSound {
    std::atomic<bool> armed{false};
    std::atomic<int64_t> at_ns{0};
  };
  auto first = std::make_shared<FirstSound>();
  board_->speakers()[0]->set_sink([first](std::span<const Sample> block) {
    if (!first->armed.load(std::memory_order_acquire)) {
      return;
    }
    for (Sample s : block) {
      if (std::abs(s) > 200) {
        first->at_ns.store(NowNs(), std::memory_order_release);
        first->armed.store(false, std::memory_order_release);
        return;
      }
    }
  });

  // 200 ms at a constant level, so the first sample is detectable.
  std::vector<Sample> pcm(1600, 8000);
  ResourceId sound = toolkit_->UploadSound(pcm, {Encoding::kPcm16, 8000});
  auto chain = toolkit_->BuildPlaybackChain();
  Flush();
  StartRealtime();

  std::vector<double> latencies_ms;
  for (uint32_t trial = 0; trial < 25; ++trial) {
    const uint32_t tag = 1000 + trial;
    first->at_ns.store(0);
    first->armed.store(true);
    const int64_t t0 = NowNs();
    client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, tag)});
    client_->StartQueue(chain.loud);
    ASSERT_TRUE(toolkit_->WaitCommandDone(tag, 5000)) << "trial " << trial;
    const int64_t t1 = first->at_ns.load();
    ASSERT_NE(t1, 0) << "trial " << trial << " played no audible sample";
    latencies_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    // Let the tail drain so trials do not overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  std::printf("E1 request->first audible sample: median %.1f ms, p90 %.1f ms (%zu trials)\n",
              Quantile(latencies_ms, 0.5), Quantile(latencies_ms, 0.9), latencies_ms.size());
  EXPECT_LT(Quantile(latencies_ms, 0.9), 300.0);
}

// E6 (paper section 5.7, figure 6-1): sync marks drive the Soundviewer's
// bar graph in step with the audio. Marks every 125 ms over 4 s of
// playback: the client sees them a median 100-150 ms apart, and each
// mark's audio position differs from its arrival's wall time (offset
// removed at the first mark) by under 60 ms at p90.
TEST_F(RealtimeGoalTest, SyncMarksTrackTheAudio) {
  std::vector<Sample> pcm(8000 * 4, 5000);
  ResourceId sound = toolkit_->UploadSound(pcm, {Encoding::kPcm16, 8000});
  auto chain = toolkit_->BuildPlaybackChain();
  client_->SetSyncMarks(chain.loud, 125);
  Flush();
  StartRealtime();

  client_->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1)});
  client_->StartQueue(chain.loud);
  struct Mark {
    double wall_ms;   // arrival, since the test started playback
    double audio_ms;  // the position the mark reports
  };
  std::vector<Mark> marks;
  const int64_t start = NowNs();
  EventMessage event;
  while (client_->WaitEvent(&event, 8000) && event.type != EventType::kCommandDone) {
    if (event.type == EventType::kSyncMark) {
      marks.push_back({static_cast<double>(NowNs() - start) / 1e6,
                       static_cast<double>(SyncMarkArgs::Decode(event.args).position_samples) /
                           8.0});
    }
  }
  ASSERT_GE(marks.size(), 8u);

  std::vector<double> intervals;
  std::vector<double> skews;
  for (size_t i = 0; i < marks.size(); ++i) {
    if (i > 0) {
      intervals.push_back(marks[i].wall_ms - marks[i - 1].wall_ms);
    }
    skews.push_back(std::abs((marks[i].wall_ms - marks[0].wall_ms) -
                             (marks[i].audio_ms - marks[0].audio_ms)));
  }
  const double interval_median = Quantile(intervals, 0.5);
  std::printf("E6 %zu marks: median interval %.1f ms, audio-vs-wall skew p90 %.1f ms\n",
              marks.size(), interval_median, Quantile(skews, 0.9));
  EXPECT_GT(interval_median, 100.0);
  EXPECT_LT(interval_median, 150.0);
  EXPECT_LT(Quantile(skews, 0.9), 60.0);
}

}  // namespace
}  // namespace aud
