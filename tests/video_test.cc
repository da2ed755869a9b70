#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "base/rng.h"
#include "f1/frame_render.h"
#include "image/draw.h"
#include "video/replay.h"
#include "video/shot_detection.h"
#include "video/visual_cues.h"

namespace cobra::video {
namespace {

image::Frame Flat(uint8_t v) { return image::Frame(64, 48, {v, v, v}); }

TEST(ShotDetectionTest, DetectsHardCut) {
  ShotBoundaryDetector detector;
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(detector.Push(Flat(60)));
  EXPECT_TRUE(detector.Push(Flat(200)));
}

TEST(ShotDetectionTest, IgnoresSmallChanges) {
  ShotBoundaryDetector detector;
  Rng rng(3);
  image::Frame frame = Flat(120);
  for (int i = 0; i < 30; ++i) {
    image::Frame noisy = frame;
    image::AddGaussianNoise(noisy, 4.0, rng);
    EXPECT_FALSE(detector.Push(noisy));
  }
}

TEST(ShotDetectionTest, RefractoryPeriodSuppressesDoubleCuts) {
  ShotBoundaryDetector::Options options;
  options.min_shot_frames = 5;
  ShotBoundaryDetector detector(options);
  for (int i = 0; i < 6; ++i) detector.Push(Flat(60));
  EXPECT_TRUE(detector.Push(Flat(200)));
  // Immediate second flash is suppressed.
  EXPECT_FALSE(detector.Push(Flat(60)));
}

TEST(ShotDetectionTest, OfflineHelper) {
  std::vector<image::Frame> frames;
  for (int i = 0; i < 8; ++i) frames.push_back(Flat(50));
  for (int i = 0; i < 8; ++i) frames.push_back(Flat(220));
  auto boundaries = DetectShotBoundaries(frames);
  ASSERT_EQ(boundaries.size(), 1u);
  EXPECT_EQ(boundaries[0], 8u);
}

TEST(ReplayTest, DveStripeTogglesReplay) {
  ReplayDetector detector;
  image::Frame base(160, 48, {100, 100, 100});
  auto dve_frames = [&](int offset) {
    // A bright stripe sweeping across several frames.
    std::vector<image::Frame> frames;
    for (int i = 0; i < 5; ++i) {
      image::Frame f = base;
      image::FillRect(f, offset + i * 20, 0, 18, 48, {250, 250, 250});
      frames.push_back(f);
    }
    return frames;
  };
  // Static lead-in.
  for (int i = 0; i < 20; ++i) detector.Push(base);
  EXPECT_FALSE(detector.in_replay());
  // Opening DVE.
  for (auto& f : dve_frames(0)) detector.Push(f);
  for (int i = 0; i < 3; ++i) detector.Push(base);
  EXPECT_TRUE(detector.in_replay());
  // Quiet replay content.
  for (int i = 0; i < 40; ++i) detector.Push(base);
  EXPECT_TRUE(detector.in_replay());
  // Closing DVE.
  for (auto& f : dve_frames(0)) detector.Push(f);
  for (int i = 0; i < 3; ++i) detector.Push(base);
  EXPECT_FALSE(detector.in_replay());
}

TEST(ReplayTest, UniformMotionIsNotADve) {
  ReplayDetector detector;
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    image::Frame f(160, 48);
    image::FillNoise(f, 0, 255, rng);  // full-frame chaos
    detector.Push(f);
  }
  EXPECT_FALSE(detector.in_replay());
}

TEST(ReplayTest, TimeoutForceCloses) {
  ReplayDetector::Options options;
  options.max_replay_frames = 30;
  ReplayDetector detector(options);
  image::Frame base(160, 48, {100, 100, 100});
  for (int i = 0; i < 20; ++i) detector.Push(base);
  for (int i = 0; i < 5; ++i) {
    image::Frame f = base;
    image::FillRect(f, i * 20, 0, 18, 48, {250, 250, 250});
    detector.Push(f);
  }
  for (int i = 0; i < 40; ++i) detector.Push(base);
  EXPECT_FALSE(detector.in_replay());
}

/// Frames of a rendered 12-s broadcast at 25 fps from 2 s to 9.5 s, across
/// a replay [3 s, 8 s) and so across both DVE wipes that bracket it. Frame
/// `odd_one` is cropped to another size.
std::vector<image::Frame> RenderedReplay(size_t odd_one) {
  f1::RaceTimeline race;
  race.profile.duration_sec = 12.0;
  race.events.push_back({"replay", 3.0, 8.0, {{"source", "flyout"}}});
  const f1::FrameRenderer renderer(race);
  std::vector<image::Frame> frames;
  for (int i = 50; i < 238; ++i) frames.push_back(renderer.Render(i / 25.0));
  image::Frame& odd = frames.at(odd_one);
  odd = odd.Crop(0, 0, odd.width() / 2, odd.height());
  return frames;
}

TEST(ReplayTest, PushIsStripePairFoldedByPushStripe) {
  const std::vector<image::Frame> frames = RenderedReplay(100);
  ReplayDetector whole;
  ReplayDetector split;
  size_t unpaired = 0;
  size_t replay_frames = 0;
  size_t edges = 0;
  bool was_in_replay = false;
  for (size_t i = 0; i < frames.size(); ++i) {
    const image::Frame& cur = frames[i];
    const bool paired = i > 0 && frames[i - 1].width() == cur.width() &&
                        frames[i - 1].height() == cur.height();
    const bool stripe = paired && split.StripePair(frames[i - 1], cur);
    const bool want = whole.Push(cur);
    EXPECT_EQ(split.PushStripe(paired, stripe), want) << "frame " << i;
    EXPECT_EQ(split.dve_active(), whole.dve_active()) << "frame " << i;
    EXPECT_EQ(split.in_replay(), whole.in_replay()) << "frame " << i;
    unpaired += !paired;
    replay_frames += want;
    edges += want != was_in_replay;
    was_in_replay = want;
  }
  // The first frame, the odd-sized one and the frame after it.
  EXPECT_EQ(unpaired, 3u);
  // Both wipes were seen: the replay opened and closed.
  EXPECT_EQ(edges, 2u);
  EXPECT_GT(replay_frames, 100u);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

TEST(VisualAnalyzerTest, AnalyzeClipIsCuesPlusReplayPushes) {
  // Clip pairs 40 ms apart across the replay: every cue equals Cues() to
  // the bit and the replay flag follows a detector fed both frames.
  const std::vector<image::Frame> frames = RenderedReplay(0);
  VisualAnalyzer analyzer;
  ReplayDetector replay;
  bool saw_replay = false;
  for (size_t i = 1; i + 1 < frames.size(); i += 2) {
    const image::Frame& a = frames[i];
    const image::Frame& b = frames[i + 1];
    const VideoClipFeatures got = analyzer.AnalyzeClip(a, b);
    const VideoClipFeatures cues = analyzer.Cues(a, b);
    replay.Push(a);
    const bool in_replay = replay.Push(b);
    EXPECT_EQ(got.replay, in_replay ? 1.0 : 0.0) << "pair " << i;
    EXPECT_EQ(cues.replay, 0.0);
    EXPECT_EQ(Bits(got.color_diff), Bits(cues.color_diff)) << "pair " << i;
    EXPECT_EQ(Bits(got.semaphore), Bits(cues.semaphore)) << "pair " << i;
    EXPECT_EQ(Bits(got.dust), Bits(cues.dust)) << "pair " << i;
    EXPECT_EQ(Bits(got.sand), Bits(cues.sand)) << "pair " << i;
    EXPECT_EQ(Bits(got.motion), Bits(cues.motion)) << "pair " << i;
    saw_replay |= in_replay;
  }
  EXPECT_TRUE(saw_replay);
}

TEST(VisualAnalyzerTest, SemaphoreCue) {
  VisualAnalyzer analyzer;
  image::Frame a(128, 96, {80, 80, 80});
  image::Frame b = a;
  image::FillRect(b, 40, 8, 30, 8, {225, 30, 28});
  auto features = analyzer.AnalyzeClip(a, b);
  EXPECT_GT(features.semaphore, 0.5);
}

TEST(VisualAnalyzerTest, SandAndDustCues) {
  VisualAnalyzer analyzer;
  image::Frame a(128, 96, {80, 80, 80});
  image::Frame b = a;
  image::FillRect(b, 0, 60, 128, 36, {200, 160, 90});    // sand
  image::FillRect(b, 20, 20, 60, 30, {188, 168, 138});   // dust
  auto features = analyzer.AnalyzeClip(a, b);
  EXPECT_GT(features.sand, 0.5);
  EXPECT_GT(features.dust, 0.5);
}

TEST(VisualAnalyzerTest, MotionRespondsToMovingObject) {
  VisualAnalyzer quiet_analyzer;
  image::Frame a(128, 96, {90, 90, 90});
  image::Frame b = a;
  auto quiet = quiet_analyzer.AnalyzeClip(a, a);
  image::FillRect(b, 30, 40, 24, 12, {235, 235, 235});
  VisualAnalyzer moving_analyzer;
  auto moving = moving_analyzer.AnalyzeClip(a, b);
  EXPECT_GT(moving.motion, quiet.motion + 0.2);
  EXPECT_GT(moving.color_diff, quiet.color_diff);
}

TEST(VisualAnalyzerTest, QuietSceneHasNoCues) {
  VisualAnalyzer analyzer;
  image::Frame a(128, 96, {90, 90, 90});
  auto features = analyzer.AnalyzeClip(a, a);
  EXPECT_EQ(features.semaphore, 0.0);
  EXPECT_LT(features.sand, 0.05);
  EXPECT_LT(features.dust, 0.05);
  EXPECT_LT(features.motion, 0.05);
  EXPECT_EQ(features.replay, 0.0);
}

}  // namespace
}  // namespace cobra::video
