// Clip-parallel feature extraction must not change a single bit: the
// evidence ExtractEvidence produces in clip morsels, the text events
// ExtractTextEvents produces in frame morsels, and the DBNs trained and
// filtered on that evidence are compared at threadcnt 1, 2 and 7 against
// the serial clip-by-clip algorithm assembled here from the public per-clip
// calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "audio/clip_features.h"
#include "base/mathutil.h"
#include "f1/audio_synth.h"
#include "f1/features.h"
#include "f1/frame_render.h"
#include "f1/lexicon.h"
#include "f1/pipeline.h"
#include "kernel/exec_context.h"
#include "kernel/parallel.h"
#include "kws/keyword_spotter.h"
#include "text/text_detect.h"
#include "video/visual_cues.h"

namespace cobra::f1 {
namespace {

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// A short race cut out of a generated two-minute one: from 10 s before its
/// fly-out replay to 2 s after it, every event shifted and clipped into the
/// window. The fly-out's "OUT" caption runs between the fly-out and the
/// replay, so the window holds a caption and a replay with both DVE wipes,
/// and is short enough for the sanitizer presets.
RaceTimeline ShortRace() {
  for (uint64_t seed = 1; seed < 64; ++seed) {
    RaceProfile profile = RaceProfile::GermanGp(120.0);
    profile.seed = seed;
    const RaceTimeline full = GenerateTimeline(profile);
    for (const auto& replay : full.EventsOfType("replay")) {
      auto source = replay.attrs.find("source");
      if (source == replay.attrs.end() || source->second != "flyout") continue;
      const double begin = std::floor(replay.begin) - 10.0;
      const double end = std::ceil(replay.end) + 2.0;
      RaceTimeline race;
      race.profile = profile;
      race.profile.duration_sec = end - begin;
      for (TimelineEvent e : full.events) {
        if (e.end <= begin || e.begin >= end) continue;
        e.begin = std::max(e.begin, begin) - begin;
        e.end = std::min(e.end, end) - begin;
        race.events.push_back(std::move(e));
      }
      return race;
    }
  }
  ADD_FAILURE() << "no seed yields a replayed fly-out";
  return {};
}

double Saturate(double x, double scale) {
  return x <= 0.0 ? 0.0 : x / (x + scale);
}

double Ramp(double x, double lo, double hi) {
  return Clamp((x - lo) / (hi - lo), 0.0, 1.0);
}

/// The serial extraction algorithm, one clip at a time: SynthesizeClip +
/// Analyze, keyword spotting, Render + AnalyzeClip (whose replay detector
/// sees every frame in order), ground truth.
RaceEvidence SerialEvidence(const RaceTimeline& timeline,
                            const EvidenceOptions& options) {
  RaceEvidence out;
  out.profile = timeline.profile;
  const size_t num_clips = timeline.NumClips();
  out.clips.resize(num_clips);
  const NormalizerOptions& norm = options.normalizer;
  const AudioSynthesizer synth(timeline, options.synth);
  const audio::ClipAnalyzer analyzer(options.audio);
  for (size_t c = 0; c < num_clips; ++c) {
    const audio::ClipFeatures f = analyzer.Analyze(synth.SynthesizeClip(c));
    ClipEvidence& e = out.clips[c];
    e.is_speech = f.is_speech;
    e.pause_rate = Clamp(f.pause_rate, 0.0, 1.0);
    if (f.is_speech) {
      e.ste_avg = Saturate(f.ste_avg, norm.ste_avg_scale);
      e.ste_range = Saturate(f.ste_range, norm.ste_range_scale);
      e.ste_max = Saturate(f.ste_max, norm.ste_max_scale);
      e.pitch_avg = Ramp(f.pitch_avg, norm.pitch_lo_hz, norm.pitch_hi_hz);
      e.pitch_range = Clamp(f.pitch_range / norm.pitch_range_scale, 0.0, 1.0);
      e.pitch_max = Ramp(f.pitch_max, norm.pitch_lo_hz, norm.pitch_hi_hz);
      e.mfcc_avg = Saturate(f.mfcc_avg, norm.mfcc_scale);
      e.mfcc_max = Saturate(f.mfcc_max, norm.mfcc_scale);
    }
    e.part_of_race = static_cast<double>(c) / static_cast<double>(num_clips);
  }
  const kws::KeywordSpotter spotter(ExcitedKeywords());
  for (const auto& hit : spotter.Spot(synth.PhoneStream())) {
    const size_t first = static_cast<size_t>(hit.start_sec * 10.0);
    const size_t last = std::min(
        num_clips,
        static_cast<size_t>((hit.start_sec + hit.duration_sec) * 10.0) + 1);
    for (size_t c = first; c < last; ++c) {
      out.clips[c].keywords = std::max(out.clips[c].keywords, hit.normalized);
    }
  }
  const FrameRenderer renderer(timeline, options.video);
  video::VisualAnalyzer visual;
  for (size_t c = 0; c < num_clips; ++c) {
    const double t = static_cast<double>(c) * 0.1;
    const video::VideoClipFeatures v =
        visual.AnalyzeClip(renderer.Render(t + 0.02), renderer.Render(t + 0.06));
    ClipEvidence& e = out.clips[c];
    e.replay = v.replay;
    e.color_diff = v.color_diff;
    e.semaphore = v.semaphore;
    e.dust = v.dust;
    e.sand = v.sand;
    e.motion = v.motion;
  }
  const auto highlights = timeline.Highlights();
  for (size_t c = 0; c < num_clips; ++c) {
    const double t = static_cast<double>(c) * 0.1;
    ClipEvidence& e = out.clips[c];
    e.truth_excited = timeline.IsActive("excited", t);
    e.truth_start = timeline.IsActive("start", t);
    e.truth_flyout = timeline.IsActive("flyout", t);
    e.truth_passing = timeline.IsActive("passing", t);
    e.truth_replay = timeline.IsActive("replay", t);
    e.truth_highlight =
        std::any_of(highlights.begin(), highlights.end(),
                    [t](const TimelineEvent& h) { return h.Covers(t); });
  }
  return out;
}

struct DoubleField {
  const char* name;
  double ClipEvidence::*member;
};
constexpr DoubleField kDoubleFields[] = {
    {"keywords", &ClipEvidence::keywords},
    {"pause_rate", &ClipEvidence::pause_rate},
    {"ste_avg", &ClipEvidence::ste_avg},
    {"ste_range", &ClipEvidence::ste_range},
    {"ste_max", &ClipEvidence::ste_max},
    {"pitch_avg", &ClipEvidence::pitch_avg},
    {"pitch_range", &ClipEvidence::pitch_range},
    {"pitch_max", &ClipEvidence::pitch_max},
    {"mfcc_avg", &ClipEvidence::mfcc_avg},
    {"mfcc_max", &ClipEvidence::mfcc_max},
    {"part_of_race", &ClipEvidence::part_of_race},
    {"replay", &ClipEvidence::replay},
    {"color_diff", &ClipEvidence::color_diff},
    {"semaphore", &ClipEvidence::semaphore},
    {"dust", &ClipEvidence::dust},
    {"sand", &ClipEvidence::sand},
    {"motion", &ClipEvidence::motion},
};

struct BoolField {
  const char* name;
  bool ClipEvidence::*member;
};
constexpr BoolField kBoolFields[] = {
    {"is_speech", &ClipEvidence::is_speech},
    {"truth_excited", &ClipEvidence::truth_excited},
    {"truth_highlight", &ClipEvidence::truth_highlight},
    {"truth_start", &ClipEvidence::truth_start},
    {"truth_flyout", &ClipEvidence::truth_flyout},
    {"truth_passing", &ClipEvidence::truth_passing},
    {"truth_replay", &ClipEvidence::truth_replay},
};

/// Every field of every clip, doubles by bit pattern. Stops at the first
/// differing clip so a broken merge reports one line, not thousands.
void ExpectSameEvidence(const RaceEvidence& want, const RaceEvidence& got,
                        const std::string& label) {
  EXPECT_EQ(want.profile.name, got.profile.name) << label;
  ASSERT_EQ(want.clips.size(), got.clips.size()) << label;
  for (size_t c = 0; c < want.clips.size(); ++c) {
    bool same = true;
    for (const auto& f : kDoubleFields) {
      const double w = want.clips[c].*f.member;
      const double g = got.clips[c].*f.member;
      if (Bits(w) != Bits(g)) {
        ADD_FAILURE() << label << " clip " << c << " " << f.name << ": " << w
                      << " vs " << g;
        same = false;
      }
    }
    for (const auto& f : kBoolFields) {
      if (want.clips[c].*f.member != got.clips[c].*f.member) {
        ADD_FAILURE() << label << " clip " << c << " " << f.name;
        same = false;
      }
    }
    if (!same) return;
  }
}

void ExpectSameRecords(const std::vector<model::EventRecord>& want,
                       const std::vector<model::EventRecord>& got,
                       const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].type, got[i].type) << label << " record " << i;
    EXPECT_EQ(Bits(want[i].begin_sec), Bits(got[i].begin_sec))
        << label << " record " << i;
    EXPECT_EQ(Bits(want[i].end_sec), Bits(got[i].end_sec))
        << label << " record " << i;
    EXPECT_EQ(Bits(want[i].confidence), Bits(got[i].confidence))
        << label << " record " << i;
    EXPECT_EQ(want[i].attrs, got[i].attrs) << label << " record " << i;
  }
}

void ExpectSameSeries(const std::vector<double>& want,
                      const std::vector<double>& got,
                      const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(Bits(want[t]), Bits(got[t])) << label << " step " << t;
  }
}

void ExpectSameCpt(const bayes::Cpt& want, const bayes::Cpt& got,
                   const std::string& label) {
  ASSERT_EQ(want.probs().size(), got.probs().size()) << label;
  for (size_t i = 0; i < want.probs().size(); ++i) {
    ASSERT_EQ(Bits(want.probs()[i]), Bits(got.probs()[i]))
        << label << " entry " << i;
  }
}

kernel::ExecContext Threads(int threadcnt) {
  kernel::ExecContext ctx;
  ctx.threadcnt = threadcnt;
  return ctx;
}

/// The race, the serial oracle and the evidence per thread count, each
/// computed on first use: ctest runs every case in its own process, and
/// most cases need only some of them.
class ExtractParallelTest : public ::testing::Test {
 protected:
  static const RaceTimeline& Race() {
    static const RaceTimeline* const race = new RaceTimeline(ShortRace());
    return *race;
  }
  static const RaceEvidence& Oracle() {
    static const RaceEvidence* const oracle =
        new RaceEvidence(SerialEvidence(Race(), EvidenceOptions()));
    return *oracle;
  }
  static const RaceEvidence& AtThreads(int threadcnt) {
    static std::map<int, RaceEvidence>* const cache =
        new std::map<int, RaceEvidence>();
    auto it = cache->find(threadcnt);
    if (it == cache->end()) {
      it = cache->emplace(threadcnt, ExtractEvidence(Race(), EvidenceOptions(),
                                                     Threads(threadcnt)))
               .first;
    }
    return it->second;
  }
};

TEST_F(ExtractParallelTest, RaceCoversReplayAndCaption) {
  // The window must exercise what the parallel split is about: clips
  // spanning several morsels, a replay opened and closed by DVE wipes
  // (the serial fold), and a caption (the OCR fold).
  ASSERT_GT(Race().NumClips(), 4 * kExtractMorsel);
  size_t replay_clips = 0;
  size_t replay_edges = 0;
  for (size_t c = 0; c < Oracle().clips.size(); ++c) {
    replay_clips += Oracle().clips[c].replay > 0.5;
    if (c > 0 && Oracle().clips[c].replay != Oracle().clips[c - 1].replay) {
      ++replay_edges;
    }
  }
  EXPECT_GT(replay_clips, 20u);
  EXPECT_GE(replay_edges, 2u);
  EXPECT_FALSE(Race().EventsOfType("caption").empty());
}

TEST_F(ExtractParallelTest, EvidenceBitIdenticalAtEveryThreadcnt) {
  for (int threads : {1, 2, 7}) {
    ExpectSameEvidence(Oracle(), AtThreads(threads),
                       "threadcnt " + std::to_string(threads));
  }
}

TEST_F(ExtractParallelTest, ReplayFoldAcrossMorselBoundary) {
  // A 40-ms opening wipe that only frame b_95 (9.56 s) shows: the stripe
  // run reaches 2 exactly on the pair (b_95, a_96), which straddles the
  // boundary of the morsel starting at clip 96. The morsel must re-render
  // b_95 to see it; treating its first frame as unpaired never opens the
  // replay.
  RaceTimeline race;
  race.profile.duration_sec = 16.0;
  race.events.push_back({"replay", 9.59, 13.08, {{"source", "flyout"}}});
  EvidenceOptions options;
  options.video.dve_duration = 0.04;
  const RaceEvidence oracle = SerialEvidence(race, options);
  ASSERT_EQ(oracle.clips[95].replay, 0.0);
  ASSERT_EQ(oracle.clips[96].replay, 1.0);
  for (int threads : {1, 7}) {
    ExpectSameEvidence(oracle, ExtractEvidence(race, options, Threads(threads)),
                       "threadcnt " + std::to_string(threads));
  }
}

TEST_F(ExtractParallelTest, AudioOnlyEvidenceBitIdentical) {
  EvidenceOptions options;
  options.extract_video = false;
  const RaceEvidence serial = ExtractEvidence(Race(), options, Threads(1));
  ExpectSameEvidence(serial, ExtractEvidence(Race(), options, Threads(7)),
                     "audio-only threadcnt 7");
  for (const auto& clip : serial.clips) ASSERT_EQ(clip.replay, 0.0);
}

TEST_F(ExtractParallelTest, TextEventsEqualAtEveryThreadcnt) {
  const auto serial =
      ExtractTextEvents(Race(), FrameRenderer::Options(), 5.0, Threads(1));
  // Caption runs of a serial scan that steps its sample time by repeated
  // addition; every caption record spans one of them to the bit.
  const FrameRenderer renderer(Race());
  const text::TextDetector detector;
  std::vector<std::pair<double, double>> runs;
  bool in_run = false;
  for (double t = 0.0; t < Race().profile.duration_sec; t += 0.2) {
    const bool has_text = detector.FrameHasText(renderer.Render(t));
    if (has_text && !in_run) runs.emplace_back(t, Race().profile.duration_sec);
    if (!has_text && in_run) runs.back().second = t;
    in_run = has_text;
  }
  size_t captions = 0;
  for (const auto& e : serial) {
    if (e.type != "caption") continue;
    ++captions;
    EXPECT_TRUE(std::any_of(runs.begin(), runs.end(), [&e](const auto& run) {
      return Bits(run.first) == Bits(e.begin_sec) &&
             Bits(run.second) == Bits(e.end_sec);
    })) << "caption [" << e.begin_sec << ", " << e.end_sec << ")";
  }
  EXPECT_GE(captions, 1u);
  for (int threads : {2, 7}) {
    ExpectSameRecords(
        serial,
        ExtractTextEvents(Race(), FrameRenderer::Options(), 5.0,
                          Threads(threads)),
        "threadcnt " + std::to_string(threads));
  }
}

TEST_F(ExtractParallelTest, DbnTrainedAndFilteredOnParallelEvidenceIdentical) {
  TrainingOptions training;
  training.av_segments = 2;
  training.av_segment_sec = 8.0;
  training.em_iterations = 2;
  auto serial = TrainAudioVisualDbn(true, AtThreads(1), training);
  auto parallel = TrainAudioVisualDbn(true, AtThreads(7), training);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  const bayes::BayesianNetwork& slice = serial->slice();
  for (bayes::NodeId n = 0; n < slice.num_nodes(); ++n) {
    ExpectSameCpt(serial->prior_cpt(n), parallel->prior_cpt(n),
                  "prior " + slice.name(n));
  }
  for (bayes::NodeId n : serial->chain_nodes()) {
    ExpectSameCpt(serial->transition_cpt(n), parallel->transition_cpt(n),
                  "transition " + slice.name(n));
  }

  auto want = InferAudioVisual(*serial, AtThreads(1));
  auto got = InferAudioVisual(*parallel, AtThreads(7));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameSeries(want->highlight, got->highlight, "highlight");
  ExpectSameSeries(want->start, got->start, "start");
  ExpectSameSeries(want->flyout, got->flyout, "flyout");
  ExpectSameSeries(want->passing, got->passing, "passing");
}

TEST_F(ExtractParallelTest, NestedInsideKernelPoolTask) {
  // Both extractions called from pool workers: their morsel waits run
  // inside a task, where TaskGroup::Wait drains the queue instead of
  // blocking a worker.
  RaceEvidence evidence;
  std::vector<model::EventRecord> text;
  kernel::ParallelExec({
      [&] { evidence = ExtractEvidence(Race(), EvidenceOptions(), Threads(7)); },
      [&] {
        text = ExtractTextEvents(Race(), FrameRenderer::Options(), 5.0,
                                 Threads(7));
      },
  });
  ExpectSameEvidence(Oracle(), evidence, "nested");
  ExpectSameRecords(
      ExtractTextEvents(Race(), FrameRenderer::Options(), 5.0, Threads(1)),
      text, "nested text");
}

}  // namespace
}  // namespace cobra::f1
