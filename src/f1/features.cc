#include "f1/features.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "base/mathutil.h"
#include "base/strings.h"
#include "base/trace.h"
#include "f1/lexicon.h"
#include "kws/keyword_spotter.h"
#include "video/visual_cues.h"

namespace cobra::f1 {
namespace {

double Saturate(double x, double scale) {
  if (x <= 0.0) return 0.0;
  return x / (x + scale);
}

double Ramp(double x, double lo, double hi) {
  return Clamp((x - lo) / (hi - lo), 0.0, 1.0);
}

/// Start of clip c: each clip is represented by the frames 20 and 60 ms in.
double ClipTime(size_t c) { return static_cast<double>(c) * 0.1; }

/// One frame's input to the replay state machine
/// (ReplayDetector::PushStripe).
struct StripeBit {
  bool paired = false;
  bool stripe = false;
};

StripeBit TestPair(const video::ReplayDetector& replay,
                   const image::Frame& prev, const image::Frame& cur) {
  StripeBit bit;
  bit.paired =
      prev.width() == cur.width() && prev.height() == cur.height();
  bit.stripe = bit.paired && replay.StripePair(prev, cur);
  return bit;
}

}  // namespace

kernel::ExecContext ExtractContext(const kernel::ExecContext& ctx) {
  kernel::ExecContext out = ctx;
  out.morsel_rows = kExtractMorsel;
  out.serial_cutoff = 0;
  return out;
}

RaceEvidence ExtractEvidence(const RaceTimeline& timeline) {
  return ExtractEvidence(timeline, EvidenceOptions());
}

RaceEvidence ExtractEvidence(const RaceTimeline& timeline,
                             const EvidenceOptions& options) {
  return ExtractEvidence(timeline, options, kernel::ExecContext::Hardware());
}

RaceEvidence ExtractEvidence(const RaceTimeline& timeline,
                             const EvidenceOptions& options,
                             const kernel::ExecContext& ctx) {
  RaceEvidence out;
  out.profile = timeline.profile;
  const size_t num_clips = timeline.NumClips();
  out.clips.resize(num_clips);
  const kernel::ExecContext clip_ctx = ExtractContext(ctx);
  const size_t morsels = clip_ctx.NumMorsels(num_clips);

  // --- Audio path ------------------------------------------------------------
  // Clip synthesis and analysis are pure per clip: each clip fills its own
  // evidence slot.
  AudioSynthesizer synth(timeline, options.synth);
  {
    trace::SpanGuard span(ctx.trace, ctx.trace_parent, "extract.audio");
    span.RowsIn(num_clips);
    span.RowsOut(num_clips);
    span.Morsels(morsels);
    const audio::ClipAnalyzer analyzer(options.audio);
    const NormalizerOptions& norm = options.normalizer;
    kernel::ForEachMorsel(clip_ctx, num_clips, [&](size_t, size_t lo,
                                                   size_t hi) {
      for (size_t c = lo; c < hi; ++c) {
        const auto samples = synth.SynthesizeClip(c);
        const audio::ClipFeatures f = analyzer.Analyze(samples);
        ClipEvidence& e = out.clips[c];
        e.is_speech = f.is_speech;
        e.pause_rate = Clamp(f.pause_rate, 0.0, 1.0);
        // Excited-speech statistics are gated on the endpoint decision, as
        // in the paper ("computations only performed on speech segments").
        if (f.is_speech) {
          e.ste_avg = Saturate(f.ste_avg, norm.ste_avg_scale);
          e.ste_range = Saturate(f.ste_range, norm.ste_range_scale);
          e.ste_max = Saturate(f.ste_max, norm.ste_max_scale);
          e.pitch_avg = Ramp(f.pitch_avg, norm.pitch_lo_hz, norm.pitch_hi_hz);
          e.pitch_range =
              Clamp(f.pitch_range / norm.pitch_range_scale, 0.0, 1.0);
          e.pitch_max = Ramp(f.pitch_max, norm.pitch_lo_hz, norm.pitch_hi_hz);
          e.mfcc_avg = Saturate(f.mfcc_avg, norm.mfcc_scale);
          e.mfcc_max = Saturate(f.mfcc_max, norm.mfcc_scale);
        }
        e.part_of_race =
            static_cast<double>(c) / static_cast<double>(num_clips);
      }
    });
  }

  // --- Keyword spotting --------------------------------------------------------
  {
    trace::SpanGuard span(ctx.trace, ctx.trace_parent, "extract.kws");
    span.RowsIn(num_clips);
    span.Morsels(1);
    kws::KeywordSpotter spotter(ExcitedKeywords());
    const auto hits = spotter.Spot(synth.PhoneStream());
    span.RowsOut(hits.size());
    for (const auto& hit : hits) {
      const size_t first = static_cast<size_t>(hit.start_sec * 10.0);
      const size_t last = std::min(
          num_clips,
          static_cast<size_t>((hit.start_sec + hit.duration_sec) * 10.0) + 1);
      for (size_t c = first; c < last && c < num_clips; ++c) {
        out.clips[c].keywords =
            std::max(out.clips[c].keywords, hit.normalized);
      }
    }
  }

  // --- Visual path ------------------------------------------------------------
  // Frames a_c, b_c of clip c are rendered and analyzed in clip morsels; the
  // replay detector's stripe test runs there too, for the pairs
  // (b_{c-1}, a_c) and (a_c, b_c), so a morsel starting at clip lo
  // re-renders b_{lo-1}. Only the replay state machine runs serially, over
  // the stripe bits in clip order.
  if (options.extract_video) {
    trace::SpanGuard span(ctx.trace, ctx.trace_parent, "extract.visual");
    span.RowsIn(num_clips);
    span.RowsOut(num_clips);
    span.Morsels(morsels);
    if (span.enabled()) span.Detail(StrFormat("frames=%zu", 2 * num_clips));
    const FrameRenderer renderer(timeline, options.video);
    const video::VisualAnalyzer::Options visual_options;
    const video::VisualAnalyzer visual(visual_options);
    video::ReplayDetector replay(visual_options.replay);
    std::vector<StripeBit> stripes(2 * num_clips);
    kernel::ForEachMorsel(clip_ctx, num_clips, [&](size_t, size_t lo,
                                                   size_t hi) {
      image::Frame prev;
      if (lo > 0) prev = renderer.Render(ClipTime(lo - 1) + 0.06);
      for (size_t c = lo; c < hi; ++c) {
        const double t = ClipTime(c);
        const image::Frame a = renderer.Render(t + 0.02);
        image::Frame b = renderer.Render(t + 0.06);
        if (c > 0) stripes[2 * c] = TestPair(replay, prev, a);
        stripes[2 * c + 1] = TestPair(replay, a, b);
        const video::VideoClipFeatures v = visual.Cues(a, b);
        ClipEvidence& e = out.clips[c];
        e.color_diff = v.color_diff;
        e.semaphore = v.semaphore;
        e.dust = v.dust;
        e.sand = v.sand;
        e.motion = v.motion;
        prev = std::move(b);
      }
    });
    for (size_t c = 0; c < num_clips; ++c) {
      replay.PushStripe(stripes[2 * c].paired, stripes[2 * c].stripe);
      const bool in_replay =
          replay.PushStripe(stripes[2 * c + 1].paired,
                            stripes[2 * c + 1].stripe);
      out.clips[c].replay = in_replay ? 1.0 : 0.0;
    }
  }

  // --- Ground truth ------------------------------------------------------------
  const auto highlights = timeline.Highlights();
  for (size_t c = 0; c < num_clips; ++c) {
    const double t = ClipTime(c);
    ClipEvidence& e = out.clips[c];
    e.truth_excited = timeline.IsActive("excited", t);
    e.truth_start = timeline.IsActive("start", t);
    e.truth_flyout = timeline.IsActive("flyout", t);
    e.truth_passing = timeline.IsActive("passing", t);
    e.truth_replay = timeline.IsActive("replay", t);
    for (const auto& h : highlights) {
      if (h.Covers(t)) {
        e.truth_highlight = true;
        break;
      }
    }
  }
  return out;
}

}  // namespace cobra::f1
