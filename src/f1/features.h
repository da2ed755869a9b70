#ifndef COBRA_F1_FEATURES_H_
#define COBRA_F1_FEATURES_H_

#include <vector>

#include "audio/clip_features.h"
#include "f1/audio_synth.h"
#include "f1/frame_render.h"
#include "f1/timeline.h"
#include "kernel/exec_context.h"

namespace cobra::f1 {

/// One 0.1 s clip's evidence vector — the paper's features f1–f17, each a
/// probabilistic value in [0, 1] — plus ground-truth labels for training
/// and evaluation.
struct ClipEvidence {
  // Audio (f1–f10).
  double keywords = 0.0;     // f1
  double pause_rate = 0.0;   // f2
  double ste_avg = 0.0;      // f3
  double ste_range = 0.0;    // f4
  double ste_max = 0.0;      // f5
  double pitch_avg = 0.0;    // f6
  double pitch_range = 0.0;  // f7
  double pitch_max = 0.0;    // f8
  double mfcc_avg = 0.0;     // f9
  double mfcc_max = 0.0;     // f10
  // Contextual / visual (f11–f17).
  double part_of_race = 0.0; // f11
  double replay = 0.0;       // f12
  double color_diff = 0.0;   // f13
  double semaphore = 0.0;    // f14
  double dust = 0.0;         // f15
  double sand = 0.0;         // f16
  double motion = 0.0;       // f17

  bool is_speech = false;    // endpoint decision

  // Ground truth (from the timeline, never shown to inference).
  bool truth_excited = false;
  bool truth_highlight = false;
  bool truth_start = false;
  bool truth_flyout = false;
  bool truth_passing = false;
  bool truth_replay = false;
};

/// Evidence for a whole race.
struct RaceEvidence {
  RaceProfile profile;
  std::vector<ClipEvidence> clips;
};

/// Normalization scales mapping raw feature statistics into [0, 1]
/// "probabilistic values" (soft saturation x / (x + scale) for energies,
/// linear ramps for pitch).
struct NormalizerOptions {
  double ste_avg_scale = 0.004;
  double ste_range_scale = 0.005;
  double ste_max_scale = 0.010;
  double pitch_lo_hz = 80.0;
  double pitch_hi_hz = 330.0;
  double pitch_range_scale = 120.0;
  double mfcc_scale = 2.5;
};

/// Extraction configuration.
struct EvidenceOptions {
  AudioSynthesizer::Options synth;
  FrameRenderer::Options video;
  audio::ClipAnalyzer::Options audio;
  NormalizerOptions normalizer;
  /// Skip the (costly) visual pipeline when only audio evidence is needed
  /// (audio-only DBN experiments).
  bool extract_video = true;
};

/// Runs the full extraction pipeline over a ground-truth timeline:
/// synthesize audio -> DSP features + endpointing, keyword spotting over
/// the phone stream, render frames -> visual cues, then normalize into the
/// f1–f17 evidence vectors.
///
/// The per-clip stages run in fixed clip morsels on up to ctx.threadcnt
/// workers of the kernel pool, each clip writing its own slot; the replay
/// state machine is then folded serially in clip order. Every evidence
/// field is bit-identical at every threadcnt, and no stage holds more than
/// a few frames per worker. With ctx.trace set, records the spans
/// extract.audio, extract.kws and extract.visual under ctx.trace_parent.
RaceEvidence ExtractEvidence(const RaceTimeline& timeline,
                             const EvidenceOptions& options,
                             const kernel::ExecContext& ctx);
/// As above on ExecContext::Hardware().
RaceEvidence ExtractEvidence(const RaceTimeline& timeline,
                             const EvidenceOptions& options);
RaceEvidence ExtractEvidence(const RaceTimeline& timeline);

/// Clips (extraction) or frames (OCR) per morsel: small enough that a
/// 2-minute race yields ~40 units for load balancing, large enough that the
/// one frame a visual morsel re-renders at its start is noise.
inline constexpr size_t kExtractMorsel = 32;

/// `ctx` with its morsels set to kExtractMorsel units and no serial cutoff:
/// extraction is expensive per unit, so any multi-morsel input goes
/// parallel when ctx.threadcnt > 1.
kernel::ExecContext ExtractContext(const kernel::ExecContext& ctx);

}  // namespace cobra::f1

#endif  // COBRA_F1_FEATURES_H_
