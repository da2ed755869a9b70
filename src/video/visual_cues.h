#ifndef COBRA_VIDEO_VISUAL_CUES_H_
#define COBRA_VIDEO_VISUAL_CUES_H_

#include <vector>

#include "image/analysis.h"
#include "image/frame.h"
#include "video/replay.h"

namespace cobra::video {

/// Per-clip visual evidence (the paper's features f12–f17). One video clip
/// spans 0.1 s; the analyzer samples a representative frame pair per clip.
struct VideoClipFeatures {
  double replay = 0.0;      // f12: inside a replay segment
  double color_diff = 0.0;  // f13: inter-frame pixel color difference
  double semaphore = 0.0;   // f14: start-light gantry presence
  double dust = 0.0;        // f15: dust cloud fraction cue
  double sand = 0.0;        // f16: gravel-trap sand fraction cue
  double motion = 0.0;      // f17: motion-histogram activity
};

/// Visual front end: feed one frame pair per 0.1 s clip and get the f12–f17
/// cues. Only the replay state carries across clips; the other cues are a
/// function of the clip's own frame pair (Cues).
class VisualAnalyzer {
 public:
  struct Options {
    ReplayDetector::Options replay;
    /// Sand: desaturated warm ochre (high R, mid G, low B).
    image::ColorRange sand_range{.r_min = 150, .r_max = 230,
                                 .g_min = 110, .g_max = 190,
                                 .b_min = 40, .b_max = 120};
    /// Dust: warm grey-brown haze. The blue ceiling sits below the green
    /// floor plus haze tint so that neutral greys (track, tarmac) never
    /// match.
    image::ColorRange dust_range{.r_min = 165, .r_max = 215,
                                 .g_min = 145, .g_max = 195,
                                 .b_min = 115, .b_max = 158};
    /// Fractions are mapped to [0,1] cues by dividing by these scales.
    double sand_full_scale = 0.15;
    double dust_full_scale = 0.20;
    int motion_grid_x = 8;
    int motion_grid_y = 6;
  };

  explicit VisualAnalyzer(const Options& options)
      : options_(options), replay_detector_(options.replay) {}
  VisualAnalyzer() : VisualAnalyzer(Options()) {}

  /// Analyzes the clip represented by two frames sampled ~40 ms apart:
  /// Cues(first, second) plus both frames pushed through the replay
  /// detector.
  VideoClipFeatures AnalyzeClip(const image::Frame& first,
                                const image::Frame& second);

  /// The stateless cues f13–f17 of one clip's frame pair (replay left 0).
  /// Safe to call concurrently.
  VideoClipFeatures Cues(const image::Frame& first,
                         const image::Frame& second) const;

  void Reset();

 private:
  Options options_;
  ReplayDetector replay_detector_;
};

}  // namespace cobra::video

#endif  // COBRA_VIDEO_VISUAL_CUES_H_
