#include "video/visual_cues.h"

#include <algorithm>
#include <cmath>

#include "base/mathutil.h"
#include "image/histogram.h"

namespace cobra::video {

VideoClipFeatures VisualAnalyzer::AnalyzeClip(const image::Frame& first,
                                              const image::Frame& second) {
  // The replay tracker sees both sampled frames.
  replay_detector_.Push(first);
  const bool replay_now = replay_detector_.Push(second);
  VideoClipFeatures f = Cues(first, second);
  f.replay = replay_now ? 1.0 : 0.0;
  return f;
}

VideoClipFeatures VisualAnalyzer::Cues(const image::Frame& first,
                                       const image::Frame& second) const {
  VideoClipFeatures f;

  // f13 / f17: inter-frame change. Color difference is the plain pixel
  // difference; motion aggregates the block-motion histogram (mean of the
  // top half of block activations, which responds to an object moving
  // through the scene rather than uniform flicker).
  f.color_diff = Clamp(image::PixelDifference(first, second) * 8.0, 0.0, 1.0);
  auto blocks = image::BlockMotion(first, second, options_.motion_grid_x,
                                   options_.motion_grid_y);
  std::sort(blocks.begin(), blocks.end());
  // Mean of the most active twelfth of the blocks: responds to an object
  // sweeping through the scene — and, inevitably, to global camera pan,
  // which is exactly the failure mode the paper reports for this cue.
  const size_t top_k = std::max<size_t>(1, blocks.size() / 24);
  double top = 0.0;
  for (size_t i = blocks.size() - top_k; i < blocks.size(); ++i) {
    top += blocks[i];
  }
  top /= static_cast<double>(top_k);
  f.motion = Clamp(top * 6.0, 0.0, 1.0);

  // f14: semaphore — a dense wide red rectangle in the upper half.
  const image::Frame upper = second.Crop(0, 0, second.width(),
                                         second.height() / 2);
  image::Box box;
  double density = 0.0;
  if (image::DetectRedRectangle(upper, &box, &density)) {
    f.semaphore = Clamp(density, 0.0, 1.0);
  }

  // f15 / f16: dust & sand color fractions.
  f.dust = Clamp(image::ColorFraction(second, options_.dust_range) /
                     options_.dust_full_scale,
                 0.0, 1.0);
  f.sand = Clamp(image::ColorFraction(second, options_.sand_range) /
                     options_.sand_full_scale,
                 0.0, 1.0);
  return f;
}

void VisualAnalyzer::Reset() { replay_detector_.Reset(); }

}  // namespace cobra::video
