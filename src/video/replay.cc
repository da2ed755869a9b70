#include "video/replay.h"

#include <algorithm>
#include <vector>

#include "image/histogram.h"

namespace cobra::video {

bool ReplayDetector::StripePair(const image::Frame& prev,
                                const image::Frame& cur) const {
  // Stripe score of the column-motion profile: peak vs median.
  std::vector<double> columns =
      image::BlockMotion(prev, cur, options_.grid_columns, 1);
  if (columns.empty()) return false;
  std::sort(columns.begin(), columns.end());
  const double peak = columns.back();
  const double median = columns[columns.size() / 2];
  return peak > options_.stripe_threshold &&
         median < options_.background_threshold;
}

bool ReplayDetector::Push(const image::Frame& frame) {
  const bool paired = has_prev_ && frame.width() == prev_.width() &&
                      frame.height() == prev_.height();
  const bool stripe = paired && StripePair(prev_, frame);
  prev_ = frame;
  has_prev_ = true;
  return PushStripe(paired, stripe);
}

bool ReplayDetector::PushStripe(bool paired, bool stripe) {
  bool dve_now = false;
  if (paired) {
    stripe_run_ = stripe ? stripe_run_ + 1 : 0;
    dve_now = stripe_run_ >= options_.min_stripe_frames;
  }

  ++frames_since_dve_;
  if (dve_now) {
    if (!dve_latched_ && frames_since_dve_ > options_.merge_frames) {
      dve_latched_ = true;
      if (!in_replay_) {
        in_replay_ = true;
        frames_in_replay_ = 0;
      } else {
        in_replay_ = false;
      }
    }
    frames_since_dve_ = 0;
  } else {
    dve_latched_ = false;
  }

  if (in_replay_) {
    ++frames_in_replay_;
    if (frames_in_replay_ > options_.max_replay_frames) in_replay_ = false;
  }
  return in_replay_;
}

void ReplayDetector::Reset() {
  has_prev_ = false;
  stripe_run_ = 0;
  dve_latched_ = false;
  in_replay_ = false;
  frames_in_replay_ = 0;
  frames_since_dve_ = 0;
}

}  // namespace cobra::video
