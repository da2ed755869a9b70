#ifndef COBRA_VIDEO_REPLAY_H_
#define COBRA_VIDEO_REPLAY_H_

#include <cstddef>

#include "image/frame.h"

namespace cobra::video {

/// Detects Digital Video Effects (DVEs) — the wipe transitions that bracket
/// replay scenes in the Formula 1 program — from the block-motion flow
/// between consecutive frames, and tracks replay state. The paper notes
/// replays are neither slowed down nor marked; they begin and end with DVEs
/// whose exact look varies, so a general motion-flow/pattern-matching
/// approach is used instead of learning each DVE.
class ReplayDetector {
 public:
  struct Options {
    int grid_columns = 16;
    /// A DVE frame shows one dominant high-motion column stripe: peak
    /// column motion above this...
    double stripe_threshold = 0.30;
    /// ...while the median column motion stays below this.
    double background_threshold = 0.12;
    /// Consecutive stripe frames required to call a DVE.
    size_t min_stripe_frames = 2;
    /// Replays longer than this (frames) are force-closed.
    size_t max_replay_frames = 1000;
    /// DVEs closer than this are considered the same transition.
    size_t merge_frames = 10;
  };

  explicit ReplayDetector(const Options& options) : options_(options) {}
  ReplayDetector() : ReplayDetector(Options()) {}

  /// Feeds the next frame; returns true while inside a replay segment.
  /// Equivalent to PushStripe(paired, paired && StripePair(prev, frame)),
  /// where `paired` says a previous frame of the same size exists.
  bool Push(const image::Frame& frame);

  /// The per-frame stripe test: whether the column-motion flow from `prev`
  /// to `cur` (same size) shows one dominant DVE stripe. Stateless, so
  /// frame pairs can be tested concurrently and folded in order with
  /// PushStripe.
  bool StripePair(const image::Frame& prev, const image::Frame& cur) const;

  /// Advances the replay state machine by one frame. `paired` is false for
  /// a frame with no same-size predecessor (the first frame, or a size
  /// change); the stripe run is then left as is and `stripe` is ignored.
  /// Returns true while inside a replay segment.
  bool PushStripe(bool paired, bool stripe);

  /// True if the last Push saw an active DVE stripe.
  bool dve_active() const { return stripe_run_ >= options_.min_stripe_frames; }

  bool in_replay() const { return in_replay_; }
  void Reset();

 private:
  Options options_;
  image::Frame prev_;
  bool has_prev_ = false;
  size_t stripe_run_ = 0;
  bool dve_latched_ = false;
  bool in_replay_ = false;
  size_t frames_in_replay_ = 0;
  size_t frames_since_dve_ = 0;
};

}  // namespace cobra::video

#endif  // COBRA_VIDEO_REPLAY_H_
