#ifndef COBRA_F1_PIPELINE_H_
#define COBRA_F1_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bayes/dbn.h"
#include "bayes/network.h"
#include "cobra/video_model.h"
#include "extensions/extension.h"
#include "f1/evaluation.h"
#include "f1/features.h"
#include "f1/networks.h"
#include "f1/timeline.h"
#include "kernel/catalog.h"
#include "query/engine.h"

namespace cobra::f1 {

/// Training setup mirroring the paper: BNs learn on a 300 s sequence (3000
/// evidence vectors); DBNs on the same sequence divided into 25 s segments;
/// the audio-visual DBN on 6 segments of 50 s centered on known events.
struct TrainingOptions {
  double train_window_sec = 300.0;
  double dbn_segment_sec = 25.0;
  int av_segments = 6;
  double av_segment_sec = 50.0;
  int em_iterations = 12;
  uint64_t seed = 17;
  /// Clamp the query (and sub-event) nodes to ground truth while training.
  bool supervised = true;
};

// --- Audio-only models (Table 1 / 2, Fig 9) --------------------------------

Result<bayes::BayesianNetwork> TrainAudioBn(AudioStructure structure,
                                            const RaceEvidence& train,
                                            const TrainingOptions& options);

Result<bayes::DynamicBayesianNetwork> TrainAudioDbn(
    AudioStructure structure, TemporalScheme scheme,
    const RaceEvidence& train, const TrainingOptions& options);

/// Per-clip posterior P(EA=1) from the BN, clip by clip (atemporal).
Result<std::vector<double>> InferAudioBnSeries(
    const bayes::BayesianNetwork& net, const RaceEvidence& evidence);

/// Per-clip filtered posterior P(EA=1 | e_1:t) from the DBN; `clusters`
/// selects the Boyen–Koller partition (empty = exact).
Result<std::vector<double>> InferAudioDbnSeries(
    const bayes::DynamicBayesianNetwork& dbn, const RaceEvidence& evidence,
    const bayes::DynamicBayesianNetwork::Clusters& clusters = {});

// --- Audio-visual model (Tables 3 / 4) --------------------------------------

Result<bayes::DynamicBayesianNetwork> TrainAudioVisualDbn(
    bool with_passing, const RaceEvidence& train,
    const TrainingOptions& options);

/// Filtered posteriors for the query nodes of the audio-visual DBN.
struct AvSeries {
  std::vector<double> highlight;
  std::vector<double> start;
  std::vector<double> flyout;
  std::vector<double> passing;  // empty when the subnet is excluded
};

Result<AvSeries> InferAudioVisual(const bayes::DynamicBayesianNetwork& dbn,
                                  const RaceEvidence& evidence);

/// Table 3 highlight extraction: threshold 0.5 / minimum duration 6 s on
/// the Highlight posterior, then most-probable sub-event classification
/// (5 s re-evaluation for segments over 15 s).
struct HighlightResult {
  std::vector<Segment> highlights;
  std::vector<TypedSegment> sub_events;
};
HighlightResult ExtractHighlights(const AvSeries& series,
                                  double threshold = 0.5,
                                  double min_duration_sec = 6.0);

// --- Text annotation ---------------------------------------------------------

/// Runs the superimposed-text pipeline (detect -> refine -> recognize) over
/// rendered frames and lifts recognized captions into event-layer records:
/// "caption" (attrs text/driver) plus derived "pitstop" / "winner" /
/// "classification" / "retired" events.
///
/// Frames are sampled every 1/sample_fps s. Rendering and the per-frame
/// caption-band test run in frame morsels on up to ctx.threadcnt workers,
/// one window of threadcnt x kExtractMorsel frames at a time; caption runs,
/// refinement and recognition are folded serially in frame order, so the
/// records are identical at every threadcnt. With ctx.trace set, records an
/// extract.text span under ctx.trace_parent.
std::vector<model::EventRecord> ExtractTextEvents(
    const RaceTimeline& timeline, const FrameRenderer::Options& video,
    double sample_fps, const kernel::ExecContext& ctx);
/// As above on ExecContext::Hardware().
std::vector<model::EventRecord> ExtractTextEvents(
    const RaceTimeline& timeline, const FrameRenderer::Options& video,
    double sample_fps = 5.0);

// --- Full system -------------------------------------------------------------

/// The assembled Cobra VDBMS for the Formula 1 domain: kernel catalog,
/// Cobra video model, the four extensions wired into the registry, and the
/// query engine on top. Races are ingested (synthesized + analyzed +
/// models trained); events can be materialized eagerly or extracted
/// dynamically when a query first needs them.
class F1System {
 public:
  struct IngestOptions {
    TrainingOptions training;
    EvidenceOptions evidence;
    /// Materialize all event types at ingest; otherwise the query
    /// preprocessor triggers extraction on demand.
    bool materialize = false;
    /// Reuse models trained on a previous race (generalization setting)
    /// instead of training on this race.
    bool reuse_models = false;
  };

  F1System();

  /// Generates, analyzes and registers a race.
  Result<model::VideoId> IngestRace(const RaceProfile& profile,
                                    const IngestOptions& options);

  /// Runs a retrieval query.
  Result<query::QueryResult> Query(const std::string& text) {
    return engine_.Execute(text);
  }

  model::VideoCatalog& videos() { return videos_; }
  extensions::ExtensionRegistry& registry() { return registry_; }
  query::QueryEngine& engine() { return engine_; }

  const RaceTimeline* TimelineFor(model::VideoId id) const;
  const RaceEvidence* EvidenceFor(model::VideoId id) const;

 private:
  Status RegisterExtensions();
  Status ExtractDbnEvents(model::VideoId id, model::VideoCatalog* catalog);
  Status ExtractAudioEvents(model::VideoId id, model::VideoCatalog* catalog,
                            bool use_dbn);
  Status ExtractTextEventsFor(model::VideoId id,
                              model::VideoCatalog* catalog);
  Status ExtractRuleEvents(model::VideoId id, model::VideoCatalog* catalog);

  kernel::Catalog catalog_;
  model::VideoCatalog videos_;
  extensions::ExtensionRegistry registry_;
  query::QueryEngine engine_;

  std::map<model::VideoId, RaceTimeline> timelines_;
  std::map<model::VideoId, RaceEvidence> evidence_;
  std::map<model::VideoId, FrameRenderer::Options> video_options_;
  std::shared_ptr<bayes::DynamicBayesianNetwork> av_dbn_;
  std::shared_ptr<bayes::DynamicBayesianNetwork> audio_dbn_;
  std::shared_ptr<bayes::BayesianNetwork> audio_bn_;
};

}  // namespace cobra::f1

#endif  // COBRA_F1_PIPELINE_H_
