#include "f1/pipeline.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "base/logging.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/trace.h"
#include "f1/lexicon.h"
#include "rules/engine.h"
#include "text/text_detect.h"
#include "text/text_recognize.h"

namespace cobra::f1 {
namespace {

/// Slices [0, train_window) clips out of the race evidence.
size_t TrainClips(const RaceEvidence& evidence, double window_sec) {
  return std::min(evidence.clips.size(),
                  static_cast<size_t>(window_sec * 10.0));
}

/// The per-clip replay cue as a plain series.
std::vector<double> ReplaySeries(const RaceEvidence& evidence) {
  std::vector<double> out;
  out.reserve(evidence.clips.size());
  for (const auto& clip : evidence.clips) out.push_back(clip.replay);
  return out;
}

}  // namespace

Result<bayes::BayesianNetwork> TrainAudioBn(AudioStructure structure,
                                            const RaceEvidence& train,
                                            const TrainingOptions& options) {
  bayes::BayesianNetwork net = BuildAudioSlice(structure);
  Rng rng(options.seed);
  InitializeForEm(net, rng);
  std::vector<bayes::Evidence> samples;
  const size_t n = TrainClips(train, options.train_window_sec);
  samples.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    samples.push_back(
        MakeAudioEvidence(net, train.clips[c], options.supervised));
  }
  bayes::BayesianNetwork::EmOptions em;
  em.max_iterations = options.em_iterations;
  COBRA_ASSIGN_OR_RETURN(double ll, net.TrainEm(samples, em));
  (void)ll;
  return net;
}

Result<bayes::DynamicBayesianNetwork> TrainAudioDbn(
    AudioStructure structure, TemporalScheme scheme,
    const RaceEvidence& train, const TrainingOptions& options) {
  COBRA_ASSIGN_OR_RETURN(bayes::DynamicBayesianNetwork dbn,
                         BuildAudioDbn(structure, scheme));
  Rng rng(options.seed);
  InitializeForEm(dbn, rng);
  // The 300 s training window divided into 25 s segments (12 sequences).
  const size_t n = TrainClips(train, options.train_window_sec);
  const size_t seg = static_cast<size_t>(options.dbn_segment_sec * 10.0);
  std::vector<std::vector<bayes::Evidence>> sequences;
  for (size_t begin = 0; begin + seg <= n; begin += seg) {
    std::vector<bayes::Evidence> sequence;
    sequence.reserve(seg);
    for (size_t c = begin; c < begin + seg; ++c) {
      sequence.push_back(MakeAudioEvidence(dbn.slice(), train.clips[c],
                                           options.supervised));
    }
    sequences.push_back(std::move(sequence));
  }
  if (sequences.empty()) {
    return Status::InvalidArgument("training window shorter than a segment");
  }
  bayes::DynamicBayesianNetwork::EmOptions em;
  em.max_iterations = options.em_iterations;
  COBRA_ASSIGN_OR_RETURN(double ll, dbn.TrainEm(sequences, em));
  (void)ll;
  return dbn;
}

Result<std::vector<double>> InferAudioBnSeries(
    const bayes::BayesianNetwork& net, const RaceEvidence& evidence) {
  const bayes::NodeId ea = net.FindNode(kExcitedAnnouncer);
  if (ea < 0) return Status::InvalidArgument("network has no EA node");
  std::vector<double> out;
  out.reserve(evidence.clips.size());
  for (const auto& clip : evidence.clips) {
    COBRA_ASSIGN_OR_RETURN(
        auto posterior, net.Posterior(ea, MakeAudioEvidence(net, clip)));
    out.push_back(posterior[1]);
  }
  return out;
}

Result<std::vector<double>> InferAudioDbnSeries(
    const bayes::DynamicBayesianNetwork& dbn, const RaceEvidence& evidence,
    const bayes::DynamicBayesianNetwork::Clusters& clusters) {
  const bayes::NodeId ea = dbn.slice().FindNode(kExcitedAnnouncer);
  if (ea < 0) return Status::InvalidArgument("network has no EA node");
  std::vector<bayes::Evidence> sequence;
  sequence.reserve(evidence.clips.size());
  for (const auto& clip : evidence.clips) {
    sequence.push_back(MakeAudioEvidence(dbn.slice(), clip));
  }
  COBRA_ASSIGN_OR_RETURN(auto result, dbn.Filter(sequence, ea, clusters));
  std::vector<double> out;
  out.reserve(result.query_posterior.size());
  for (const auto& p : result.query_posterior) out.push_back(p[1]);
  return out;
}

Result<bayes::DynamicBayesianNetwork> TrainAudioVisualDbn(
    bool with_passing, const RaceEvidence& train,
    const TrainingOptions& options) {
  COBRA_ASSIGN_OR_RETURN(
      bayes::DynamicBayesianNetwork dbn,
      BuildAudioVisualDbn(with_passing, TemporalScheme::kFig8));
  Rng rng(options.seed);
  InitializeForEm(dbn, rng);

  // Training sequences: av_segments windows of av_segment_sec, each
  // centered on a ground-truth highlight so every sub-event is seen.
  const size_t seg = static_cast<size_t>(options.av_segment_sec * 10.0);
  const size_t n = train.clips.size();
  std::vector<size_t> anchors;
  bool prev = false;
  for (size_t c = 0; c < n; ++c) {
    const bool now = train.clips[c].truth_highlight;
    if (now && !prev) anchors.push_back(c);
    prev = now;
  }
  std::vector<std::vector<bayes::Evidence>> sequences;
  for (size_t a : anchors) {
    if (static_cast<int>(sequences.size()) >= options.av_segments) break;
    const size_t begin = a >= seg / 4 ? a - seg / 4 : 0;
    if (begin + seg > n) continue;
    std::vector<bayes::Evidence> sequence;
    sequence.reserve(seg);
    for (size_t c = begin; c < begin + seg; ++c) {
      sequence.push_back(MakeAudioVisualEvidence(dbn.slice(), train.clips[c],
                                                 options.supervised));
    }
    sequences.push_back(std::move(sequence));
  }
  if (sequences.empty()) {
    return Status::FailedPrecondition("no highlight anchors to train on");
  }
  bayes::DynamicBayesianNetwork::EmOptions em;
  em.max_iterations = options.em_iterations;
  COBRA_ASSIGN_OR_RETURN(double ll, dbn.TrainEm(sequences, em));
  (void)ll;
  return dbn;
}

Result<AvSeries> InferAudioVisual(const bayes::DynamicBayesianNetwork& dbn,
                                  const RaceEvidence& evidence) {
  const bayes::NodeId h = dbn.slice().FindNode(kHighlight);
  const bayes::NodeId st = dbn.slice().FindNode(kStartNode);
  const bayes::NodeId fo = dbn.slice().FindNode(kFlyOutNode);
  const bayes::NodeId pa = dbn.slice().FindNode(kPassingNode);
  if (h < 0) return Status::InvalidArgument("network has no Highlight node");

  std::vector<bayes::Evidence> sequence;
  sequence.reserve(evidence.clips.size());
  for (const auto& clip : evidence.clips) {
    sequence.push_back(MakeAudioVisualEvidence(dbn.slice(), clip));
  }
  COBRA_ASSIGN_OR_RETURN(auto result, dbn.Filter(sequence, h));
  AvSeries out;
  const size_t T = result.beliefs.size();
  out.highlight.reserve(T);
  out.start.reserve(T);
  out.flyout.reserve(T);
  if (pa >= 0) out.passing.reserve(T);
  for (size_t t = 0; t < T; ++t) {
    out.highlight.push_back(result.query_posterior[t][1]);
    out.start.push_back(dbn.MarginalFromBelief(result.beliefs[t], st)[1]);
    out.flyout.push_back(dbn.MarginalFromBelief(result.beliefs[t], fo)[1]);
    if (pa >= 0) {
      out.passing.push_back(dbn.MarginalFromBelief(result.beliefs[t], pa)[1]);
    }
  }
  return out;
}

HighlightResult ExtractHighlights(const AvSeries& series, double threshold,
                                  double min_duration_sec) {
  HighlightResult result;
  result.highlights =
      ExtractSegments(series.highlight, threshold, min_duration_sec);
  std::map<std::string, const std::vector<double>*> nodes;
  nodes["start"] = &series.start;
  nodes["flyout"] = &series.flyout;
  if (!series.passing.empty()) nodes["passing"] = &series.passing;
  for (const auto& seg : result.highlights) {
    auto typed = ClassifySubEvents(seg, nodes);
    result.sub_events.insert(result.sub_events.end(), typed.begin(),
                             typed.end());
  }
  return result;
}

std::vector<model::EventRecord> ExtractTextEvents(
    const RaceTimeline& timeline, const FrameRenderer::Options& video,
    double sample_fps) {
  return ExtractTextEvents(timeline, video, sample_fps,
                           kernel::ExecContext::Hardware());
}

std::vector<model::EventRecord> ExtractTextEvents(
    const RaceTimeline& timeline, const FrameRenderer::Options& video,
    double sample_fps, const kernel::ExecContext& ctx) {
  trace::SpanGuard span(ctx.trace, ctx.trace_parent, "extract.text");
  std::vector<model::EventRecord> out;
  const FrameRenderer renderer(timeline, video);
  const text::TextDetector detector;
  text::TextRecognizer recognizer(CaptionVocabulary());

  const double step = 1.0 / sample_fps;
  std::vector<image::Frame> bands;
  double caption_begin = 0.0;
  bool in_caption = false;

  auto finish = [&](double end_t) {
    if (bands.size() < detector.options().min_duration_frames) {
      bands.clear();
      return;
    }
    const image::Frame refined = text::RefineTextRegion(bands);
    const auto words = recognizer.Recognize(refined);
    bands.clear();
    if (words.empty()) return;
    std::vector<std::string> texts;
    std::string driver;
    for (const auto& w : words) {
      texts.push_back(w.text);
      for (const auto& name : DriverNames()) {
        if (w.text == name) driver = name;
      }
    }
    const std::string text = StrJoin(texts, " ");
    model::EventRecord caption;
    caption.type = "caption";
    caption.begin_sec = caption_begin;
    caption.end_sec = end_t;
    caption.attrs["text"] = text;
    if (!driver.empty()) caption.attrs["driver"] = driver;
    out.push_back(caption);

    auto has = [&texts](const char* word) {
      return std::find(texts.begin(), texts.end(), word) != texts.end();
    };
    model::EventRecord derived = caption;
    if (has("PIT") || has("STOP")) {
      derived.type = "pitstop";
      out.push_back(derived);
    } else if (has("WINNER")) {
      derived.type = "winner";
      out.push_back(derived);
    } else if (has("LEADER")) {
      derived.type = "classification";
      out.push_back(derived);
    } else if (has("OUT") || has("RETIRED")) {
      derived.type = "retired";
      out.push_back(derived);
    } else if (has("FINAL") || has("LAP")) {
      derived.type = "finallap";
      out.push_back(derived);
    }
  };

  // Sample times by repeated addition, as a serial scan steps through the
  // video: k * step differs from it in the last bits, and caption bounds
  // are these exact times.
  std::vector<double> times;
  for (double t = 0.0; t < timeline.profile.duration_sec; t += step) {
    times.push_back(t);
  }
  const kernel::ExecContext frame_ctx = ExtractContext(ctx);
  const size_t window =
      static_cast<size_t>(std::max(1, ctx.threadcnt)) * kExtractMorsel;
  // The caption band of each frame of the window that carries text.
  std::vector<std::optional<image::Frame>> slots;
  for (size_t w = 0; w < times.size(); w += window) {
    const size_t n = std::min(window, times.size() - w);
    slots.assign(n, std::nullopt);
    span.Morsels(frame_ctx.NumMorsels(n));
    kernel::ForEachMorsel(frame_ctx, n, [&](size_t, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const image::Frame frame = renderer.Render(times[w + i]);
        if (detector.FrameHasText(frame)) {
          slots[i] = detector.CaptionBand(frame);
        }
      }
    });
    for (size_t i = 0; i < n; ++i) {
      const double t = times[w + i];
      if (slots[i].has_value()) {
        if (!in_caption) {
          in_caption = true;
          caption_begin = t;
        }
        bands.push_back(std::move(*slots[i]));
      } else if (in_caption) {
        in_caption = false;
        finish(t);
      }
    }
  }
  if (in_caption) finish(timeline.profile.duration_sec);
  span.RowsIn(times.size());
  span.RowsOut(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// F1System
// ---------------------------------------------------------------------------

F1System::F1System()
    : videos_(&catalog_), engine_(&videos_, &registry_) {
  COBRA_CHECK(RegisterExtensions().ok());
}

const RaceTimeline* F1System::TimelineFor(model::VideoId id) const {
  auto it = timelines_.find(id);
  return it == timelines_.end() ? nullptr : &it->second;
}

const RaceEvidence* F1System::EvidenceFor(model::VideoId id) const {
  auto it = evidence_.find(id);
  return it == evidence_.end() ? nullptr : &it->second;
}

Status F1System::RegisterExtensions() {
  using extensions::CallbackExtension;
  // The audio-visual DBN extension: highlights and the three events.
  registry_.Register(std::make_unique<CallbackExtension>(
      "dbn-extension",
      std::vector<CallbackExtension::Provided>{
          {"highlight", 3.0, 0.85},
          {"start", 3.0, 0.85},
          {"flyout", 3.0, 0.70},
          {"passing", 3.0, 0.60},
          {"replay", 3.0, 0.80},
      },
      [this](model::VideoId id, const std::string&,
             model::VideoCatalog* catalog) {
        return ExtractDbnEvents(id, catalog);
      }));
  // Excited speech: the DBN method (better) and the BN method (cheaper).
  registry_.Register(std::make_unique<CallbackExtension>(
      "audio-dbn-extension",
      std::vector<CallbackExtension::Provided>{{"excited_speech", 2.0, 0.80}},
      [this](model::VideoId id, const std::string&,
             model::VideoCatalog* catalog) {
        return ExtractAudioEvents(id, catalog, /*use_dbn=*/true);
      }));
  registry_.Register(std::make_unique<CallbackExtension>(
      "audio-bn-extension",
      std::vector<CallbackExtension::Provided>{{"excited_speech", 1.0, 0.55}},
      [this](model::VideoId id, const std::string&,
             model::VideoCatalog* catalog) {
        return ExtractAudioEvents(id, catalog, /*use_dbn=*/false);
      }));
  // Superimposed-text extension.
  registry_.Register(std::make_unique<CallbackExtension>(
      "text-extension",
      std::vector<CallbackExtension::Provided>{
          {"caption", 1.5, 0.9},
          {"pitstop", 1.5, 0.9},
          {"winner", 1.5, 0.9},
          {"classification", 1.5, 0.9},
          {"retired", 1.5, 0.9},
          {"finallap", 1.5, 0.9},
      },
      [this](model::VideoId id, const std::string&,
             model::VideoCatalog* catalog) {
        return ExtractTextEventsFor(id, catalog);
      }));
  // Rule-based extension: compound events over the event layer.
  registry_.Register(std::make_unique<CallbackExtension>(
      "rule-extension",
      std::vector<CallbackExtension::Provided>{
          {"flyout_of", 0.5, 0.9},
          {"incident", 0.5, 0.9},
      },
      [this](model::VideoId id, const std::string&,
             model::VideoCatalog* catalog) {
        return ExtractRuleEvents(id, catalog);
      }));
  return Status::OK();
}

Result<model::VideoId> F1System::IngestRace(const RaceProfile& profile,
                                            const IngestOptions& options) {
  RaceTimeline timeline = GenerateTimeline(profile);
  RaceEvidence evidence = ExtractEvidence(timeline, options.evidence);

  COBRA_ASSIGN_OR_RETURN(
      model::VideoId id,
      videos_.RegisterVideo(profile.name, profile.duration_sec,
                            options.evidence.video.fps));

  if (!options.reuse_models || av_dbn_ == nullptr) {
    COBRA_ASSIGN_OR_RETURN(
        auto av, TrainAudioVisualDbn(/*with_passing=*/true, evidence,
                                     options.training));
    av_dbn_ = std::make_shared<bayes::DynamicBayesianNetwork>(std::move(av));
    COBRA_ASSIGN_OR_RETURN(
        auto adbn,
        TrainAudioDbn(AudioStructure::kFullyParameterized,
                      TemporalScheme::kFig8, evidence, options.training));
    audio_dbn_ =
        std::make_shared<bayes::DynamicBayesianNetwork>(std::move(adbn));
    COBRA_ASSIGN_OR_RETURN(
        auto abn, TrainAudioBn(AudioStructure::kFullyParameterized, evidence,
                               options.training));
    audio_bn_ = std::make_shared<bayes::BayesianNetwork>(std::move(abn));
  }

  timelines_[id] = std::move(timeline);
  evidence_[id] = std::move(evidence);
  video_options_[id] = options.evidence.video;

  // Object layer: the drivers.
  for (const auto& name : DriverNames()) {
    model::ObjectRecord driver;
    driver.cls = "driver";
    driver.name = name;
    COBRA_RETURN_IF_ERROR(videos_.StoreObject(id, driver));
  }

  if (options.materialize) {
    COBRA_RETURN_IF_ERROR(ExtractDbnEvents(id, &videos_));
    COBRA_RETURN_IF_ERROR(
        ExtractAudioEvents(id, &videos_, /*use_dbn=*/true));
    COBRA_RETURN_IF_ERROR(ExtractTextEventsFor(id, &videos_));
    COBRA_RETURN_IF_ERROR(ExtractRuleEvents(id, &videos_));
  }
  return id;
}

Status F1System::ExtractDbnEvents(model::VideoId id,
                                  model::VideoCatalog* catalog) {
  if (catalog->HasEvents(id, "highlight")) return Status::OK();
  const RaceEvidence* evidence = EvidenceFor(id);
  if (evidence == nullptr || av_dbn_ == nullptr) {
    return Status::FailedPrecondition("race not ingested");
  }
  COBRA_ASSIGN_OR_RETURN(AvSeries series,
                         InferAudioVisual(*av_dbn_, *evidence));
  const HighlightResult result = ExtractHighlights(series);
  for (const auto& seg : result.highlights) {
    model::EventRecord e;
    e.type = "highlight";
    e.begin_sec = seg.begin;
    e.end_sec = seg.end;
    COBRA_RETURN_IF_ERROR(catalog->StoreEvent(id, e));
  }
  for (const auto& typed : result.sub_events) {
    model::EventRecord e;
    e.type = typed.type;
    e.begin_sec = typed.span.begin;
    e.end_sec = typed.span.end;
    COBRA_RETURN_IF_ERROR(catalog->StoreEvent(id, e));
  }
  // Replay segments straight from the visual cue.
  for (const auto& seg :
       ExtractSegments(ReplaySeries(*evidence), 0.5, 2.0)) {
    model::EventRecord e;
    e.type = "replay";
    e.begin_sec = seg.begin;
    e.end_sec = seg.end;
    COBRA_RETURN_IF_ERROR(catalog->StoreEvent(id, e));
  }
  return Status::OK();
}

Status F1System::ExtractAudioEvents(model::VideoId id,
                                    model::VideoCatalog* catalog,
                                    bool use_dbn) {
  if (catalog->HasEvents(id, "excited_speech")) return Status::OK();
  const RaceEvidence* evidence = EvidenceFor(id);
  if (evidence == nullptr) return Status::FailedPrecondition("not ingested");
  std::vector<double> series;
  if (use_dbn) {
    if (audio_dbn_ == nullptr) {
      return Status::FailedPrecondition("no trained audio DBN");
    }
    COBRA_ASSIGN_OR_RETURN(series, InferAudioDbnSeries(*audio_dbn_, *evidence));
  } else {
    if (audio_bn_ == nullptr) {
      return Status::FailedPrecondition("no trained audio BN");
    }
    COBRA_ASSIGN_OR_RETURN(auto raw, InferAudioBnSeries(*audio_bn_, *evidence));
    series = AccumulateOverTime(raw, 15);
  }
  const double threshold = use_dbn ? 0.5 : AdaptiveThreshold(series);
  for (const auto& seg : ExtractSegments(series, threshold, 2.0)) {
    model::EventRecord e;
    e.type = "excited_speech";
    e.begin_sec = seg.begin;
    e.end_sec = seg.end;
    COBRA_RETURN_IF_ERROR(catalog->StoreEvent(id, e));
  }
  return Status::OK();
}

Status F1System::ExtractTextEventsFor(model::VideoId id,
                                      model::VideoCatalog* catalog) {
  if (catalog->HasEvents(id, "caption")) return Status::OK();
  const RaceTimeline* timeline = TimelineFor(id);
  if (timeline == nullptr) return Status::FailedPrecondition("not ingested");
  const auto events = ExtractTextEvents(*timeline, video_options_[id]);
  return catalog->StoreEvents(id, events);
}

Status F1System::ExtractRuleEvents(model::VideoId id,
                                   model::VideoCatalog* catalog) {
  if (catalog->HasEvents(id, "flyout_of")) return Status::OK();
  // Dependencies: DBN events + text events.
  COBRA_RETURN_IF_ERROR(ExtractDbnEvents(id, catalog));
  COBRA_RETURN_IF_ERROR(ExtractTextEventsFor(id, catalog));

  rules::RuleEngine engine;
  // A fly-out followed closely by a "retired" caption is that driver's
  // fly-out.
  rules::Rule flyout_of;
  flyout_of.name = "flyout-of-driver";
  flyout_of.first.type = "flyout";
  flyout_of.second.type = "retired";
  flyout_of.binary = true;
  flyout_of.allowed_relations = {
      rules::AllenRelation::kBefore, rules::AllenRelation::kMeets,
      rules::AllenRelation::kOverlaps, rules::AllenRelation::kDuring,
      rules::AllenRelation::kContains, rules::AllenRelation::kOverlappedBy};
  flyout_of.max_gap_sec = 8.0;
  flyout_of.derived_type = "flyout_of";
  flyout_of.combine = rules::IntervalCombine::kFirst;
  flyout_of.derived_attrs = {{"driver", "$2.driver"}};
  engine.AddRule(flyout_of);

  // A highlight followed by a replay scene forms an "incident" compound.
  rules::Rule incident;
  incident.name = "incident";
  incident.first.type = "highlight";
  incident.second.type = "replay";
  incident.binary = true;
  incident.allowed_relations = {rules::AllenRelation::kBefore,
                                rules::AllenRelation::kMeets,
                                rules::AllenRelation::kOverlaps};
  incident.max_gap_sec = 15.0;
  incident.derived_type = "incident";
  incident.combine = rules::IntervalCombine::kUnion;
  engine.AddRule(incident);

  COBRA_ASSIGN_OR_RETURN(auto all_events, catalog->Events(id));
  std::vector<rules::EventFact> facts;
  for (const auto& e : all_events) {
    facts.push_back(model::VideoCatalog::ToFact(e));
  }
  const auto derived = engine.Infer(facts);
  for (size_t i = facts.size(); i < derived.size(); ++i) {
    COBRA_RETURN_IF_ERROR(
        catalog->StoreEvent(id, model::VideoCatalog::FromFact(derived[i])));
  }
  // Mark the types as materialized even when no instances were derived so
  // the preprocessor does not retry extraction on every query.
  if (!catalog->HasEvents(id, "flyout_of")) {
    model::EventRecord sentinel;
    sentinel.type = "flyout_of";
    sentinel.begin_sec = -1.0;
    sentinel.end_sec = -1.0;
    sentinel.confidence = 0.0;
    COBRA_RETURN_IF_ERROR(catalog->StoreEvent(id, sentinel));
  }
  return Status::OK();
}

}  // namespace cobra::f1
