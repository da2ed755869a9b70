// Shared pieces of the Cobra end-to-end benchmark: timing, span recording,
// the result line, and the oracles that check the program's outputs against
// values the benchmark computes on its own.
#ifndef COBRA_PERFBENCH_BENCH_H_
#define COBRA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// -- Time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Mean of the middle half of `values` (the lowest and highest quarter
/// dropped); 0 when empty.
double MidMean(std::vector<double> values);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// -- Run options and result -------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run hands back: operations attempted and failed, the
/// checks' verdict, and the metrics (end-to-end ones for an untraced run,
/// per-layer ones for a traced run).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Human-readable findings of failed checks (printed to stderr).
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed correctness check. Only the first few are kept.
  void Wrong(const std::string& what);
};

/// The single JSON object the benchmark prints as its last line.
std::string ResultJson(const RunResult& result);

RunResult RunBroadcast(const Options& options);
RunResult RunArchive(const Options& options);
RunResult RunLive(const Options& options);
RunResult RunMil(const Options& options);

// -- Spans --------------------------------------------------------------------

/// In-memory span recorder for the traced runs: each span has a name, a
/// parent, a start and an end. Spans are written out only when the run ends.
/// Self time of a span is its duration minus the time its children cover.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  // seconds since the recorder was made
    double end = 0.0;
  };

  SpanRecorder();
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the self time of every span called `name`.
  double SelfSeconds(const std::string& name) const;
  /// Duration of span `index` not covered by its children.
  double SelfOf(int index) const;
  size_t count() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> child_seconds_;
};

/// Measured cost of recording one span (Begin plus End), in seconds: the
/// tracing overhead of a run is its span count times this.
double SpanCostSeconds();

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), index_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// -- Oracles ------------------------------------------------------------------
//
// Everything below is computed apart from the program: the benchmark keeps
// its own copy of the events it stored and evaluates the retrieval language's
// documented semantics (src/query/parser.h) over that copy.

/// One event as the benchmark knows it.
struct Event {
  std::string type;
  double begin = 0.0;
  double end = 0.0;
  double confidence = 1.0;
  std::map<std::string, std::string> attrs;

  bool operator<(const Event& o) const;
  bool operator==(const Event& o) const;
};

/// Decodes one canonical wire segment line ("S <type> b=<hex64> e=<hex64>
/// c=<hex64> <key>=<value>...", percent-escaped). False on a malformed line.
bool DecodeSegment(const std::string& line, Event* out);

enum class Temporal { kNone, kDuring, kOverlapping, kBefore, kAfter,
                      kContaining };

/// One retrieval query of the benchmark's mixes, kept in structured form so
/// the oracle never parses the text the program parses.
struct QuerySpec {
  std::string prefix;  // "", "PROFILE " or "EXPLAIN "
  std::string type;
  std::string video;
  std::map<std::string, std::string> where;  // key -> value, as written
  Temporal op = Temporal::kNone;
  std::string type2;
  std::map<std::string, std::string> where2;

  std::string Text() const;
};

/// The documented semantics: type equality, case-insensitive attribute
/// equality, and a semijoin on the temporal operator. Returns the matching
/// primary events in no particular order.
std::vector<Event> EvaluateOracle(const QuerySpec& query,
                                  const std::vector<Event>& video_events);

/// Checks a response's segments against the oracle's result: every line
/// decodes, begin times never decrease, and the multiset of segments equals
/// the expected one. Fills `why` on a mismatch.
bool CheckSegments(const std::vector<std::string>& lines,
                   std::vector<Event> expected, std::string* why);

/// One delivered watch notification, reduced to what the check needs.
struct Delivered {
  uint64_t watch = 0;
  uint64_t seq = 0;
  std::string segment;
};

/// Checks one watch's notification stream: sequence numbers run gap-free
/// from 1 in delivery order, and the delivered segments are exactly the
/// `expected` events (as a multiset).
bool CheckWatchStream(const std::vector<Delivered>& stream,
                      std::vector<Event> expected, std::string* why);

/// Checks that a recovered event set equals the stored one (multiset).
bool CheckRecovered(std::vector<Event> recovered, std::vector<Event> stored,
                    std::string* why);

/// Checks that every segment lies within [0, duration].
bool CheckWithinVideo(const std::vector<Event>& events, double duration,
                      std::string* why);

/// How one retrieval result stands against its video's extent.
enum class RangeVerdict {
  kInside,    // every segment lies within [0, duration]
  kSentinel,  // the rule extension's known `flyout_of` sentinel: the
              // operation counts as failed
  kWrong,     // any other segment outside the video: a wrong output
};

/// Only a `flyout_of` result on a race without fly-outs may hold the
/// program's sentinel, and there only segments at exactly [-1 s, -1 s].
RangeVerdict CheckRange(const std::string& type, bool race_has_flyouts,
                        const std::vector<Event>& events, double duration,
                        std::string* why);

/// The aggregates one MIL script computes over one feature pair, recomputed
/// from the generated values.
struct MilAggregates {
  double selected = 0.0;  // count(select(a, lo, hi))
  double joined = 0.0;    // count(join(mirror(sel), b))
  double semijoined = 0.0;
  double groups = 0.0;    // distinct b values among the joined rows
  double sum = 0.0;       // sum of the joined b values
  double max = 0.0;
  double argmax = 0.0;    // position of the first maximum in the join

  bool operator==(const MilAggregates& o) const;
};

MilAggregates MilOracle(const std::vector<double>& a,
                        const std::vector<double>& b, double lo, double hi);

bool CheckMilAggregates(const MilAggregates& got, const MilAggregates& want,
                        std::string* why);

}  // namespace perfbench

#endif  // COBRA_PERFBENCH_BENCH_H_
