// The `mil` workload: the kernel level, which no retrieval query reaches.
//
// Set-up stores per-clip feature series of 90-minute races as float BATs
// through VideoCatalog::StoreFeatureSeries. The timed phase runs MIL scripts
// through kernel::MilSession, each a select, a join and a semijoin, a group
// and the sum/max/argmax aggregates, at threadcnt 1 and nproc and at shards
// 1 and 4 (paper Fig. 4). Every aggregate is checked against values the
// benchmark recomputes from the generated series.

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "bench.h"
#include "cobra/video_model.h"
#include "kernel/catalog.h"
#include "kernel/mil.h"

namespace perfbench {
namespace {

constexpr int kRaces = 16;
constexpr double kRaceSeconds = 5400.0;  // 54,000 clips per series
constexpr int kLoads = 9;
// The last kColdLoads loads are each followed by a cold pass.
constexpr int kColdLoads = 5;
// Ingest samples per round of the timed phase.
constexpr int kLoadsPerRound = 6;
// Selection lower bounds the scripts cycle through (upper bound 1.0).
const double kLows[] = {0.5, 0.625, 0.75};

struct Variant {
  int threads = 1;
  int shards = 1;
  std::string label;
};

std::vector<Variant> Variants() {
  const int n = static_cast<int>(
      std::max(2u, std::min(4u, std::thread::hardware_concurrency())));
  return {{1, 1, "t1_s1"}, {n, 1, "tN_s1"}, {1, 4, "t1_s4"}, {n, 4, "tN_s4"}};
}

/// Per-clip series in [0, 1] on a 1/64 grid: a bounded random walk, so
/// neighbouring clips are correlated as real feature series are. Dyadic
/// values keep every sum exact in any order of addition.
std::vector<double> Series(std::mt19937_64* rng, size_t clips) {
  std::vector<double> out(clips);
  int level = static_cast<int>((*rng)() % 65);
  for (size_t i = 0; i < clips; ++i) {
    const int step = static_cast<int>((*rng)() % 7) - 3;
    level = std::clamp(level + step, 0, 64);
    out[i] = static_cast<double>(level) / 64.0;
  }
  return out;
}

struct Race {
  std::vector<double> ste;    // selection feature
  std::vector<double> pitch;  // value feature
};

struct Loaded {
  std::unique_ptr<cobra::kernel::Catalog> kernel;
  std::unique_ptr<cobra::model::VideoCatalog> videos;
  std::vector<std::string> ste_bat, pitch_bat;
};

Loaded Load(const std::vector<Race>& races, RunResult* result) {
  Loaded out;
  out.kernel = std::make_unique<cobra::kernel::Catalog>();
  out.videos = std::make_unique<cobra::model::VideoCatalog>(out.kernel.get());
  for (size_t r = 0; r < races.size(); ++r) {
    auto id = out.videos->RegisterVideo("race-" + std::to_string(r),
                                        kRaceSeconds);
    if (!id.ok() ||
        !out.videos->StoreFeatureSeries(*id, "ste", races[r].ste).ok() ||
        !out.videos->StoreFeatureSeries(*id, "pitch", races[r].pitch).ok()) {
      result->Wrong("loading feature series failed");
      return out;
    }
    // The model layer's BAT naming (src/cobra/video_model.cc).
    out.ste_bat.push_back("feature." + std::to_string(*id) + ".ste");
    out.pitch_bat.push_back("feature." + std::to_string(*id) + ".pitch");
  }
  return out;
}

double GetNumber(const cobra::kernel::MilSession& session,
                 const std::string& name) {
  auto value = session.Get(name);
  if (!value.ok()) return -1.0;
  const double* d = std::get_if<double>(*value);
  return d == nullptr ? -1.0 : *d;
}

/// Number of groups in `g := group(j)`, or -1 when the grouping is wrong:
/// the ids must be dense in first-occurrence order, and two rows must share
/// an id exactly when their values in `j` are equal.
double GroupCount(const cobra::kernel::MilSession& session) {
  auto g = session.Get("g");
  auto j = session.Get("j");
  if (!g.ok() || !j.ok()) return -1.0;
  const auto* groups = std::get_if<cobra::kernel::Bat>(*g);
  const auto* joined = std::get_if<cobra::kernel::Bat>(*j);
  if (groups == nullptr || joined == nullptr ||
      groups->oid_tails().size() != joined->float_tails().size()) {
    return -1.0;
  }
  std::map<double, uint64_t> id_of;
  for (size_t i = 0; i < groups->oid_tails().size(); ++i) {
    const double v = joined->float_tails()[i];
    const uint64_t id = groups->oid_tails()[i];
    auto it = id_of.find(v);
    if (it == id_of.end()) {
      if (id != id_of.size()) return -1.0;
      id_of.emplace(v, id);
    } else if (it->second != id) {
      return -1.0;
    }
  }
  return static_cast<double>(id_of.size());
}

/// Time spent per operator class, and rows they consumed.
struct OpTimes {
  double select_s = 0, join_s = 0, group_s = 0, aggregate_s = 0;
  double calls = 0;
};

/// One script: race `r`, selection bound `lo`, under `variant`. The four
/// operator classes run as separate Execute calls (statements), each timed;
/// their times are appended to `statement_s` when it is given.
void RunScript(cobra::kernel::MilSession* session, int r, double lo,
               const Variant& variant, const MilAggregates& want,
               OpTimes* times, double* rows, std::vector<double>* statement_s,
               RunResult* result) {
  const std::string a = std::string("a").append(std::to_string(r));
  const std::string b = std::string("b").append(std::to_string(r));
  char bound[32];
  std::snprintf(bound, sizeof(bound), "%.17g", lo);
  const std::string setup = "threadcnt(" + std::to_string(variant.threads) +
                            "); shards(" + std::to_string(variant.shards) +
                            ");";
  const std::string select =
      "s := select(" + a + ", " + bound + ", 1.0);";
  const std::string join = "j := join(mirror(s), " + b + "); sj := semijoin(" +
                           b + ", s);";
  const std::string group = "g := group(j);";
  const std::string aggregate =
      "ns := count(s); nj := count(j); nsj := count(sj); sm := sum(j); "
      "mx := max(j); am := argmax(j);";
  double stage_s[4] = {0, 0, 0, 0};
  const std::string* stages[4] = {&select, &join, &group, &aggregate};
  bool ok = session->Execute(setup).ok();
  for (int i = 0; i < 4 && ok; ++i) {
    const auto s0 = Clock::now();
    auto out = session->Execute(*stages[i]);
    stage_s[i] = SecondsSince(s0);
    if (!out.ok()) {
      result->Wrong("MIL script failed: " + out.status().ToString());
      ok = false;
    }
  }
  if (!ok) return;
  if (statement_s != nullptr) {
    statement_s->insert(statement_s->end(), stage_s, stage_s + 4);
  }
  times->select_s += stage_s[0];
  times->join_s += stage_s[1];
  times->group_s += stage_s[2];
  times->aggregate_s += stage_s[3];
  times->calls += 1;

  MilAggregates got;
  got.selected = GetNumber(*session, "ns");
  got.joined = GetNumber(*session, "nj");
  got.semijoined = GetNumber(*session, "nsj");
  got.groups = GroupCount(*session);
  got.sum = GetNumber(*session, "sm");
  got.max = GetNumber(*session, "mx");
  got.argmax = GetNumber(*session, "am");
  std::string why;
  if (!CheckMilAggregates(got, want, &why)) {
    result->Wrong("race " + std::to_string(r) + " " + variant.label + ": " +
                  why);
  }
  // Operator input rows: the select scans a; join and semijoin read s and b;
  // group and the three value aggregates read j.
  const double n_a = static_cast<double>(kRaceSeconds * 10.0);
  *rows += n_a + 2.0 * (want.selected + n_a) + 4.0 * want.joined;
}

/// Sums the index counters of a MIL trace span tree.
void CountIndexes(const cobra::trace::Span& span, double* builds,
                  double* probes) {
  *builds += static_cast<double>(span.index_builds);
  *probes += static_cast<double>(span.index_probes);
  for (const auto& child : span.children) CountIndexes(*child, builds, probes);
}

}  // namespace

RunResult RunMil(const Options& options) {
  RunResult result;
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ull + 1);
  const size_t clips = static_cast<size_t>(kRaceSeconds * 10.0);
  std::vector<Race> races(kRaces);
  for (Race& race : races) {
    race.ste = Series(&rng, clips);
    race.pitch = Series(&rng, clips);
  }
  std::vector<std::vector<MilAggregates>> want(kRaces);
  for (int r = 0; r < kRaces; ++r) {
    for (double lo : kLows) {
      want[r].push_back(MilOracle(races[r].ste, races[r].pitch, lo, 1.0));
    }
  }
  const std::vector<Variant> variants = Variants();
  const double minutes = kRaces * kRaceSeconds / 60.0;

  // Set-up: load into a fresh catalog kLoads times. After each of the last
  // kColdLoads loads a fresh session binds the BATs and runs every race's
  // script once, serially: the cold pass.
  std::vector<double> load_s, cold_s;
  Loaded loaded;
  std::unique_ptr<cobra::kernel::MilSession> session;
  // Operator times of the cold and traced-only passes, which no metric uses.
  OpTimes discarded_times;
  double discarded_rows = 0.0;
  for (int l = 0; l < kLoads; ++l) {
    session.reset();
    loaded = Loaded();
    const auto t0 = Clock::now();
    loaded = Load(races, &result);
    load_s.push_back(SecondsSince(t0));
    if (!result.correct) return result;
    if (l + kColdLoads < kLoads) continue;
    session = std::make_unique<cobra::kernel::MilSession>(loaded.kernel.get());
    std::string bind;
    for (int r = 0; r < kRaces; ++r) {
      bind += "VAR a" + std::to_string(r) + " := bat(\"" + loaded.ste_bat[r] +
              "\"); VAR b" + std::to_string(r) + " := bat(\"" +
              loaded.pitch_bat[r] + "\");";
    }
    bind += "VAR s := new(\"dbl\"); VAR j := new(\"dbl\"); "
            "VAR sj := new(\"dbl\"); VAR g := new(\"oid\"); VAR ns := 0; "
            "VAR nj := 0; VAR nsj := 0; VAR sm := 0; VAR mx := 0; "
            "VAR am := 0;";
    const auto c0 = Clock::now();
    auto bound = session->Execute(bind);
    if (!bound.ok()) {
      result.Wrong("binding BATs failed: " + bound.status().ToString());
      return result;
    }
    for (int r = 0; r < kRaces; ++r) {
      RunScript(session.get(), r, kLows[0], variants[0], want[r][0],
                &discarded_times, &discarded_rows, nullptr, &result);
      ++result.attempted;
    }
    cold_s.push_back(SecondsSince(c0));
  }

  // Timed phase: whole rounds (every variant on every race) until the run
  // length is reached. Each round also loads the series kLoadsPerRound more
  // times into scratch catalogs, outside the statement timings: the ingest
  // samples, spread over the run rather than bunched in set-up.
  std::vector<double> round_load_s;
  std::map<std::string, OpTimes> times;
  std::vector<double> statement_s;
  double rows = 0.0, op_s = 0.0;
  const auto run0 = Clock::now();
  size_t round = 0;
  do {
    const size_t low = (round + 1) % (sizeof(kLows) / sizeof(kLows[0]));
    for (int l = 0; l < kLoadsPerRound; ++l) {
      const auto l0 = Clock::now();
      const Loaded scratch = Load(races, &result);
      round_load_s.push_back(SecondsSince(l0));
    }
    for (const Variant& v : variants) {
      for (int r = 0; r < kRaces; ++r) {
        RunScript(session.get(), r, kLows[low], v, want[r][low],
                  &times[v.label], &rows, &statement_s, &result);
        ++result.attempted;
      }
    }
    ++round;
  } while (SecondsSince(run0) < options.seconds);

  if (!options.trace) {
    // Every load is a set-up of the BATs; the median over the set-up loads
    // and those spread over the timed phase is steadier than the set-up
    // loads alone, which all fall within a fraction of a second.
    load_s.insert(load_s.end(), round_load_s.begin(), round_load_s.end());
    result.Set("setup_s", Median(load_s), "s");
    result.Set("ingest_s_per_min", MidMean(round_load_s) / minutes, "s/min");
    result.Set("cold_query_s", Median(cold_s), "s");
    result.Set("query_p50_ms", 1e3 * Quantile(statement_s, 0.50), "ms");
    result.Set("query_p90_ms", 1e3 * Quantile(statement_s, 0.90), "ms");
    // Statements per second of statement time: the scratch loads and the
    // benchmark's own checks between statements stay off this clock.
    double statements_s = 0.0;
    for (double s : statement_s) statements_s += s;
    result.Set("query_per_s",
               static_cast<double>(statement_s.size()) / statements_s, "1/s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }
  for (const auto& [label, t] : times) {
    const double calls = std::max(1.0, t.calls);
    result.Set("kernel.select_ms." + label, 1e3 * t.select_s / calls, "ms");
    result.Set("kernel.join_ms." + label, 1e3 * t.join_s / calls, "ms");
    result.Set("kernel.group_ms." + label, 1e3 * t.group_s / calls, "ms");
    result.Set("kernel.aggregate_ms." + label, 1e3 * t.aggregate_s / calls,
               "ms");
    op_s += t.select_s + t.join_s + t.group_s + t.aggregate_s;
  }
  result.Set("kernel.rows_per_s", rows / op_s, "1/s");
  // Index activity from the kernel's own instrument: one more round with
  // the session's trace on, summing the operators' span counters.
  double builds = 0.0, probes = 0.0;
  if (session->Execute("trace on;").ok()) {
    for (const Variant& v : variants) {
      for (int r = 0; r < kRaces; ++r) {
        RunScript(session.get(), r, kLows[0], v, want[r][0], &discarded_times,
                  &discarded_rows, nullptr, &result);
        ++result.attempted;
      }
    }
    if (session->trace_sink() != nullptr) {
      for (const auto& root : session->trace_sink()->roots()) {
        CountIndexes(*root, &builds, &probes);
      }
    }
  }
  result.Set("kernel.index_builds", builds, "count");
  result.Set("kernel.index_probes", probes, "count");
  return result;
}

}  // namespace perfbench
