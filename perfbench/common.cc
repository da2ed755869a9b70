#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench.h"

namespace perfbench {

// -- Time and memory ----------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double MidMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t quarter = values.size() / 4;
  double sum = 0.0;
  for (size_t i = quarter; i < values.size() - quarter; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * quarter);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- Result line --------------------------------------------------------------

void RunResult::Wrong(const std::string& what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(what);
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

// -- Spans --------------------------------------------------------------------

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = SecondsSince(origin_);
  spans_.push_back(std::move(span));
  child_seconds_.push_back(0.0);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end = SecondsSince(origin_);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  if (span.parent >= 0) {
    child_seconds_[static_cast<size_t>(span.parent)] += span.end - span.start;
  }
}

double SpanRecorder::SelfOf(int index) const {
  const Span& span = spans_[static_cast<size_t>(index)];
  return (span.end - span.start) - child_seconds_[static_cast<size_t>(index)];
}

double SpanRecorder::SelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += SelfOf(static_cast<int>(i));
  }
  return total;
}

double SpanCostSeconds() {
  constexpr int kSpans = 100000;
  SpanRecorder probe;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe.End(probe.Begin("probe"));
  return SecondsSince(t0) / kSpans;
}

// -- Events and segments ------------------------------------------------------

bool Event::operator<(const Event& o) const {
  if (begin != o.begin) return begin < o.begin;
  if (end != o.end) return end < o.end;
  if (type != o.type) return type < o.type;
  if (confidence != o.confidence) return confidence < o.confidence;
  return attrs < o.attrs;
}

bool Event::operator==(const Event& o) const {
  return type == o.type && begin == o.begin && end == o.end &&
         confidence == o.confidence && attrs == o.attrs;
}

namespace {

bool Unescape(const std::string& in, std::string* out) {
  out->clear();
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      out->push_back(in[i]);
      continue;
    }
    if (i + 2 >= in.size()) return false;
    const std::string hex = in.substr(i + 1, 2);
    if (!std::isxdigit(static_cast<unsigned char>(hex[0])) ||
        !std::isxdigit(static_cast<unsigned char>(hex[1]))) {
      return false;
    }
    out->push_back(static_cast<char>(std::stoi(hex, nullptr, 16)));
    i += 2;
  }
  return true;
}

bool ParseHexDouble(const std::string& field, const char* key, double* out) {
  const std::string prefix = std::string(key) + "=";
  if (field.compare(0, prefix.size(), prefix) != 0) return false;
  const std::string hex = field.substr(prefix.size());
  if (hex.size() != 16) return false;
  for (char c : hex) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  const uint64_t bits = std::stoull(hex, nullptr, 16);
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

bool Matches(const Event& e, const std::string& type,
             const std::map<std::string, std::string>& where) {
  if (e.type != type) return false;
  for (const auto& [key, value] : where) {
    auto it = e.attrs.find(key);
    if (it == e.attrs.end() || Upper(it->second) != Upper(value)) return false;
  }
  return true;
}

bool TemporalHolds(Temporal op, const Event& p, const Event& s) {
  switch (op) {
    case Temporal::kNone:
      return true;
    case Temporal::kDuring:  // primary inside (or equal to) the secondary
      return p.begin >= s.begin && p.end <= s.end;
    case Temporal::kOverlapping:  // the intervals intersect
      return p.begin <= s.end && s.begin <= p.end;
    case Temporal::kBefore:  // primary ends before the secondary starts
      return p.end <= s.begin;
    case Temporal::kAfter:  // primary starts after the secondary ends
      return p.begin >= s.end;
    case Temporal::kContaining:  // primary contains the secondary
      return s.begin >= p.begin && s.end <= p.end;
  }
  return false;
}

const char* TemporalWord(Temporal op) {
  switch (op) {
    case Temporal::kNone: return "";
    case Temporal::kDuring: return "DURING";
    case Temporal::kOverlapping: return "OVERLAPPING";
    case Temporal::kBefore: return "BEFORE";
    case Temporal::kAfter: return "AFTER";
    case Temporal::kContaining: return "CONTAINING";
  }
  return "";
}

std::string WhereText(const std::map<std::string, std::string>& where) {
  std::string out;
  for (const auto& [key, value] : where) {
    out += out.empty() ? " WHERE " : " AND ";
    out += key + " = '" + value + "'";
  }
  return out;
}

std::string Describe(const Event& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s [%.3f, %.3f] c=%.3f (%zu attrs)",
                e.type.c_str(), e.begin, e.end, e.confidence, e.attrs.size());
  return buf;
}

/// Multiset comparison of two event lists; names the first difference.
bool SameEvents(std::vector<Event> got, std::vector<Event> want,
                std::string* why) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return true;
  if (why != nullptr) {
    size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    *why = "got " + std::to_string(got.size()) + " events, want " +
           std::to_string(want.size());
    if (i < got.size()) *why += "; unexpected " + Describe(got[i]);
    if (i < want.size()) *why += "; missing " + Describe(want[i]);
  }
  return false;
}

}  // namespace

bool DecodeSegment(const std::string& line, Event* out) {
  std::vector<std::string> fields;
  size_t pos = 0;
  while (pos <= line.size()) {
    const size_t space = line.find(' ', pos);
    const size_t stop = space == std::string::npos ? line.size() : space;
    fields.push_back(line.substr(pos, stop - pos));
    if (space == std::string::npos) break;
    pos = space + 1;
  }
  if (fields.size() < 5 || fields[0] != "S") return false;
  Event e;
  if (!Unescape(fields[1], &e.type)) return false;
  if (!ParseHexDouble(fields[2], "b", &e.begin) ||
      !ParseHexDouble(fields[3], "e", &e.end) ||
      !ParseHexDouble(fields[4], "c", &e.confidence)) {
    return false;
  }
  for (size_t i = 5; i < fields.size(); ++i) {
    const size_t eq = fields[i].find('=');
    if (eq == std::string::npos) return false;
    std::string key, value;
    if (!Unescape(fields[i].substr(0, eq), &key) ||
        !Unescape(fields[i].substr(eq + 1), &value)) {
      return false;
    }
    e.attrs[key] = value;
  }
  *out = std::move(e);
  return true;
}

std::string QuerySpec::Text() const {
  std::string out = prefix + "RETRIEVE " + type + " FROM '" + video + "'" +
                    WhereText(where);
  if (op != Temporal::kNone) {
    out += std::string(" ") + TemporalWord(op) + " " + type2 + WhereText(where2);
  }
  return out;
}

std::vector<Event> EvaluateOracle(const QuerySpec& query,
                                  const std::vector<Event>& video_events) {
  std::vector<const Event*> secondary;
  if (query.op != Temporal::kNone) {
    for (const Event& e : video_events) {
      if (Matches(e, query.type2, query.where2)) secondary.push_back(&e);
    }
  }
  std::vector<Event> out;
  for (const Event& e : video_events) {
    if (!Matches(e, query.type, query.where)) continue;
    bool keep = query.op == Temporal::kNone;
    for (const Event* s : secondary) {
      if (TemporalHolds(query.op, e, *s)) {
        keep = true;
        break;
      }
    }
    if (keep) out.push_back(e);
  }
  return out;
}

bool CheckSegments(const std::vector<std::string>& lines,
                   std::vector<Event> expected, std::string* why) {
  std::vector<Event> got;
  got.reserve(lines.size());
  for (const std::string& line : lines) {
    Event e;
    if (!DecodeSegment(line, &e)) {
      if (why != nullptr) *why = "undecodable segment line: " + line;
      return false;
    }
    if (!got.empty() && e.begin < got.back().begin) {
      if (why != nullptr) *why = "segments not in begin order";
      return false;
    }
    got.push_back(std::move(e));
  }
  return SameEvents(std::move(got), std::move(expected), why);
}

bool CheckWatchStream(const std::vector<Delivered>& stream,
                      std::vector<Event> expected, std::string* why) {
  std::vector<Event> got;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].seq != i + 1) {
      if (why != nullptr) {
        *why = "watch " + std::to_string(stream[i].watch) + " delivered seq " +
               std::to_string(stream[i].seq) + " at position " +
               std::to_string(i + 1);
      }
      return false;
    }
    Event e;
    if (!DecodeSegment(stream[i].segment, &e)) {
      if (why != nullptr) *why = "undecodable notification segment";
      return false;
    }
    got.push_back(std::move(e));
  }
  return SameEvents(std::move(got), std::move(expected), why);
}

bool CheckRecovered(std::vector<Event> recovered, std::vector<Event> stored,
                    std::string* why) {
  return SameEvents(std::move(recovered), std::move(stored), why);
}

bool CheckWithinVideo(const std::vector<Event>& events, double duration,
                      std::string* why) {
  for (const Event& e : events) {
    if (!(e.begin >= 0.0 && e.end <= duration && e.begin <= e.end)) {
      if (why != nullptr) {
        *why = "segment outside [0, " + std::to_string(duration) +
               "]: " + Describe(e);
      }
      return false;
    }
  }
  return true;
}

RangeVerdict CheckRange(const std::string& type, bool race_has_flyouts,
                        const std::vector<Event>& events, double duration,
                        std::string* why) {
  if (CheckWithinVideo(events, duration, why)) return RangeVerdict::kInside;
  if (type != "flyout_of" || race_has_flyouts) return RangeVerdict::kWrong;
  for (const Event& e : events) {
    const bool inside = e.begin >= 0.0 && e.end <= duration && e.begin <= e.end;
    if (!inside && !(e.begin == -1.0 && e.end == -1.0)) {
      return RangeVerdict::kWrong;
    }
  }
  return RangeVerdict::kSentinel;
}

// -- MIL oracle -----------------------------------------------------------------

bool MilAggregates::operator==(const MilAggregates& o) const {
  return selected == o.selected && joined == o.joined &&
         semijoined == o.semijoined && groups == o.groups && sum == o.sum &&
         max == o.max && argmax == o.argmax;
}

MilAggregates MilOracle(const std::vector<double>& a,
                        const std::vector<double>& b, double lo, double hi) {
  MilAggregates out;
  std::set<double> distinct;
  size_t position = 0;
  bool any = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] >= lo && a[i] <= hi)) continue;
    out.selected += 1.0;
    if (i >= b.size()) continue;
    out.joined += 1.0;
    out.semijoined += 1.0;
    distinct.insert(b[i]);
    out.sum += b[i];
    if (!any || b[i] > out.max) {
      out.max = b[i];
      out.argmax = static_cast<double>(position);
      any = true;
    }
    ++position;
  }
  out.groups = static_cast<double>(distinct.size());
  return out;
}

bool CheckMilAggregates(const MilAggregates& got, const MilAggregates& want,
                        std::string* why) {
  if (got == want) return true;
  if (why != nullptr) {
    char buf[640];
    std::snprintf(buf, sizeof(buf),
                  "mil got sel=%.17g join=%.17g semi=%.17g groups=%.17g "
                  "sum=%.17g max=%.17g argmax=%.17g; want sel=%.17g "
                  "join=%.17g semi=%.17g groups=%.17g sum=%.17g max=%.17g "
                  "argmax=%.17g",
                  got.selected, got.joined, got.semijoined, got.groups,
                  got.sum, got.max, got.argmax, want.selected, want.joined,
                  want.semijoined, want.groups, want.sum, want.max,
                  want.argmax);
    *why = buf;
  }
  return false;
}

}  // namespace perfbench
