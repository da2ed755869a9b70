// Self-test of the benchmark's checks: each oracle must accept the right
// output and count a wrong one as failed. The wrong outputs are the ones a
// broken program would produce: a shifted segment, a dropped or duplicated
// notification, an off-by-one sum, an event lost across recovery, and a
// sentinel segment outside the video.
//
// Exits 0 when every case behaves, 1 otherwise.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Delivered;
using perfbench::Event;

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::string Hex(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// The wire rendering of an event (plain ASCII attribute values only).
std::string Line(const Event& e) {
  std::string out = "S " + e.type + " b=" + Hex(e.begin) + " e=" +
                    Hex(e.end) + " c=" + Hex(e.confidence);
  for (const auto& [k, v] : e.attrs) {
    std::string escaped;
    for (char c : v) {
      if (c == ' ' || c == '%' || c == '=') {
        char buf[4];
        std::snprintf(buf, sizeof(buf), "%%%02X",
                      static_cast<unsigned char>(c));
        escaped += buf;
      } else {
        escaped.push_back(c);
      }
    }
    out += " " + k + "=" + escaped;
  }
  return out;
}

std::vector<Event> Sample() {
  return {
      {"passing", 10.0, 18.5, 1.0, {{"driver", "HAKKINEN"}}},
      {"passing", 40.0, 47.0, 1.0, {{"driver", "SCHUMACHER"}}},
      {"excited", 41.0, 49.0, 1.0, {{"intensity", "0.75"}}},
      {"caption", 44.0, 47.0, 1.0,
       {{"driver", "SCHUMACHER"}, {"text", "PIT STOP SCHUMACHER"}}},
      {"replay", 55.0, 62.0, 1.0, {{"source", "passing"}}},
  };
}

void TestSegments() {
  const std::vector<Event> events = Sample();
  perfbench::QuerySpec q;
  q.type = "passing";
  q.video = "v";
  q.op = perfbench::Temporal::kOverlapping;
  q.type2 = "excited";
  const std::vector<Event> want = perfbench::EvaluateOracle(q, events);
  Expect(want.size() == 1 && want[0].begin == 40.0,
         "oracle: OVERLAPPING keeps only the passing under excitement");

  q.op = perfbench::Temporal::kNone;
  q.where = {{"driver", "schumacher"}};
  Expect(perfbench::EvaluateOracle(q, events).size() == 1,
         "oracle: attribute equality is case-insensitive");

  std::vector<std::string> lines = {Line(want[0])};
  Expect(perfbench::CheckSegments(lines, want, nullptr),
         "segments: the right answer passes");
  Event shifted = want[0];
  shifted.begin += 0.1;
  Expect(!perfbench::CheckSegments({Line(shifted)}, want, nullptr),
         "segments: a shifted segment fails");
  Expect(!perfbench::CheckSegments({}, want, nullptr),
         "segments: a missing segment fails");
  Event caption = events[3];
  Expect(perfbench::CheckSegments({Line(caption)}, {caption}, nullptr),
         "segments: escaped attribute values decode");
}

void TestWatchStream() {
  const std::vector<Event> want = {Sample()[0], Sample()[1]};
  std::vector<Delivered> stream = {{7, 1, Line(want[0])},
                                   {7, 2, Line(want[1])}};
  Expect(perfbench::CheckWatchStream(stream, want, nullptr),
         "watch: the right stream passes");
  Expect(!perfbench::CheckWatchStream({stream[0]}, want, nullptr),
         "watch: a dropped notification fails");
  std::vector<Delivered> gap = {stream[0], {7, 3, Line(want[1])}};
  Expect(!perfbench::CheckWatchStream(gap, want, nullptr),
         "watch: a sequence gap fails");
  std::vector<Delivered> dup = {stream[0], stream[1], {7, 3, Line(want[1])}};
  Expect(!perfbench::CheckWatchStream(dup, want, nullptr),
         "watch: a duplicated notification fails");
}

void TestRecovery() {
  const std::vector<Event> stored = Sample();
  Expect(perfbench::CheckRecovered(stored, stored, nullptr),
         "recovery: every event back passes");
  std::vector<Event> lost = stored;
  lost.pop_back();
  Expect(!perfbench::CheckRecovered(lost, stored, nullptr),
         "recovery: an event lost across recovery fails");
}

void TestMil() {
  const std::vector<double> a = {0.1, 0.6, 0.9, 0.7, 0.2};
  const std::vector<double> b = {0.5, 0.25, 0.75, 0.75, 1.0};
  const perfbench::MilAggregates want = perfbench::MilOracle(a, b, 0.5, 1.0);
  Expect(want.selected == 3 && want.sum == 1.75 && want.max == 0.75 &&
             want.argmax == 1 && want.groups == 2,
         "mil: oracle aggregates of a small case");
  Expect(perfbench::CheckMilAggregates(want, want, nullptr),
         "mil: the right aggregates pass");
  perfbench::MilAggregates off = want;
  off.sum += 1.0;
  Expect(!perfbench::CheckMilAggregates(off, want, nullptr),
         "mil: an off-by-one sum fails");
}

void TestSentinel() {
  const std::vector<Event> sentinel = {{"flyout_of", -1.0, -1.0, 0.0, {}}};
  Expect(!perfbench::CheckWithinVideo(sentinel, 120.0, nullptr),
         "range: the [-1 s, -1 s] sentinel is flagged");
  Expect(perfbench::CheckWithinVideo(Sample(), 120.0, nullptr),
         "range: segments inside the video pass");
  using perfbench::RangeVerdict;
  Expect(perfbench::CheckRange("flyout_of", false, sentinel, 120.0, nullptr) ==
             RangeVerdict::kSentinel,
         "range: the sentinel on a race without fly-outs is a failed "
         "operation");
  Expect(perfbench::CheckRange("flyout_of", true, sentinel, 120.0, nullptr) ==
             RangeVerdict::kWrong,
         "range: the sentinel on a race with fly-outs is wrong");
  const std::vector<Event> late = {{"highlight", 100.0, 130.0, 1.0, {}}};
  Expect(perfbench::CheckRange("highlight", false, late, 120.0, nullptr) ==
             RangeVerdict::kWrong,
         "range: a highlight outside the video is wrong");
  const std::vector<Event> shifted = {{"flyout_of", -2.0, -1.0, 0.0, {}}};
  Expect(perfbench::CheckRange("flyout_of", false, shifted, 120.0, nullptr) ==
             RangeVerdict::kWrong,
         "range: any other out-of-range flyout_of segment is wrong");
  Expect(perfbench::CheckRange("highlight", true, Sample(), 120.0, nullptr) ==
             RangeVerdict::kInside,
         "range: a result inside the video passes");
}

}  // namespace

int main() {
  TestSegments();
  TestWatchStream();
  TestRecovery();
  TestMil();
  TestSentinel();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
