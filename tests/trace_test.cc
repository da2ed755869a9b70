// Tests of the tracing/profiling layer: span-tree shape, the stable JSON
// schema (round-tripped through the strict validator), hand-computed
// operator counters, the zero-allocation guarantee of the disabled path,
// the MIL `trace` statement, PROFILE queries (including the from_cache
// contract for results served from the engine's cache), and the feature
// extraction spans of the f1 pipeline.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/trace.h"
#include "cobra/video_model.h"
#include "extensions/extension.h"
#include "f1/features.h"
#include "f1/pipeline.h"
#include "kernel/bat.h"
#include "kernel/catalog.h"
#include "kernel/exec_context.h"
#include "kernel/mil.h"
#include "query/engine.h"
#include "query/parser.h"

namespace cobra {
namespace {

using kernel::Bat;
using kernel::ExecContext;
using kernel::Oid;
using kernel::TailType;
using kernel::Value;

ExecContext TracedCtx(trace::TraceSink* sink, int threadcnt = 1,
                      bool auto_index = true) {
  ExecContext ctx;
  ctx.threadcnt = threadcnt;
  ctx.morsel_rows = 32;
  ctx.serial_cutoff = 1;
  ctx.auto_index = auto_index;
  ctx.trace = sink;
  return ctx;
}

// -- TraceSink ---------------------------------------------------------------

TEST(TraceSinkTest, SpanTreeShapeAndText) {
  trace::TraceSink sink;
  trace::Span* root = sink.StartSpan(nullptr, "query.execute");
  trace::Span* child = sink.StartSpan(root, "query.filter");
  sink.StartSpan(child, "kernel.select_eq");
  sink.StartSpan(nullptr, "query.execute");

  EXPECT_EQ(sink.root_count(), 2u);
  ASSERT_EQ(sink.roots()[0]->children.size(), 1u);
  EXPECT_EQ(sink.roots()[0]->children[0]->name, "query.filter");
  ASSERT_EQ(sink.roots()[0]->children[0]->children.size(), 1u);

  root->rows_in = 10;
  root->rows_out = 3;
  child->detail = "type=highlight";
  const std::string text = sink.ToText();
  EXPECT_NE(text.find("query.execute"), std::string::npos);
  EXPECT_NE(text.find("  query.filter (type=highlight)"), std::string::npos);
  EXPECT_NE(text.find("    kernel.select_eq"), std::string::npos);
  EXPECT_NE(text.find("rows_in=10"), std::string::npos);

  sink.Clear();
  EXPECT_EQ(sink.root_count(), 0u);
}

TEST(TraceSinkTest, JsonExportValidatesAndEscapes) {
  trace::TraceSink sink;
  trace::Span* root = sink.StartSpan(nullptr, "query.execute");
  root->detail = "video=\"race\"\nline2\ttab\\slash";
  root->rows_in = 7;
  root->from_cache = true;
  sink.StartSpan(root, "kernel.join");

  const std::string json = sink.ToJson();
  EXPECT_TRUE(trace::ValidateJson(json).ok()) << json;
  // The schema keys are all present, in stable form.
  for (const char* key :
       {"\"name\"", "\"detail\"", "\"seconds\"", "\"rows_in\"", "\"rows_out\"",
        "\"morsels\"", "\"index_probes\"", "\"index_builds\"",
        "\"index_invalidations\"", "\"dict_hits\"", "\"from_cache\"",
        "\"children\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\\\"race\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\"from_cache\":true"), std::string::npos);

  // An empty sink is still a valid (empty) JSON array.
  sink.Clear();
  EXPECT_EQ(sink.ToJson(), "[]");
  EXPECT_TRUE(trace::ValidateJson(sink.ToJson()).ok());
}

TEST(TraceSinkTest, StaticCardinalityRendersInTextAndJson) {
  trace::TraceSink sink;
  trace::Span* bounded = sink.StartSpan(nullptr, "mil.select");
  bounded->rows_out = 4;
  bounded->has_static_card = true;
  bounded->static_lo = 0;
  bounded->static_hi = 10;
  trace::Span* unbounded = sink.StartSpan(nullptr, "query.scan");
  unbounded->has_static_card = true;
  unbounded->static_lo = 0;
  unbounded->static_hi = UINT64_MAX;
  trace::Span* plain = sink.StartSpan(nullptr, "kernel.join");
  plain->rows_out = 2;

  const std::string text = sink.ToText();
  EXPECT_NE(text.find("static=[0,10]"), std::string::npos) << text;
  // An unbounded upper bound renders as `*`, not a number.
  EXPECT_NE(text.find("static=[0,*]"), std::string::npos) << text;

  const std::string json = sink.ToJson();
  EXPECT_TRUE(trace::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"static_lo\":0,\"static_hi\":10"), std::string::npos)
      << json;
  // Unbounded exports as -1 (JSON has no UINT64_MAX); stamped spans only.
  EXPECT_NE(json.find("\"static_hi\":-1"), std::string::npos) << json;
  // The span without a static interval exports neither key nor the text tag.
  const size_t first = json.find("\"static_lo\"");
  const size_t second = json.find("\"static_lo\"", first + 1);
  EXPECT_NE(second, std::string::npos);
  EXPECT_EQ(json.find("\"static_lo\"", second + 1), std::string::npos);
}

TEST(TraceSinkTest, ValidateJsonRejectsMalformed) {
  EXPECT_TRUE(trace::ValidateJson("[{\"a\": [1, 2.5e3, null, true]}]").ok());
  EXPECT_FALSE(trace::ValidateJson("").ok());
  EXPECT_FALSE(trace::ValidateJson("{").ok());
  EXPECT_FALSE(trace::ValidateJson("[1,]").ok());
  EXPECT_FALSE(trace::ValidateJson("{\"a\" 1}").ok());
  EXPECT_FALSE(trace::ValidateJson("\"unterminated").ok());
  EXPECT_FALSE(trace::ValidateJson("[1] trailing").ok());
  EXPECT_FALSE(trace::ValidateJson("nan").ok());
  EXPECT_FALSE(trace::ValidateJson("01x").ok());
  EXPECT_FALSE(trace::ValidateJson("\"bad \\q escape\"").ok());
  EXPECT_FALSE(trace::ValidateJson("\"bad \\u12g4\"").ok());
  // Nesting past the depth limit is rejected, not stack-overflowed.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(trace::ValidateJson(deep).ok());
}

// -- Kernel operator counters ------------------------------------------------

TEST(KernelTraceTest, SelectCountersMatchHandComputed) {
  Bat bat(TailType::kInt);
  for (size_t i = 0; i < 20; ++i) {
    bat.AppendInt(static_cast<Oid>(i), static_cast<int64_t>(i % 4));
  }
  trace::TraceSink sink;
  // Serial scan (no index on a 20-row BAT): morsels=1, exact row counts.
  auto selected = bat.SelectEq(Value::Int(3), TracedCtx(&sink));
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 5u);
  ASSERT_EQ(sink.root_count(), 1u);
  {
    const trace::Span& span = *sink.roots()[0];
    EXPECT_EQ(span.name, "kernel.select_eq");
    EXPECT_EQ(span.rows_in, 20u);
    EXPECT_EQ(span.rows_out, 5u);
    EXPECT_EQ(span.morsels, 1u);
    EXPECT_EQ(span.index_probes, 0u);
  }
  // Index-answered probe: morsels=0, one probe recorded.
  bat.BuildTailIndex();
  sink.Clear();
  ASSERT_TRUE(bat.SelectEq(Value::Int(3), TracedCtx(&sink)).ok());
  ASSERT_EQ(sink.root_count(), 1u);
  {
    const trace::Span& span = *sink.roots()[0];
    EXPECT_EQ(span.rows_out, 5u);
    EXPECT_EQ(span.morsels, 0u);
    EXPECT_EQ(span.index_probes, 1u);
    EXPECT_EQ(span.index_builds, 0u);  // probe reused the prebuilt index
  }
  // A mutation staled the index; the next probe's rebuild is recorded as an
  // invalidation.
  bat.AppendInt(99, 3);
  sink.Clear();
  ASSERT_TRUE(bat.SelectEq(Value::Int(3), TracedCtx(&sink)).ok());
  ASSERT_EQ(sink.root_count(), 1u);
  {
    const trace::Span& span = *sink.roots()[0];
    EXPECT_EQ(span.rows_out, 6u);
    EXPECT_EQ(span.index_probes, 1u);
    EXPECT_EQ(span.index_builds, 1u);
    EXPECT_EQ(span.index_invalidations, 1u);
  }
}

TEST(KernelTraceTest, ParallelMorselCountRecorded) {
  Bat bat(TailType::kFloat);
  for (size_t i = 0; i < 523; ++i) {
    bat.AppendFloat(static_cast<Oid>(i), static_cast<double>(i % 9));
  }
  trace::TraceSink sink;
  ExecContext ctx = TracedCtx(&sink, /*threadcnt=*/2, /*auto_index=*/false);
  ASSERT_TRUE(bat.SelectRange(2.0, 5.0, ctx).ok());
  ASSERT_EQ(sink.root_count(), 1u);
  EXPECT_EQ(sink.roots()[0]->name, "kernel.select_range");
  EXPECT_EQ(sink.roots()[0]->morsels, ctx.NumMorsels(bat.size()));
  EXPECT_EQ(sink.roots()[0]->rows_in, 523u);
}

TEST(KernelTraceTest, DictionaryHitsAndMaxDelegation) {
  Bat strs(TailType::kStr);
  strs.AppendStr(1, "alpha");
  strs.AppendStr(2, "beta");
  strs.AppendStr(3, "alpha");
  trace::TraceSink sink;
  ASSERT_TRUE(strs.SelectStr("alpha", TracedCtx(&sink)).ok());
  ASSERT_TRUE(strs.SelectStr("absent", TracedCtx(&sink)).ok());
  ASSERT_EQ(sink.root_count(), 2u);
  EXPECT_EQ(sink.roots()[0]->name, "kernel.select_str");
  EXPECT_EQ(sink.roots()[0]->dict_hits, 1u);
  EXPECT_EQ(sink.roots()[0]->rows_out, 2u);
  // A probe for a string absent from the dictionary resolves nothing.
  EXPECT_EQ(sink.roots()[1]->dict_hits, 0u);
  EXPECT_EQ(sink.roots()[1]->rows_out, 0u);

  // Max delegates to ArgMax; the delegation nests as a child span.
  Bat nums(TailType::kInt);
  for (size_t i = 0; i < 5; ++i) nums.AppendInt(i, static_cast<int64_t>(i));
  sink.Clear();
  ASSERT_TRUE(nums.Max(TracedCtx(&sink)).ok());
  ASSERT_EQ(sink.root_count(), 1u);
  EXPECT_EQ(sink.roots()[0]->name, "kernel.max");
  ASSERT_EQ(sink.roots()[0]->children.size(), 1u);
  EXPECT_EQ(sink.roots()[0]->children[0]->name, "kernel.arg_max");
}

TEST(KernelTraceTest, DisabledSinkAllocatesNoSpans) {
  Bat bat(TailType::kInt);
  for (size_t i = 0; i < 300; ++i) {
    bat.AppendInt(static_cast<Oid>(i), static_cast<int64_t>(i % 7));
  }
  Bat filter(TailType::kOid);
  for (size_t i = 0; i < 50; ++i) filter.AppendOid(static_cast<Oid>(i), 1);

  const uint64_t before = trace::SpansAllocated();
  // Context forms with no sink installed, plus the context-free forms:
  // the instrumentation must stay entirely off this path.
  ExecContext ctx = TracedCtx(nullptr, /*threadcnt=*/2);
  ASSERT_TRUE(bat.SelectEq(Value::Int(3), ctx).ok());
  ASSERT_TRUE(bat.SelectRange(1.0, 5.0, ctx).ok());
  ASSERT_TRUE(bat.Sum(ctx).ok());
  ASSERT_TRUE(bat.Max(ctx).ok());
  (void)kernel::Semijoin(bat, filter, ctx);
  (void)kernel::Diff(bat, filter, ctx);
  std::vector<size_t> reps;
  (void)kernel::Group(bat, &reps, ctx);
  ASSERT_TRUE(bat.SelectEq(Value::Int(3)).ok());
  EXPECT_EQ(trace::SpansAllocated(), before);
}

// -- Feature extraction ------------------------------------------------------

/// A 10-s broadcast (100 clips) with one caption.
f1::RaceTimeline TinyRace() {
  f1::RaceTimeline race;
  race.profile.duration_sec = 10.0;
  race.events.push_back(
      {"caption", 2.0, 6.0, {{"text", "LEADER HILL"}, {"driver", "HILL"}}});
  return race;
}

TEST(ExtractTraceTest, SpansNestUnderParentWithCounts) {
  const f1::RaceTimeline race = TinyRace();
  trace::TraceSink sink;
  ExecContext ctx;
  ctx.threadcnt = 2;
  ctx.trace = &sink;
  ctx.trace_parent = sink.StartSpan(nullptr, "ingest");
  (void)f1::ExtractEvidence(race, f1::EvidenceOptions(), ctx);
  const auto text =
      f1::ExtractTextEvents(race, f1::FrameRenderer::Options(), 5.0, ctx);
  ASSERT_EQ(sink.root_count(), 1u);
  const auto& spans = sink.roots()[0]->children;
  ASSERT_EQ(spans.size(), 4u);
  // 100 clips in 32-clip morsels. OCR samples 51 frames, not 50: the
  // sample time steps by repeated addition of 0.2 s, which after 50 steps
  // lands just below 10.0. They fit one 64-frame window.
  EXPECT_EQ(spans[0]->name, "extract.audio");
  EXPECT_EQ(spans[0]->rows_in, 100u);
  EXPECT_EQ(spans[0]->morsels, 4u);
  EXPECT_EQ(spans[1]->name, "extract.kws");
  EXPECT_EQ(spans[1]->rows_in, 100u);
  EXPECT_EQ(spans[2]->name, "extract.visual");
  EXPECT_EQ(spans[2]->rows_in, 100u);
  EXPECT_EQ(spans[2]->morsels, 4u);
  EXPECT_EQ(spans[2]->detail, "frames=200");
  EXPECT_EQ(spans[3]->name, "extract.text");
  EXPECT_EQ(spans[3]->rows_in, 51u);
  EXPECT_EQ(spans[3]->morsels, 2u);
  EXPECT_EQ(spans[3]->rows_out, text.size());
  EXPECT_FALSE(text.empty());
  for (const auto& span : spans) {
    EXPECT_GT(span->seconds, 0.0) << span->name;
    EXPECT_TRUE(span->children.empty()) << span->name;
  }
}

TEST(ExtractTraceTest, NoSinkRecordsNoSpans) {
  const f1::RaceTimeline race = TinyRace();
  ExecContext ctx;
  ctx.threadcnt = 2;
  const uint64_t before = trace::SpansAllocated();
  (void)f1::ExtractEvidence(race, f1::EvidenceOptions(), ctx);
  (void)f1::ExtractTextEvents(race, f1::FrameRenderer::Options(), 5.0, ctx);
  EXPECT_EQ(trace::SpansAllocated(), before);
}

// -- MIL `trace` statement ---------------------------------------------------

TEST(MilTraceTest, TraceOnDumpJsonOff) {
  kernel::Catalog catalog;
  kernel::MilSession session(&catalog);
  auto out = session.Execute(
      "trace on;"
      "VAR b := insert(insert(new('int'), 1, 5), 2, 5);"
      "VAR s := select(b, 5, 5);"
      "trace dump;");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("kernel.select_range"), std::string::npos);

  auto json_out = session.Execute("trace json;");
  ASSERT_TRUE(json_out.ok());
  // The dump line is the full JSON export; it must validate.
  const std::string json = json_out->substr(0, json_out->find('\n'));
  EXPECT_TRUE(trace::ValidateJson(json).ok()) << json;

  // `trace off` stops recording but keeps the collected spans: a dump after
  // further operators is unchanged.
  auto before_off = session.Execute("trace dump;");
  ASSERT_TRUE(before_off.ok());
  ASSERT_TRUE(session.Execute("trace off; VAR t := select(b, 5, 5);").ok());
  auto after_off = session.Execute("trace dump;");
  ASSERT_TRUE(after_off.ok());
  EXPECT_EQ(*before_off, *after_off);
}

TEST(MilTraceTest, TraceErrors) {
  kernel::Catalog catalog;
  kernel::MilSession session(&catalog);
  // dump/json before `trace on` is a typed error, not a crash.
  EXPECT_FALSE(session.Execute("trace dump;").ok());
  EXPECT_FALSE(session.Execute("trace json;").ok());
  EXPECT_FALSE(session.Execute("trace sideways;").ok());
  EXPECT_FALSE(session.Execute("trace 7;").ok());
  EXPECT_FALSE(session.Execute("trace;").ok());
}

// -- PROFILE queries ---------------------------------------------------------

class ProfileQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = videos_.RegisterVideo("race", 600.0);
    ASSERT_TRUE(id.ok());
    video_ = *id;
    StoreEvent("highlight", 30, 40, {});
    StoreEvent("highlight", 100, 110, {{"driver", "ALESI"}});
    StoreEvent("caption", 102, 106, {{"driver", "ALESI"}});
    StoreEvent("caption", 300, 304, {{"driver", "BUTTON"}});
  }

  void StoreEvent(const std::string& type, double b, double e,
                  std::map<std::string, std::string> attrs) {
    model::EventRecord record;
    record.type = type;
    record.begin_sec = b;
    record.end_sec = e;
    record.attrs = std::move(attrs);
    ASSERT_TRUE(videos_.StoreEvent(video_, record).ok());
  }

  kernel::Catalog catalog_;
  model::VideoCatalog videos_{&catalog_};
  extensions::ExtensionRegistry registry_;
  query::QueryEngine engine_{&videos_, &registry_};
  model::VideoId video_ = 0;
};

TEST_F(ProfileQueryTest, ProfileReturnsPlanShapedTree) {
  auto result = engine_.Execute(
      "PROFILE RETRIEVE highlight FROM 'race' OVERLAPPING caption WHERE "
      "driver = 'ALESI'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->segments.size(), 1u);
  ASSERT_FALSE(result->profile_text.empty());
  ASSERT_FALSE(result->profile_json.empty());
  EXPECT_TRUE(trace::ValidateJson(result->profile_json).ok())
      << result->profile_json;
  // The plan shape: root execute with cache lookup, preprocessor decisions
  // (one per pattern), filters, and the temporal join.
  EXPECT_NE(result->profile_text.find("query.execute"), std::string::npos);
  EXPECT_NE(result->profile_text.find("query.cache_lookup (miss)"),
            std::string::npos);
  EXPECT_NE(result->profile_text.find("metadata=present"), std::string::npos);
  EXPECT_NE(result->profile_text.find("query.filter (type=highlight)"),
            std::string::npos);
  EXPECT_NE(result->profile_text.find("query.filter (type=caption)"),
            std::string::npos);
  EXPECT_NE(result->profile_text.find("query.temporal_join (op=overlapping)"),
            std::string::npos);
  // Row counts sum consistently: 2 highlights past the (empty) primary
  // filter, 1 caption past the secondary filter, so the join takes
  // 2 + 1 = 3 rows in and emits the one overlapping highlight.
  EXPECT_NE(result->profile_json.find(
                "\"name\":\"query.temporal_join\",\"detail\":\"op=overlapping\""
                ",\"seconds\""),
            std::string::npos);
  EXPECT_NE(result->profile_json.find("\"rows_in\":3"), std::string::npos);
  EXPECT_NE(result->profile_text.find("rows_in=3 rows_out=1"),
            std::string::npos);

  // A plain query returns no profile.
  auto plain = engine_.Execute("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->profile_text.empty());
  EXPECT_TRUE(plain->profile_json.empty());
}

TEST_F(ProfileQueryTest, CachedProfileMarkedFromCacheNotReplayed) {
  // First run populates the cache (PROFILE shares the entry with the plain
  // form — the profile itself is never cached).
  auto first = engine_.Execute("PROFILE RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(first->profile_text.find("from_cache"), std::string::npos);
  EXPECT_NE(first->profile_text.find("query.filter"), std::string::npos);

  auto second = engine_.Execute("PROFILE RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->segments.size(), first->segments.size());
  // The cached run's tree reports the hit; it does NOT replay the filter /
  // preprocess spans (or their timings) from the original execution.
  EXPECT_NE(second->profile_text.find("from_cache"), std::string::npos);
  EXPECT_NE(second->profile_text.find("query.cache_lookup (hit)"),
            std::string::npos);
  EXPECT_EQ(second->profile_text.find("query.filter"), std::string::npos);
  EXPECT_EQ(second->profile_text.find("query.preprocess"), std::string::npos);
  EXPECT_TRUE(trace::ValidateJson(second->profile_json).ok());
  EXPECT_NE(second->profile_json.find("\"from_cache\":true"),
            std::string::npos);
}

TEST_F(ProfileQueryTest, ProfileParseErrors) {
  // PROFILE with no query is a typed parse error.
  auto bare = query::ParseQuery("PROFILE");
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.status().ToString().find("RETRIEVE"), std::string::npos)
      << bare.status().ToString();
  EXPECT_FALSE(query::ParseQuery("PROFILE PROFILE RETRIEVE h FROM 'x'").ok());
  auto q = query::ParseQuery("profile retrieve highlight from 'race'");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->profile);
}

}  // namespace
}  // namespace cobra
