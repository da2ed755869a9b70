// The `archive` and `live` workloads: serving stored events over the query
// server, read-only and with a paced writer beside the readers.
//
// Both set up the same way: an archive of many races' events, generated from
// timelines, is written through VideoCatalog::StoreEvents and checkpointed
// with PERSIST into an in-memory filesystem (io::MemFs, so that no disk's
// fsync is what gets measured), then RECOVERed into a fresh
// engine up to the first servable snapshot. Set-up is repeated and timed each
// time; the first recovered instance serves the timed phase.
//
// Readers are one client thread keeping a fixed number of requests in flight
// (a closed loop) through QueryServer::Submit, with every request and
// response taken through the wire encoding: request frames are encoded and
// decoded, responses are encoded on the worker and decoded by the client.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>

#include "base/io.h"
#include "bench.h"
#include "cobra/video_model.h"
#include "extensions/extension.h"
#include "f1/lexicon.h"
#include "f1/replay_driver.h"
#include "f1/timeline.h"
#include "kernel/catalog.h"
#include "query/analyzer.h"
#include "query/engine.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {
namespace {

namespace protocol = cobra::server::protocol;

// Archive make-up: paper-length (90 min) races, about 1000 events each.
constexpr int kArchiveRaces = 24;
constexpr double kArchiveRaceSeconds = 5400.0;
// Recoveries per run, each followed by a cold pass: the first serves, the
// others fall between equal segments of the timed phase, so the set-up and
// cold samples span the run. `archive` also writes the archive once more
// before each later recovery: its ingest samples.
constexpr int kRecoveries = 16;
// Serving figures (throughput, latency quantiles) are taken per window of
// about this length and reported as the mean of the middle half of the run's
// windows: a stall moves a few windows, which are dropped, and the speed of
// a shared host, which drifts over seconds, is averaged over the run.
constexpr double kWindowSeconds = 0.25;
// Serving: one server worker and one client thread with four requests in
// flight; the live writer adds one thread. Cross-thread wake-ups dominate
// when every worker has its own blocking client, so requests stay queued
// and the worker stays busy: the figures then measure serving work. The
// process runs on one CPU (PinToOneCpu), so that a hand-off between its
// threads is a context switch on that CPU, not the wake-up of another
// virtual CPU, which on a shared host costs anything from microseconds to
// milliseconds from one run to the next.
constexpr size_t kWorkers = 1;
constexpr size_t kInFlight = 4;
// Live replay: 5-minute races paced at 100x broadcast speed (3 s of wall time
// per race), batches of 1-4 events, a checkpoint every 8 batches.
constexpr double kLiveRaceSeconds = 300.0;
constexpr double kSpeedup = 100.0;
constexpr uint64_t kMaxBatch = 4;
constexpr uint64_t kCheckpointEvery = 8;
const char* const kDir = "archive";

Event ToEvent(const cobra::f1::TimelineEvent& t) {
  Event e;
  e.type = t.type;
  e.begin = t.begin;
  e.end = t.end;
  e.attrs = t.attrs;
  return e;
}

Event ToEvent(const cobra::model::EventRecord& r) {
  Event e;
  e.type = r.type;
  e.begin = r.begin_sec;
  e.end = r.end_sec;
  e.confidence = r.confidence;
  e.attrs = r.attrs;
  return e;
}

cobra::model::EventRecord ToRecord(const Event& e) {
  cobra::model::EventRecord r;
  r.type = e.type;
  r.begin_sec = e.begin;
  r.end_sec = e.end;
  r.confidence = e.confidence;
  r.attrs = e.attrs;
  return r;
}

/// Restricts this process (the calling thread and every thread it starts
/// afterwards) to the last CPU it may run on.
void PinToOneCpu() {
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
#endif
}

cobra::f1::RaceProfile ProfileFor(uint64_t seed, int index, double seconds,
                                  const std::string& name) {
  cobra::f1::RaceProfile p = index % 3 == 0   ? cobra::f1::RaceProfile::GermanGp(seconds)
                             : index % 3 == 1 ? cobra::f1::RaceProfile::BelgianGp(seconds)
                                              : cobra::f1::RaceProfile::UsaGp(seconds);
  p.name = name;
  p.seed = seed * 1000003ull + static_cast<uint64_t>(index) * 7919ull + 17;
  return p;
}

/// The benchmark's own copy of what it stores.
struct Video {
  std::string name;
  double duration = 0.0;
  std::vector<Event> events;
};

struct Archive {
  std::vector<Video> videos;  // archive races, then live races
  size_t archive_count = 0;
  size_t events = 0;
  double minutes = 0.0;
};

Archive MakeArchive(uint64_t seed, int live_races) {
  Archive archive;
  for (int i = 0; i < kArchiveRaces; ++i) {
    const auto timeline = cobra::f1::GenerateTimeline(ProfileFor(
        seed, i, kArchiveRaceSeconds, "archive-" + std::to_string(i)));
    Video v;
    v.name = timeline.profile.name;
    v.duration = timeline.profile.duration_sec;
    for (const auto& t : timeline.events) v.events.push_back(ToEvent(t));
    archive.events += v.events.size();
    archive.minutes += v.duration / 60.0;
    archive.videos.push_back(std::move(v));
  }
  archive.archive_count = archive.videos.size();
  // Live races are registered in the archive with no events yet; the writer
  // fills them during the timed phase.
  for (int j = 0; j < live_races; ++j) {
    Video v;
    v.name = "live-" + std::to_string(j);
    v.duration = kLiveRaceSeconds;
    archive.videos.push_back(std::move(v));
  }
  return archive;
}

cobra::f1::RaceTimeline LiveTimeline(uint64_t seed, int j) {
  return cobra::f1::GenerateTimeline(ProfileFor(
      seed ^ 0x5bd1e995ull, 1000 + j, kLiveRaceSeconds,
      "live-" + std::to_string(j)));
}

/// One engine with its catalogs and, once recovered, its server.
struct Instance {
  cobra::kernel::Catalog kernel;
  cobra::model::VideoCatalog videos{&kernel};
  cobra::extensions::ExtensionRegistry registry;
  cobra::query::QueryEngine engine{&videos, &registry};
  std::unique_ptr<cobra::server::QueryServer> server;
};

uint64_t FileBytes(const cobra::io::Fs& fs, const std::string& prefix) {
  uint64_t total = 0;
  auto names = fs.ListDir(kDir);
  if (!names.ok()) return 0;
  for (const auto& name : *names) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    auto size = fs.FileSize(std::string(kDir) + "/" + name);
    if (size.ok()) total += *size;
  }
  return total;
}

/// Size of the newest checkpoint image.
uint64_t NewestSnapshotBytes(const cobra::io::Fs& fs) {
  auto names = fs.ListDir(kDir);
  if (!names.ok()) return 0;
  std::string newest;
  uint64_t newest_gen = 0;
  for (const auto& name : *names) {
    if (name.rfind("snapshot-", 0) != 0) continue;
    const uint64_t gen = std::strtoull(name.c_str() + 9, nullptr, 10);
    if (newest.empty() || gen >= newest_gen) {
      newest = name;
      newest_gen = gen;
    }
  }
  if (newest.empty()) return 0;
  auto size = fs.FileSize(std::string(kDir) + "/" + newest);
  return size.ok() ? *size : 0;
}

/// Writes the archive into `fs` through StoreEvents and PERSIST; returns
/// the wall time, and the PERSIST part of it in `persist_s`.
double WriteArchive(const Archive& archive, cobra::io::MemFs* fs,
                    double* persist_s, RunResult* result) {
  Instance writer;
  writer.engine.set_fs(fs);
  const auto t0 = Clock::now();
  for (const Video& v : archive.videos) {
    auto id = writer.videos.RegisterVideo(v.name, v.duration);
    if (!id.ok()) {
      result->Wrong("RegisterVideo: " + id.status().ToString());
      return 0.0;
    }
    std::vector<cobra::model::EventRecord> records;
    records.reserve(v.events.size());
    for (const Event& e : v.events) records.push_back(ToRecord(e));
    if (!records.empty()) {
      auto status = writer.videos.StoreEvents(*id, records);
      if (!status.ok()) result->Wrong("StoreEvents: " + status.ToString());
    }
  }
  const auto p0 = Clock::now();
  auto persisted =
      writer.engine.Execute(std::string("PERSIST INTO '") + kDir + "'");
  *persist_s = SecondsSince(p0);
  const double seconds = SecondsSince(t0);
  if (!persisted.ok()) {
    result->Wrong("PERSIST: " + persisted.status().ToString());
  }
  return seconds;
}

// -- The query mix ------------------------------------------------------------------

/// Twelve query shapes: a type alone, attribute filters (one written in
/// lower case, which must match case-insensitively), every temporal
/// operator, EXPLAIN and PROFILE.
QuerySpec MakeQuery(int shape, const std::string& video,
                    const std::string& driver) {
  std::string lower = driver;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  QuerySpec q;
  q.video = video;
  switch (shape) {
    case 0:
      q.type = "passing";
      break;
    case 1:
      q.type = "caption";
      q.where = {{"kind", "pitstop"}};
      break;
    case 2:
      q.type = "caption";
      q.where = {{"driver", lower}};
      break;
    case 3:
      q.type = "passing";
      q.where = {{"driver", driver}};
      break;
    case 4:
      q.type = "excited";
      q.op = Temporal::kDuring;
      q.type2 = "commentary";
      q.where2 = {{"excited", "1"}};
      break;
    case 5:
      q.type = "passing";
      q.op = Temporal::kOverlapping;
      q.type2 = "excited";
      break;
    case 6:
      q.type = "pitstop";
      q.op = Temporal::kBefore;
      q.type2 = "replay";
      q.where2 = {{"source", "flyout"}};
      break;
    case 7:
      q.type = "replay";
      q.op = Temporal::kAfter;
      q.type2 = "pitstop";
      q.where2 = {{"driver", driver}};
      break;
    case 8:
      q.type = "commentary";
      q.where = {{"excited", "1"}};
      q.op = Temporal::kContaining;
      q.type2 = "excited";
      break;
    case 9:
      q.type = "start";
      q.op = Temporal::kOverlapping;
      q.type2 = "semaphore";
      break;
    case 10:
      q.prefix = "EXPLAIN ";
      q.type = "passing";
      q.where = {{"driver", driver}};
      break;
    default:
      q.prefix = "PROFILE ";
      q.type = "caption";
      q.op = Temporal::kOverlapping;
      q.type2 = "replay";
      break;
  }
  return q;
}
constexpr int kShapes = 12;

/// The one query of the timed phase's mix that the program fails: a type a
/// video has no events of. archive-2 has the USA GP profile, which never has
/// fly-outs whatever the seed, and RETRIEVE of a type with no events and no
/// extractor fails with NotFound instead of returning no rows (see README).
/// The oracle's answer is no rows.
QuerySpec NoEventsQuery() {
  QuerySpec q;
  q.type = "flyout";
  q.video = "archive-2";
  return q;
}

bool IsNoEventsQuery(const QuerySpec& q) {
  return q.prefix.empty() && q.type == "flyout" && q.video == "archive-2" &&
         q.where.empty() && q.op == Temporal::kNone;
}

/// Draws queries: video by a Zipf(1) law over the archive races (a few races
/// get most of the traffic), shape and driver uniformly.
class QueryPicker {
 public:
  QueryPicker(const Archive* archive, uint64_t seed)
      : archive_(archive), rng_(seed) {
    double total = 0.0;
    for (size_t i = 0; i < archive->archive_count; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  QuerySpec Next() {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    const size_t video = std::min<size_t>(
        cdf_.size() - 1,
        static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin()));
    const auto& drivers = cobra::f1::DriverNames();
    const int shape = static_cast<int>(rng_() % kShapes);
    const std::string& driver = drivers[rng_() % drivers.size()];
    return MakeQuery(shape, archive_->videos[video].name, driver);
  }

 private:
  const Archive* archive_;
  std::mt19937_64 rng_;
  std::vector<double> cdf_;
};

// Drawn queries per round of the timed phase, after the no-events query.
constexpr int kRoundPicks = 16;

/// Hands out the timed phase's queries in whole rounds: the no-events query,
/// then kRoundPicks drawn ones. A stop is taken only between rounds, so the
/// failed share of a run is exactly 1 / (kRoundPicks + 1) of its reader
/// requests.
class RoundSource {
 public:
  explicit RoundSource(QueryPicker* picker) : picker_(picker) {}

  std::optional<QuerySpec> Next(bool stop) {
    if (position_ == 0 && stop) return std::nullopt;
    QuerySpec q = position_ == 0 ? NoEventsQuery() : picker_->Next();
    position_ = (position_ + 1) % (kRoundPicks + 1);
    return q;
  }

 private:
  QueryPicker* picker_;
  int position_ = 0;
};

/// Expected results, computed once per distinct query from the benchmark's
/// copy of the archive.
class Expectations {
 public:
  explicit Expectations(const Archive* archive) : archive_(archive) {
    for (size_t i = 0; i < archive->videos.size(); ++i) {
      index_[archive->videos[i].name] = i;
    }
  }

  struct Entry {
    std::vector<Event> events;
    double examined = 0.0;  // events of the primary and secondary types
  };

  const Entry& For(const QuerySpec& q) {
    const std::string key = q.Text();
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const Video& v = archive_->videos[index_.at(q.video)];
    Entry entry;
    if (q.prefix != "EXPLAIN ") entry.events = EvaluateOracle(q, v.events);
    for (const Event& e : v.events) {
      if (e.type == q.type || (q.op != Temporal::kNone && e.type == q.type2)) {
        entry.examined += 1.0;
      }
    }
    return cache_.emplace(key, std::move(entry)).first->second;
  }

 private:
  const Archive* archive_;
  std::unordered_map<std::string, size_t> index_;
  std::unordered_map<std::string, Entry> cache_;
};

// -- The closed-loop reader ---------------------------------------------------------

struct ReaderStats {
  // Per window of the closed loop: completions per second and latency
  // quantiles.
  std::vector<double> window_qps, window_p50_s, window_p90_s;
  double wall_s = 0.0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t not_found = 0;  // the no-events query, failed as expected
  double examined = 0.0;
  double returned = 0.0;
  double client_busy_s = 0.0;  // client thread time not spent waiting
};

/// Responses land here, encoded, from the server's worker threads.
class Inbox {
 public:
  void Push(size_t slot, std::string frame) {
    // Notify under the lock: once the client has taken the last response it
    // destroys the inbox, which must not happen while a worker is still in
    // notify_one.
    std::lock_guard<std::mutex> lock(mu_);
    ready_.emplace_back(slot, std::move(frame));
    cv_.notify_one();
  }
  std::pair<size_t, std::string> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !ready_.empty(); });
    auto front = std::move(ready_.front());
    ready_.pop_front();
    return front;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<size_t, std::string>> ready_;
};

/// Checks one decoded response against the oracle. A NotFound answer to
/// the no-events query is a failed operation, counted in `not_found`; any
/// other error is a wrong output.
void CheckResponse(const QuerySpec& q, const protocol::Response& response,
                   const Expectations::Entry& want, uint64_t* not_found,
                   RunResult* result) {
  if (!response.ok) {
    if (IsNoEventsQuery(q) &&
        response.code == cobra::StatusCode::kNotFound) {
      ++*not_found;
      return;
    }
    result->Wrong(q.Text() + ": " + response.message);
    return;
  }
  std::string why;
  if (q.prefix == "EXPLAIN ") {
    if (!response.segments.empty() || response.profile.empty()) {
      result->Wrong(q.Text() + ": EXPLAIN returned rows or no report");
    }
    return;
  }
  if (q.prefix == "PROFILE " && response.profile.empty()) {
    result->Wrong(q.Text() + ": PROFILE returned no span tree");
  }
  if (!CheckSegments(response.segments, want.events, &why)) {
    result->Wrong(q.Text() + ": " + why);
  }
}

/// Hands out the next query, or nothing once the loop should stop sending.
using QuerySource = std::function<std::optional<QuerySpec>()>;

/// Runs the closed loop until `next` has no more queries, then drains what
/// is in flight. Every response is decoded and checked.
ReaderStats RunReaders(cobra::server::QueryServer* server,
                       const QuerySource& next, Expectations* expect,
                       size_t in_flight, RunResult* result) {
  ReaderStats stats;
  Inbox inbox;
  const uint64_t session = server->OpenSession();
  uint64_t seq = 0;
  struct Slot {
    QuerySpec query;
    Clock::time_point sent;
  };
  std::vector<Slot> slots(in_flight);
  std::vector<size_t> free_slots;
  for (size_t i = 0; i < in_flight; ++i) free_slots.push_back(i);
  size_t outstanding = 0;
  std::vector<double> done_s, latency_s;  // per completion, since t0
  const auto t0 = Clock::now();

  bool stopping = false;
  auto send = [&](size_t slot) {
    std::optional<QuerySpec> query = next();
    if (!query) {
      stopping = true;
      return false;
    }
    Slot& s = slots[slot];
    s.query = std::move(*query);
    protocol::Request request;
    request.session = session;
    request.seq = ++seq;
    request.query = s.query.Text();
    // Client side encodes the frame; the server side decodes it.
    protocol::FrameDecoder decoder;
    decoder.Feed(protocol::EncodeFrame(protocol::EncodeRequest(request)));
    std::string payload;
    cobra::Result<protocol::Request> parsed =
        cobra::Status::Internal("no frame");
    if (decoder.Next(&payload)) parsed = protocol::ParseRequest(payload);
    if (!parsed.ok()) {
      result->Wrong("request frame did not round-trip");
      return false;
    }
    s.sent = Clock::now();
    cobra::Status admitted = server->Submit(
        parsed->session, parsed->seq, parsed->query,
        [&inbox, slot](protocol::Response response) {
          inbox.Push(slot, protocol::EncodeFrame(
                               protocol::EncodeResponse(response)));
        });
    if (!admitted.ok()) {
      ++stats.rejected;
      return false;
    }
    ++outstanding;
    return true;
  };

  auto busy_since = t0;
  while (true) {
    while (!stopping && !free_slots.empty()) {
      const size_t slot = free_slots.back();
      free_slots.pop_back();
      if (!send(slot)) free_slots.push_back(slot);
      if (stats.rejected > 0 && outstanding == 0) break;
    }
    if (outstanding == 0) break;
    stats.client_busy_s += SecondsSince(busy_since);
    auto [slot, frame] = inbox.Pop();
    const auto done = Clock::now();
    busy_since = done;
    --outstanding;
    free_slots.push_back(slot);
    const Slot& s = slots[slot];
    latency_s.push_back(std::chrono::duration<double>(done - s.sent).count());
    done_s.push_back(std::chrono::duration<double>(done - t0).count());
    ++stats.completed;
    protocol::FrameDecoder decoder;
    decoder.Feed(frame);
    std::string payload;
    if (!decoder.Next(&payload)) {
      result->Wrong("response frame did not decode");
      continue;
    }
    auto response = protocol::ParseResponse(payload);
    if (!response.ok()) {
      result->Wrong("response payload did not parse");
      continue;
    }
    const Expectations::Entry& want = expect->For(s.query);
    CheckResponse(s.query, *response, want, &stats.not_found, result);
    stats.examined += want.examined;
    stats.returned += static_cast<double>(response->segments.size());
  }
  stats.wall_s = SecondsSince(t0);
  (void)server->CloseSession(session);

  // Equal windows over the loop's wall time; each completion falls in the
  // window of its completion time.
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(stats.wall_s / kWindowSeconds));
  const double window_s = stats.wall_s / static_cast<double>(windows);
  std::vector<std::vector<double>> latencies(windows);
  for (size_t i = 0; i < done_s.size(); ++i) {
    const size_t w =
        std::min(windows - 1, static_cast<size_t>(done_s[i] / window_s));
    latencies[w].push_back(latency_s[i]);
  }
  for (const std::vector<double>& window : latencies) {
    if (window.empty()) continue;
    stats.window_qps.push_back(static_cast<double>(window.size()) / window_s);
    stats.window_p50_s.push_back(Quantile(window, 0.50));
    stats.window_p90_s.push_back(Quantile(window, 0.90));
  }
  return stats;
}

/// Adds one closed-loop segment's figures to a run's totals.
void Merge(const ReaderStats& part, ReaderStats* total) {
  total->window_qps.insert(total->window_qps.end(), part.window_qps.begin(),
                           part.window_qps.end());
  total->window_p50_s.insert(total->window_p50_s.end(),
                             part.window_p50_s.begin(), part.window_p50_s.end());
  total->window_p90_s.insert(total->window_p90_s.end(),
                             part.window_p90_s.begin(), part.window_p90_s.end());
  total->wall_s += part.wall_s;
  total->completed += part.completed;
  total->rejected += part.rejected;
  total->not_found += part.not_found;
  total->examined += part.examined;
  total->returned += part.returned;
  total->client_busy_s += part.client_busy_s;
}

// -- Set-up -----------------------------------------------------------------------------

struct Setup {
  // Declared before the instance whose store writes into it.
  cobra::io::MemFs fs;
  std::unique_ptr<Instance> instance;
  std::vector<double> write_s, persist_s, recover_s, setup_s, cold_s;
};

/// Writes the archive into `fs` and keeps the write's timings in `setup`.
void WriteArchiveInto(const Archive& archive, cobra::io::MemFs* fs,
                      Setup* setup, RunResult* result) {
  double persist = 0.0;
  setup->write_s.push_back(WriteArchive(archive, fs, &persist, result));
  setup->persist_s.push_back(persist);
}

/// Recovers the archive in `fs` into a fresh instance up to the first published
/// snapshot of its server (one set-up sample), then sends every query shape
/// once on every archive race through the closed loop (one cold sample).
/// The new instance then replaces the previous one.
void RecoverOnce(const Archive& archive, uint64_t seed, cobra::io::Fs* fs,
                 Expectations* expect, Setup* setup, RunResult* result) {
  auto instance = std::make_unique<Instance>();
  instance->engine.set_fs(fs);
  const auto t0 = Clock::now();
  auto recovered =
      instance->engine.Execute(std::string("RECOVER FROM '") + kDir + "'");
  const double recover = SecondsSince(t0);
  if (!recovered.ok()) {
    result->Wrong("RECOVER: " + recovered.status().ToString());
    return;
  }
  cobra::server::ServerConfig config;
  config.workers = kWorkers;
  instance->server = std::make_unique<cobra::server::QueryServer>(
      &instance->engine, &instance->videos, &instance->kernel, config);
  instance->server->snapshots().Refresh();
  setup->setup_s.push_back(SecondsSince(t0));
  setup->recover_s.push_back(recover);

  // Every shape on every archive race, with three drivers where the shape
  // names one: 480 distinct requests.
  std::vector<QuerySpec> cold;
  const auto& drivers = cobra::f1::DriverNames();
  for (size_t v = 0; v < archive.archive_count; ++v) {
    for (int shape = 0; shape < kShapes; ++shape) {
      for (size_t d = 0; d < 3; ++d) {
        const QuerySpec q = MakeQuery(
            shape, archive.videos[v].name,
            drivers[(seed + v + shape + d) % drivers.size()]);
        if (d > 0 && q.Text() == cold.back().Text()) break;
        cold.push_back(q);
      }
    }
  }
  size_t next_cold = 0;
  const ReaderStats pass = RunReaders(
      instance->server.get(),
      [&]() -> std::optional<QuerySpec> {
        if (next_cold == cold.size()) return std::nullopt;
        return cold[next_cold++];
      },
      expect, kInFlight, result);
  setup->cold_s.push_back(pass.wall_s);
  setup->instance = std::move(instance);
}

/// The end-to-end figures both serving workloads report.
void ServeMetrics(const Setup& setup, const ReaderStats& readers,
                  double ingest_s_per_min, RunResult* result) {
  result->Set("setup_s", MidMean(setup.setup_s), "s");
  result->Set("ingest_s_per_min", ingest_s_per_min, "s/min");
  result->Set("cold_query_s", MidMean(setup.cold_s), "s");
  result->Set("query_p50_ms", 1e3 * MidMean(readers.window_p50_s), "ms");
  result->Set("query_p90_ms", 1e3 * MidMean(readers.window_p90_s), "ms");
  result->Set("query_per_s", MidMean(readers.window_qps), "1/s");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
}

/// Per-layer figures of a serving run (traced runs only). Parse, analysis
/// and evaluation are timed by calling the query layer's public functions
/// directly on a sample of the mix over a pinned snapshot; the server's own
/// share is a sequential round trip minus those three.
void ServeLayers(Instance* inst, const Archive& archive, const Setup& setup,
                 const ReaderStats& readers, uint64_t seed,
                 RunResult* result) {
  QueryPicker picker(&archive, seed + 1);
  std::vector<std::string> sample;
  while (sample.size() < 240) {
    QuerySpec q = picker.Next();
    if (q.prefix == "EXPLAIN ") continue;
    q.prefix.clear();
    sample.push_back(q.Text());
  }
  double parse_s = 0.0, analyze_s = 0.0, eval_s = 0.0;
  {
    auto pin = inst->server->snapshots().Acquire();
    for (const std::string& text : sample) {
      const auto t0 = Clock::now();
      auto parsed = cobra::query::ParseQuery(text);
      const auto t1 = Clock::now();
      const auto analysis = cobra::query::AnalyzeQueryTextWithFacts(text);
      cobra::Status verified = cobra::Status::OK();
      if (parsed.ok()) {
        verified = cobra::query::VerifyPlan(*parsed, *pin, inst->registry);
      }
      const auto t2 = Clock::now();
      if (!parsed.ok() || !analysis.diags.empty() || !verified.ok()) {
        result->Wrong("query layer rejected " + text);
        continue;
      }
      auto executed = inst->engine.ExecuteSnapshot(*parsed, *pin);
      const auto t3 = Clock::now();
      if (!executed.ok()) result->Wrong("ExecuteSnapshot failed: " + text);
      parse_s += std::chrono::duration<double>(t1 - t0).count();
      analyze_s += std::chrono::duration<double>(t2 - t1).count();
      eval_s += std::chrono::duration<double>(t3 - t2).count();
    }
  }
  double round_trip_s = 0.0;
  {
    cobra::server::LocalConnection conn(inst->server.get());
    for (const std::string& text : sample) {
      const auto t0 = Clock::now();
      const protocol::Response response = conn.Query(text);
      round_trip_s += SecondsSince(t0);
      if (!response.ok) result->Wrong("round trip failed: " + text);
    }
  }
  const double n = static_cast<double>(sample.size());
  result->Set("client.busy_pct", 100.0 * readers.client_busy_s / readers.wall_s,
              "%");
  result->Set("query.parse_us", 1e6 * parse_s / n, "us");
  result->Set("query.analyze_us", 1e6 * analyze_s / n, "us");
  result->Set("query.eval_us", 1e6 * eval_s / n, "us");
  result->Set("server.overhead_us",
              1e6 * (round_trip_s - parse_s - analyze_s - eval_s) / n, "us");
  result->Set("query.rows_examined_per_returned",
              readers.returned > 0 ? readers.examined / readers.returned : 0.0,
              "ratio");
  const cobra::server::ServerStats stats = inst->server->stats();
  result->Set("snapshot.publishes",
              static_cast<double>(stats.snapshots.published), "count");
  result->Set("server.rejected_busy", static_cast<double>(stats.rejected_busy),
              "count");
  result->Set("kernel.recover_s", Median(setup.recover_s), "s");
  std::vector<double> capture_s;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const auto state = inst->videos.CaptureSnapshotState();
    capture_s.push_back(SecondsSince(t0));
    if (state.videos.empty()) result->Wrong("empty snapshot capture");
  }
  result->Set("model.capture_ms", 1e3 * Median(capture_s), "ms");
}

}  // namespace

// -- archive ------------------------------------------------------------------------------

RunResult RunArchive(const Options& options) {
  PinToOneCpu();
  RunResult result;
  const Archive archive = MakeArchive(options.seed, 0);
  Setup setup;
  WriteArchiveInto(archive, &setup.fs, &setup, &result);
  Expectations expect(&archive);
  QueryPicker picker(&archive, options.seed);
  RoundSource rounds(&picker);

  // The first recovery is the instance that serves. The others recover
  // into scratch instances between equal segments of the timed phase, each
  // after one more archive write into a scratch filesystem, so the write,
  // set-up and cold samples are spread over the run instead of falling
  // within a second or two of it.
  RecoverOnce(archive, options.seed, &setup.fs, &expect, &setup, &result);
  if (setup.instance == nullptr) return result;
  std::unique_ptr<Instance> served = std::move(setup.instance);
  ReaderStats readers;
  for (int r = 0; r < kRecoveries && result.correct; ++r) {
    if (r > 0) {
      cobra::io::MemFs scratch;
      WriteArchiveInto(archive, &scratch, &setup, &result);
      RecoverOnce(archive, options.seed, &setup.fs, &expect, &setup, &result);
      setup.instance.reset();
    }
    const auto t0 = Clock::now();
    Merge(RunReaders(
              served->server.get(),
              [&]() -> std::optional<QuerySpec> {
                return rounds.Next(SecondsSince(t0) >=
                                   options.seconds / kRecoveries);
              },
              &expect, kInFlight, &result),
          &readers);
  }
  setup.instance = std::move(served);
  Instance& inst = *setup.instance;
  result.attempted += readers.completed + readers.rejected;
  result.failed += readers.rejected + readers.not_found;

  if (!options.trace) {
    ServeMetrics(setup, readers, MidMean(setup.write_s) / archive.minutes,
                 &result);
    return result;
  }
  ServeLayers(&inst, archive, setup, readers, options.seed, &result);
  result.Set("kernel.persist_s", Median(setup.persist_s), "s");
  result.Set("kernel.checkpoint_bytes_per_event",
             static_cast<double>(NewestSnapshotBytes(setup.fs)) /
                 static_cast<double>(archive.events),
             "B");
  return result;
}

// -- live ----------------------------------------------------------------------------------

RunResult RunLive(const Options& options) {
  PinToOneCpu();
  RunResult result;
  // Enough live races for the run length, plus one for the traced run's
  // store-cost probe.
  const int live_races =
      static_cast<int>(options.seconds * kSpeedup / kLiveRaceSeconds) + 2;
  const int probe_race = live_races;
  Archive archive = MakeArchive(options.seed, live_races + 1);
  Setup setup;
  WriteArchiveInto(archive, &setup.fs, &setup, &result);
  // A second copy of the archive that the writer never touches: the scratch
  // recoveries during the timed phase read it.
  cobra::io::MemFs frozen;
  WriteArchiveInto(archive, &frozen, &setup, &result);
  Expectations expect(&archive);
  RecoverOnce(archive, options.seed, &setup.fs, &expect, &setup, &result);
  if (setup.instance == nullptr) return result;
  const std::unique_ptr<Instance> served = std::move(setup.instance);
  Instance& inst = *served;

  // Three standing queries per live race, registered over the wire.
  struct Watch {
    int race = 0;
    QuerySpec spec;
    std::vector<Delivered> stream;
  };
  std::map<uint64_t, Watch> watches;
  cobra::server::LocalConnection watcher(inst.server.get());
  for (int j = 0; j < live_races; ++j) {
    const std::string video = "live-" + std::to_string(j);
    for (int w = 0; w < 3; ++w) {
      QuerySpec spec;
      spec.video = video;
      spec.type = w == 0 ? "passing" : w == 1 ? "caption" : "excited";
      if (w == 1) spec.where = {{"kind", "pitstop"}};
      const protocol::Response response = watcher.Query("WATCH " + spec.Text());
      if (!response.ok || response.watch == 0) {
        result.Wrong("WATCH registration failed: " + response.message);
        return result;
      }
      watches[response.watch] = Watch{j, spec, {}};
    }
  }

  // The writer: replays races paced at kSpeedup (an open loop on the
  // broadcast's schedule), pumps the watches and drains the notifications
  // after every batch, and checkpoints every kCheckpointEvery batches.
  std::vector<std::vector<Event>> replayed(live_races + 1);
  std::vector<double> lag_s, late_s, pump_s, persist_s;
  double wal_bytes = 0.0, wal_events = 0.0;
  // Writer busy time per batch, from the batch's due time (or the end of the
  // previous batch) to the end of its hook: apart for the batches that end
  // with a checkpoint. Busy time per replayed minute is estimated from the
  // mid-mean of each kind times its count, so a stall of the host moves a
  // few batches, which are dropped, not the figure.
  std::vector<double> batch_busy_s, checkpoint_busy_s;
  double replayed_min = 0.0;
  std::atomic<bool> writer_done{false};
  std::string writer_error;
  std::thread writer([&] {
    cobra::f1::ReplayDriver::Options replay;
    replay.speedup = kSpeedup;
    replay.max_batch = kMaxBatch;
    replay.seed = options.seed;
    cobra::f1::ReplayDriver driver(&inst.videos, replay);
    uint64_t batches = 0, events_since_checkpoint = 0;
    const auto run0 = Clock::now();
    for (int j = 0; j < live_races; ++j) {
      const auto timeline = LiveTimeline(options.seed, j);
      for (const auto& t : timeline.events) replayed[j].push_back(ToEvent(t));
      auto video = inst.videos.FindVideo("live-" + std::to_string(j));
      if (!video.ok()) {
        writer_error = video.status().ToString();
        break;
      }
      const auto start = Clock::now();
      auto prev_exit = start;
      uint64_t prev_events = 0;
      auto hook = [&](const cobra::f1::ReplayDriver::Progress& p) {
        const auto hook_in = Clock::now();
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(p.watermark_sec /
                                                      kSpeedup));
        late_s.push_back(std::chrono::duration<double>(hook_in - due).count());
        const auto store_began = std::max(due, prev_exit);
        COBRA_RETURN_IF_ERROR(inst.server->PumpWatches());
        const auto pumped = Clock::now();
        for (const auto& note : watcher.TakeNotifications()) {
          auto it = watches.find(note.watch);
          if (it == watches.end()) continue;
          it->second.stream.push_back({note.watch, note.seq, note.segment});
        }
        const auto drained = Clock::now();
        pump_s.push_back(
            std::chrono::duration<double>(pumped - hook_in).count());
        lag_s.push_back(std::chrono::duration<double>(drained - due).count());
        events_since_checkpoint += p.events - prev_events;
        prev_events = p.events;
        const bool checkpoint = ++batches % kCheckpointEvery == 0;
        if (checkpoint) {
          wal_bytes += static_cast<double>(FileBytes(setup.fs, "wal-"));
          wal_events += static_cast<double>(events_since_checkpoint);
          events_since_checkpoint = 0;
          const auto c0 = Clock::now();
          auto persisted = inst.engine.Execute(std::string("PERSIST INTO '") +
                                               kDir + "'");
          persist_s.push_back(SecondsSince(c0));
          if (!persisted.ok()) return persisted.status();
          wal_bytes -= static_cast<double>(FileBytes(setup.fs, "wal-"));
        }
        const auto hook_out = Clock::now();
        (checkpoint ? checkpoint_busy_s : batch_busy_s)
            .push_back(
                std::chrono::duration<double>(hook_out - store_began).count());
        prev_exit = hook_out;
        return cobra::Status::OK();
      };
      auto progress = driver.Replay(video->id, timeline, hook);
      if (!progress.ok()) {
        writer_error = progress.status().ToString();
        break;
      }
      replayed_min += kLiveRaceSeconds / 60.0;
      if (SecondsSince(run0) >= options.seconds) break;
    }
    writer_done.store(true);
  });

  // The reader runs in kRecoveries segments while the writer replays; as in
  // `archive`, a scratch recovery (from the frozen copy) with its cold pass
  // sits between segments, so set-up and cold samples span the run. The
  // last segment lasts until the writer is done.
  QueryPicker picker(&archive, options.seed);
  RoundSource rounds(&picker);
  ReaderStats readers;
  const auto run0 = Clock::now();
  for (int r = 0; r < kRecoveries; ++r) {
    if (r > 0) {
      RecoverOnce(archive, options.seed, &frozen, &expect, &setup, &result);
      setup.instance.reset();
    }
    const bool last = r + 1 == kRecoveries;
    const double until = options.seconds * (r + 1) / kRecoveries;
    Merge(RunReaders(
              inst.server.get(),
              [&]() -> std::optional<QuerySpec> {
                return rounds.Next(writer_done.load() ||
                                   (!last && SecondsSince(run0) >= until));
              },
              &expect, kInFlight, &result),
          &readers);
  }
  writer.join();
  if (!writer_error.empty()) result.Wrong("writer: " + writer_error);
  // Operations are the reader requests, which come in whole rounds. The
  // notifications and the recovery below are checked for correctness but not
  // counted: their number depends on the seed and on how far the writer got,
  // which would make the failed share differ between runs.
  result.attempted += readers.completed + readers.rejected;
  result.failed += readers.rejected + readers.not_found;

  // Every watch stream against the matching events of its replayed race.
  for (const auto& [id, watch] : watches) {
    std::string why;
    if (!CheckWatchStream(watch.stream,
                          EvaluateOracle(watch.spec, replayed[watch.race]),
                          &why)) {
      result.Wrong("watch " + watch.spec.Text() + ": " + why);
    }
  }

  if (options.trace) {
    // Store cost per event, away from pacing: one more race replayed
    // instantly; the gaps between batch hooks are StoreEvents calls.
    const auto timeline = LiveTimeline(options.seed, probe_race);
    for (const auto& t : timeline.events) {
      replayed[probe_race].push_back(ToEvent(t));
    }
    cobra::f1::ReplayDriver::Options instant;
    instant.max_batch = kMaxBatch;
    instant.seed = options.seed;
    cobra::f1::ReplayDriver driver(&inst.videos, instant);
    auto video = inst.videos.FindVideo("live-" + std::to_string(probe_race));
    double store_s = 0.0;
    auto last = Clock::now();
    auto progress = driver.Replay(
        video.ok() ? video->id : 0, timeline,
        [&](const cobra::f1::ReplayDriver::Progress&) {
          store_s += SecondsSince(last);
          last = Clock::now();
          return cobra::Status::OK();
        });
    if (!video.ok() || !progress.ok()) {
      result.Wrong("store probe replay failed");
    } else {
      result.Set("model.store_event_us",
                 1e6 * store_s / static_cast<double>(progress->events), "us");
    }
  }

  // Recovery: a fresh engine recovering the store (checkpoint plus WAL)
  // must hold every event the benchmark stored.
  {
    Instance fresh;
    fresh.engine.set_fs(&setup.fs);
    auto recovered =
        fresh.engine.Execute(std::string("RECOVER FROM '") + kDir + "'");
    if (!recovered.ok()) {
      result.Wrong("RECOVER after live: " + recovered.status().ToString());
    } else {
      for (size_t i = 0; i < archive.videos.size(); ++i) {
        const Video& v = archive.videos[i];
        std::vector<Event> stored = v.events;
        if (i >= archive.archive_count) {
          const auto& more = replayed[i - archive.archive_count];
          stored.insert(stored.end(), more.begin(), more.end());
        }
        auto id = fresh.videos.FindVideo(v.name);
        auto events = id.ok() ? fresh.videos.Events(id->id)
                              : cobra::Result<std::vector<
                                    cobra::model::EventRecord>>(id.status());
        std::vector<Event> got;
        if (events.ok()) {
          for (const auto& r : *events) got.push_back(ToEvent(r));
        }
        std::string why;
        if (!events.ok() || !CheckRecovered(got, stored, &why)) {
          result.Wrong("recovered " + v.name + ": " + why);
          break;
        }
      }
    }
  }

  if (!options.trace) {
    const double busy_s =
        static_cast<double>(batch_busy_s.size()) * MidMean(batch_busy_s) +
        static_cast<double>(checkpoint_busy_s.size()) *
            MidMean(checkpoint_busy_s);
    ServeMetrics(setup, readers, busy_s / replayed_min, &result);
    return result;
  }
  ServeLayers(&inst, archive, setup, readers, options.seed, &result);
  const cobra::query::ContinuousQueryManager::Stats watch_stats =
      inst.server->watch_manager().stats();
  result.Set("watch.pump_ms", 1e3 * Median(pump_s), "ms");
  result.Set("watch.evals", static_cast<double>(watch_stats.evals), "count");
  result.Set("watch.skipped_evals",
             static_cast<double>(watch_stats.skipped_evals), "count");
  result.Set("watch.notify_p50_ms", 1e3 * Quantile(lag_s, 0.50), "ms");
  result.Set("watch.notify_p90_ms", 1e3 * Quantile(lag_s, 0.90), "ms");
  result.Set("live.generator_late_ms", 1e3 * Quantile(late_s, 0.90), "ms");
  result.Set("kernel.persist_s", Median(persist_s), "s");
  result.Set("kernel.wal_bytes_per_event",
             wal_events > 0 ? wal_bytes / wal_events : 0.0, "B");
  return result;
}

}  // namespace perfbench
