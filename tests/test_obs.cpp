// Tests for the observability subsystem (src/obs + the campaign wiring):
// primitive semantics (histogram buckets, registry merges, journal ring,
// JSON parser), the campaign determinism contract (merged registry and
// journal byte-identical for any --jobs; fault-indexed counters invariant
// across chunkings), and trace-export integrity (balanced B/E spans,
// monotone timestamps, JSONL round-trip).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "obs/chrome_trace.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace gf {
namespace {

using obs::json::Value;

// ---------------------------------------------------------------- primitives

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i counts values with bit_width i: 0 -> 0, 1 -> 1, [2,3] -> 2, ...
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  // Values past the covered range land in the last bucket.
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}),
            obs::Histogram::kBuckets - 1);
}

TEST(HistogramTest, ObserveAndMergeAreExactSums) {
  obs::Histogram a;
  a.observe(1);
  a.observe(100);
  obs::Histogram b;
  b.observe(7);

  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.sum, 101u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 100u);

  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 108u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 100u);
  EXPECT_DOUBLE_EQ(a.mean(), 36.0);
}

TEST(RegistryTest, CountersSumGaugesMax) {
  obs::Registry a;
  a.add("c", 2);
  a.gauge("g", 5);
  obs::Registry b;
  b.add("c", 3);
  b.add("only_b");
  b.gauge("g", 4);

  a.merge(b);
  EXPECT_EQ(a.counter("c"), 5u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_EQ(a.gauges().at("g"), 5u);  // max, not sum
  EXPECT_EQ(a.counter("missing"), 0u);
}

TEST(RegistryTest, JsonIsCanonicalAcrossInsertionOrder) {
  obs::Registry a;
  a.add("zeta", 1);
  a.add("alpha", 2);
  a.observe("h", 10);
  obs::Registry b;
  b.observe("h", 10);
  b.add("alpha", 2);
  b.add("zeta", 1);
  EXPECT_EQ(a.to_json(), b.to_json());

  std::string err;
  const auto v = obs::json::parse(a.to_json(), &err);
  ASSERT_TRUE(v) << err;
  ASSERT_TRUE(v->find("counters") != nullptr);
  EXPECT_DOUBLE_EQ(v->find("counters")->find("alpha")->number, 2.0);
  EXPECT_DOUBLE_EQ(v->find("histograms")->find("h")->find("count")->number,
                   1.0);
}

TEST(ApiMetricsTest, ExportSkipsZeroFailureCounters) {
  obs::ApiMetrics m;
  m.record("NtClose", 30, /*ok=*/true, /*crashed=*/false, /*hung=*/false);
  m.record("NtClose", 50, /*ok=*/false, /*crashed=*/false, /*hung=*/false);
  obs::Registry r;
  m.export_into(r);
  EXPECT_EQ(r.counter("api.NtClose.calls"), 2u);
  EXPECT_EQ(r.counter("api.NtClose.errors"), 1u);
  // No crashes/hangs happened, so those keys must not exist at all.
  EXPECT_EQ(r.counters().count("api.NtClose.crashes"), 0u);
  EXPECT_EQ(r.counters().count("api.NtClose.hangs"), 0u);
  EXPECT_EQ(r.histograms().at("api.NtClose.cycles").sum, 80u);
}

TEST(JournalTest, RingDropsOldestAndCountsThem) {
  obs::Journal j(4);
  for (int i = 0; i < 6; ++i) {
    j.instant("e" + std::to_string(i), i, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.dropped(), 2u);
  const auto events = j.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e2");  // oldest survivor first
  EXPECT_EQ(events.back().name, "e5");

  // A wrapped ring announces the loss: a {"truncated": N} head record, then
  // the survivors with seq numbering starting at dropped() so the gap is
  // visible either way.
  std::ostringstream os;
  obs::write_jsonl(os, "t", j);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"truncated\": 2"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"seq\": 2"), std::string::npos) << line;
  EXPECT_NE(line.find("e2"), std::string::npos) << line;

  // An unwrapped journal emits no truncation record.
  obs::Journal small(8);
  small.instant("only", 1, 1);
  std::ostringstream os2;
  obs::write_jsonl(os2, "t", small);
  EXPECT_EQ(os2.str().find("truncated"), std::string::npos);
  EXPECT_NE(os2.str().find("\"seq\": 0"), std::string::npos);
}

TEST(JournalTest, ChromeTraceMarksTruncationOnWrappedTracks) {
  obs::Journal j(2);
  for (int i = 0; i < 5; ++i) {
    j.instant("e" + std::to_string(i), i, static_cast<std::uint64_t>(i));
  }
  obs::TaskTrack track;
  track.cell = "c";
  track.label = "l";
  track.tid = 1;
  track.journal = &j;
  const auto trace = obs::chrome_trace_json({track});
  EXPECT_NE(trace.find("journal truncated"), std::string::npos);
  EXPECT_NE(trace.find("{\"truncated\": 3}"), std::string::npos);

  // The truncation instant sits at the first survivor's timestamp, so the
  // track stays monotone and the whole document still validates.
  std::string err;
  EXPECT_TRUE(obs::json::parse(trace, &err)) << err;

  obs::Journal intact(8);
  intact.instant("ok", 1, 1);
  track.journal = &intact;
  EXPECT_EQ(obs::chrome_trace_json({track}).find("truncated"),
            std::string::npos);
}

TEST(JsonTest, ParseRejectsMalformed) {
  std::string err;
  EXPECT_FALSE(obs::json::parse("{\"a\": }", &err));
  EXPECT_FALSE(obs::json::parse("[1, 2", &err));
  EXPECT_FALSE(obs::json::parse("{} trailing", &err));
  const auto v = obs::json::parse("{\"a\": [1, true, null, \"s\"]}", &err);
  ASSERT_TRUE(v) << err;
  ASSERT_TRUE(v->find("a") != nullptr);
  EXPECT_EQ(v->find("a")->array.size(), 4u);
}

// ------------------------------------------------------- campaign contracts

depbench::RunnerOptions obs_options() {
  depbench::RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex"};
  opt.iterations = 2;
  opt.stride = 31;
  opt.time_scale = 0.05;
  opt.baseline_window_ms = 2000;
  opt.seed = 7;
  opt.obs = true;
  opt.trace = true;
  return opt;
}

std::string journal_text(const depbench::CampaignObs& obs) {
  std::ostringstream os;
  depbench::write_campaign_journal(os, obs);
  return os.str();
}

TEST(CampaignObsTest, MetricsIdenticalAcrossJobs) {
  auto opt = obs_options();
  opt.chunk = 6;
  opt.jobs = 1;
  depbench::CampaignRunner sequential(opt);
  sequential.run_campaign();
  opt.jobs = 8;
  depbench::CampaignRunner parallel(opt);
  parallel.run_campaign();

  const auto* a = sequential.campaign_obs();
  const auto* b = parallel.campaign_obs();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(a->metrics.empty());
  // The whole contract in one comparison: canonical rendering of the merged
  // registry and the slot-ordered journal are byte-identical.
  EXPECT_EQ(a->metrics.to_json(), b->metrics.to_json());
  EXPECT_EQ(journal_text(*a), journal_text(*b));
}

TEST(CampaignObsTest, ShardInvariantCounters) {
  auto opt = obs_options();
  opt.chunk = 0;
  depbench::CampaignRunner one(opt);
  one.run_campaign();
  opt.chunk = 6;
  depbench::CampaignRunner four(opt);
  four.run_campaign();

  const auto& a = one.campaign_obs()->metrics;
  const auto& b = four.campaign_obs()->metrics;
  // Fixed chunks repartition the same fault indices, so everything keyed by
  // fault index must not move.
  for (const char* key :
       {"campaign.faults_injected", "inject.patches", "inject.restores",
        "inject.verifies", "trace.records"}) {
    EXPECT_EQ(a.counter(key), b.counter(key)) << key;
  }
  EXPECT_GT(a.counter("campaign.faults_injected"), 0u);
  EXPECT_EQ(a.counter("inject.verify_failures"), 0u);
}

TEST(CampaignObsTest, TraceExportIntegrity) {
  auto opt = obs_options();
  depbench::CampaignRunner runner(opt);
  runner.run_campaign();
  const auto* obs = runner.campaign_obs();
  ASSERT_NE(obs, nullptr);

  // Every journal line must round-trip through the strict parser.
  std::istringstream lines(journal_text(*obs));
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    std::string err;
    const auto v = obs::json::parse(line, &err);
    ASSERT_TRUE(v) << "line " << n_lines << ": " << err;
    EXPECT_TRUE(v->find("track") != nullptr);
    EXPECT_TRUE(v->find("ph") != nullptr);
  }
  EXPECT_GT(n_lines, 0u);

  // The Chrome trace must be well-formed: every event carries ph/name/pid/
  // tid, timestamps are monotone per (pid, tid) track, and B/E spans nest.
  std::string err;
  const auto trace = obs::json::parse(depbench::campaign_chrome_trace(*obs),
                                      &err);
  ASSERT_TRUE(trace) << err;
  const auto* events = trace->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->type == Value::Type::kArray);
  EXPECT_GT(events->array.size(), 0u);

  std::map<std::string, std::pair<long, double>> track;  // depth, last ts
  for (const auto& e : events->array) {
    ASSERT_EQ(e.type, Value::Type::kObject);
    const auto* ph = e.find("ph");
    ASSERT_TRUE(ph != nullptr && ph->type == Value::Type::kString);
    ASSERT_TRUE(e.find("name") != nullptr);
    ASSERT_TRUE(e.find("pid") != nullptr);
    ASSERT_TRUE(e.find("tid") != nullptr);
    if (ph->string == "M") continue;
    const auto* ts = e.find("ts");
    ASSERT_TRUE(ts != nullptr && ts->type == Value::Type::kNumber);
    const auto key = obs::json::number(e.find("pid")->number) + "/" +
                     obs::json::number(e.find("tid")->number);
    auto& [depth, last] = track[key];
    EXPECT_GE(ts->number, last) << "track " << key;
    last = ts->number;
    if (ph->string == "B") ++depth;
    if (ph->string == "E") {
      ASSERT_GT(depth, 0) << "unmatched E on track " << key;
      --depth;
    }
  }
  for (const auto& [key, st] : track) {
    EXPECT_EQ(st.first, 0) << "unclosed span on track " << key;
  }
}

}  // namespace
}  // namespace gf
