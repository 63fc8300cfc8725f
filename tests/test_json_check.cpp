// Tests for tools/json_check, driven as a binary the way CI and
// run_benches.sh drive it: every committed artifact and a small inline
// document per schema validate (exit 0), one mutation per check is refused
// (exit 1), and malformed command lines are usage errors (exit 2).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

const std::string kSource = GF_SOURCE_DIR;

/// Runs json_check with `args`, returning its exit code (-1 if it died).
int json_check(const std::string& args) {
  const std::string cmd =
      std::string(GF_JSON_CHECK) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Writes `text` to a file of the running test's own (ctest runs the cases
/// in parallel).
std::string write_temp(const std::string& text) {
  const auto path =
      ::testing::TempDir() + "json_check_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  std::ofstream(path, std::ios::trunc) << text;
  return path;
}

int check_text(const std::string& schema, const std::string& text) {
  return json_check("--schema " + schema + " " + write_temp(text));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// Small valid documents, one per schema, in the shape the emitters write.
const std::string kChrome = R"({"traceEvents": [
 {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {}},
 {"ph": "B", "pid": 1, "tid": 1, "name": "run", "ts": 10},
 {"ph": "X", "pid": 1, "tid": 1, "name": "step", "ts": 11, "dur": 2},
 {"ph": "E", "pid": 1, "tid": 1, "name": "run", "ts": 20},
 {"ph": "i", "pid": 2, "tid": 1, "name": "mark", "ts": 5}]})";

const std::string kSched = R"({"schema": "genfault-sched/1", "jobs": 2,
 "units": 3, "wall_us": 10.5, "utilization": 0.5, "imbalance": 1.2,
 "cpu_makespan_us": 9, "steal_batches": 1, "stolen_units": 1,
 "workers": [
  {"units": 2, "stolen_units": 0, "steal_batches": 0, "steal_attempts": 1,
   "busy_us": 8, "cpu_us": 7, "est_cost": 3.5},
  {"units": 1, "stolen_units": 1, "steal_batches": 1, "steal_attempts": 1,
   "busy_us": 6, "cpu_us": 5, "est_cost": 1.5}]})";

const std::string kProfile = R"({"schema": "genfault-profile/1",
 "stride": 4096, "cells": [{"cell": "VOS-2000/apex",
  "baseline": {"stride": 4096, "total": 3, "functions": {"NtClose": 1, "RtlFreeHeap": 2}},
  "faults": {"stride": 4096, "total": 5, "functions": {"NtClose": 5}},
  "divergence": {"score": 0.25, "deltas": [{"function": "NtClose", "base": 1, "fault": 5, "delta": 0.25}]},
  "runs": [{"label": "iter0.f0",
   "profile": {"stride": 4096, "total": 2, "functions": {"NtClose": 2}},
   "divergence": {"score": 0, "deltas": []}}]}]})";

const std::string kDiff = R"({"schema": "genfault-diff/1",
 "threshold_pct": 5, "cells": [{"cell": "VOS-2000/apex",
  "derived": [{"metric": "spcf", "old": 24, "new": 24, "drift_pct": 0, "breach": false}],
  "counters": [],
  "profile_divergence": {"score": 0.5, "deltas": [{"function": "NtClose", "base": 1, "fault": 2, "delta": 0.5}]}},
  {"cell": "VOS-XP/apex", "derived": [], "counters": [], "profile_divergence": null}],
 "missing_cells": [], "added_cells": [], "breached": false})";

const std::string kStoreStats = R"({"schema": "genfault-store/1", "hits": 3,
 "misses": 1, "puts": 1, "bytes_read": 30, "bytes_written": 10,
 "records": 4, "bytes": 40, "recovered_records": 3, "torn_bytes_dropped": 0})";

const std::string kMicro = R"({"context": {"build_type": "Release",
 "vm_dispatch": "switch", "num_cpus": 4, "library_build_type": "debug"},
 "benchmarks": [
  {"name": "BM_VmDispatch/1000", "real_time": 40.5, "items_per_second": 2e8},
  {"name": "BM_VmDispatchMiniC/4096", "real_time": 500, "items_per_second": 3e8},
  {"name": "BM_ServeRequest/apex", "real_time": 2362, "items_per_second": 4e5,
   "bytes_per_second": 5e9},
  {"name": "BM_ControllerBuildWarm", "real_time": 2.0}]})";

/// One refused document: `from` (which must occur in `doc`) becomes `to`.
struct Mutation {
  std::string from, to;
};

void expect_refused(const std::string& schema, const std::string& doc,
                    const std::vector<Mutation>& mutations) {
  ASSERT_EQ(check_text(schema, doc), 0) << schema << " base document";
  for (const auto& m : mutations) {
    const auto at = doc.find(m.from);
    ASSERT_NE(at, std::string::npos) << m.from;
    auto bad = doc;
    bad.replace(at, m.from.size(), m.to);
    EXPECT_EQ(check_text(schema, bad), 1)
        << schema << ": '" << m.from << "' -> '" << m.to << "'";
  }
}

TEST(JsonCheckTest, CommittedArtifactsPass) {
  const auto golden = kSource + "/tests/golden/";
  EXPECT_EQ(json_check("--schema manifest " + golden + "manifest.json"), 0);
  EXPECT_EQ(json_check("--jsonl " + golden + "journal.jsonl"), 0);
  EXPECT_EQ(json_check("--schema micro " + kSource + "/BENCH_micro.json"), 0);
  EXPECT_EQ(json_check("--schema store " + kSource + "/BENCH_store.json"), 0);
  EXPECT_EQ(json_check("--schema activation " + kSource +
                       "/BENCH_activation.json " + golden +
                       "activation_summary.json"),
            0);
  EXPECT_EQ(json_check("--schema snapshot " + kSource + "/BENCH_snapshot.json"),
            0);
  EXPECT_EQ(json_check("--schema obs " + kSource + "/BENCH_obs.json"), 0);
}

TEST(JsonCheckTest, InlineArtifactsPass) {
  EXPECT_EQ(check_text("chrome", kChrome), 0);
  EXPECT_EQ(check_text("sched", kSched), 0);
  EXPECT_EQ(check_text("profile", kProfile), 0);
  EXPECT_EQ(check_text("diff", kDiff), 0);
  EXPECT_EQ(check_text("store", kStoreStats), 0);
  EXPECT_EQ(check_text("micro", kMicro), 0);
}

TEST(JsonCheckTest, SyntaxAndJsonlErrorsAreRefused) {
  EXPECT_EQ(json_check(write_temp("{\"a\": 1,}")), 1);
  EXPECT_EQ(json_check(write_temp("{\"a\": 1} trailing")), 1);
  EXPECT_EQ(json_check("--jsonl " + write_temp("{\"a\": 1}\n[1, 2]\n")), 1);
  EXPECT_EQ(json_check("--jsonl " + write_temp("{\"a\": 1}\n{\"a\":\n")), 1);
  EXPECT_EQ(json_check(::testing::TempDir() + "json_check_no_such_file"), 1);
}

TEST(JsonCheckTest, ManifestMutationsAreRefused) {
  const auto doc = read_file(kSource + "/tests/golden/manifest.json");
  expect_refused(
      "manifest", doc,
      {{"genfault-campaign/1", "genfault-campaign/2"},
       {"\"options\": {", "\"options\": [1], \"o\": {"},
       {"\"server\": \"apex\"", "\"server\": 7"},
       {"{\"os\": \"VOS-2000\", ", "{"},
       {"\"baseline\": {", "\"baseline\": 1, \"b\": {"},
       {"\"iterations\": [", "\"iterations\": {}, \"i\": ["},
       {"\"derived\": {", "\"derived\": [], \"d\": {"},
       {"\n\"metrics\": {", "\n\"m\": {"},
       {"\n  \"counters\": {", "\n  \"counters\": [], \"c\": {"},
       {"\"api.CloseHandle.calls\": 3", "\"api.CloseHandle.calls\": \"3\""},
       {"\"gauges\": {", "\"gauges\": null, \"g\": {"},
       {"\"count\": 3,", "\"count\": \"3\","},
       {"\"buckets\": [", "\"buckets\": 0, \"b\": ["},
       {"\"profiles\": null", "\"profiles\": 3"},
       {"\"profiles\": null", "\"profiles\": [{\"baseline\": {}, "
                              "\"faults\": {}, \"divergence\": {}}]"},
       {"\"profiles\": null", "\"profiles\": [{\"cell\": \"c\", \"baseline\": "
                              "{}, \"faults\": {}, \"divergence\": 0}]"}});
  EXPECT_EQ(check_text("manifest", "[]"), 1);
}

TEST(JsonCheckTest, ChromeMutationsAreRefused) {
  expect_refused(
      "chrome", kChrome,
      {{"traceEvents", "events"},
       {"\"ph\": \"B\"", "\"ph\": 1"},
       {"\"name\": \"run\"", "\"nam\": \"run\""},
       {"\"pid\": 1, \"tid\": 1, \"name\": \"run\", \"ts\": 10",
        "\"pid\": 1, \"name\": \"run\", \"ts\": 10"},
       {"\"ts\": 10", "\"t\": 10"},
       {"\"ph\": \"E\"", "\"ph\": \"B\""},   // unclosed B
       {"\"ph\": \"B\"", "\"ph\": \"i\""},   // unmatched E
       {"\"ts\": 20", "\"ts\": 9"},          // not monotone
       {", \"dur\": 2", ""}});               // X without dur
}

TEST(JsonCheckTest, ProfileMutationsAreRefused) {
  expect_refused(
      "profile", kProfile,
      {{"genfault-profile/1", "genfault-profile/0"},
       {"\"stride\": 4096, \"cells\"", "\"stride\": 0, \"cells\""},
       {"\"cell\": \"VOS-2000/apex\"", "\"cell\": null"},
       {"\"total\": 3", "\"total\": 4"},  // counts no longer sum to total
       {"\"NtClose\": 1, ", "\"NtClose\": -1, \"X\": 2, "},
       {"\"baseline\": {\"stride\": 4096, ", "\"baseline\": {"},
       {"\"faults\": {", "\"faults\": 5, \"f\": {"},
       {"\"score\": 0.25", "\"score\": 1.5"},
       {"\"score\": 0,", "\"score\": -0.5,"},
       {"\"function\": \"NtClose\"", "\"function\": 3"},
       {"\"delta\": 0.25", "\"delta\": \"x\""},
       {"\"deltas\": []", "\"deltas\": {}"},
       {"\"label\": \"iter0.f0\"", "\"label\": 0"},
       {"\"profile\": {\"stride\": 4096, \"total\": 2",
        "\"profile\": {\"stride\": 4096, \"total\": 1"},
       {"\"runs\": [", "\"runs\": null, \"r\": ["}});
}

TEST(JsonCheckTest, DiffMutationsAreRefused) {
  expect_refused(
      "diff", kDiff,
      {{"genfault-diff/1", "genfault-diff/2"},
       {"\"threshold_pct\": 5", "\"threshold_pct\": \"5\""},
       {"\"breached\": false", "\"breached\": 0"},
       {"\"missing_cells\": []", "\"missing_cells\": {}"},
       {"\"added_cells\": [], ", ""},
       {"\"metric\": \"spcf\"", "\"metric\": 1"},
       {"\"drift_pct\": 0", "\"drift_pct\": null"},
       {"\"breach\": false", "\"breach\": \"no\""},
       {"\"counters\": []", "\"counters\": null"},
       {"\"score\": 0.5", "\"score\": 2"},
       {", \"profile_divergence\": null", ""}});
}

TEST(JsonCheckTest, SchedMutationsAreRefused) {
  expect_refused(
      "sched", kSched,
      {{"genfault-sched/1", "genfault-sched/0"},
       {"\"units\": 3", "\"units\": \"3\""},
       {"\"stolen_units\": 1,\n", "\n"},
       {"\"jobs\": 2", "\"jobs\": 3"},  // workers[] length != jobs
       {"\"workers\": [", "\"workers\": {}, \"w\": ["},
       {"\"busy_us\": 8", "\"busy_us\": null"},
       {"\"est_cost\": 1.5", "\"est\": 1.5"}});
}

TEST(JsonCheckTest, StoreMutationsAreRefused) {
  expect_refused("store", kStoreStats,
                 {{"genfault-store/1", "genfault-store/2"},
                  {"\"hits\": 3", "\"hits\": \"3\""},
                  {", \"torn_bytes_dropped\": 0", ""}});
  const auto bench = read_file(kSource + "/BENCH_store.json");
  expect_refused(
      "store", bench,
      {{"genfault-store-bench/1", "genfault-store-bench/2"},
       {"\"cold_ms\"", "\"cold\""},
       {"\"artifacts_identical\": true", "\"artifacts_identical\": false"},
       {"\"artifacts_identical\": true", "\"artifacts_identical\": 1"},
       {"\"hits\": 0", "\"hits\": 1"},      // cold run hit the cache
       {"\"misses\": 0", "\"misses\": 2"},  // resume run missed
       {"\"hits\": 30", "\"hits\": 0"},     // resume run never hit
       {"\"misses\": 1", "\"misses\": 0"},  // incremental run did not mix
       {"\"hits\": 29", "\"hits\": 0"},
       {"\"resume\": {\"schema\": \"genfault-store/1\"",
        "\"resume\": {\"schema\": \"genfault-store/0\""},
       {"\"bytes_written\": 5964", "\"bytes_written\": []"},
       {"\"incremental\": {", "\"incremental\": 0, \"i\": {"}});
}

TEST(JsonCheckTest, MicroMutationsAreRefused) {
  expect_refused(
      "micro", kMicro,
      {{"\"build_type\": \"Release\"", "\"build_type\": \"Debug\""},
       {"\"build_type\": \"Release\",\n", "\n"},
       {"\"vm_dispatch\": \"switch\"", "\"vm_dispatch\": \"computed\""},
       {"\"num_cpus\": 4", "\"num_cpus\": 0"},
       {"\"context\": {", "\"ctx\": {"},
       {"BM_ControllerBuildWarm", "BM_NoSuchFamily"},
       {"\"real_time\": 2.0", "\"real_time\": 0"},
       {"\"real_time\": 40.5", "\"real_time\": -1"},
       {"\"name\": \"BM_ControllerBuildWarm\"", "\"name\": 5"},
       {"\"items_per_second\": 2e8", "\"items_per_second\": 0"},
       {"\"items_per_second\": 2e8", "\"items_per_second\": null"},
       {", \"items_per_second\": 2e8", ""},  // BM_VmDispatch needs its rate
       {", \"items_per_second\": 3e8", ""},
       {",\n   \"bytes_per_second\": 5e9", ""},
       {"BM_VmDispatch/1000", "BM_VmDispatchNoFusion/1000"},  // none left
       {"\"benchmarks\": [", "\"benchmarks\": [], \"b\": ["}});
}

// The three bench summaries are flat ratio records: a renamed key must not
// pass.
TEST(JsonCheckTest, BenchSummaryMutationsAreRefused) {
  expect_refused("activation", read_file(kSource + "/BENCH_activation.json"),
                 {{"\"activation_rate\"", "\"activation_ratio\""},
                  {"\"rate\": 0.8000", "\"ratio\": 0.8000"}});
  expect_refused(
      "activation",
      read_file(kSource + "/tests/golden/activation_summary.json"),
      {{"\"injected\": 7", "\"injections\": 7"}});
  expect_refused("snapshot", read_file(kSource + "/BENCH_snapshot.json"),
                 {{"\"campaign_speedup\"", "\"campaign_speed\""}});
  expect_refused("obs", read_file(kSource + "/BENCH_obs.json"),
                 {{"\"api_obs_overhead\"", "\"api_overhead\""}});
}

TEST(JsonCheckTest, UsageErrorsExitTwo) {
  const auto file = write_temp(kChrome);
  EXPECT_EQ(json_check(""), 2);
  EXPECT_EQ(json_check("--schema chrome"), 2);
  EXPECT_EQ(json_check("--strict " + file), 2);
  EXPECT_EQ(json_check("--schema nosuch " + file), 2);
}

// `jobs` is validated as a non-negative integer before it is compared with
// the workers[] length: a fractional or negative count is refused (and is
// never cast to an unsigned size).
TEST(JsonCheckTest, SchedJobsMustBeANonNegativeInteger) {
  for (const char* jobs : {"2.5", "-1, \"workers\": [], \"w\": 0"}) {
    auto doc = kSched;
    doc.replace(doc.find("\"jobs\": 2"), 9, std::string("\"jobs\": ") + jobs);
    EXPECT_EQ(check_text("sched", doc), 1) << jobs;
  }
}

// --jsonl checks lines as bare objects; a schema alongside it would be
// silently ignored, so the combination is refused.
TEST(JsonCheckTest, JsonlWithSchemaIsAUsageError) {
  const auto journal = kSource + "/tests/golden/journal.jsonl";
  EXPECT_EQ(json_check("--jsonl --schema manifest " + journal), 2);
  EXPECT_EQ(json_check("--schema chrome --jsonl " + journal), 2);
}

// The metrics registry shape is checked as the manifest's `metrics` member;
// there is no standalone mode for it.
TEST(JsonCheckTest, MetricsIsNotAStandaloneSchema) {
  const auto metrics = write_temp(R"({"counters": {}, "gauges": {},
                                      "histograms": {}})");
  EXPECT_EQ(json_check("--schema metrics " + metrics), 2);
}

}  // namespace
