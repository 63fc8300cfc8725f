// json_check — tiny JSON validator for the bench/CI artifact pipeline.
//
//   json_check FILE...                 strict syntax check
//   json_check --jsonl FILE...         one JSON object per line
//   json_check --schema NAME FILE...   chrome (trace events), manifest, sched,
//     store (store bench or stats), micro (BENCH_micro.json: Release build
//     context, positive rates), profile (cycle profiles), diff, activation
//     (activation summaries), snapshot (BENCH_snapshot.json) or obs
//     (BENCH_obs.json)
//
// Exit 0 when every file validates; otherwise print the first problem per
// file by its JSON path (`cells[3].server: expected string`) and exit 1; a
// malformed command line exits 2. run_benches.sh and CI pipe every emitted
// artifact through this, so a malformed emitter fails loudly.
//
// Each schema is a table of path rules plus, where the shape cannot express
// a check, one semantic hook. A rule path is a dotted list of segments:
// `name` (a member), `name[]` (each element of an array member) and
// `name{}` (each value of an object member). A `?` on a segment lets that
// member be null and a `~` lets it be absent; either way the rest of the
// path is skipped. The last segment may list several names, `a.b c` being
// `a.b` and `a.c`. The rule's kind applies to whatever the path reaches.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using gf::obs::json::Value;

enum Kind { kNumber, kPositive, kCount, kUnit, kString, kBool, kObject, kArray };
constexpr const char* kKindNames[] = {
    "number", "positive number", "non-negative integer", "number in [0,1]",
    "string", "bool",            "object",               "array"};

struct Table;

struct Rule {
  const char* path;
  Kind kind;
  const char* literal = nullptr;  ///< kString: the allowed values, `a|b`
  const Table* sub = nullptr;     ///< kObject: a table it must also pass
};

struct Table {
  std::vector<Rule> rules;
  /// A semantic check over a value whose shape the rules already verified;
  /// returns the problem, or "" when there is none.
  std::string (*hook)(const Value&) = nullptr;
};

bool is(const Value* v, Kind kind) {
  if (v == nullptr) return false;
  const double n = v->number;
  switch (kind) {
    case kNumber: return v->is_number();
    case kPositive: return v->is_number() && n > 0;
    case kCount:  // bounded, so a cast to std::size_t is defined
      return v->is_number() && n >= 0 && n < 0x1p64 && n == std::floor(n);
    case kUnit: return v->is_number() && n >= 0 && n <= 1;
    case kString: return v->is_string();
    case kBool: return v->type == Value::Type::kBool;
    case kObject: return v->is_object();
    case kArray: return v->is_array();
  }
  return false;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t start = 0;;) {
    const auto end = s.find(sep, start);
    parts.push_back(s.substr(start, end - start));
    if (end == std::string_view::npos) return parts;
    start = end + 1;
  }
}

std::string apply(const Table& table, const Value& v, const std::string& at);

/// Follows the remaining `path` of `rule` from `v`, the value at `at`.
std::string walk(const Value& v, std::string_view path, const Rule& rule,
                 const std::string& at) {
  if (!v.is_object()) return (at.empty() ? "root" : at) + ": expected object";
  const auto dot = path.find('.');
  const auto seg = path.substr(0, dot);
  const auto name = seg.substr(0, seg.find_first_of("?~[{"));
  const auto here = (at.empty() ? "" : at + ".") + std::string(name);
  const Value* m = v.find(name);
  auto marked = [&](char c) { return seg.find(c) != std::string_view::npos; };
  if (m == nullptr) return marked('~') ? "" : here + ": missing";
  if (m->type == Value::Type::kNull && marked('?')) return "";
  const auto rest = dot == std::string_view::npos ? "" : path.substr(dot + 1);
  auto next = [&](const Value& x, const std::string& xat) -> std::string {
    if (!rest.empty()) return walk(x, rest, rule, xat);
    if (!is(&x, rule.kind)) return xat + ": expected " + kKindNames[rule.kind];
    if (rule.literal != nullptr &&
        std::ranges::count(split(rule.literal, '|'), x.string) == 0) {
      return xat + ": expected \"" + rule.literal + "\"";
    }
    return rule.sub != nullptr ? apply(*rule.sub, x, xat) : "";
  };
  const bool each = seg.ends_with("[]"), members = seg.ends_with("{}");
  if (!each && !members) return next(*m, here);
  if (!is(m, each ? kArray : kObject)) {
    return here + ": expected " + (each ? "array" : "object");
  }
  const auto n = each ? m->array.size() : m->object.size();
  for (std::size_t i = 0; i < n; ++i) {
    auto e = each ? next(m->array[i], here + "[" + std::to_string(i) + "]")
                  : next(m->object[i].second, here + "." + m->object[i].first);
    if (!e.empty()) return e;
  }
  return "";
}

/// Applies every rule of `table`, then its hook, to `v` (the value at `at`).
std::string apply(const Table& table, const Value& v, const std::string& at) {
  for (const auto& rule : table.rules) {
    const std::string_view path = rule.path;
    const auto cut = path.rfind('.') + 1;  // 0 without a dot
    for (const auto name : split(path.substr(cut), ' ')) {
      auto e = walk(v, std::string(path.substr(0, cut)) + std::string(name),
                    rule, at);
      if (!e.empty()) return e;
    }
  }
  auto e = table.hook != nullptr ? table.hook(v) : "";
  return e.empty() || at.empty() ? e : at + ": " + e;
}

/// Matched B/E nesting and monotone timestamps per (pid, tid) track; every
/// non-metadata event carries a ts, and every complete (X) event a dur.
std::string chrome_tracks(const Value& root) {
  std::map<std::pair<double, double>, std::pair<long, double>> tracks;
  const auto& events = root.find("traceEvents")->array;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const auto at = "traceEvents[" + std::to_string(i) + "]";
    const auto& ph = e.find("ph")->string;
    if (ph == "M") continue;  // metadata carries no timestamp
    const auto* ts = e.find("ts");
    if (!is(ts, kNumber)) return at + ".ts: expected number";
    auto& [depth, last_ts] = tracks.try_emplace(
        {e.find("pid")->number, e.find("tid")->number}, 0L, -1e300)
                                 .first->second;
    if (ts->number < last_ts) return at + ": ts not monotone on its track";
    last_ts = ts->number;
    if (ph == "B") ++depth;
    if (ph == "E" && depth-- <= 0) return at + ": unmatched E on its track";
    if (ph == "X" && !is(e.find("dur"), kNumber)) {
      return at + ".dur: expected number";
    }
  }
  for (const auto& [track, state] : tracks) {
    if (state.first != 0) return "unclosed B span(s) on a track";
  }
  return "";
}

/// Sampler accounting is exact: the function counts sum to `total`.
std::string counts_sum_to_total(const Value& profile) {
  double sum = 0;
  for (const auto& [name, n] : profile.find("functions")->object) sum += n.number;
  if (sum == profile.find("total")->number) return "";
  return "function counts do not sum to total";
}

std::string one_worker_per_job(const Value& sched) {
  const auto jobs = static_cast<std::size_t>(sched.find("jobs")->number);
  if (sched.find("workers")->array.size() == jobs) return "";
  return "workers[] length != jobs";
}

/// The hit/miss pattern of the store bench: the cold run populates (no
/// hits), the unchanged re-run is all hits, the incremental re-run hits
/// everything except the edited fault type's keys.
std::string store_hit_pattern(const Value& bench) {
  auto n = [&](const char* run, const char* key) {
    return bench.find(run)->find(key)->number;
  };
  if (!bench.find("artifacts_identical")->boolean) {
    return "artifacts_identical is false (a cache hit changed the artifacts)";
  }
  if (n("cold", "hits") != 0) return "cold run reported cache hits";
  if (n("resume", "misses") != 0 || n("resume", "hits") <= 0) {
    return "resume run was not a full cache hit";
  }
  if (n("incremental", "hits") <= 0 || n("incremental", "misses") <= 0) {
    return "incremental run did not mix hits and misses";
  }
  return "";
}

/// Every benchmark is of a known family and carries the rates its family is
/// tracked by, and the headline BM_VmDispatch trajectory point is present.
std::string micro_families(const Value& root) {
  static const std::set<std::string> kFamilies = {
      "BM_VmDispatch", "BM_VmDispatchPredecoded", "BM_VmDispatchNoPredecode",
      "BM_VmDispatchNoFusion", "BM_VmDispatchTraceDisarmed",
      "BM_VmDispatchProfiled", "BM_VmDispatchMiniC",
      "BM_VmDispatchMiniCNoFusion", "BM_MiniCCompileOs", "BM_FaultloadScan",
      "BM_InjectRestore", "BM_InjectRestoreInvalidate", "BM_ApiCallAlloc",
      "BM_ApiCallAllocObs", "BM_JournalAppend", "BM_ApiCallOpenReadClose",
      "BM_ColdReboot", "BM_SnapshotRestore", "BM_ControllerBuildCold",
      "BM_ControllerBuildWarm", "BM_ControllerResetWarm", "BM_ServeRequest",
      "BM_FaultloadSerialize"};
  // Families tracked by their rate (retired instructions or requests).
  static const std::set<std::string> kRated = {
      "BM_VmDispatch", "BM_VmDispatchMiniC", "BM_VmDispatchMiniCNoFusion",
      "BM_ServeRequest"};
  bool saw_dispatch = false;
  const auto& benches = root.find("benchmarks")->array;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const auto& b = benches[i];
    const auto at = "benchmarks[" + std::to_string(i) + "]: ";
    const auto& name = b.find("name")->string;
    const auto family = name.substr(0, name.find('/'));
    if (kFamilies.count(family) == 0) return at + "unknown family " + family;
    // A present items_per_second already passed its rule.
    if (kRated.count(family) != 0 && b.find("items_per_second") == nullptr) {
      return at + family + " missing items_per_second";
    }
    if (family == "BM_ServeRequest" && !is(b.find("bytes_per_second"), kNumber)) {
      return at + "BM_ServeRequest missing bytes_per_second";
    }
    saw_dispatch = saw_dispatch || family == "BM_VmDispatch";
  }
  return saw_dispatch ? "" : "no BM_VmDispatch entry (the headline point)";
}

/// The obs registry (see obs::Registry), the manifest's `metrics` member.
const Table kMetrics{{{"counters{}", kNumber}, {"gauges", kObject},
                      {"histograms{}.count sum min max", kNumber},
                      {"histograms{}.buckets", kArray}}};

/// One flat cycle profile: {"stride", "total", "functions": {name: n}}.
const Table kFlatProfile{{{"stride total", kNumber}, {"functions{}", kCount}},
                         counts_sum_to_total};

const Table kDivergence{{{"score", kUnit}, {"deltas[].function", kString},
                         {"deltas[].base fault delta", kNumber}}};

/// StoreStats::to_json, also the whole --store-json artifact.
const Table kStoreStats{{{"schema", kString, "genfault-store/1"},
                         {"hits misses puts bytes_read bytes_written records "
                          "bytes recovered_records torn_bytes_dropped",
                          kNumber}}};

const Table kChrome{
    {{"traceEvents[].ph name", kString}, {"traceEvents[].pid tid", kNumber}},
    chrome_tracks};

/// The manifest; `profiles` is absent or null for an unprofiled campaign.
const Table kManifest{
    {{"schema", kString, "genfault-campaign/1"}, {"options", kObject},
     {"cells[].os server", kString}, {"cells[].iterations", kArray},
     {"cells[].baseline derived", kObject},
     {"metrics?", kObject, nullptr, &kMetrics},
     {"profiles?~[].cell", kString},
     {"profiles?~[].baseline faults divergence", kObject}}};

/// Per cell the baseline, merged fault and per-run profiles and divergences.
const Table kProfile{
    {{"schema", kString, "genfault-profile/1"}, {"stride", kPositive},
     {"cells[].cell", kString},
     {"cells[].baseline faults", kObject, nullptr, &kFlatProfile},
     {"cells[].divergence", kObject, nullptr, &kDivergence},
     {"cells[].runs[].label", kString},
     {"cells[].runs[].profile", kObject, nullptr, &kFlatProfile},
     {"cells[].runs[].divergence", kObject, nullptr, &kDivergence}}};

const Table kDiff{
    {{"schema", kString, "genfault-diff/1"}, {"threshold_pct", kNumber},
     {"breached", kBool}, {"missing_cells added_cells", kArray},
     {"cells[].cell", kString}, {"cells[].derived[].metric", kString},
     {"cells[].derived[].old new drift_pct", kNumber},
     {"cells[].derived[].breach", kBool}, {"cells[].counters", kArray},
     {"cells[].profile_divergence?", kObject, nullptr, &kDivergence}}};

/// The --sched-json artifact (see SchedStats::to_json).
const Table kSched{{{"schema", kString, "genfault-sched/1"}, {"jobs", kCount},
                    {"units wall_us utilization imbalance cpu_makespan_us "
                     "steal_batches stolen_units",
                     kNumber},
                    {"workers[].units stolen_units steal_batches "
                     "steal_attempts busy_us cpu_us est_cost",
                     kNumber}},
                   one_worker_per_job};

/// BENCH_store.json: timings, byte-identity verdict and per-run store stats.
const Table kStoreBench{
    {{"schema", kString, "genfault-store-bench/1"},
     {"jobs cold_ms resume_ms incremental_ms resume_speedup "
      "incremental_speedup",
      kNumber},
     {"artifacts_identical", kBool},
     {"cold resume incremental", kObject, nullptr, &kStoreStats}},
    store_hit_pattern};

/// BENCH_micro.json. run_benches.sh injects build_type=Release after checking
/// the build dir ("library_build_type" is the distro libbenchmark's), and
/// micro_substrate reports its interpreter lowering as vm_dispatch.
const Table kMicro{
    {{"context.build_type", kString, "Release"},
     {"context.vm_dispatch", kString, "threaded|switch"},
     {"context.num_cpus", kPositive}, {"benchmarks[].name", kString},
     {"benchmarks[].real_time items_per_second~", kPositive}},
    micro_families};

/// An activation summary (trace::activation_summary_json): the
/// --activation-json artifact and BENCH_activation.json.
const Table kActivation{
    {{"injected activated latent external", kCount},
     {"activation_rate", kUnit},
     {"by_type{}.injected activated", kCount},
     {"by_type{}.rate", kUnit}}};

/// BENCH_snapshot.json: cold reboot vs boot replay, cold vs warm campaign.
const Table kSnapshotBench{
    {{"cold_reboot_ns snapshot_restore_ns micro_speedup campaign_warm_ms "
      "campaign_cold_ms campaign_speedup",
      kPositive}}};

/// BENCH_obs.json; the two profiler members are newer than the committed
/// file, so they may be absent.
const Table kObsBench{
    {{"vm_dispatch_items_per_s api_call_ns api_call_obs_ns api_obs_overhead "
      "campaign_plain_ms campaign_obs_ms campaign_obs_overhead "
      "vm_dispatch_profiled_items_per_s~ profiler_armed_retention_rate~",
      kPositive}}};

const std::map<std::string, const Table*> kSchemas = {
    {"chrome", &kChrome},         {"manifest", &kManifest},
    {"sched", &kSched},           {"store", &kStoreBench},
    {"micro", &kMicro},           {"profile", &kProfile},
    {"diff", &kDiff},             {"activation", &kActivation},
    {"snapshot", &kSnapshotBench}, {"obs", &kObsBench}};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: json_check [--jsonl | --schema chrome|manifest|sched|"
               "store|micro|profile|diff|activation|snapshot|obs] FILE...\n");
  std::exit(2);
}

bool fail(const std::string& file, const std::string& why) {
  std::fprintf(stderr, "json_check: %s: %s\n", file.c_str(), why.c_str());
  return false;
}

bool check_file(const std::string& file, const Table* table, bool jsonl) {
  std::ifstream f(file);
  if (!f) return fail(file, "cannot open");
  const std::string text{std::istreambuf_iterator<char>(f), {}};

  if (jsonl) {
    std::istringstream lines(text);
    std::string line;
    for (std::size_t n = 1; std::getline(lines, line); ++n) {
      if (line.empty()) continue;
      std::string err;
      const auto v = gf::obs::json::parse(line, &err);
      if (!v || !v->is_object()) {
        return fail(file, "line " + std::to_string(n) + ": " +
                              (v ? "not an object" : err));
      }
    }
    return true;
  }

  std::string err;
  const auto v = gf::obs::json::parse(text, &err);
  if (!v) return fail(file, err);
  if (table == nullptr) return true;
  // --schema store also takes a bare stats object (the --store-json file).
  const auto* schema = v->find("schema");
  if (table == &kStoreBench && is(schema, kString) &&
      schema->string == "genfault-store/1") {
    table = &kStoreStats;
  }
  const auto problem = apply(*table, *v, "");
  return problem.empty() || fail(file, problem);
}

}  // namespace

int main(int argc, char** argv) {
  const Table* table = nullptr;
  bool jsonl = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl = true;
    } else if (std::strcmp(argv[i], "--schema") == 0) {
      if (i + 1 >= argc) usage();
      const auto it = kSchemas.find(argv[++i]);
      if (it == kSchemas.end()) usage();
      table = it->second;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      usage();
    } else {
      files.emplace_back(argv[i]);
    }
  }
  // --jsonl checks bare objects per line; a schema beside it would be unused.
  if (files.empty() || (jsonl && table != nullptr)) usage();
  bool ok = true;
  for (const auto& file : files) ok = check_file(file, table, jsonl) && ok;
  if (ok && files.size() > 1) {
    std::printf("json_check: %zu files ok\n", files.size());
  }
  return ok ? 0 : 1;
}
