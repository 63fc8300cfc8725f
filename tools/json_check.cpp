// json_check — tiny JSON validator for the bench/CI artifact pipeline.
//
//   json_check FILE...                    strict syntax check
//   json_check --jsonl FILE...            one JSON object per line
//   json_check --schema metrics FILE      obs registry shape
//   json_check --schema chrome FILE       Chrome trace-event shape
//   json_check --schema manifest FILE     genfault-campaign manifest shape
//   json_check --schema sched FILE        scheduler telemetry shape
//   json_check --schema store FILE        campaign-store bench/stats shape
//   json_check --schema micro FILE        BENCH_micro.json sanity (Release
//                                         build context, positive rates)
//   json_check --schema profile FILE      genfault-profile cycle profiles
//   json_check --schema diff FILE         genfault-diff campaign comparison
//
// Exit 0 when every file validates; prints the first problem per file and
// exits 1 otherwise. run_benches.sh and the CI workflow pipe every emitted
// artifact through this, so a malformed emitter fails loudly instead of
// producing quietly-broken dashboards.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using gf::obs::json::Value;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: json_check [--jsonl] "
               "[--schema metrics|chrome|manifest|sched|store|micro|"
               "profile|diff] FILE...\n");
  std::exit(2);
}

bool fail(const std::string& file, const std::string& why) {
  std::fprintf(stderr, "json_check: %s: %s\n", file.c_str(), why.c_str());
  return false;
}

bool is_object(const Value* v) {
  return v != nullptr && v->type == Value::Type::kObject;
}
bool is_array(const Value* v) {
  return v != nullptr && v->type == Value::Type::kArray;
}
bool is_number(const Value* v) {
  return v != nullptr && v->type == Value::Type::kNumber;
}
bool is_string(const Value* v) {
  return v != nullptr && v->type == Value::Type::kString;
}

/// {"counters": {name: int...}, "gauges": {...}, "histograms":
///  {name: {count, sum, min, max, buckets[]}}}
bool check_metrics(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  for (const char* key : {"counters", "gauges", "histograms"}) {
    if (!is_object(root.find(key))) {
      return fail(file, std::string("missing object field: ") + key);
    }
  }
  for (const auto& [name, v] : root.find("counters")->object) {
    if (v.type != Value::Type::kNumber) {
      return fail(file, "counter not a number: " + name);
    }
  }
  for (const auto& [name, h] : root.find("histograms")->object) {
    if (h.type != Value::Type::kObject) {
      return fail(file, "histogram not an object: " + name);
    }
    for (const char* key : {"count", "sum", "min", "max"}) {
      if (!is_number(h.find(key))) {
        return fail(file, "histogram " + name + " missing " + key);
      }
    }
    if (!is_array(h.find("buckets"))) {
      return fail(file, "histogram " + name + " missing buckets[]");
    }
  }
  return true;
}

/// {"traceEvents": [{"ph", "pid", "tid", "name", ...}...]} with matched B/E
/// nesting and monotone timestamps per (pid, tid) track.
bool check_chrome(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* events = root.find("traceEvents");
  if (!is_array(events)) return fail(file, "missing traceEvents[]");
  // Track state keyed by "pid/tid": open B depth and last timestamp.
  std::vector<std::pair<std::string, std::pair<long, double>>> tracks;
  auto track = [&](const std::string& key)
      -> std::pair<long, double>& {
    for (auto& [k, st] : tracks) {
      if (k == key) return st;
    }
    tracks.emplace_back(key, std::make_pair(0L, -1e300));
    return tracks.back().second;
  };
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const auto& e = events->array[i];
    const auto at = "traceEvents[" + std::to_string(i) + "]";
    if (e.type != Value::Type::kObject) return fail(file, at + " not object");
    const auto* ph = e.find("ph");
    if (!is_string(ph)) return fail(file, at + " missing ph");
    if (!is_string(e.find("name"))) return fail(file, at + " missing name");
    if (!is_number(e.find("pid")) || !is_number(e.find("tid"))) {
      return fail(file, at + " missing pid/tid");
    }
    if (ph->string == "M") continue;  // metadata carries no timestamp
    const auto* ts = e.find("ts");
    if (!is_number(ts)) return fail(file, at + " missing ts");
    const auto key = std::to_string(e.find("pid")->number) + "/" +
                     std::to_string(e.find("tid")->number);
    auto& [depth, last_ts] = track(key);
    if (ts->number < last_ts) {
      return fail(file, at + " timestamp not monotone on track " + key);
    }
    last_ts = ts->number;
    if (ph->string == "B") ++depth;
    if (ph->string == "E") {
      if (depth <= 0) return fail(file, at + " unmatched E on track " + key);
      --depth;
    }
    if (ph->string == "X" && !is_number(e.find("dur"))) {
      return fail(file, at + " X event missing dur");
    }
  }
  for (const auto& [key, st] : tracks) {
    if (st.first != 0) {
      return fail(file, "unclosed B span(s) on track " + key);
    }
  }
  return true;
}

/// {"schema": "genfault-campaign/1", "options": {...}, "cells": [...],
///  "metrics": {...}|null}
bool check_manifest(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* schema = root.find("schema");
  if (!is_string(schema) || schema->string != "genfault-campaign/1") {
    return fail(file, "schema is not genfault-campaign/1");
  }
  if (!is_object(root.find("options"))) return fail(file, "missing options{}");
  const auto* cells = root.find("cells");
  if (!is_array(cells)) return fail(file, "missing cells[]");
  for (std::size_t i = 0; i < cells->array.size(); ++i) {
    const auto& cell = cells->array[i];
    const auto at = "cells[" + std::to_string(i) + "]";
    if (cell.type != Value::Type::kObject) return fail(file, at + " not object");
    if (!is_string(cell.find("os")) || !is_string(cell.find("server"))) {
      return fail(file, at + " missing os/server");
    }
    if (!is_object(cell.find("baseline"))) {
      return fail(file, at + " missing baseline{}");
    }
    if (!is_array(cell.find("iterations"))) {
      return fail(file, at + " missing iterations[]");
    }
    if (!is_object(cell.find("derived"))) {
      return fail(file, at + " missing derived{}");
    }
  }
  const auto* metrics = root.find("metrics");
  if (metrics == nullptr) return fail(file, "missing metrics");
  if (metrics->type != Value::Type::kNull && !check_metrics(file, *metrics)) {
    return false;
  }
  // Optional cycle profiles: null when the campaign ran unprofiled, else one
  // entry per cell with full baseline/faults profiles (gfbench diff reads
  // these to rank cross-campaign divergence).
  const auto* profiles = root.find("profiles");
  if (profiles != nullptr && profiles->type != Value::Type::kNull) {
    if (!is_array(profiles)) return fail(file, "profiles not array|null");
    for (std::size_t i = 0; i < profiles->array.size(); ++i) {
      const auto& p = profiles->array[i];
      const auto at = "profiles[" + std::to_string(i) + "]";
      if (!is_string(p.find("cell"))) return fail(file, at + " missing cell");
      for (const char* key : {"baseline", "faults"}) {
        if (!is_object(p.find(key))) {
          return fail(file, at + " missing object field: " + key);
        }
      }
      if (!is_object(p.find("divergence"))) {
        return fail(file, at + " missing divergence{}");
      }
    }
  }
  return true;
}

/// One flat profile object: {"stride": N, "total": N, "functions": {...}}
/// whose function counts sum exactly to total (sampler accounting is exact).
bool check_profile_object(const std::string& file, const std::string& at,
                          const Value& v) {
  if (v.type != Value::Type::kObject) return fail(file, at + " not object");
  if (!is_number(v.find("stride")) || !is_number(v.find("total"))) {
    return fail(file, at + " missing stride/total");
  }
  const auto* fns = v.find("functions");
  if (!is_object(fns)) return fail(file, at + " missing functions{}");
  double sum = 0;
  for (const auto& [name, n] : fns->object) {
    if (n.type != Value::Type::kNumber || n.number < 0) {
      return fail(file, at + " function count invalid: " + name);
    }
    sum += n.number;
  }
  if (sum != v.find("total")->number) {
    return fail(file, at + " function counts do not sum to total");
  }
  return true;
}

/// {"score": s in [0,1], "deltas": [{"function","base","fault","delta"}...]}
bool check_divergence(const std::string& file, const std::string& at,
                      const Value& v) {
  if (v.type != Value::Type::kObject) return fail(file, at + " not object");
  const auto* score = v.find("score");
  if (!is_number(score) || score->number < 0 || score->number > 1) {
    return fail(file, at + " score missing or out of [0,1]");
  }
  const auto* deltas = v.find("deltas");
  if (!is_array(deltas)) return fail(file, at + " missing deltas[]");
  for (std::size_t i = 0; i < deltas->array.size(); ++i) {
    const auto& d = deltas->array[i];
    const auto dat = at + ".deltas[" + std::to_string(i) + "]";
    if (!is_string(d.find("function"))) {
      return fail(file, dat + " missing function");
    }
    for (const char* key : {"base", "fault", "delta"}) {
      if (!is_number(d.find(key))) {
        return fail(file, dat + " missing number field: " + key);
      }
    }
  }
  return true;
}

/// genfault-profile/1: per cell the baseline profile, merged fault profile,
/// their divergence, and every fault run's own profile + divergence.
bool check_profile(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* schema = root.find("schema");
  if (!is_string(schema) || schema->string != "genfault-profile/1") {
    return fail(file, "schema is not genfault-profile/1");
  }
  const auto* stride = root.find("stride");
  if (!is_number(stride) || stride->number <= 0) {
    return fail(file, "stride missing or not positive");
  }
  const auto* cells = root.find("cells");
  if (!is_array(cells)) return fail(file, "missing cells[]");
  for (std::size_t i = 0; i < cells->array.size(); ++i) {
    const auto& c = cells->array[i];
    const auto at = "cells[" + std::to_string(i) + "]";
    if (c.type != Value::Type::kObject) return fail(file, at + " not object");
    if (!is_string(c.find("cell"))) return fail(file, at + " missing cell");
    for (const char* key : {"baseline", "faults", "divergence"}) {
      if (c.find(key) == nullptr) {
        return fail(file, at + " missing field: " + key);
      }
    }
    if (!check_profile_object(file, at + ".baseline", *c.find("baseline")) ||
        !check_profile_object(file, at + ".faults", *c.find("faults")) ||
        !check_divergence(file, at + ".divergence", *c.find("divergence"))) {
      return false;
    }
    const auto* runs = c.find("runs");
    if (!is_array(runs)) return fail(file, at + " missing runs[]");
    for (std::size_t k = 0; k < runs->array.size(); ++k) {
      const auto& r = runs->array[k];
      const auto rat = at + ".runs[" + std::to_string(k) + "]";
      if (!is_string(r.find("label"))) return fail(file, rat + " missing label");
      if (r.find("profile") == nullptr || r.find("divergence") == nullptr) {
        return fail(file, rat + " missing profile/divergence");
      }
      if (!check_profile_object(file, rat + ".profile", *r.find("profile")) ||
          !check_divergence(file, rat + ".divergence", *r.find("divergence"))) {
        return false;
      }
    }
  }
  return true;
}

/// genfault-diff/1: the gfbench diff artifact — threshold, per-cell
/// derived/counter drift entries, and the breached verdict.
bool check_diff(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* schema = root.find("schema");
  if (!is_string(schema) || schema->string != "genfault-diff/1") {
    return fail(file, "schema is not genfault-diff/1");
  }
  if (!is_number(root.find("threshold_pct"))) {
    return fail(file, "missing threshold_pct");
  }
  const auto* breached = root.find("breached");
  if (breached == nullptr || breached->type != Value::Type::kBool) {
    return fail(file, "missing bool field: breached");
  }
  for (const char* key : {"missing_cells", "added_cells"}) {
    if (!is_array(root.find(key))) {
      return fail(file, std::string("missing array field: ") + key);
    }
  }
  const auto* cells = root.find("cells");
  if (!is_array(cells)) return fail(file, "missing cells[]");
  for (std::size_t i = 0; i < cells->array.size(); ++i) {
    const auto& c = cells->array[i];
    const auto at = "cells[" + std::to_string(i) + "]";
    if (c.type != Value::Type::kObject) return fail(file, at + " not object");
    if (!is_string(c.find("cell"))) return fail(file, at + " missing cell");
    const auto* derived = c.find("derived");
    if (!is_array(derived)) return fail(file, at + " missing derived[]");
    for (std::size_t k = 0; k < derived->array.size(); ++k) {
      const auto& d = derived->array[k];
      const auto dat = at + ".derived[" + std::to_string(k) + "]";
      if (!is_string(d.find("metric"))) return fail(file, dat + " missing metric");
      for (const char* key : {"old", "new", "drift_pct"}) {
        if (!is_number(d.find(key))) {
          return fail(file, dat + " missing number field: " + key);
        }
      }
      const auto* b = d.find("breach");
      if (b == nullptr || b->type != Value::Type::kBool) {
        return fail(file, dat + " missing bool field: breach");
      }
    }
    const auto* counters = c.find("counters");
    if (!is_array(counters)) return fail(file, at + " missing counters[]");
    const auto* pd = c.find("profile_divergence");
    if (pd == nullptr) return fail(file, at + " missing profile_divergence");
    if (pd->type != Value::Type::kNull &&
        !check_divergence(file, at + ".profile_divergence", *pd)) {
      return false;
    }
  }
  return true;
}

/// The --sched-json artifact ("genfault-sched/1"): jobs/units/wall_us plus
/// a workers[] entry per thread (see SchedStats::to_json).
bool check_sched(const std::string& file, const Value& v) {
  if (v.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* schema = v.find("schema");
  if (!is_string(schema) || schema->string != "genfault-sched/1") {
    return fail(file, "schema is not genfault-sched/1");
  }
  for (const char* key : {"jobs", "units", "wall_us", "utilization",
                          "imbalance", "cpu_makespan_us", "steal_batches",
                          "stolen_units"}) {
    if (!is_number(v.find(key))) {
      return fail(file, std::string("missing number field: ") + key);
    }
  }
  const auto* workers = v.find("workers");
  if (!is_array(workers)) return fail(file, "missing workers[]");
  if (workers->array.size() !=
      static_cast<std::size_t>(v.find("jobs")->number)) {
    return fail(file, "workers[] length != jobs");
  }
  for (std::size_t i = 0; i < workers->array.size(); ++i) {
    const auto& w = workers->array[i];
    const auto wat = "workers[" + std::to_string(i) + "]";
    if (w.type != Value::Type::kObject) return fail(file, wat + " not object");
    for (const char* key : {"units", "stolen_units", "steal_batches",
                            "steal_attempts", "busy_us", "cpu_us",
                            "est_cost"}) {
      if (!is_number(w.find(key))) {
        return fail(file, wat + " missing number field: " + key);
      }
    }
  }
  return true;
}

/// One store telemetry object ("genfault-store/1"): the StoreStats counters
/// (see StoreStats::to_json).
bool check_store_stats(const std::string& file, const std::string& at,
                       const Value& v) {
  if (v.type != Value::Type::kObject) return fail(file, at + " not object");
  const auto* schema = v.find("schema");
  if (!is_string(schema) || schema->string != "genfault-store/1") {
    return fail(file, at + " schema is not genfault-store/1");
  }
  for (const char* key : {"hits", "misses", "puts", "bytes_read",
                          "bytes_written", "records", "bytes",
                          "recovered_records", "torn_bytes_dropped"}) {
    if (!is_number(v.find(key))) {
      return fail(file, at + " missing number field: " + key);
    }
  }
  return true;
}

/// BENCH_store.json ("genfault-store-bench/1"): BM_CampaignResume /
/// BM_CampaignIncremental — timings, the byte-identity verdict and the
/// store telemetry of the cold, resume and incremental runs. Also accepts a
/// bare "genfault-store/1" stats object (the --store-json artifact).
bool check_store(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* schema = root.find("schema");
  if (is_string(schema) && schema->string == "genfault-store/1") {
    return check_store_stats(file, "root", root);
  }
  if (!is_string(schema) || schema->string != "genfault-store-bench/1") {
    return fail(file, "schema is not genfault-store-bench/1");
  }
  for (const char* key : {"jobs", "cold_ms", "resume_ms", "incremental_ms",
                          "resume_speedup", "incremental_speedup"}) {
    if (!is_number(root.find(key))) {
      return fail(file, std::string("missing number field: ") + key);
    }
  }
  const auto* ident = root.find("artifacts_identical");
  if (ident == nullptr || ident->type != Value::Type::kBool) {
    return fail(file, "missing bool field: artifacts_identical");
  }
  if (!ident->boolean) {
    return fail(file, "artifacts_identical is false (cache-hit pattern "
                      "changed the artifacts — determinism regression)");
  }
  const auto* cold = root.find("cold");
  const auto* resume = root.find("resume");
  const auto* incr = root.find("incremental");
  if (cold == nullptr) return fail(file, "missing cold{}");
  if (resume == nullptr) return fail(file, "missing resume{}");
  if (incr == nullptr) return fail(file, "missing incremental{}");
  if (!check_store_stats(file, "cold", *cold) ||
      !check_store_stats(file, "resume", *resume) ||
      !check_store_stats(file, "incremental", *incr)) {
    return false;
  }
  // Semantic cross-checks on the hit/miss pattern the bench must produce:
  // the cold run populates (no hits), the unchanged re-run is all hits, the
  // incremental re-run hits everything except the edited fault type's keys.
  if (cold->find("hits")->number != 0) {
    return fail(file, "cold run reported cache hits");
  }
  if (resume->find("misses")->number != 0 ||
      resume->find("hits")->number <= 0) {
    return fail(file, "resume run was not a full cache hit");
  }
  if (incr->find("hits")->number <= 0 || incr->find("misses")->number <= 0) {
    return fail(file, "incremental run did not mix hits and misses");
  }
  return true;
}

/// BENCH_micro.json (google-benchmark --benchmark_out): context sanity plus
/// per-benchmark shape. The context check is the committed-trajectory guard:
/// run_benches.sh injects build_type=Release (the library's own
/// "library_build_type" describes the distro libbenchmark package, which is
/// a debug build, NOT this project) and micro_substrate's main() reports the
/// interpreter lowering as vm_dispatch. A BENCH_micro.json missing either is
/// from an unguarded/by-hand run and is refused.
bool check_micro(const std::string& file, const Value& root) {
  static const char* kFamilies[] = {
      "BM_VmDispatch", "BM_VmDispatchPredecoded", "BM_VmDispatchNoPredecode",
      "BM_VmDispatchNoFusion", "BM_VmDispatchTraceDisarmed",
      "BM_VmDispatchProfiled", "BM_VmDispatchMiniC",
      "BM_VmDispatchMiniCNoFusion", "BM_MiniCCompileOs", "BM_FaultloadScan", "BM_InjectRestore",
      "BM_InjectRestoreInvalidate", "BM_ApiCallAlloc", "BM_ApiCallAllocObs",
      "BM_JournalAppend", "BM_ApiCallOpenReadClose", "BM_ColdReboot",
      "BM_SnapshotRestore", "BM_ControllerBuildCold", "BM_ControllerBuildWarm",
      "BM_ControllerResetWarm", "BM_ServeRequest", "BM_FaultloadSerialize"};
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* ctx = root.find("context");
  if (!is_object(ctx)) return fail(file, "missing context{}");
  const auto* build = ctx->find("build_type");
  if (!is_string(build)) {
    return fail(file, "context missing build_type (run via bench/"
                      "run_benches.sh, which injects it after verifying the "
                      "build dir is Release)");
  }
  if (build->string != "Release") {
    return fail(file, "context.build_type is '" + build->string +
                          "', not Release — numbers not comparable");
  }
  const auto* disp = ctx->find("vm_dispatch");
  if (!is_string(disp) ||
      (disp->string != "threaded" && disp->string != "switch")) {
    return fail(file, "context.vm_dispatch missing or not threaded|switch");
  }
  const auto* cpus = ctx->find("num_cpus");
  if (!is_number(cpus) || cpus->number <= 0) {
    return fail(file, "context.num_cpus missing or not positive");
  }
  const auto* benches = root.find("benchmarks");
  if (!is_array(benches) || benches->array.empty()) {
    return fail(file, "missing or empty benchmarks[]");
  }
  bool saw_dispatch = false;
  for (std::size_t i = 0; i < benches->array.size(); ++i) {
    const auto& b = benches->array[i];
    const auto at = "benchmarks[" + std::to_string(i) + "]";
    if (b.type != Value::Type::kObject) return fail(file, at + " not object");
    const auto* name = b.find("name");
    if (!is_string(name)) return fail(file, at + " missing name");
    const auto family = name->string.substr(0, name->string.find('/'));
    bool known = false;
    for (const char* f : kFamilies) known = known || family == f;
    if (!known) return fail(file, at + " unknown family: " + family);
    const auto* rt = b.find("real_time");
    if (!is_number(rt) || rt->number <= 0) {
      return fail(file, at + " (" + name->string + ") real_time not positive");
    }
    const auto* ips = b.find("items_per_second");
    if (ips != nullptr && (!is_number(ips) || ips->number <= 0)) {
      return fail(file,
                  at + " (" + name->string + ") items_per_second not positive");
    }
    if (family == "BM_VmDispatch") {
      if (!is_number(ips)) {
        return fail(file, at + " BM_VmDispatch missing items_per_second");
      }
      saw_dispatch = true;
    }
    if ((family == "BM_VmDispatchMiniC" ||
         family == "BM_VmDispatchMiniCNoFusion") &&
        !is_number(ips)) {
      return fail(file, at + " " + family +
                            " missing items_per_second (retired instructions)");
    }
    if (family == "BM_ServeRequest" &&
        (!is_number(ips) || !is_number(b.find("bytes_per_second")))) {
      return fail(file, at + " BM_ServeRequest missing items_per_second or "
                             "bytes_per_second");
    }
  }
  if (!saw_dispatch) {
    return fail(file, "no BM_VmDispatch entry (the headline dispatch-rate "
                      "trajectory point)");
  }
  return true;
}

bool check_file(const std::string& file, const std::string& schema,
                bool jsonl) {
  std::ifstream f(file);
  if (!f) return fail(file, "cannot open");
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  if (jsonl) {
    std::istringstream lines(text);
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
      ++n;
      if (line.empty()) continue;
      std::string err;
      const auto v = gf::obs::json::parse(line, &err);
      if (!v) return fail(file, "line " + std::to_string(n) + ": " + err);
      if (v->type != Value::Type::kObject) {
        return fail(file, "line " + std::to_string(n) + ": not an object");
      }
    }
    return true;
  }

  std::string err;
  const auto v = gf::obs::json::parse(text, &err);
  if (!v) return fail(file, err);
  if (schema == "metrics") return check_metrics(file, *v);
  if (schema == "chrome") return check_chrome(file, *v);
  if (schema == "manifest") return check_manifest(file, *v);
  if (schema == "sched") return check_sched(file, *v);
  if (schema == "store") return check_store(file, *v);
  if (schema == "micro") return check_micro(file, *v);
  if (schema == "profile") return check_profile(file, *v);
  if (schema == "diff") return check_diff(file, *v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schema;
  bool jsonl = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl = true;
    } else if (std::strcmp(argv[i], "--schema") == 0) {
      if (i + 1 >= argc) usage();
      schema = argv[++i];
      if (schema != "metrics" && schema != "chrome" && schema != "manifest" &&
          schema != "sched" && schema != "store" && schema != "micro" &&
          schema != "profile" && schema != "diff") {
        usage();
      }
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      usage();
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) usage();
  bool ok = true;
  for (const auto& file : files) ok = check_file(file, schema, jsonl) && ok;
  if (ok && files.size() > 1) {
    std::printf("json_check: %zu files ok\n", files.size());
  }
  return ok ? 0 : 1;
}
