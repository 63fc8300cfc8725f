// Engine 1: the campaign matrix fuzzer.
//
// Samples a random small campaign — one (OS version, server) cell, a random
// faultload subset, random iterations/stride/windows — and executes it twice:
// once at the jobs=1 reference shape and once at a random parallel shape
// (jobs, chunk size, fusion). The repo-wide determinism contract says
// scheduling shape must be unobservable in every deterministic artifact, so
// the oracle is plain byte equality:
//
//   manifest JSON == journal JSONL == activation JSONL/summary ==
//   profile JSON == flamegraph == derived §3.2 metrics (exact doubles).
//
// The schedule knobs legitimately appear in the manifest's options section,
// so BOTH runs render through the reference options struct — the comparison
// then covers exactly the result payload (cells + merged obs).
//
// warm_boot picks the SUB's state source (a live bring-up or a snapshot);
// either way the bring-up precedes every run, so a warm/cold flip must
// reproduce every artifact too. Only the manifest's snapshot.* tallies name
// the source, so the flip compares the manifest without the merged obs
// registry.
//
// A random subset of cases additionally wires a persistent store through the
// variant shape: the cold run (all misses, everything committed) and an
// all-hit replay of the same store must both reproduce the reference bytes —
// the cache may never change what a campaign computes.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/internal.h"
#include "depbench/campaign_report.h"
#include "depbench/report.h"
#include "depbench/runner.h"
#include "os/kernel.h"
#include "os/sources.h"
#include "store/store.h"
#include "swfit/scanner.h"
#include "trace/activation.h"
#include "util/rng.h"

namespace gf::check {
namespace {

namespace fs = std::filesystem;
using internal::expect;
using internal::expect_same;
using internal::hex64;

/// Full fine-tuned faultload (Table 2 API surface) per OS version; the
/// kernel build and the scan both being deterministic, this is a constant.
const swfit::Faultload& full_faultload(os::OsVersion v) {
  static std::map<os::OsVersion, swfit::Faultload> memo;
  auto it = memo.find(v);
  if (it == memo.end()) {
    os::Kernel kernel(v);
    std::vector<std::string> fns;
    for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
    it = memo.emplace(v, swfit::Scanner{}.scan(kernel.pristine_image(), fns))
             .first;
  }
  return it->second;
}

/// Every deterministic artifact of one finished campaign, rendered with a
/// FIXED options struct so runs of different scheduling shape compare equal.
struct Artifacts {
  std::string manifest;
  std::string journal;
  std::string activations;
  std::string activation_summary;
  std::string profile;
  std::string flame;
  std::string derived;  ///< §3.2 metrics, canonical exact-precision text
};

Artifacts render(const std::vector<depbench::ExperimentCell>& cells,
                 const depbench::RunnerOptions& render_opt,
                 const depbench::CampaignRunner& runner) {
  Artifacts art;
  const auto* obs = runner.campaign_obs();
  art.manifest = depbench::campaign_manifest_json(cells, render_opt, obs);
  if (obs != nullptr) {
    std::ostringstream j;
    depbench::write_campaign_journal(j, *obs);
    art.journal = j.str();
    art.flame = depbench::campaign_flamegraph(*obs);
    if (render_opt.profile) {
      art.profile = depbench::campaign_profile_json(cells, render_opt, *obs);
    }
  }
  if (render_opt.trace) {
    std::ostringstream a;
    trace::ActivationStats stats;
    for (const auto& cell : cells) {
      const auto recs = depbench::collect_activations(cell);
      trace::write_jsonl(a, cell.os_name + "/" + cell.server_name, recs);
      for (const auto& r : recs) stats.add(r);
    }
    art.activations = a.str();
    art.activation_summary = trace::activation_summary_json(stats);
  }
  std::ostringstream d;
  for (const auto& cell : cells) {
    const auto m = depbench::derive_metrics(cell);
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s/%s %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n",
                  cell.os_name.c_str(), cell.server_name.c_str(), m.spcf,
                  m.thrf, m.rtmf, m.erf_pct, m.admf, m.spc_rel, m.thr_rel);
    d << line;
  }
  art.derived = d.str();
  return art;
}

/// Byte-compares every artifact pair, tagging failures with `shape`.
void compare(const Artifacts& ref, const Artifacts& got,
             const std::string& shape, CheckReport& report) {
  expect_same("manifest [" + shape + "]", ref.manifest, got.manifest, report);
  expect_same("journal [" + shape + "]", ref.journal, got.journal, report);
  expect_same("activations [" + shape + "]", ref.activations, got.activations,
              report);
  expect_same("activation summary [" + shape + "]", ref.activation_summary,
              got.activation_summary, report);
  expect_same("profile [" + shape + "]", ref.profile, got.profile, report);
  expect_same("flamegraph [" + shape + "]", ref.flame, got.flame, report);
  expect_same("derived metrics [" + shape + "]", ref.derived, got.derived,
              report);
}

fs::path scratch_root(const CheckOptions& opt) {
  if (!opt.scratch_dir.empty()) return fs::path(opt.scratch_dir);
  // Per-process default: concurrent gfcheck/test processes replay the same
  // case seeds, so a shared directory would let one process remove_all a
  // store another still has open.
  return fs::temp_directory_path() /
         ("gfcheck-scratch-" + std::to_string(::getpid()));
}

void run_case(std::uint64_t cs, const CheckOptions& copt, CheckReport& report) {
  util::Rng rng(cs);

  const auto version =
      rng.chance(0.5) ? os::OsVersion::kVos2000 : os::OsVersion::kVosXp;
  static const char* kServers[] = {"apex", "abyssal", "sambar", "savant"};
  const std::string server = kServers[rng.bounded(4)];

  // Random faultload subset: 8..24 distinct faults, ascending index order
  // (a faultload's fault order is part of its identity).
  const auto& full = full_faultload(version);
  const std::size_t want = std::min<std::size_t>(
      full.faults.size(), 8 + static_cast<std::size_t>(rng.bounded(17)));
  std::set<std::size_t> picked;
  while (picked.size() < want) picked.insert(rng.bounded(full.faults.size()));
  swfit::Faultload sub;
  sub.target = full.target;
  sub.digest = full.digest;
  for (const auto i : picked) sub.faults.push_back(full.faults[i]);

  depbench::RunnerOptions base;
  base.versions = {version};
  base.servers = {server};
  base.iterations = 1 + static_cast<int>(rng.bounded(2));
  base.stride = 1 + static_cast<int>(rng.bounded(2));
  base.faultload = &sub;
  base.time_scale = 0.02;
  base.baseline_window_ms = rng.chance(0.5) ? 150 : 300;
  base.seed = rng.next();
  base.trace = rng.chance(0.5);
  base.obs = true;
  base.profile = rng.chance(0.3);
  base.profile_stride = rng.chance(0.5) ? 512 : 2048;
  base.warm_boot = rng.chance(0.7);

  // Reference shape: serial, default strategies, no store.
  auto ref_opt = base;
  ref_opt.jobs = 1;
  ref_opt.chunk = 0;
  ref_opt.fusion = true;

  // Random parallel shape: every scheduling/strategy knob the contract says
  // must be unobservable.
  auto var_opt = base;
  var_opt.jobs = 2 + static_cast<int>(rng.bounded(3));
  static const int kChunks[] = {0, 1, 2, 7};
  var_opt.chunk = kChunks[rng.bounded(4)];
  var_opt.fusion = rng.chance(0.5);

  depbench::CampaignRunner ref_runner(ref_opt);
  const auto ref_cells = ref_runner.run_campaign();
  const auto ref_art = render(ref_cells, ref_opt, ref_runner);

  const std::string shape =
      "jobs=" + std::to_string(var_opt.jobs) +
      " chunk=" + std::to_string(var_opt.chunk) +
      " fusion=" + std::to_string(var_opt.fusion) +
      " warm=" + std::to_string(var_opt.warm_boot);

  {
    depbench::CampaignRunner var_runner(var_opt);
    const auto var_cells = var_runner.run_campaign();
    // Render through the REFERENCE options: the schedule knobs are allowed
    // in the manifest's options section, not in the results.
    compare(ref_art, render(var_cells, ref_opt, var_runner), shape, report);
  }

  // Snapshot oracle: flip warm/cold at the variant's parallel shape. Every
  // artifact must match; the manifests compare without the merged obs
  // registry, whose snapshot.* tallies name the state source.
  if (rng.chance(0.4)) {
    auto flip_opt = var_opt;
    flip_opt.warm_boot = !base.warm_boot;
    depbench::CampaignRunner flip_runner(flip_opt);
    const auto flip_cells = flip_runner.run_campaign();
    auto want = ref_art;
    want.manifest =
        depbench::campaign_manifest_json(ref_cells, ref_opt, nullptr);
    auto got = render(flip_cells, ref_opt, flip_runner);
    got.manifest =
        depbench::campaign_manifest_json(flip_cells, ref_opt, nullptr);
    compare(want, got,
            shape + (flip_opt.warm_boot ? " warm-flip=warm" : " warm-flip=cold"),
            report);
  }

  // Store oracle: cold commit then all-hit replay, both == reference.
  if (rng.chance(0.35)) {
    const fs::path dir = scratch_root(copt) / ("case_" + hex64(cs));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir.parent_path(), ec);
    {
      store::CampaignStore store(dir.string());
      auto cold_opt = var_opt;
      cold_opt.store = &store;

      depbench::CampaignRunner cold_runner(cold_opt);
      const auto cold_cells = cold_runner.run_campaign();
      compare(ref_art, render(cold_cells, ref_opt, cold_runner),
              shape + " store=cold", report);
      const auto* st = cold_runner.store_stats();
      expect(st != nullptr && st->hits == 0,
             "cold store run reported cache hits", report);

      depbench::CampaignRunner hit_runner(cold_opt);
      const auto hit_cells = hit_runner.run_campaign();
      compare(ref_art, render(hit_cells, ref_opt, hit_runner),
              shape + " store=all-hit", report);
      const auto* ht = hit_runner.store_stats();
      expect(ht != nullptr && ht->misses == 0,
             "all-hit store replay reported misses", report);
    }
    fs::remove_all(dir, ec);
  }
}

}  // namespace

CheckReport run_matrix_engine(const CheckOptions& opt) {
  return internal::run_cases(opt, "matrix",
                             [&opt](std::uint64_t cs, CheckReport& report) {
                               run_case(cs, opt, report);
                             });
}

}  // namespace gf::check
