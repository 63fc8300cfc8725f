// BM_CampaignSteal — scheduler A/B: work-stealing chunked campaign vs the
// static sharder, on the naturally skewed faultload (hang-window faults that
// burn the full observation window next to fast-fail faults that collapse
// it), with a byte-identity check across the two schedules.
//
//   A (static): --no-steal + one equal-position chunk per worker per
//     iteration — the old fixed (cell, task, shard) grid. Chunk costs are
//     wildly uneven, so workers idle while the unlucky one drains its
//     worst-case range.
//   B (steal):  adaptive cost-balanced chunks + LPT seeding + steal-half.
//
// Both runs produce byte-identical campaign artifacts (manifest JSON,
// journal JSONL, activation JSONL) — the bench fails hard if they diverge.
// Results go to BENCH_sched.json (schema genfault-sched-bench/1, validated
// by tools/json_check --schema sched), including each run's SchedStats.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "obs/json.h"
#include "trace/activation.h"

namespace {

using namespace gf;

struct AbRun {
  double wall_ms = 0;
  double makespan_ms = 0;  ///< max per-worker thread-CPU (dedicated-core wall)
  std::string manifest;
  std::string journal;
  std::string activations;
  std::string sched_json;
};

/// `chunk` = -S is the static sharder's S equal chunks per iteration.
AbRun run_campaign(depbench::RunnerOptions ropt, bool steal, int chunk) {
  ropt.steal = steal;
  ropt.chunk = chunk;
  ropt.obs = true;
  ropt.trace = true;

  depbench::CampaignRunner runner(ropt);
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = runner.run_campaign();
  AbRun out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  const auto* obs = runner.campaign_obs();
  out.manifest = depbench::campaign_manifest_json(cells, runner.options(), obs);
  std::ostringstream journal;
  depbench::write_campaign_journal(journal, *obs);
  out.journal = journal.str();
  std::ostringstream act;
  for (const auto& cell : cells) {
    for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
      trace::write_jsonl(act,
                         cell.os_name + "/" + cell.server_name + "/iter" +
                             std::to_string(it),
                         cell.iterations[it].activations);
    }
  }
  out.activations = act.str();
  out.makespan_ms = runner.scheduler_stats()->makespan_cpu_us() / 1000.0;
  out.sched_json = runner.scheduler_stats()->to_json();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  depbench::RunnerOptions ropt;
  // Sized so the cost skew is visible: windows long enough (scale 0.15 =
  // 1.5 s exposures) that the healthy-vs-killed op-count gap dominates the
  // fixed per-fault overhead, a chunky indivisible baseline per cell, and
  // more workers than the static partition can keep fed.
  ropt.stride = 12;
  ropt.iterations = 2;
  ropt.time_scale = 0.15;
  ropt.baseline_window_ms = 8000;
  ropt.jobs = 8;
  // The A side reproduces the sharder the scheduler replaced: S equal-
  // position shards per iteration (its default was 4), block-partitioned,
  // no rebalancing.
  int static_shards = 4;
  std::string out_path = "BENCH_sched.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      ropt.jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--stride") == 0 && i + 1 < argc) {
      ropt.stride = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      ropt.iterations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      ropt.time_scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--baseline-ms") == 0 && i + 1 < argc) {
      ropt.baseline_window_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      ropt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--static-shards") == 0 && i + 1 < argc) {
      static_shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs J] [--stride K] [--iterations N] "
                   "[--scale S] [--baseline-ms MS] [--seed X] "
                   "[--static-shards S] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (ropt.jobs < 1) ropt.jobs = 1;
  if (static_shards < 1) static_shards = 1;

  std::fprintf(stderr,
               "[BM_CampaignSteal] static sharder (jobs=%d, shards=%d)...\n",
               ropt.jobs, static_shards);
  const auto stat = run_campaign(ropt, /*steal=*/false, -static_shards);
  std::fprintf(stderr, "[BM_CampaignSteal] work stealing (jobs=%d)...\n",
               ropt.jobs);
  const auto steal = run_campaign(ropt, /*steal=*/true, /*chunk=*/0);

  const bool identical = stat.manifest == steal.manifest &&
                         stat.journal == steal.journal &&
                         stat.activations == steal.activations;
  const double speedup = steal.wall_ms > 0 ? stat.wall_ms / steal.wall_ms : 0;
  // Wall-clock only separates the two schedules when the host actually has
  // `jobs` cores to idle; the thread-CPU makespan (longest per-worker work
  // total = wall on dedicated cores) measures schedule quality regardless of
  // how loaded or small the machine running the bench is.
  const double makespan_speedup =
      steal.makespan_ms > 0 ? stat.makespan_ms / steal.makespan_ms : 0;
  std::printf(
      "BM_CampaignSteal: wall %.0f -> %.0f ms (%.2fx), makespan %.0f -> "
      "%.0f ms (%.2fx), artifacts %s\n",
      stat.wall_ms, steal.wall_ms, speedup, stat.makespan_ms,
      steal.makespan_ms, makespan_speedup,
      identical ? "byte-identical" : "DIVERGED");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  using obs::json::number;
  out << "{\n  \"schema\": \"genfault-sched-bench/1\",\n";
  out << "  \"jobs\": " << ropt.jobs << ",\n";
  out << "  \"static_ms\": " << number(stat.wall_ms) << ",\n";
  out << "  \"steal_ms\": " << number(steal.wall_ms) << ",\n";
  out << "  \"speedup\": " << number(speedup) << ",\n";
  out << "  \"static_makespan_ms\": " << number(stat.makespan_ms) << ",\n";
  out << "  \"steal_makespan_ms\": " << number(steal.makespan_ms) << ",\n";
  out << "  \"makespan_speedup\": " << number(makespan_speedup) << ",\n";
  out << "  \"artifacts_identical\": " << (identical ? "true" : "false")
      << ",\n";
  auto indent = [](const std::string& json) {
    std::string s;
    for (const char ch : json) {
      s += ch;
      if (ch == '\n') s += "  ";
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\n')) s.pop_back();
    return s;
  };
  out << "  \"static\": " << indent(stat.sched_json) << ",\n";
  out << "  \"steal\": " << indent(steal.sched_json) << "\n}\n";
  out.close();
  std::fprintf(stderr, "[BM_CampaignSteal] results -> %s\n", out_path.c_str());

  // Divergent artifacts are a correctness bug, not a perf result.
  return identical ? 0 : 1;
}
