// Campaign benchmark: shared pieces of the measured and the traced run.
//
// Everything here drives the library through its public API only
// (CampaignRunner, Controller, snapshot capture, the store and the
// campaign_report renderers); nothing in src/ knows the benchmark exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "depbench/runner.h"
#include "depbench/scheduler.h"

namespace cb {

/// The size of one workload's campaign. Every workload covers all four
/// cells ({VOS-2000, VOS-XP} x {apex, abyssal}) from warm-boot snapshots.
struct Shape {
  int jobs = 1;           ///< 0 = one worker per online CPU
  int stride = 16;        ///< inject every k-th fault of the faultload
  int iterations = 3;
  double time_scale = 1;  ///< 1.0 = the paper's 10 s exposure
  /// Store workload: obs + profiler on, every artifact rendered, a fresh
  /// store per cold pass and all-hit resumes against it.
  bool store = false;
};

struct Workload {
  std::string_view name;
  Shape full;
  Shape tiny;  ///< same layers at a smoke-test size
};

/// Null for an unknown name.
const Workload* find_workload(std::string_view name);
const std::vector<Workload>& workloads();

/// Profile-mode baseline window of every cell (sim-ms). Kept short so the
/// fault runs, not the baseline, are what a pass measures.
inline constexpr double kBaselineWindowMs = 500;

gf::depbench::RunnerOptions runner_options(const Shape& shape,
                                           std::uint64_t seed);

/// The set-up a campaign needs before its first fault run can start, from
/// a cold faultload-scan cache: per OS version a kernel build (MiniC
/// compile + boot) and the faultload scan, per cell a warm-boot snapshot
/// capture. Returns its wall time in seconds; leaves the scan cache warm.
double setup_pass(const gf::depbench::RunnerOptions& ro);

/// Single-fault runs one pass executes (all cells, all iterations).
std::size_t fault_runs_per_pass(const gf::depbench::RunnerOptions& ro);

/// Digest of the Table 5 cells: every field of every baseline and
/// iteration result, doubles by bit pattern.
std::string cells_digest(const std::vector<gf::depbench::ExperimentCell>& c);

/// The paper's Table 5 shape: apex ER% below abyssal's on both OSes.
/// Returns an empty string when it holds, else what failed.
std::string shape_violation(
    const std::vector<gf::depbench::ExperimentCell>& cells);

/// A campaign's rendered report. The store workload renders the full
/// artifact set (manifest, journal, Chrome trace, HTML, profile,
/// flamegraph); the others render what a run without obs can: the
/// manifest and the HTML report.
struct Artifacts {
  std::vector<std::pair<std::string, std::string>> files;  ///< name, bytes
  /// Digest over every file. The Chrome trace's host-view events carry
  /// wall-clock time and are left out; everything else must repeat.
  std::string digest() const;
};

Artifacts render_artifacts(
    const std::vector<gf::depbench::ExperimentCell>& cells,
    const gf::depbench::RunnerOptions& ro,
    const gf::depbench::CampaignObs* obs);

/// Writes every file into `dir` (created if missing); throws on I/O error.
void write_artifacts(const Artifacts& a, const std::string& dir);

double wall_now_s();
double process_cpu_s();
double peak_rss_mb();

class Tracer;

/// The campaign re-composed from public parts, one fault at a time on the
/// calling thread: per-cell warm snapshots, a Controller per fault run
/// seeded with the runner's derived seed, merge_fault_runs per iteration.
/// Its cells must equal CampaignRunner::run_campaign's for the same
/// options. With a tracer, every layer call is wrapped in a span, a serve
/// probe runs after each exposure and every run record goes through the
/// store (`store_dir`) and back.
struct Recomposed {
  std::vector<gf::depbench::ExperimentCell> cells;
  std::unique_ptr<gf::depbench::CampaignObs> obs;
  // Traced-run tallies (zero without a tracer).
  std::uint64_t validated_bytes = 0;  ///< response bytes the probe checked
  std::uint64_t store_puts = 0;
  std::uint64_t store_bytes = 0;      ///< encoded payload bytes put
  std::uint64_t store_gets = 0;
  std::uint64_t store_hits = 0;
};
Recomposed recompose(const gf::depbench::RunnerOptions& ro, Tracer* tracer,
                     const std::string& store_dir);

/// One metric of the result line: its value is the median of `samples`.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

/// Host context recorded with every result (name, value).
using Context = std::vector<std::pair<std::string, std::string>>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< fault runs attempted
  std::uint64_t failed = 0;     ///< fault runs that threw or mismatched
  std::vector<Metric> metrics;
};

/// Prints each metric's sample count, median and quartile spread, writes
/// the full record (context included) to `record_path`, and ends stdout
/// with the one-line JSON result.
void print_outcome(const Outcome& o, const Context& ctx,
                   const std::string& record_path);

/// Command-line arguments shared by both modes.
struct Args {
  const Workload* workload = nullptr;
  bool tiny = false;
  std::uint64_t seed = 1;  ///< benchmark seed (see campaign_seed)
  double seconds = 10;
  bool trace = false;
  std::string digests;  ///< pinned digests file ("" = none)
  std::string out = ".bench_build/campaignbench-run";
  std::string commit = "unknown";
};

/// Campaigns one benchmark seed runs: benchmark seed N runs the campaign
/// seeds N*4 .. N*4+3, one per timed pass in turn. How much a campaign
/// exercises the slow paths (crashes, reboots, administrator restarts)
/// depends on its seed, so a run's median over four campaigns moves far
/// less from one benchmark seed to the next than a single campaign would.
inline constexpr int kCampaignsPerSeed = 4;
inline std::uint64_t campaign_seed(std::uint64_t seed, int k) {
  return seed * kCampaignsPerSeed + static_cast<std::uint64_t>(k);
}

/// Pinned expected digests of one (workload, size, campaign seed); empty
/// when the file does not pin it. `artifacts` is "-" for workloads without
/// a store.
struct Pinned {
  std::string cells;
  std::string artifacts;
};
Pinned find_pinned(const Args& a, std::uint64_t campaign);

/// A timed campaign pass: run_campaign + render + write the artifacts.
/// `store_dir` empty = no store; `fresh` removes it first (untimed).
struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::string cells;
  std::string artifacts;
  std::string violation;  ///< Table 5 shape failure ("" = holds)
  std::string error;      ///< what the pass threw ("" = nothing)
  gf::depbench::SchedStats sched;
  std::map<std::string, std::uint64_t> obs_counters;
};
Pass run_pass(const gf::depbench::RunnerOptions& ro,
              const std::string& store_dir, bool fresh,
              const std::string& artifact_dir);

int traced_run(const Args& a, const Context& ctx);

/// Removes `dir` and everything under it (no-op when absent).
void remove_tree(const std::string& dir);

}  // namespace cb
