// Work-stealing parallel campaign runner with fault-granular chunking.
//
// The paper's Table 5 matrix (2 servers x 2 OS versions x 3 iterations) is
// embarrassingly parallel, and with warm-boot snapshots (src/snapshot) the
// dominant wall-clock waste left is *tail imbalance*: individual fault
// exposures have wildly skewed costs (a never-activated fault serves the
// whole window at full rate; a kill/hang collapses it to timeouts), so any
// static partition leaves workers idle while the unlucky one drains its
// worst-case range. The runner therefore decomposes every iteration down to
// single-fault runs, groups them into cost-balanced *chunks*
// (depbench/scheduler), and executes the chunks on a work-stealing pool.
//
// Determinism contract: every fault run is an independent mini-run on a SUB
// in the cell's warm-snapshot state — the worker's Controller for that cell
// reset in place (Controller::reset, byte-identical to a fresh one whatever
// it ran before), or a fresh Controller when the worker last ran another
// cell (or brought up live; byte-identical either way, see src/snapshot),
// seeded by derive_seed(seed, cell, task) where the task id is a pure
// function of (iteration, schedule position).
// Results land in preallocated per-fault slots and merge_fault_runs() folds
// them in schedule order, so the campaign results, the merged registry, the
// slot-ordered journal and the activation records are byte-identical for any
// `jobs`, any `chunk` size and any steal interleaving. Chunk boundaries only
// decide which worker runs which faults back-to-back — never what a fault
// run computes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "depbench/report.h"
#include "depbench/scheduler.h"
#include "depbench/task_obs.h"
#include "obs/progress.h"
#include "store/store.h"
#include "swfit/faultload.h"

namespace gf::depbench {

struct RunnerOptions {
  std::vector<os::OsVersion> versions{os::OsVersion::kVos2000,
                                      os::OsVersion::kVosXp};
  std::vector<std::string> servers{"apex", "abyssal"};
  int iterations = 3;
  int stride = 6;        ///< inject every k-th fault of the faultload
  /// Fault positions per chunk: > 0 forces a fixed size (--chunk), 0 lets
  /// the cost model size chunks adaptively (see depbench/scheduler).
  /// Results are identical for any value.
  int chunk = 0;
  /// Optional preloaded faultload (e.g. a portable faultload file loaded by
  /// gfbench). Used for every version in `versions` instead of scanning the
  /// kernel image — the caller must ensure it matches the target build(s).
  /// Borrowed, not owned.
  const swfit::Faultload* faultload = nullptr;
  double time_scale = 1.0;
  double baseline_window_ms = 120000;
  std::uint64_t seed = 1;
  int jobs = 0;          ///< worker threads; 0 = hardware_concurrency
  /// Per-fault activation & propagation tracing (fills
  /// IterationResult::activations). Per-task seeds make the records a pure
  /// function of (seed, cell, task), so they are bit-identical for any
  /// `jobs`, and the fault-index sort makes the merge order-independent.
  bool trace = false;
  bool trace_probe_per_call = false;
  /// Warm-boot snapshots: bring each (OS version, server) cell's SUB up
  /// once, capture it, and let every fault run restore its controller from
  /// the shared snapshot instead of re-compiling/booting from scratch. Off
  /// = every run brings up a live SUB of its own (snapshot::bring_up), kept
  /// for A/B timing and as the snapshot oracle; results and obs artifacts
  /// are byte-identical either way.
  bool warm_boot = true;
  /// VM superinstruction fusion (--no-fusion turns it off). Pure execution
  /// strategy: architectural results, activation traces and obs artifacts
  /// are byte-identical either way, so the flag is deliberately NOT part of
  /// ControllerConfig (store keys serve both modes). Kept for A/B
  /// benchmarking and the CI equivalence gate.
  bool fusion = true;
  /// Observability: give every task a private TaskObs bundle and merge them
  /// at the join (CampaignRunner::campaign_obs()). The merged registry and
  /// journal are byte-identical for any `jobs` or `chunk` at a
  /// fixed seed; see CampaignObs for the contract.
  bool obs = false;
  /// Deterministic guest profiler: arm the VM's virtual-cycle PC sampler for
  /// every run at `profile_stride` and collect per-function flat profiles
  /// through the TaskObs slots (requires `obs`; the tools force it on).
  /// Samples tick only at retired architectural-step boundaries, so the
  /// merged profiles — and everything derived from them (--profile-json,
  /// flamegraphs, manifest section) — are byte-identical for any jobs,
  /// chunk, steal interleaving, fusion, dispatch lowering or store-hit
  /// pattern. The stride shapes results, so it IS part of the store key
  /// (unlike fusion).
  bool profile = false;
  std::uint64_t profile_stride = 4096;
  /// Optional live progress reporter (rate-limited stderr, ETA). Never
  /// feeds the deterministic artifacts.
  obs::ProgressReporter* progress = nullptr;
  /// Optional persistent result store (src/store). When wired, every
  /// single-fault run and baseline is committed under its content-addressed
  /// key after execution, and — unless `store_read` is off — consulted
  /// before scheduling: cached runs fold into the same preallocated slots a
  /// live run would fill, so the merged campaign artifacts are
  /// byte-identical for ANY cache-hit pattern. Borrowed, not owned.
  store::CampaignStore* store = nullptr;
  /// false = --no-cache: ignore cached results (everything re-executes and
  /// re-commits); the store is still written.
  bool store_read = true;
};

/// Per-task seed: a pure function of (campaign seed, cell, task) so a task's
/// result never depends on scheduling order or worker count.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t cell,
                          std::uint64_t task) noexcept;

/// Exact, order-independent merge of run counters (plain field sums).
CampaignCounters merge_counters(const CampaignCounters& a,
                                const CampaignCounters& b) noexcept;

/// Canonical fold of one iteration's per-fault runs, in schedule order.
/// Raw counters (duration, ops, errors, bytes, campaign tallies) sum
/// exactly; THR/RTM/ER% are recomputed from the sums; SPC/CC% take the
/// rounded mean over runs — each single-fault run is exactly one SPC batch,
/// so the mean over runs IS the SPECWeb batch mean. The fold order is fixed
/// (schedule position), so FP results never depend on completion order.
IterationResult merge_fault_runs(const std::vector<IterationResult>& runs);

/// One task's observability bundle plus its identity, kept in (cell, task)
/// slot order — the canonical order every rendering walks, which is what
/// makes the flushed artifacts independent of scheduling.
struct TaskObsSlot {
  std::string cell;   ///< "VOS-2000/apex"
  std::string label;  ///< "baseline" or "iter<I>.f<FAULT_INDEX>"
  TaskObs obs;
};

/// Merged campaign observability.
///
/// Determinism contract:
///   - For a fixed (seed, stride, time_scale) the merged registry JSON and
///     the slot-ordered journal JSONL are byte-identical for any `jobs`,
///     `chunk` value or steal interleaving — slots are per *fault*, each a
///     pure function of (seed, cell, iteration, schedule position), and the
///     merge folds them in slot order. Chunk boundaries never appear in any
///     artifact. tests/test_obs.cpp and tests/test_runner_steal.cpp check
///     this.
///   - Wall-clock never enters the registry or journal; it exists only in
///     the Chrome-trace host view (TaskObs::wall_*) and the scheduler
///     telemetry (SchedStats).
struct CampaignObs {
  obs::Registry metrics;           ///< merged registry (incl. api.* export)
  obs::ApiMetrics api;             ///< merged per-function sink
  std::vector<TaskObsSlot> tasks;  ///< slot order: cell-major, task-minor

  /// Folds every task bundle into `metrics`/`api` in slot order, exports the
  /// api.* counters/histograms, and derives the kernel churn counters
  /// (heap allocs/frees, handles opened/closed) from the per-function API
  /// counts. Call exactly once, after all tasks have finished.
  void merge_tasks();
};

/// Table 4 result for one cell.
struct IntrusivenessCell {
  std::string os_name;
  std::string server_name;
  spec::WindowMetrics max_perf;  ///< no injector at all
  spec::WindowMetrics profile;   ///< injector in profile mode (no patching)
};

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions opt) : opt_(std::move(opt)) {}

  /// Table 5: per cell a profile-mode baseline plus `iterations` full
  /// injection iterations, decomposed into per-fault runs and executed as
  /// cost-balanced chunks on the work-stealing pool.
  std::vector<ExperimentCell> run_campaign();

  /// Table 4: per cell a max-performance baseline plus a profile-mode run,
  /// both with the same derived seed so the pair stays directly comparable.
  std::vector<IntrusivenessCell> run_intrusiveness();

  const RunnerOptions& options() const noexcept { return opt_; }

  /// Merged observability of the last run_campaign(); null unless
  /// options().obs was set.
  const CampaignObs* campaign_obs() const noexcept { return obs_.get(); }

  /// Scheduler telemetry of the last run_campaign() (per-worker utilization,
  /// steal counts); null before the first campaign. Wall-clock-coupled, so
  /// it never feeds the deterministic artifacts — see SchedStats.
  const SchedStats* scheduler_stats() const noexcept { return sched_.get(); }

  /// Store traffic of the last run_campaign() (hit/miss/put deltas plus the
  /// live index snapshot); null unless options().store was wired. Like
  /// SchedStats, wall-state-coupled — never part of the deterministic
  /// artifacts.
  const store::StoreStats* store_stats() const noexcept {
    return store_stats_.get();
  }

 private:
  void scan_faultloads();
  const swfit::Faultload& faultload_for(os::OsVersion v) const;

  RunnerOptions opt_;
  std::vector<std::pair<os::OsVersion, swfit::Faultload>> faultloads_;
  std::unique_ptr<CampaignObs> obs_;
  std::unique_ptr<SchedStats> sched_;
  std::unique_ptr<store::StoreStats> store_stats_;
};

}  // namespace gf::depbench
