// Deterministic work-stealing campaign scheduler with fault-granular
// chunking.
//
// The campaign runner used to fan a *static* (cell, task, shard) slot grid
// across the worker pool: every shard was fixed up front, so workers sat
// idle while the unlucky one drained its worst-case faults (ZOFI's
// campaign-throughput argument, inverted: the tail dominates wall-clock).
// This module replaces the grid with two orthogonal pieces:
//
//   1. A cost model + chunk planner that decomposes one iteration's fault
//      schedule into contiguous *chunks* of roughly equal estimated cost —
//      expensive fault ranges get small chunks, cheap ranges large ones —
//      fed by the profiler's API-usage shares and (when available) measured
//      activation traces from src/trace (the ProFIPy feedback loop).
//   2. A work-stealing executor: per-worker deques seeded with contiguous
//      blocks of the unit list in construction order (cell-major), so each
//      worker stays on about one cell; a worker that drains its own deque
//      steals the back half of the most-loaded victim's remainder. Chunks
//      are coarse (milliseconds+), so the deques are tiny mutex-guarded
//      rings rather than lock-free Chase-Lev arrays — measured, the lock
//      cost is noise at this granularity.
//
// Determinism contract: the executor never influences *what* a unit
// computes, only *when and where* it runs. Campaign results land in
// preallocated per-fault slots and every fault run is a pure function of
// (campaign seed, cell, fault index), so the merged artifacts are
// byte-identical for any worker count, any chunk size and any steal
// interleaving. Scheduler *performance* telemetry (per-worker utilization,
// steal counts) is inherently wall-clock-coupled and therefore lives in
// SchedStats — outside the deterministic registry/journal artifacts, like
// TaskObs::wall_*.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "depbench/profiler.h"
#include "swfit/faultload.h"
#include "trace/activation.h"

namespace gf::depbench {

/// One schedulable unit (a fault chunk or a baseline run). `run` must be
/// safe to execute on any worker thread and must only write state owned by
/// the unit (the runner's preallocated slots) or by the worker it runs on:
/// it receives that worker's index, in [0, SchedOptions::jobs), and no two
/// units ever run on the same worker at once.
struct WorkUnit {
  std::function<void(std::size_t worker)> run;
  double cost = 1.0;  ///< estimated relative cost (victim selection)
};

/// Per-worker execution telemetry.
struct WorkerStats {
  std::uint64_t units = 0;           ///< units this worker executed
  std::uint64_t stolen_units = 0;    ///< units it obtained by stealing
  std::uint64_t steal_attempts = 0;  ///< victim scans (successful or not)
  std::uint64_t steal_batches = 0;   ///< successful steal operations
  double busy_us = 0;                ///< wall time spent inside unit runs
  /// Thread-CPU time inside unit runs. Unlike busy_us this excludes time the
  /// OS deschedules the worker, so it stays meaningful when the host has
  /// fewer cores than workers (CI boxes): max over workers is the makespan
  /// the schedule would have on >= jobs dedicated cores.
  double cpu_us = 0;
  double est_cost = 0;               ///< summed estimated cost executed
};

/// Whole-run scheduler telemetry. Wall-clock-coupled by nature: this is the
/// one campaign output that is *not* byte-identical across runs, and it is
/// kept out of the deterministic artifacts for exactly that reason.
struct SchedStats {
  std::vector<WorkerStats> workers;
  double wall_us = 0;
  std::uint64_t total_units = 0;

  /// Mean busy share per worker (1.0 = no idle tails anywhere).
  double utilization() const noexcept;
  /// Max worker busy time over mean busy time (1.0 = perfectly balanced).
  double imbalance() const noexcept;
  /// Schedule makespan on dedicated cores: the largest per-worker thread-CPU
  /// total. Host-load-independent, unlike wall_us.
  double makespan_cpu_us() const noexcept;
  std::uint64_t steals() const noexcept;
  std::uint64_t stolen() const noexcept;
  /// Canonical JSON ("genfault-sched/1") for --sched-json.
  std::string to_json() const;
};

struct SchedOptions {
  std::size_t jobs = 1;
  /// Seed every unit to worker 0 (forces the other workers to steal their
  /// entire share) — test hook for the forced-steal stress test.
  bool seed_single_worker = false;
};

/// Executes every unit exactly once across `opt.jobs` workers (worker 0 is
/// the calling thread) and returns the telemetry. Rethrows the first unit
/// exception after the pool joins.
SchedStats run_units(std::vector<WorkUnit> units, const SchedOptions& opt);

// ---------------------------------------------------------------------------
// Cost model + chunk planner
// ---------------------------------------------------------------------------

/// Inputs the fault cost model may draw on; both optional. With neither, the
/// estimate falls back to a per-fault-type activation prior.
struct FaultCostModel {
  /// Profiling-phase API-usage shares (depbench::Profiler): faults in
  /// functions the workload hammers are likely to activate.
  const ApiProfile* profile = nullptr;
  /// Measured activation traces from a previous campaign or iteration
  /// (src/trace): the strongest signal — per-fault activation is observed,
  /// not estimated.
  const std::vector<trace::ActivationRecord>* traces = nullptr;
};

/// Estimated relative wall cost of one fault's exposure window, per fault.
/// 1.0 = a fully healthy (never-activated) window, which in this substrate
/// is the *expensive* case: the SUB serves the whole exposure at full rate,
/// so the simulator executes the most client ops and VM instructions. A
/// fault that kills or hangs the server collapses the window's op count
/// (timeouts and fast-fails carry no VM work), making it cheap in wall
/// time. The estimates only steer chunk sizing and victim choice — a
/// wrong estimate costs balance, never correctness.
std::vector<double> estimate_fault_costs(const swfit::Faultload& fl,
                                         const FaultCostModel& model);

/// One contiguous chunk of fault-schedule positions.
struct Chunk {
  std::size_t first = 0;  ///< first schedule position
  std::size_t count = 0;  ///< positions covered
  double cost = 0;        ///< summed estimated cost
};

/// Greedy cost-balanced chunking of `position_costs` (one entry per
/// schedule position): accumulate positions until a chunk holds roughly
/// total/(jobs * kChunksPerWorker) estimated cost, clamped to
/// [1, kMaxChunkFaults] positions. `chunk_override` > 0 forces exactly that
/// many positions per chunk (the --chunk flag).
std::vector<Chunk> plan_chunks(const std::vector<double>& position_costs,
                               std::size_t jobs, int chunk_override);

/// Chunk-plan knobs (exposed for tests; see plan_chunks).
inline constexpr std::size_t kChunksPerWorker = 8;
inline constexpr std::size_t kMaxChunkFaults = 64;

}  // namespace gf::depbench
