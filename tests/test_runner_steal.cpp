// Scheduler tests: the work-stealing executor must run every unit exactly
// once (even when every unit is seeded onto one worker and the rest must
// steal their entire share) and keep each worker on contiguous runs of the
// unit list, the chunk planner must partition the schedule for any
// override, and — the load-bearing contract — campaign artifacts must be
// byte-identical across every (jobs, chunk) combination.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "depbench/scheduler.h"
#include "trace/activation.h"

namespace gf::depbench {
namespace {

// ---------------------------------------------------------------- executor

TEST(RunUnitsTest, ForcedStealsRunEveryUnitExactlyOnce) {
  constexpr std::size_t kUnits = 96;
  std::vector<std::atomic<int>> ran(kUnits);
  std::vector<std::size_t> ran_on(kUnits);
  std::vector<WorkUnit> units;
  units.reserve(kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    units.push_back({[&ran, &ran_on, i](std::size_t worker) {
                       // A little work so thieves find non-empty deques.
                       volatile std::uint64_t x = 0;
                       for (int k = 0; k < 20000; ++k) x = x + k;
                       ran_on[i] = worker;
                       ran[i].fetch_add(1);
                     },
                     1.0});
  }

  SchedOptions opt;
  opt.jobs = 4;
  opt.seed_single_worker = true;  // workers 1..3 must steal everything
  const auto st = run_units(std::move(units), opt);

  std::vector<std::uint64_t> per_worker(4);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "unit " << i;
    ASSERT_LT(ran_on[i], 4u) << "unit " << i;
    ++per_worker[ran_on[i]];
  }
  ASSERT_EQ(st.workers.size(), 4u);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    // The index a unit receives is the worker that ran it.
    EXPECT_EQ(per_worker[w], st.workers[w].units) << "worker " << w;
    total += st.workers[w].units;
  }
  EXPECT_EQ(total, kUnits);
  EXPECT_EQ(st.total_units, kUnits);
  // Everything was seeded onto worker 0, so any unit worker 1..3 executed
  // got there by stealing.
  EXPECT_GT(st.stolen(), 0u);
  EXPECT_GT(st.steals(), 0u);
}

TEST(RunUnitsTest, SingleWorkerRunsInScheduleOrder) {
  std::vector<std::size_t> order;
  std::vector<WorkUnit> units;
  for (std::size_t i = 0; i < 8; ++i) {
    units.push_back({[&order, i](std::size_t) { order.push_back(i); }, 1.0});
  }
  SchedOptions opt;
  opt.jobs = 1;
  const auto st = run_units(std::move(units), opt);
  std::vector<std::size_t> expect(8);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
  EXPECT_EQ(st.workers.size(), 1u);
  EXPECT_EQ(st.workers[0].units, 8u);
}

TEST(RunUnitsTest, WorkersRunContiguousRuns) {
  // Block seeding hands each worker one contiguous run of the unit list and
  // a steal moves one contiguous run, so a worker's execution order splits
  // into at most 1 + steal_batches runs of consecutive indices.
  constexpr std::size_t kUnits = 64;
  constexpr std::size_t kJobs = 4;
  std::vector<std::vector<std::size_t>> order(kJobs);
  std::vector<WorkUnit> units;
  for (std::size_t i = 0; i < kUnits; ++i) {
    units.push_back({[&order, i](std::size_t worker) {
                       volatile std::uint64_t x = 0;
                       for (int k = 0; k < 20000; ++k) x = x + k;
                       order[worker].push_back(i);
                     },
                     1.0});
  }
  SchedOptions opt;
  opt.jobs = kJobs;
  const auto st = run_units(std::move(units), opt);
  ASSERT_EQ(st.workers.size(), kJobs);
  std::size_t ran = 0;
  for (std::size_t w = 0; w < kJobs; ++w) {
    const auto& seq = order[w];
    ran += seq.size();
    std::uint64_t runs = seq.empty() ? 0 : 1;
    for (std::size_t k = 1; k < seq.size(); ++k) {
      if (seq[k] != seq[k - 1] + 1) ++runs;
    }
    EXPECT_LE(runs, 1 + st.workers[w].steal_batches) << "worker " << w;
  }
  EXPECT_EQ(ran, kUnits);
}

TEST(RunUnitsTest, UnitExceptionIsRethrownAfterJoin) {
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::vector<WorkUnit> units;
    for (int i = 0; i < 16; ++i) {
      units.push_back({[i](std::size_t) {
                         if (i == 5) throw std::runtime_error("unit failed");
                       },
                       1.0});
    }
    SchedOptions opt;
    opt.jobs = jobs;
    EXPECT_THROW(run_units(std::move(units), opt), std::runtime_error);
  }
}

// ------------------------------------------------------------ chunk planner

TEST(PlanChunksTest, PartitionsForAnyOverride) {
  const std::vector<double> costs(37, 1.0);
  for (const int override_ : {0, 1, 3, 5, 64}) {
    SCOPED_TRACE("override " + std::to_string(override_));
    const auto chunks = plan_chunks(costs, 4, override_);
    ASSERT_FALSE(chunks.empty());
    std::size_t next = 0;
    for (const auto& c : chunks) {
      EXPECT_EQ(c.first, next);
      EXPECT_GE(c.count, 1u);
      EXPECT_LE(c.count, costs.size());
      next += c.count;
    }
    EXPECT_EQ(next, costs.size()) << "chunks must cover every position";
  }
}

TEST(PlanChunksTest, FixedOverrideForcesChunkSize) {
  const std::vector<double> costs(20, 1.0);
  const auto chunks = plan_chunks(costs, 8, 6);
  ASSERT_EQ(chunks.size(), 4u);  // 6 + 6 + 6 + 2
  EXPECT_EQ(chunks[0].count, 6u);
  EXPECT_EQ(chunks[3].count, 2u);
}

TEST(PlanChunksTest, AdaptiveChunksShrinkWhereCostsAreHigh) {
  // First half expensive, second half cheap: adaptive chunking must put
  // fewer positions into the expensive range than into the cheap one.
  std::vector<double> costs(128, 0.2);
  for (std::size_t i = 0; i < 64; ++i) costs[i] = 1.0;
  const auto chunks = plan_chunks(costs, 2, 0);
  ASSERT_GT(chunks.size(), 1u);
  double exp_count = 0, exp_n = 0, cheap_count = 0, cheap_n = 0;
  for (const auto& c : chunks) {
    if (c.first + c.count <= 64) {
      exp_count += static_cast<double>(c.count);
      ++exp_n;
    } else if (c.first >= 64) {
      cheap_count += static_cast<double>(c.count);
      ++cheap_n;
    }
  }
  ASSERT_GT(exp_n, 0);
  ASSERT_GT(cheap_n, 0);
  EXPECT_LT(exp_count / exp_n, cheap_count / cheap_n);
  for (const auto& c : chunks) EXPECT_LE(c.count, kMaxChunkFaults);
}

// ---------------------------------------------------------------- cost model

TEST(EstimateFaultCostsTest, MeasuredKillerFaultsAreCheaperThanHealthy) {
  swfit::Faultload fl;
  fl.faults.resize(2);
  fl.faults[0].type = swfit::FaultType::kMIFS;
  fl.faults[1].type = swfit::FaultType::kMIFS;

  // Fault 0 measured as never activating (full healthy window); fault 1
  // measured as killing the server every time (window collapses).
  std::vector<trace::ActivationRecord> traces(2);
  traces[0].fault_index = 0;
  traces[0].outcome = trace::Outcome::kNotActivated;
  traces[1].fault_index = 1;
  traces[1].hits = 3;
  traces[1].outcome = trace::Outcome::kExternalFailure;

  FaultCostModel model;
  model.traces = &traces;
  const auto costs = estimate_fault_costs(fl, model);
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_DOUBLE_EQ(costs[0], 1.0);
  EXPECT_LT(costs[1], costs[0]);
  EXPECT_GE(costs[1], 0.2);  // floor: bring-up/restore overhead never free
}

// -------------------------------------------------- campaign byte-identity

RunnerOptions steal_options() {
  RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex"};
  opt.iterations = 1;
  opt.stride = 41;
  opt.time_scale = 0.05;
  opt.baseline_window_ms = 2000;
  opt.seed = 11;
  opt.obs = true;
  opt.trace = true;
  return opt;
}

struct Artifacts {
  std::string metrics;
  std::string journal;
  std::string activations;
};

Artifacts run_artifacts(const RunnerOptions& opt) {
  CampaignRunner runner(opt);
  const auto cells = runner.run_campaign();
  Artifacts a;
  const auto* obs = runner.campaign_obs();
  a.metrics = obs->metrics.to_json();
  std::ostringstream journal;
  write_campaign_journal(journal, *obs);
  a.journal = journal.str();
  std::ostringstream act;
  for (const auto& cell : cells) {
    for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
      trace::write_jsonl(act, "iter" + std::to_string(it),
                         cell.iterations[it].activations);
    }
  }
  a.activations = act.str();
  return a;
}

TEST(SchedulerIdentityTest, ArtifactsIdenticalAcrossJobsAndChunks) {
  const auto base = steal_options();
  const auto ref = run_artifacts(base);
  ASSERT_FALSE(ref.metrics.empty());
  ASSERT_FALSE(ref.journal.empty());
  ASSERT_FALSE(ref.activations.empty());

  for (const int jobs : {1, 2, 7, 16}) {
    for (const int chunk : {1, 3, 64}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + " chunk " +
                   std::to_string(chunk));
      auto opt = base;
      opt.jobs = jobs;
      opt.chunk = chunk;
      const auto got = run_artifacts(opt);
      EXPECT_EQ(got.metrics, ref.metrics);
      EXPECT_EQ(got.journal, ref.journal);
      EXPECT_EQ(got.activations, ref.activations);
    }
  }
}

TEST(SchedulerIdentityTest, SchedulerStatsAccountForEveryUnit) {
  auto opt = steal_options();
  opt.jobs = 4;
  CampaignRunner runner(opt);
  runner.run_campaign();
  const auto* st = runner.scheduler_stats();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->workers.size(), 4u);
  std::uint64_t ran = 0;
  for (const auto& w : st->workers) ran += w.units;
  EXPECT_EQ(ran, st->total_units);
  EXPECT_GT(st->total_units, 0u);
  EXPECT_GT(st->utilization(), 0.0);
  EXPECT_GE(st->imbalance(), 1.0);
  // The telemetry JSON parses and carries the schema marker.
  EXPECT_NE(st->to_json().find("genfault-sched/1"), std::string::npos);
}

}  // namespace
}  // namespace gf::depbench
