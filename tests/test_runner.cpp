// Tests for the parallel campaign runner: worker count must never change
// results (per-task seeds are derived, slots are preallocated), and equal
// chunks must partition the faultload exactly.
#include <gtest/gtest.h>

#include "depbench/runner.h"

namespace gf::depbench {
namespace {

RunnerOptions quick_options() {
  RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex", "abyssal"};
  opt.iterations = 2;
  opt.stride = 17;
  opt.time_scale = 0.2;
  opt.baseline_window_ms = 15000;
  opt.seed = 42;
  return opt;
}

void expect_same_metrics(const spec::WindowMetrics& a,
                         const spec::WindowMetrics& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_DOUBLE_EQ(a.duration_ms, b.duration_ms);
  EXPECT_DOUBLE_EQ(a.thr, b.thr);
  EXPECT_DOUBLE_EQ(a.rtm_ms, b.rtm_ms);
  EXPECT_DOUBLE_EQ(a.er_pct, b.er_pct);
  EXPECT_EQ(a.spc, b.spc);
  EXPECT_DOUBLE_EQ(a.cc_pct, b.cc_pct);
}

void expect_same_counters(const CampaignCounters& a,
                          const CampaignCounters& b) {
  EXPECT_EQ(a.mis, b.mis);
  EXPECT_EQ(a.kns, b.kns);
  EXPECT_EQ(a.kcp, b.kcp);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.self_restarts, b.self_restarts);
}

TEST(CampaignRunnerTest, JobsDoNotChangeResults) {
  auto opt = quick_options();
  opt.jobs = 1;
  auto sequential = CampaignRunner(opt).run_campaign();
  opt.jobs = 4;
  auto parallel = CampaignRunner(opt).run_campaign();

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t c = 0; c < sequential.size(); ++c) {
    SCOPED_TRACE(sequential[c].os_name + "/" + sequential[c].server_name);
    EXPECT_EQ(sequential[c].os_name, parallel[c].os_name);
    EXPECT_EQ(sequential[c].server_name, parallel[c].server_name);
    expect_same_metrics(sequential[c].baseline, parallel[c].baseline);
    ASSERT_EQ(sequential[c].iterations.size(), parallel[c].iterations.size());
    for (std::size_t i = 0; i < sequential[c].iterations.size(); ++i) {
      expect_same_metrics(sequential[c].iterations[i].metrics,
                          parallel[c].iterations[i].metrics);
      expect_same_counters(sequential[c].iterations[i].counters,
                           parallel[c].iterations[i].counters);
    }
    // Merged views (the numbers the Table 5 report prints) match too.
    expect_same_metrics(average_iteration_metrics(sequential[c].iterations),
                        average_iteration_metrics(parallel[c].iterations));
    const auto avg_a = average_counters(sequential[c].iterations);
    const auto avg_b = average_counters(parallel[c].iterations);
    EXPECT_DOUBLE_EQ(avg_a.admf(), avg_b.admf());
    EXPECT_DOUBLE_EQ(avg_a.self_restarts, avg_b.self_restarts);
  }
}

TEST(CampaignRunnerTest, FixedChunksPartitionTheFaultload) {
  auto opt = quick_options();
  opt.servers = {"abyssal"};
  opt.iterations = 1;
  opt.jobs = 2;

  opt.chunk = 0;
  const auto whole = CampaignRunner(opt).run_campaign();
  opt.chunk = 5;  // five fault positions per chunk
  const auto sharded = CampaignRunner(opt).run_campaign();

  ASSERT_EQ(whole.size(), 1u);
  ASSERT_EQ(sharded.size(), 1u);
  // The chunks cover disjoint, contiguous position ranges whose union is
  // the whole schedule, so the injected-fault count is equal.
  EXPECT_EQ(sharded[0].iterations[0].counters.faults_injected,
            whole[0].iterations[0].counters.faults_injected);
  EXPECT_GT(sharded[0].iterations[0].metrics.ops, 0u);
}

TEST(CampaignRunnerTest, IntrusivenessPairsRunsPerCell) {
  auto opt = quick_options();
  opt.servers = {"apex"};
  opt.jobs = 2;
  const auto cells = CampaignRunner(opt).run_intrusiveness();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].server_name, "apex");
  // Profile mode never patches: conformance stays within one connection of
  // the injector-free run (short windows can cut off one straggler) and the
  // throughput overhead stays tiny.
  EXPECT_GE(cells[0].profile.spc + 1, cells[0].max_perf.spc);
  EXPECT_GT(cells[0].profile.thr, cells[0].max_perf.thr * 0.97);
}

TEST(CampaignRunnerTest, DeriveSeedIsStableAndSpreads) {
  // Pure function: same inputs, same seed — across calls and platforms.
  EXPECT_EQ(derive_seed(1, 0, 0), derive_seed(1, 0, 0));
  // Neighbouring (cell, task) pairs land in different streams.
  EXPECT_NE(derive_seed(1, 0, 1), derive_seed(1, 1, 0));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
}

TEST(CampaignRunnerTest, MergeHelpersAreExactForCountersAndIdentityForOne) {
  CampaignCounters a, b;
  a.mis = 1; a.kns = 2; a.kcp = 3; a.faults_injected = 10; a.self_restarts = 4;
  b.mis = 5; b.kns = 6; b.kcp = 7; b.faults_injected = 20; b.self_restarts = 8;
  const auto m = merge_counters(a, b);
  EXPECT_EQ(m.mis, 6);
  EXPECT_EQ(m.kns, 8);
  EXPECT_EQ(m.kcp, 10);
  EXPECT_EQ(m.faults_injected, 30);
  EXPECT_EQ(m.self_restarts, 12);
  EXPECT_EQ(m.admf(), 24);

  // A one-run fold reproduces that run (THR/ER% recomputed from the sums).
  IterationResult one;
  one.metrics.duration_ms = 2000;
  one.metrics.ops = 7;
  one.metrics.errors = 4;
  one.metrics.thr = 1.5;
  one.metrics.er_pct = 100.0 * 4 / 7;
  one.metrics.spc = 3;
  one.counters.mis = 2;
  const auto same = merge_fault_runs({one});
  EXPECT_EQ(same.metrics.ops, 7u);
  EXPECT_DOUBLE_EQ(same.metrics.thr, 1.5);
  EXPECT_DOUBLE_EQ(same.metrics.er_pct, one.metrics.er_pct);
  EXPECT_EQ(same.metrics.spc, 3);
  EXPECT_EQ(same.counters.mis, 2);
}

}  // namespace
}  // namespace gf::depbench
