// Tests for the fault activation & error-propagation tracing subsystem
// (src/trace): the VM watch layer, the kernel-invariant probe, the
// per-fault tracer classification, deterministic campaign-level records,
// and the measured-activation pruning that closes the fine-tuning loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "depbench/runner.h"
#include "depbench/tuner.h"
#include "minic/compiler.h"
#include "os/api.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "trace/activation.h"
#include "trace/probe.h"
#include "trace/tracer.h"
#include "vm/machine.h"

namespace gf {
namespace {

// --- VM watch layer ---------------------------------------------------------

isa::Image loop_image() {
  // `cold` is never called from `f`: arming a watch on it exercises the
  // disarmed-on-the-hot-path case while staying inside the code hull.
  return minic::compile(
      "fn cold(x) { return x + 1; } "
      "fn f(n) { var s = 0; var i = 0; while (i < n) { s = s + i * 3; "
      "i = i + 1; } return s; }",
      "trace_test", 0x1000);
}

TEST(WatchTest, RecordsHitsAndEdgesInsideWindow) {
  const auto img = loop_image();
  vm::Machine m;
  m.load_image(img);
  const auto f = img.find_symbol("f")->addr;

  // Spend some machine lifetime first so the first-hit stamp (which is in
  // lifetime cycles, not per-run cycles) is distinguishable from zero.
  ASSERT_TRUE(m.call(f, {5}, 1u << 20).ok());
  const auto warmup_cycles = m.total_cycles();
  ASSERT_GT(warmup_cycles, 0u);

  // Watch the entry instruction: each call enters the window exactly once.
  m.arm_watch(f, f + isa::kInstrSize);
  EXPECT_TRUE(m.watch_armed());
  ASSERT_TRUE(m.call(f, {50}, 1u << 20).ok());
  const auto& t1 = m.watch_trace();
  EXPECT_EQ(t1.hits, 1u);
  EXPECT_GE(t1.first_hit_cycle, warmup_cycles);
  // The while-loop takes backward jumps after the hit, so edges accumulate
  // and the ring keeps at most the last kEdgeRing of them.
  EXPECT_GT(t1.edge_count, 0u);
  const auto edges = t1.edges();
  EXPECT_LE(edges.size(), vm::WatchTrace::kEdgeRing);
  EXPECT_EQ(edges.size(),
            std::min<std::uint64_t>(t1.edge_count, vm::WatchTrace::kEdgeRing));
  for (const auto& e : edges) {
    EXPECT_NE(e.to, e.from + isa::kInstrSize);  // only taken transfers
  }

  const auto first_cycle = t1.first_hit_cycle;
  ASSERT_TRUE(m.call(f, {50}, 1u << 20).ok());
  EXPECT_EQ(m.watch_trace().hits, 2u);
  EXPECT_EQ(m.watch_trace().first_hit_cycle, first_cycle);

  m.disarm_watch();
  EXPECT_FALSE(m.watch_armed());
  EXPECT_EQ(m.watch_trace().hits, 2u);  // trace stays readable
}

TEST(WatchTest, NeverExecutedWindowStaysAtZeroHits) {
  const auto img = loop_image();
  vm::Machine m;
  m.load_image(img);
  const auto cold = img.find_symbol("cold")->addr;
  m.arm_watch(cold, cold + 2 * isa::kInstrSize);
  ASSERT_TRUE(m.call(img.find_symbol("f")->addr, {100}, 1u << 20).ok());
  EXPECT_EQ(m.watch_trace().hits, 0u);
  EXPECT_EQ(m.watch_trace().edge_count, 0u);
}

TEST(WatchTest, FallbackDecodePathCountsHitsToo) {
  const auto img = loop_image();
  vm::Machine m;
  m.load_image(img);
  m.set_predecode(false);
  const auto f = img.find_symbol("f")->addr;
  m.arm_watch(f, f + isa::kInstrSize);
  ASSERT_TRUE(m.call(f, {10}, 1u << 20).ok());
  EXPECT_EQ(m.watch_trace().hits, 1u);
}

TEST(WatchTest, ReArmingResetsTheTrace) {
  const auto img = loop_image();
  vm::Machine m;
  m.load_image(img);
  const auto f = img.find_symbol("f")->addr;
  m.arm_watch(f, f + isa::kInstrSize);
  ASSERT_TRUE(m.call(f, {10}, 1u << 20).ok());
  ASSERT_EQ(m.watch_trace().hits, 1u);
  m.arm_watch(f, f + isa::kInstrSize);
  EXPECT_EQ(m.watch_trace().hits, 0u);
}

TEST(WatchTest, ArmedBitsSurviveCodePatches) {
  // The injector patches the very window the watch guards; the predecode
  // invalidation that follows must not drop the armed bits.
  const auto img = loop_image();
  vm::Machine m;
  m.load_image(img);
  const auto f = img.find_symbol("f")->addr;
  m.arm_watch(f, f + isa::kInstrSize);

  std::uint8_t window[isa::kInstrSize];
  ASSERT_TRUE(m.read_bytes(f, window, sizeof window));
  ASSERT_TRUE(m.patch_code(f, window, sizeof window));  // inject-style rewrite

  ASSERT_TRUE(m.call(f, {10}, 1u << 20).ok());
  EXPECT_EQ(m.watch_trace().hits, 1u);
}

TEST(WatchTest, DisarmedWatchDoesNotSlowDispatch) {
  // Guard for the acceptance bar (BM_VmDispatchTraceDisarmed within 3% of
  // BM_VmDispatch): a watch armed on never-executed code must not change
  // the hot loop's work. The unit-test bound is generous (25%) because CI
  // machines are noisy; the micro-benchmark measures the real ratio. The
  // two machines' repetitions interleave (alternating which side goes
  // first), so a burst of load from other processes lands on both sides
  // instead of on one block of repetitions.
  const auto img = loop_image();
  const auto f = img.find_symbol("f")->addr;
  const auto cold = img.find_symbol("cold")->addr;

  vm::Machine plain, armed;
  plain.load_image(img);
  armed.load_image(img);
  armed.arm_watch(cold, cold + 2 * isa::kInstrSize);
  const auto time_one = [&](vm::Machine& m) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = m.call(f, {100000}, 1u << 30);
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_TRUE(r.ok());
    return std::chrono::duration<double>(t1 - t0).count();
  };
  time_one(plain);  // warm-up
  time_one(armed);
  double off = 1e18, on = 1e18;
  for (int rep = 0; rep < 10; ++rep) {
    if (rep % 2 == 0) {
      off = std::min(off, time_one(plain));
      on = std::min(on, time_one(armed));
    } else {
      on = std::min(on, time_one(armed));
      off = std::min(off, time_one(plain));
    }
  }
  EXPECT_LT(on, off * 1.25) << "armed-but-unhit watch slowed dispatch: "
                            << off * 1e3 << " ms -> " << on * 1e3 << " ms";
}

TEST(WatchTest, ArmingColdWatchRetokenizesOnlyWindowAndMargin) {
  // The deterministic half of the guard above: arming a watch re-tokenizes
  // the window plus the two slots to its left (a fused token looks up to two
  // slots ahead) and nothing else, so the hot loop in `f` keeps exactly the
  // tokens it had. Disarming restores the table.
  // `cold` sits between two live functions, so both sides of the window
  // have tokens that must stay put.
  const auto img = minic::compile(
      "fn f(n) { var s = 0; var i = 0; while (i < n) { s = s + i * 3; "
      "i = i + 1; } return s; } "
      "fn cold(x) { var y = x * 5; return (x + 1) * (y - 2); } "
      "fn g(n) { return f(n) + (n * 7); }",
      "trace_test", 0x1000);
  const auto cold = img.find_symbol("cold")->addr;
  vm::Machine m;
  m.load_image(img);
  const auto before = m.dispatch_tokens();
  ASSERT_FALSE(before.empty());
  m.arm_watch(cold, cold + 2 * isa::kInstrSize);
  const auto armed = m.dispatch_tokens();
  ASSERT_EQ(armed.size(), before.size());
  const auto lo = static_cast<std::size_t>((cold - img.base()) / isa::kInstrSize);
  const std::size_t margin = 2, window = 2;
  for (std::size_t s = 0; s < before.size(); ++s) {
    if (s + margin >= lo && s < lo + window) continue;
    EXPECT_EQ(armed[s], before[s]) << "slot " << s << " outside the window";
  }
  for (std::size_t s = lo; s < lo + window; ++s) {
    EXPECT_NE(armed[s], before[s]) << "window slot " << s << " not re-tokenized";
  }
  m.disarm_watch();
  EXPECT_EQ(m.dispatch_tokens(), before);
}

// --- kernel-invariant probe -------------------------------------------------

TEST(ProbeTest, PristineKernelPassesAndCorruptionIsDetected) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  const auto base = trace::snapshot_invariants(kernel);
  EXPECT_TRUE(base.ok());
  EXPECT_GT(base.heap_free_nodes, 0u);

  // Free-list head mutated to a misaligned address: the walk must reject it
  // rather than chase garbage.
  auto& m = kernel.machine();
  std::uint64_t head = 0;
  ASSERT_TRUE(m.read_u64(os::layout::kHeapCtl, head));
  ASSERT_TRUE(m.write_u64(os::layout::kHeapCtl, head + 1));
  EXPECT_FALSE(trace::snapshot_invariants(kernel).heap_ok);
  ASSERT_TRUE(m.write_u64(os::layout::kHeapCtl, head));
  EXPECT_TRUE(trace::snapshot_invariants(kernel).ok());

  // Handle entry with an unknown type.
  ASSERT_TRUE(m.write_u64(os::layout::kHandleTable + 3 * 32, 7));
  EXPECT_FALSE(trace::snapshot_invariants(kernel).handles_ok);
}

// --- per-fault tracer classification ----------------------------------------

swfit::Faultload scan_for(os::Kernel& kernel, const std::string& function) {
  return swfit::Scanner{}.scan(kernel.pristine_image(), {function});
}

TEST(TracerTest, NeverReachedWindowClassifiesNotActivated) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  const auto fl = scan_for(kernel, "NtWriteFile");
  ASSERT_FALSE(fl.faults.empty());

  swfit::Injector injector(kernel);
  injector.inject(fl.faults[0]);
  trace::FaultTracer tracer(kernel);
  tracer.attach(api);
  tracer.begin_fault(0, fl.faults[0]);
  // Exercise a different API family: the patched NtWriteFile window is
  // never entered.
  for (int i = 0; i < 8; ++i) {
    const auto r = api.rtl_alloc(128);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(api.rtl_free(static_cast<std::uint64_t>(r.value)).ok());
  }
  const auto rec = tracer.end_fault();
  injector.restore();

  EXPECT_EQ(rec.outcome, trace::Outcome::kNotActivated);
  EXPECT_EQ(rec.hits, 0u);
  EXPECT_FALSE(rec.activated());
  EXPECT_EQ(rec.function, "NtWriteFile");
}

TEST(TracerTest, FreeHeapMutationYieldsLatentCorruptionBeforeVisibleError) {
  // Inject every RtlFreeHeap fault in turn on a fresh kernel and classify
  // with per-call probing. The point of the latent class: at least one
  // mutation damages the free list while every API call still returns
  // success — the client saw nothing, yet the state oracle flags it at the
  // first boundary after the hit.
  os::Kernel scan_kernel(os::OsVersion::kVos2000);
  const auto fl = scan_for(scan_kernel, "RtlFreeHeap");
  ASSERT_FALSE(fl.faults.empty());

  int latent = 0, activated = 0;
  for (std::size_t i = 0; i < fl.faults.size(); ++i) {
    os::Kernel kernel(os::OsVersion::kVos2000);  // pristine state per fault
    os::OsApi api(kernel);
    swfit::Injector injector(kernel);
    trace::FaultTracer tracer(kernel);
    tracer.attach(api);
    tracer.set_probe_per_call(true);

    injector.inject(fl.faults[i]);
    tracer.begin_fault(static_cast<std::uint32_t>(i), fl.faults[i]);
    bool client_error = false;
    std::int64_t blocks[4] = {};
    for (int b = 0; b < 4; ++b) {
      const auto r = api.rtl_alloc(64 + 32 * b);
      blocks[b] = r.ok() ? r.value : 0;
      client_error |= !r.ok();
    }
    for (int b = 3; b >= 0; --b) {
      if (blocks[b] == 0) continue;
      client_error |= !api.rtl_free(static_cast<std::uint64_t>(blocks[b])).ok();
    }
    const auto rec = tracer.end_fault();
    injector.restore();

    if (rec.activated()) ++activated;
    if (rec.outcome == trace::Outcome::kLatentStateCorruption) {
      ++latent;
      // Latent means latent: nothing was externally observable.
      EXPECT_FALSE(client_error);
    }
    if (rec.hits == 0) {
      EXPECT_EQ(rec.outcome, trace::Outcome::kNotActivated);
    }
  }
  EXPECT_GT(activated, 0);
  EXPECT_GT(latent, 0) << "no RtlFreeHeap mutation produced silent heap "
                          "corruption across " << fl.faults.size() << " faults";
}

// --- campaign-level records -------------------------------------------------

depbench::RunnerOptions traced_quick_options() {
  depbench::RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"abyssal"};
  opt.iterations = 1;
  opt.stride = 17;
  opt.time_scale = 0.2;
  opt.baseline_window_ms = 5000;
  opt.seed = 42;
  opt.trace = true;
  return opt;
}

void expect_same_records(const std::vector<trace::ActivationRecord>& a,
                         const std::vector<trace::ActivationRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].fault_index, b[i].fault_index);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].function, b[i].function);
    EXPECT_EQ(a[i].hits, b[i].hits);
    EXPECT_EQ(a[i].first_hit_cycle, b[i].first_hit_cycle);
    EXPECT_EQ(a[i].edge_count, b[i].edge_count);
    EXPECT_EQ(a[i].edges, b[i].edges);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
  }
}

TEST(TraceCampaignTest, ActivationRecordsAreBitIdenticalAcrossJobs) {
  auto opt = traced_quick_options();
  opt.jobs = 1;
  const auto seq = depbench::CampaignRunner(opt).run_campaign();
  opt.jobs = 4;
  const auto par = depbench::CampaignRunner(opt).run_campaign();

  ASSERT_EQ(seq.size(), 1u);
  ASSERT_EQ(par.size(), 1u);
  ASSERT_EQ(seq[0].iterations.size(), par[0].iterations.size());
  for (std::size_t i = 0; i < seq[0].iterations.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    expect_same_records(seq[0].iterations[i].activations,
                        par[0].iterations[i].activations);
  }
}

// Superinstruction fusion is a pure execution strategy (see vm/machine.h):
// the traced campaign — activation hits, absolute first-hit cycles, edge
// rings, outcomes, and the performance counters they key off — must be
// bit-identical with fusion on and off, including when the armed fault
// window lands mid-pair. tests/test_fusion.cpp covers the machine level;
// this covers the full campaign path the CI equivalence gate exercises.
TEST(TraceCampaignTest, ActivationRecordsAreBitIdenticalFusionOnOff) {
  auto opt = traced_quick_options();
  opt.jobs = 2;
  const auto fused = depbench::CampaignRunner(opt).run_campaign();
  opt.fusion = false;
  const auto plain = depbench::CampaignRunner(opt).run_campaign();

  ASSERT_EQ(fused.size(), 1u);
  ASSERT_EQ(plain.size(), 1u);
  ASSERT_EQ(fused[0].iterations.size(), plain[0].iterations.size());
  for (std::size_t i = 0; i < fused[0].iterations.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    expect_same_records(fused[0].iterations[i].activations,
                        plain[0].iterations[i].activations);
  }
}

TEST(TraceCampaignTest, OneRecordPerInjectedFaultInCanonicalOrder) {
  const auto cells =
      depbench::CampaignRunner(traced_quick_options()).run_campaign();
  ASSERT_EQ(cells.size(), 1u);
  const auto& it = cells[0].iterations[0];
  EXPECT_EQ(static_cast<int>(it.activations.size()),
            it.counters.faults_injected);
  for (std::size_t i = 1; i < it.activations.size(); ++i) {
    EXPECT_LT(it.activations[i - 1].fault_index, it.activations[i].fault_index);
  }
  // Tracing is opt-in: the untraced run records nothing.
  auto off = traced_quick_options();
  off.trace = false;
  const auto plain = depbench::CampaignRunner(off).run_campaign();
  EXPECT_TRUE(plain[0].iterations[0].activations.empty());
}

// --- aggregation, report, serialization --------------------------------------

trace::ActivationRecord make_record(std::uint32_t index, swfit::FaultType type,
                                    const std::string& fn, std::uint64_t hits,
                                    trace::Outcome outcome) {
  trace::ActivationRecord r;
  r.fault_index = index;
  r.type = type;
  r.function = fn;
  r.hits = hits;
  r.outcome = outcome;
  return r;
}

TEST(ActivationStatsTest, AggregationIsACommutativeFold) {
  const auto a = make_record(3, swfit::FaultType::kMFC, "RtlFreeHeap", 2,
                             trace::Outcome::kLatentStateCorruption);
  const auto b = make_record(1, swfit::FaultType::kMFC, "RtlFreeHeap", 0,
                             trace::Outcome::kNotActivated);
  const auto c = make_record(2, swfit::FaultType::kMIA, "NtClose", 5,
                             trace::Outcome::kExternalFailure);

  std::vector<trace::ActivationRecord> fwd{a, b, c}, rev{c, b, a};
  trace::sort_records(fwd);
  EXPECT_EQ(fwd[0].fault_index, 1u);
  EXPECT_EQ(fwd[2].fault_index, 3u);

  const auto s1 = trace::aggregate(fwd);
  const auto s2 = trace::aggregate(rev);
  EXPECT_EQ(s1.total().injected, 3u);
  EXPECT_EQ(s1.total().activated, 2u);
  EXPECT_EQ(s1.total().latent, 1u);
  EXPECT_EQ(s1.total().external, 1u);
  EXPECT_EQ(s2.total().injected, s1.total().injected);
  EXPECT_DOUBLE_EQ(s1.total().activation_rate(), 2.0 / 3.0);

  trace::ActivationStats merged;
  merged.merge(s1);
  merged.merge(trace::aggregate({c}));
  EXPECT_EQ(merged.total().injected, 4u);
  EXPECT_EQ(merged.by_type().size(), 2u);
  EXPECT_EQ(merged.by_function().size(), 2u);

  const auto report = trace::render_activation_report(merged);
  EXPECT_NE(report.find("TOTAL"), std::string::npos);
  EXPECT_NE(report.find("RtlFreeHeap"), std::string::npos);
}

TEST(ActivationStatsTest, JsonlAndSummaryAreWellFormed) {
  const std::vector<trace::ActivationRecord> recs{
      make_record(0, swfit::FaultType::kMVI, "NtClose", 1,
                  trace::Outcome::kActivatedBenign),
      make_record(4, swfit::FaultType::kWVAV, "NtReadFile", 0,
                  trace::Outcome::kNotActivated)};

  std::ostringstream os;
  trace::write_jsonl(os, "VOS-2000/apex/iter0", recs);
  const auto text = os.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"context\":\"VOS-2000/apex/iter0\""),
            std::string::npos);
  EXPECT_NE(text.find("\"outcome\":\"activated-benign\""), std::string::npos);
  EXPECT_NE(text.find("\"outcome\":\"not-activated\""), std::string::npos);

  const auto json = trace::activation_summary_json(trace::aggregate(recs));
  EXPECT_NE(json.find("\"injected\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"activation_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"by_type\""), std::string::npos);
}

// --- measured-activation pruning (the closed loop) ---------------------------

TEST(TunerTest, PruneDropsMeasuredNeverActivatedFaultsOnly) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  const auto fl = scan_for(kernel, "RtlAllocateHeap");
  ASSERT_GE(fl.faults.size(), 3u);

  // Fault 0: measured, activated in one of two exposures -> kept.
  // Fault 1: measured twice, never activated                -> dropped.
  // Fault 2..: never measured (sampling skipped them)       -> kept.
  std::vector<trace::ActivationRecord> records{
      make_record(0, fl.faults[0].type, fl.faults[0].function, 0,
                  trace::Outcome::kNotActivated),
      make_record(0, fl.faults[0].type, fl.faults[0].function, 3,
                  trace::Outcome::kActivatedBenign),
      make_record(1, fl.faults[1].type, fl.faults[1].function, 0,
                  trace::Outcome::kNotActivated),
      make_record(1, fl.faults[1].type, fl.faults[1].function, 0,
                  trace::Outcome::kNotActivated)};

  const auto pruned = depbench::prune_by_measured_activation(fl, records);
  EXPECT_EQ(pruned.faults.size(), fl.faults.size() - 1);
  EXPECT_EQ(pruned.target, fl.target);
  EXPECT_EQ(pruned.digest, fl.digest);
  EXPECT_EQ(pruned.faults[0].addr, fl.faults[0].addr);
  EXPECT_EQ(pruned.faults[1].addr, fl.faults[2].addr);  // fault 1 is gone

  // A rate threshold keeps only faults at or above it.
  const auto strict = depbench::prune_by_measured_activation(fl, records, 0.6);
  EXPECT_EQ(strict.faults.size(), fl.faults.size() - 2);  // 0 (rate .5) too
}

TEST(TunerTest, CampaignRecordsPruneTheStaticFaultloadConsistently) {
  // End-to-end closed loop: trace a sampled campaign, feed the measured
  // records back, and check the pruned faultload drops exactly the measured
  // never-activated faults (paper §5's activation goal, now measured).
  const auto cells =
      depbench::CampaignRunner(traced_quick_options()).run_campaign();
  std::vector<trace::ActivationRecord> records;
  for (const auto& it : cells[0].iterations) {
    records.insert(records.end(), it.activations.begin(),
                   it.activations.end());
  }
  ASSERT_FALSE(records.empty());

  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);

  std::set<std::uint32_t> dead;
  std::set<std::uint32_t> alive;
  for (const auto& r : records) {
    if (r.activated()) alive.insert(r.fault_index);
  }
  for (const auto& r : records) {
    if (!alive.count(r.fault_index)) dead.insert(r.fault_index);
  }

  const auto pruned = depbench::prune_by_measured_activation(fl, records);
  EXPECT_EQ(pruned.faults.size(), fl.faults.size() - dead.size());
  EXPECT_GT(dead.size(), 0u)
      << "every sampled fault activated; widen the sample";
}

}  // namespace
}  // namespace gf
