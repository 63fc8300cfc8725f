// Tests for the warm-boot snapshot subsystem: dirty-page tracking and
// snapshot/restore at the VM layer, boot-replay equivalence at the kernel
// layer, copy-on-write disk isolation, scan memoization, and the headline
// property — campaign results and obs artifacts bit-identical with
// snapshots on or off, for any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "depbench/campaign_report.h"
#include "depbench/controller.h"
#include "depbench/runner.h"
#include "minic/compiler.h"
#include "obs/journal.h"
#include "os/api.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "snapshot/warmboot.h"
#include "store/campaign_codec.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "trace/activation.h"
#include "vm/machine.h"

namespace gf {
namespace {

std::vector<std::string> all_api_names() {
  std::vector<std::string> names;
  for (const auto& f : os::api_functions()) names.emplace_back(f.name);
  return names;
}

void expect_same_machine_state(const vm::Machine::State& a,
                               const vm::Machine::State& b) {
  EXPECT_TRUE(a.mem == b.mem) << "memory images differ";
  EXPECT_TRUE(a.regs == b.regs) << "registers differ";
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

// ---------------------------------------------------------------------------
// VM layer: dirty bitmap, snapshot/restore, write capture
// ---------------------------------------------------------------------------

TEST(MachineSnapshotTest, CheckedWritesMarkPagesDirty) {
  vm::Machine m;
  const auto base = m.snapshot();  // establish a clean baseline
  EXPECT_FALSE(m.page_dirty(0x2000));

  ASSERT_TRUE(m.write_u64(0x2000, 0xDEADBEEFULL));
  EXPECT_TRUE(m.page_dirty(0x2000));
  EXPECT_FALSE(m.page_dirty(0x3000));

  // A write spanning a page boundary dirties both pages.
  const std::uint8_t buf[16] = {1, 2, 3, 4};
  ASSERT_TRUE(m.write_bytes(0x3FF8, buf, sizeof buf));
  EXPECT_TRUE(m.page_dirty(0x3000));
  EXPECT_TRUE(m.page_dirty(0x4000));

  m.restore(base);
  EXPECT_FALSE(m.page_dirty(0x2000));
  EXPECT_FALSE(m.page_dirty(0x3000));
  std::uint64_t v = 1;
  ASSERT_TRUE(m.read_u64(0x2000, v));
  EXPECT_EQ(v, 0u);
}

TEST(MachineSnapshotTest, RestoreRevertsExactlyToSnapshot) {
  vm::Machine m;
  ASSERT_TRUE(m.write_u64(0x8000, 42));
  m.set_reg(3, -7);
  const auto base = m.snapshot();

  ASSERT_TRUE(m.write_u64(0x8000, 99));
  ASSERT_TRUE(m.write_u64(0x20000, 123));
  m.set_reg(3, 1);
  m.set_cmp_flags(1);
  m.restore(base);

  expect_same_machine_state(m.snapshot(), base);
}

TEST(MachineSnapshotTest, WriteCaptureRecordsEveryCheckedWrite) {
  vm::Machine m;
  m.begin_write_capture();
  ASSERT_TRUE(m.write_u8(0x2000, 7));
  ASSERT_TRUE(m.write_u64(0x2008, 0x0102030405060708ULL));
  const auto spans = m.end_write_capture();

  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].addr, 0x2000u);
  ASSERT_EQ(spans[0].bytes.size(), 1u);
  EXPECT_EQ(spans[0].bytes[0], 7u);
  EXPECT_EQ(spans[1].addr, 0x2008u);
  EXPECT_EQ(spans[1].bytes.size(), 8u);
}

TEST(MachineSnapshotTest, RestoreInvalidatesPredecodedCode) {
  // Two compiles of the same function shape, differing only in an immediate:
  // patching v2's bytes over v1 must change behaviour, and restore() must
  // bring back both the bytes AND the predecoded instructions.
  const auto img1 = minic::compile("fn f(a) { return a + 1; }", "t1", 0x1000);
  const auto img2 = minic::compile("fn f(a) { return a + 2; }", "t2", 0x1000);
  ASSERT_EQ(img1.code().size(), img2.code().size());
  const auto addr = img1.find_symbol("f")->addr;

  vm::Machine m;
  m.load_image(img1);
  const auto base = m.snapshot();
  EXPECT_EQ(m.call(addr, {5}, 1u << 16).ret, 6);

  ASSERT_TRUE(m.patch_code(img1.base(), img2.code().data(), img2.code().size()));
  EXPECT_TRUE(m.page_dirty(addr));
  EXPECT_EQ(m.call(addr, {5}, 1u << 16).ret, 7);

  m.restore(base);
  EXPECT_EQ(m.call(addr, {5}, 1u << 16).ret, 6);
}

// ---------------------------------------------------------------------------
// Kernel layer: boot replay equivalence, corruption fallback, warm rebuild
// ---------------------------------------------------------------------------

/// Identical guest work on both kernels: dirty some heap/handle state so the
/// next reboot actually has pages to reset.
void exercise_guest(os::Kernel& k) {
  os::OsApi api(k);
  ASSERT_TRUE(api.write_cstr(os::OsApi::kPathSlot, "/conf/httpd.conf"));
  const auto h = api.nt_open_file(os::OsApi::kPathSlot);
  ASSERT_TRUE(h.completed);
  const auto p = api.rtl_alloc(256);
  ASSERT_TRUE(p.ok());
  if (h.value >= 0) api.nt_close(h.value);
}

TEST(KernelReplayTest, ReplayRebootIsBitIdenticalToColdReboot) {
  os::Kernel cold(os::OsVersion::kVos2000);
  cold.set_warm_reboot(false);
  os::Kernel warm(os::OsVersion::kVos2000);
  ASSERT_TRUE(warm.warm_reboot());

  // Construction is a cold boot on both; from here `cold` re-executes the
  // boot code every time while `warm` replays the recorded write log.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    exercise_guest(cold);
    exercise_guest(warm);
    cold.reboot();
    warm.reboot();
    expect_same_machine_state(cold.machine().snapshot(),
                              warm.machine().snapshot());
    EXPECT_EQ(cold.ticks(), warm.ticks());
  }
}

TEST(KernelReplayTest, CorruptedBootCodeFailsLoudlyOnBothPaths) {
  const std::vector<std::uint8_t> garbage(isa::kInstrSize, 0xFF);
  for (const bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    os::Kernel k(os::OsVersion::kVos2000);
    k.set_warm_reboot(warm);
    const auto* heap_init = k.pristine_image().find_symbol("heap_init");
    ASSERT_NE(heap_init, nullptr);
    ASSERT_TRUE(
        k.machine().patch_code(heap_init->addr, garbage.data(), garbage.size()));
    // The warm path must detect the mutated boot code, fall back to a real
    // cold boot, and fail exactly like the cold path does.
    EXPECT_THROW(k.reboot(), std::runtime_error);
  }
}

TEST(KernelReplayTest, WarmConstructedKernelResumesExactly) {
  os::Kernel original(os::OsVersion::kVos2000);
  exercise_guest(original);
  auto snap = original.snapshot();

  os::Kernel rebuilt(snap);
  EXPECT_EQ(rebuilt.version(), original.version());
  EXPECT_EQ(rebuilt.ticks(), original.ticks());
  expect_same_machine_state(rebuilt.machine().snapshot(), snap.machine);

  // Both kernels keep working and stay in lockstep through further reboots.
  original.reboot();
  rebuilt.reboot();
  expect_same_machine_state(original.machine().snapshot(),
                            rebuilt.machine().snapshot());
  EXPECT_EQ(original.ticks(), rebuilt.ticks());
}

// ---------------------------------------------------------------------------
// Injector interaction: patches mark pages dirty; restore reverts them
// ---------------------------------------------------------------------------

TEST(InjectorDirtyTest, InjectedPatchIsDirtyTrackedAndRestorable) {
  os::Kernel k(os::OsVersion::kVos2000);
  const auto fl = swfit::Scanner{}.scan(k.pristine_image(), all_api_names());
  ASSERT_FALSE(fl.faults.empty());
  const auto& f = fl.faults.front();
  const auto len = static_cast<std::size_t>(f.window()) * isa::kInstrSize;
  const auto off = static_cast<std::size_t>(f.addr - k.pristine_image().base());
  const auto* pristine = k.pristine_image().code().data() + off;

  auto& m = k.machine();
  const auto base = m.snapshot();
  swfit::Injector inj(k);
  ASSERT_TRUE(inj.inject(f));
  EXPECT_TRUE(m.page_dirty(f.addr));
  EXPECT_NE(std::memcmp(m.raw(f.addr, len), pristine, len), 0);

  // restore() must copy the patched code page back AND re-decode it.
  m.restore(base);
  EXPECT_EQ(std::memcmp(m.raw(f.addr, len), pristine, len), 0);
  EXPECT_FALSE(m.page_dirty(f.addr));
}

// ---------------------------------------------------------------------------
// Copy-on-write disk
// ---------------------------------------------------------------------------

TEST(SimDiskCowTest, CopiesShareContentUntilWritten) {
  os::SimDisk a;
  const int id = a.add_file("/www/file0.html", {'a', 'b', 'c', 'd'});

  os::SimDisk b = a;  // snapshot-style copy: shares the content buffer
  const std::uint8_t patch[2] = {'X', 'Y'};
  ASSERT_TRUE(b.write(id, 1, patch, 2).has_value());

  const auto* ca = a.content("/www/file0.html");
  const auto* cb = b.content("/www/file0.html");
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(*ca, (std::vector<std::uint8_t>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(*cb, (std::vector<std::uint8_t>{'a', 'X', 'Y', 'd'}));

  // Writing through the original afterwards must not leak into the copy.
  const std::uint8_t z = 'z';
  ASSERT_TRUE(a.write(id, 0, &z, 1).has_value());
  EXPECT_EQ((*b.content("/www/file0.html"))[0], 'a');
}

// ---------------------------------------------------------------------------
// Scan memoization
// ---------------------------------------------------------------------------

TEST(ScanCacheTest, RepeatScansHitTheMemo) {
  swfit::clear_scan_cache();
  os::Kernel k(os::OsVersion::kVos2000);
  const auto names = all_api_names();

  const auto first = swfit::Scanner{}.scan(k.pristine_image(), names);
  auto stats = swfit::scan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  const auto second = swfit::Scanner{}.scan(k.pristine_image(), names);
  stats = swfit::scan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  ASSERT_EQ(first.faults.size(), second.faults.size());
  for (std::size_t i = 0; i < first.faults.size(); ++i) {
    EXPECT_EQ(first.faults[i].addr, second.faults[i].addr);
    EXPECT_EQ(first.faults[i].type, second.faults[i].type);
  }

  // Different options must key a different entry, not a stale hit.
  swfit::ScanOptions opts;
  opts.max_block = opts.max_block > 1 ? opts.max_block - 1 : 2;
  swfit::Scanner{opts}.scan(k.pristine_image(), names);
  stats = swfit::scan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  swfit::clear_scan_cache();
}

// ---------------------------------------------------------------------------
// Controller / campaign equivalence: the headline property
// ---------------------------------------------------------------------------

namespace db = depbench;

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

void expect_same_counters(const db::CampaignCounters& a,
                          const db::CampaignCounters& b) {
  EXPECT_EQ(a.mis, b.mis);
  EXPECT_EQ(a.kns, b.kns);
  EXPECT_EQ(a.kcp, b.kcp);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.self_restarts, b.self_restarts);
}

void expect_same_records(const std::vector<trace::ActivationRecord>& a,
                         const std::vector<trace::ActivationRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].fault_index, b[i].fault_index);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].function, b[i].function);
    EXPECT_EQ(a[i].hits, b[i].hits);
    EXPECT_EQ(a[i].first_hit_cycle, b[i].first_hit_cycle);
    EXPECT_EQ(a[i].edge_count, b[i].edge_count);
    EXPECT_TRUE(a[i].edges == b[i].edges);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
  }
}

/// Everything one fault run produces, rendered to bytes.
struct RunBytes {
  std::string error;  ///< what() of a run that threw, empty otherwise
  db::IterationResult result;
  std::string registry;  ///< metrics registry plus the exported api sink
  std::string journal;
  std::string profile;
  std::string activations;
  std::vector<std::uint8_t> record;  ///< store encoding of result + obs
};

RunBytes run_bytes(db::Controller& ctl, const swfit::Faultload& fl,
                   const db::TaskObs& obs, std::uint64_t seed) {
  RunBytes out;
  try {
    out.result = ctl.run_iteration(fl, seed);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  obs::Registry api;
  obs.api.export_into(api);
  out.registry = obs.metrics.to_json() + api.to_json();
  std::ostringstream journal;
  obs::write_jsonl(journal, "run", obs.journal);
  out.journal = journal.str();
  out.profile = obs.profile.to_json();
  std::ostringstream activations;
  trace::write_jsonl(activations, "run", out.result.activations);
  out.activations = activations.str();
  store::RunRecord rec;
  rec.result = out.result;
  rec.has_obs = true;
  rec.obs = obs;
  out.record = store::encode_run_record(rec);
  return out;
}

void expect_same_run(const RunBytes& want, const RunBytes& got) {
  EXPECT_EQ(want.error, got.error);
  expect_same_metrics(want.result.metrics, got.result.metrics);
  expect_same_counters(want.result.counters, got.result.counters);
  expect_same_records(want.result.activations, got.result.activations);
  EXPECT_EQ(want.registry, got.registry);
  EXPECT_EQ(want.journal, got.journal);
  EXPECT_EQ(want.profile, got.profile);
  EXPECT_EQ(want.activations, got.activations);
  EXPECT_TRUE(want.record == got.record) << "store encodings differ";
}

TEST(SnapshotEquivalenceTest, WarmControllerIterationMatchesColdBoot) {
  constexpr auto kVersion = os::OsVersion::kVos2000;
  swfit::Faultload fl;
  {
    os::Kernel scan_kernel(kVersion);
    fl = swfit::Scanner{}.scan(scan_kernel.pristine_image(), all_api_names());
  }
  db::ControllerConfig cfg;
  cfg.time_scale = 0.2;
  cfg.fault_stride = 17;
  cfg.trace = true;  // first_hit_cycle is an *absolute* VM cycle: the
                     // strictest observable the warm path could get wrong
  cfg.profile_stride = 4096;

  // The bring-up happens before the run on both paths, so not only the
  // results but every obs artifact — registry (api sink included),
  // journal, profile — is byte-identical.
  db::TaskObs cold_obs;
  cfg.obs = &cold_obs;
  db::Controller cold(kVersion, "apex", cfg);
  const auto want = run_bytes(cold, fl, cold_obs, 42);

  const auto snap = snapshot::capture_warm_boot(kVersion, "apex");
  db::TaskObs warm_obs;
  cfg.obs = &warm_obs;
  db::Controller warm(snap, cfg);
  const auto got = run_bytes(warm, fl, warm_obs, 42);

  ASSERT_EQ(want.error, "");
  EXPECT_FALSE(cold_obs.profile.empty()) << "the profiler sampled nothing";
  expect_same_run(want, got);
}

TEST(SnapshotEquivalenceTest, CampaignIdenticalWithSnapshotsOnOrOffForAnyJobs) {
  db::RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex", "abyssal"};
  opt.iterations = 1;
  opt.stride = 17;
  opt.time_scale = 0.2;
  opt.baseline_window_ms = 15000;
  opt.seed = 42;
  opt.trace = true;
  opt.obs = true;

  // Runs the campaign; returns its cells and its merged journal.
  auto campaign = [&opt](bool warm_boot, int jobs) {
    opt.warm_boot = warm_boot;
    opt.jobs = jobs;
    db::CampaignRunner runner(opt);
    auto cells = runner.run_campaign();
    std::ostringstream journal;
    db::write_campaign_journal(journal, *runner.campaign_obs());
    return std::make_pair(std::move(cells), journal.str());
  };
  const auto [cold, cold_journal] = campaign(false, 1);
  const auto [warm1, warm1_journal] = campaign(true, 1);
  const auto [warm4, warm4_journal] = campaign(true, 4);
  // The merged journal (every run's bring_up instant, spans and cycles)
  // matches too: no run executes its bring-up inside its window.
  EXPECT_EQ(cold_journal, warm1_journal);
  EXPECT_EQ(cold_journal, warm4_journal);

  for (const auto* run : {&warm1, &warm4}) {
    ASSERT_EQ(cold.size(), run->size());
    for (std::size_t c = 0; c < cold.size(); ++c) {
      SCOPED_TRACE(cold[c].os_name + "/" + cold[c].server_name);
      EXPECT_EQ(cold[c].server_name, (*run)[c].server_name);
      expect_same_metrics(cold[c].baseline, (*run)[c].baseline);
      ASSERT_EQ(cold[c].iterations.size(), (*run)[c].iterations.size());
      for (std::size_t i = 0; i < cold[c].iterations.size(); ++i) {
        expect_same_metrics(cold[c].iterations[i].metrics,
                            (*run)[c].iterations[i].metrics);
        expect_same_counters(cold[c].iterations[i].counters,
                             (*run)[c].iterations[i].counters);
        expect_same_records(cold[c].iterations[i].activations,
                            (*run)[c].iterations[i].activations);
      }
    }
  }
}


// ---------------------------------------------------------------------------
// Controller reset: a reused controller is indistinguishable from a fresh
// Controller(snap), whatever it ran before
// ---------------------------------------------------------------------------

/// A synthetic fault whose window, at the entry of API function `fn`, makes
/// wild stores, each (`op` = kStB or kSt) of `value` to `target`. A store
/// into the code region survives both the injector's restore and every
/// reboot: only a reset (or a fresh SUB) undoes it.
struct WildStore {
  isa::Op op;
  std::uint64_t target;
  std::int32_t value;
};
swfit::FaultLocation wild_store_fault(const isa::Image& img,
                                      const std::string& fn,
                                      const std::vector<WildStore>& stores) {
  const auto* sym = img.find_symbol(fn);
  EXPECT_NE(sym, nullptr) << fn;
  swfit::FaultLocation f;
  f.type = swfit::FaultType::kWVAV;
  f.function = fn;
  f.addr = sym->addr;
  for (const auto& w : stores) {
    f.mutated.push_back(
        {isa::Op::kMovI, 13, 0, 0, static_cast<std::int32_t>(w.target)});
    f.mutated.push_back({isa::Op::kMovI, 12, 0, 0, w.value});
    f.mutated.push_back({w.op, 0, 13, 12, 0});
  }
  for (std::size_t i = 0; i < f.mutated.size(); ++i) {
    f.original.push_back(*img.at(f.addr + i * isa::kInstrSize));
  }
  return f;
}

TEST(ControllerResetTest, ReusedControllerMatchesFreshForAnyHistory) {
  const auto snap =
      snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  const auto& img = snap->kernel.pristine;
  auto fl = swfit::Scanner{}.scan(img, all_api_names());
  ASSERT_FALSE(fl.faults.empty());
  const std::size_t scanned = fl.faults.size();

  // Three synthetic wild-store faults. The third empties the heap free list
  // every few requests: apex's heap probe kills the worker, and the
  // watchdog restarts it (its reboot heals the heap). The first does the
  // same after rewriting the unused immediate of heap_init's final RET:
  // boot still works, but the boot code no longer matches the pristine
  // image, so the watchdog's reboot is a real cold_boot. The second turns
  // NtReadFile's first opcode into garbage.
  const auto* heap_init = img.find_symbol("heap_init");
  ASSERT_NE(heap_init, nullptr);
  const std::uint64_t ret_at = heap_init->addr + heap_init->size - isa::kInstrSize;
  ASSERT_EQ(img.at(ret_at)->op, isa::Op::kRet);
  const std::uint64_t garbage_at = img.find_symbol("NtReadFile")->addr;
  const std::size_t boot_fault = fl.faults.size();
  const WildStore empty_heap{isa::Op::kSt, os::layout::kHeapCtl, 0};
  fl.faults.push_back(wild_store_fault(
      img, "RtlEnterCriticalSection",
      {{isa::Op::kStB, ret_at + 4, 0x5A}, empty_heap}));
  const std::size_t code_fault = fl.faults.size();
  fl.faults.push_back(wild_store_fault(
      img, "RtlFreeHeap", {{isa::Op::kStB, garbage_at, 0xFF}}));
  const std::size_t heap_fault = fl.faults.size();
  fl.faults.push_back(
      wild_store_fault(img, "RtlEnterCriticalSection", {empty_heap}));

  db::ControllerConfig base;
  base.time_scale = 0.1;
  base.trace = true;
  base.profile_stride = 4096;
  base.fault_stride = static_cast<int>(fl.faults.size());
  auto cfg_for = [&](std::size_t index, db::TaskObs& obs) {
    auto cfg = base;
    cfg.fault_offset = static_cast<int>(index);
    cfg.obs = &obs;
    return cfg;
  };
  auto seed_for = [](std::size_t index) { return 1000 + index; };

  // Expected bytes: a fresh controller per fault. Besides the synthetic
  // faults, pick a few scanned ones, at least one of which ends in an
  // administrator restart.
  std::vector<std::size_t> picked{boot_fault, code_fault, heap_fault};
  std::vector<RunBytes> want(fl.faults.size());
  auto fresh = [&](std::size_t index) {
    db::TaskObs obs;
    db::Controller ctl(snap, cfg_for(index, obs));
    want[index] = run_bytes(ctl, fl, obs, seed_for(index));
    return want[index].result.counters;
  };
  for (const auto index : picked) fresh(index);
  bool admin = false;
  int ordinary = 0;
  for (std::size_t i = 0; i < scanned && !(admin && ordinary == 3); i += 7) {
    const auto c = fresh(i);
    if (!admin && c.mis + c.kns > 0) {
      admin = true;
      picked.push_back(i);
    } else if (ordinary < 3) {
      ++ordinary;
      picked.push_back(i);
    }
  }
  ASSERT_TRUE(admin) << "no scanned fault led to an admin restart";
  const auto& heap_run = want[heap_fault].result.counters;
  ASSERT_GT(heap_run.self_restarts, 0) << "the watchdog never restarted apex";

  // The state a fresh Kernel(snap) starts from.
  const os::Kernel fresh_kernel(snap->kernel);
  const auto fresh_digest = fresh_kernel.machine().state_digest();

  // Every picked fault twice, shuffled, on one reused controller.
  std::vector<std::size_t> order = picked;
  order.insert(order.end(), picked.begin(), picked.end());
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  std::unique_ptr<db::Controller> ctl;
  bool cold_boot_seen = false, garbage_seen = false;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto index = order[k];
    SCOPED_TRACE("run " + std::to_string(k) + ": fault " +
                 std::to_string(index));
    db::TaskObs obs;
    if (ctl == nullptr) {
      ctl = std::make_unique<db::Controller>(snap, cfg_for(index, obs));
    } else {
      ctl->reset(cfg_for(index, obs));
      // A reboot during the previous run clears the kernel data region's
      // dirty bits: reset must recopy it anyway.
      EXPECT_EQ(ctl->kernel().machine().state_digest(), fresh_digest);
      EXPECT_TRUE(ctl->kernel().disk() == fresh_kernel.disk());
      EXPECT_EQ(ctl->kernel().ticks(), fresh_kernel.ticks());
    }
    const auto cold_boots = ctl->kernel().counters().cold_boots;
    expect_same_run(want[index], run_bytes(*ctl, fl, obs, seed_for(index)));
    cold_boot_seen =
        cold_boot_seen || ctl->kernel().counters().cold_boots > cold_boots;
    garbage_seen = garbage_seen ||
                   *ctl->kernel().machine().raw(garbage_at, 1) == 0xFF;
  }
  EXPECT_TRUE(cold_boot_seen) << "the heap_init store never forced a cold boot";
  EXPECT_TRUE(garbage_seen) << "the wild store into NtReadFile never ran";
}

TEST(ControllerResetTest, ResetRequiresASnapshotOrigin) {
  const auto snap =
      snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  db::Controller cold(os::OsVersion::kVos2000, "apex");
  EXPECT_THROW(cold.reset({}), std::logic_error);
  // A kernel reset is only sound against its own dirty-tracking baseline.
  EXPECT_THROW(os::Kernel(os::OsVersion::kVos2000).reset(), std::logic_error);
  os::Kernel k(snap->kernel);
  k.reset();
  (void)k.snapshot();  // rebases the dirty bitmap
  EXPECT_THROW(k.reset(), std::logic_error);
}

TEST(ControllerResetTest, OneRunPerBuildOrReset) {
  const auto snap =
      snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  const auto fl = swfit::Scanner{}.scan(snap->kernel.pristine, all_api_names());
  db::ControllerConfig cfg;
  cfg.time_scale = 0.02;
  cfg.fault_stride = static_cast<int>(fl.faults.size());

  db::Controller warm(snap, cfg);
  (void)warm.run_baseline(200, 1);
  EXPECT_THROW(warm.run_baseline(200, 1), std::logic_error);
  EXPECT_THROW(warm.run_profile_mode(fl, 200, 1), std::logic_error);
  EXPECT_THROW(warm.run_iteration(fl, 1), std::logic_error);
  warm.reset(cfg);
  const auto after_reset = warm.run_iteration(fl, 1);
  EXPECT_EQ(after_reset.counters.faults_injected, 1);
  EXPECT_THROW(warm.run_iteration(fl, 1), std::logic_error);

  db::Controller cold(os::OsVersion::kVos2000, "apex", cfg);
  (void)cold.run_profile_mode(fl, 200, 1);
  EXPECT_THROW(cold.run_baseline(200, 1), std::logic_error);
}

}  // namespace
}  // namespace gf
