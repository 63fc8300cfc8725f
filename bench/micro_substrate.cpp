// Substrate micro-benchmarks (google-benchmark): VM dispatch rate, MiniC
// compilation, G-SWFIT scanning, inject/restore cost, end-to-end OS API
// call latency and one served web request. These quantify the supporting
// claims: faultload generation is fast ("less than 5 minutes" in the paper)
// and runtime injection is a cheap patch operation.
#include <benchmark/benchmark.h>

#include "depbench/controller.h"
#include "minic/compiler.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "os/api.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "snapshot/warmboot.h"
#include "spec/fileset.h"
#include "spec/workload.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "vm/machine.h"

namespace {

using namespace gf;

isa::Image dispatch_image() {
  // Tight arithmetic loop: measures raw interpreter throughput. `cold` is
  // never called from `f` — it exists so a fault-window watch can be armed
  // inside the code hull without any armed slot on the measured path.
  return minic::compile(
      "fn cold(x) { return x + 1; } "
      "fn f(n) { var s = 0; var i = 0; while (i < n) { s = s + i * 3; "
      "i = i + 1; } return s; }",
      "bench", 0x1000);
}

void run_dispatch(benchmark::State& state, bool predecode,
                  bool arm_cold_watch = false, bool fusion = true,
                  std::uint64_t sample_stride = 0) {
  const auto img = dispatch_image();
  vm::Machine m;
  m.load_image(img);
  m.set_predecode(predecode);
  m.set_fusion(fusion);
  if (arm_cold_watch) {
    const auto cold = img.find_symbol("cold")->addr;
    m.arm_watch(cold, cold + 2 * isa::kInstrSize);
  }
  if (sample_stride > 0) m.arm_sampler(sample_stride);
  const auto addr = img.find_symbol("f")->addr;
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    const auto r = m.call(addr, {n}, 1u << 30);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(state.iterations() * n * 10);  // ~10 instrs/iter
}

void BM_VmDispatch(benchmark::State& state) {
  run_dispatch(state, true);  // the default machine configuration
}
BENCHMARK(BM_VmDispatch)->Arg(1000)->Arg(100000);

/// Same loop with the predecode side-table explicitly enabled — one name
/// per dispatch strategy keeps the decode-cache win visible in the
/// trajectory even if the default ever changes.
void BM_VmDispatchPredecoded(benchmark::State& state) {
  run_dispatch(state, true);
}
BENCHMARK(BM_VmDispatchPredecoded)->Arg(100000);

/// Same loop on the fallback path: per-step isa::decode plus the
/// last-hit-cached in_code() range walk.
void BM_VmDispatchNoPredecode(benchmark::State& state) {
  run_dispatch(state, false);
}
BENCHMARK(BM_VmDispatchNoPredecode)->Arg(100000);

/// A/B partner of BM_VmDispatch with superinstruction fusion disabled: the
/// delta against BM_VmDispatch *is* the fusion win on this loop (the
/// threaded-vs-switch lowering is a configure-time choice, reported in the
/// benchmark context as `vm_dispatch`). CI uploads both sides.
void BM_VmDispatchNoFusion(benchmark::State& state) {
  run_dispatch(state, true, /*arm_cold_watch=*/false, /*fusion=*/false);
}
BENCHMARK(BM_VmDispatchNoFusion)->Arg(100000);

/// Dispatch with a fault-window watch armed on a *never-executed* function:
/// the src/trace cost model is that a disarmed (not-hit) watch is one
/// never-taken branch on a byte the validity check already loads, so this
/// must track BM_VmDispatch within noise (tests/test_trace.cpp guards the
/// ratio; the acceptance bar is 3%).
void BM_VmDispatchTraceDisarmed(benchmark::State& state) {
  run_dispatch(state, true, /*arm_cold_watch=*/true);
}
BENCHMARK(BM_VmDispatchTraceDisarmed)->Arg(100000);

/// Dispatch with the deterministic PC sampler armed at the campaign's
/// default stride (4096 cycles): the armed cost is one decrement plus a
/// [[unlikely]] branch per retired instruction, with the map insert
/// amortised 1/stride. The BENCH_obs.json bar is >= 80% of BM_VmDispatch
/// armed; disarmed sampling is covered by BM_VmDispatch itself (the
/// countdown idles at 2^62, so the branch never fires).
void BM_VmDispatchProfiled(benchmark::State& state) {
  run_dispatch(state, true, /*arm_cold_watch=*/false, /*fusion=*/true,
               /*sample_stride=*/4096);
}
BENCHMARK(BM_VmDispatchProfiled)->Arg(100000);

isa::Image minic_dispatch_image() {
  // The campaign's idiom mix: a MiniC wide-string transcode loop shaped like
  // the VOS string routines (RtlUnicodeToMultiByteN and friends). Every
  // `src + i * 2` is MiniC's push / ld / movi / mul / mov / pop / add
  // sequence, the code the fused triples target.
  return minic::compile(
      "fn f(src, dst, n) { var out = 0; var i = 0; "
      "while (i < n) { var lo = load8(src + i * 2); "
      "var hi = load8(src + i * 2 + 1); var c = lo; "
      "if (hi != 0) { c = 63; } store8(dst + out, c); "
      "out = out + 1; i = i + 1; } return out; }",
      "bench", 0x1000);
}

void run_minic_dispatch(benchmark::State& state, bool fusion) {
  constexpr std::uint64_t kSrc = 0x100000, kDst = 0x200000;
  const auto img = minic_dispatch_image();
  vm::Machine m;
  m.load_image(img);
  m.set_fusion(fusion);
  const std::int64_t n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint8_t wide[2] = {static_cast<std::uint8_t>('a' + i % 26), 0};
    m.write_bytes(kSrc + static_cast<std::uint64_t>(i) * 2, wide, 2);
  }
  const auto addr = img.find_symbol("f")->addr;
  const std::uint64_t before = m.dispatch_stats().instructions;
  for (auto _ : state) {
    const auto r = m.call(addr,
                          {static_cast<std::int64_t>(kSrc),
                           static_cast<std::int64_t>(kDst), n},
                          1u << 30);
    benchmark::DoNotOptimize(r.ret);
  }
  // Exact retired instructions, from the machine's own tally.
  state.SetItemsProcessed(static_cast<std::int64_t>(
      m.dispatch_stats().instructions - before));
}

/// Dispatch rate on compiled MiniC (items = retired instructions): the
/// instruction stream the guest OS actually runs, unlike the hand-shaped
/// arithmetic loop of BM_VmDispatch.
void BM_VmDispatchMiniC(benchmark::State& state) {
  run_minic_dispatch(state, /*fusion=*/true);
}
BENCHMARK(BM_VmDispatchMiniC)->Arg(4096);

/// A/B partner of BM_VmDispatchMiniC with superinstruction fusion disabled.
void BM_VmDispatchMiniCNoFusion(benchmark::State& state) {
  run_minic_dispatch(state, /*fusion=*/false);
}
BENCHMARK(BM_VmDispatchMiniCNoFusion)->Arg(4096);

void BM_MiniCCompileOs(benchmark::State& state) {
  for (auto _ : state) {
    auto img = minic::compile({os::common_source(),
                               os::ntdll_source(os::OsVersion::kVosXp),
                               os::kernel32_source(os::OsVersion::kVosXp)},
                              "vos", 0x10000);
    benchmark::DoNotOptimize(img.size());
  }
}
BENCHMARK(BM_MiniCCompileOs);

void BM_FaultloadScan(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVosXp);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  swfit::Scanner scanner;
  for (auto _ : state) {
    auto fl = scanner.scan(kernel.pristine_image(), fns);
    benchmark::DoNotOptimize(fl.faults.size());
  }
}
BENCHMARK(BM_FaultloadScan);

void BM_InjectRestore(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  swfit::Injector injector(kernel);
  std::size_t i = 0;
  for (auto _ : state) {
    injector.inject(fl.faults[i++ % fl.faults.size()]);
    injector.restore();
  }
}
BENCHMARK(BM_InjectRestore);

/// Inject + execute + restore + execute: on top of the patch cost this
/// realizes the predecode re-decode of the touched slots and the dispatch
/// of the patched/restored window, i.e. the full per-fault-swap overhead a
/// campaign pays.
void BM_InjectRestoreInvalidate(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  swfit::Injector injector(kernel);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& f = fl.faults[i++ % fl.faults.size()];
    const auto addr = kernel.api_addr(f.function);
    injector.inject(f);
    benchmark::DoNotOptimize(kernel.machine().call(addr, {0, 0}, 20000).trap);
    injector.restore();
    benchmark::DoNotOptimize(kernel.machine().call(addr, {0, 0}, 20000).trap);
  }
}
BENCHMARK(BM_InjectRestoreInvalidate);

void BM_ApiCallAlloc(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  for (auto _ : state) {
    const auto r = api.rtl_alloc(256);
    benchmark::DoNotOptimize(r.value);
    api.rtl_free(static_cast<std::uint64_t>(r.value));
  }
}
BENCHMARK(BM_ApiCallAlloc);

/// A/B partner of BM_ApiCallAlloc with the obs sink attached: the only live
/// per-call instrumentation in the whole substrate is this one null-check +
/// ApiMetrics::record, so the delta against BM_ApiCallAlloc *is* the
/// observability overhead of an OS API call (BENCH_obs.json tracks the
/// ratio; everything else is harvested at run boundaries).
void BM_ApiCallAllocObs(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  obs::ApiMetrics sink;
  api.set_metrics(&sink);
  for (auto _ : state) {
    const auto r = api.rtl_alloc(256);
    benchmark::DoNotOptimize(r.value);
    api.rtl_free(static_cast<std::uint64_t>(r.value));
  }
}
BENCHMARK(BM_ApiCallAllocObs);

/// Journal ring append: span begin/end pair per iteration. Bounded ring,
/// no allocation once warm — the cost a controller pays per recorded event.
void BM_JournalAppend(benchmark::State& state) {
  obs::Journal j;
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    j.begin("fault", 1.0, cycle);
    j.end("fault", 2.0, cycle + 1);
    cycle += 2;
  }
  benchmark::DoNotOptimize(j.size());
}
BENCHMARK(BM_JournalAppend);

void BM_ApiCallOpenReadClose(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  kernel.disk().add_file("/bench", std::vector<std::uint8_t>(4096, 7));
  os::OsApi api(kernel);
  api.write_cstr(os::OsApi::kPathSlot, "/bench");
  for (auto _ : state) {
    const auto h = api.nt_open_file(os::OsApi::kPathSlot);
    api.nt_read_file(h.value, 0x150000, 4096);
    api.nt_close(h.value);
  }
}
BENCHMARK(BM_ApiCallOpenReadClose);

/// Dirty a handful of kernel-data pages the way a slot's guest work would,
/// so both reboot benches measure resetting a *used* kernel, not a pristine
/// one (the dirtying itself is a few checked stores — negligible next to
/// either reboot path).
void dirty_kernel(vm::Machine& m) {
  for (std::uint64_t off = 64; off < 4 * vm::Machine::kDirtyPageSize;
       off += vm::Machine::kDirtyPageSize) {
    benchmark::DoNotOptimize(m.write_u64(os::layout::kHeapCtl + off, 1));
  }
}

/// Reference: a full cold reboot per iteration (memset the kernel data
/// region, re-execute heap_init/vm_init on the VM).
void BM_ColdReboot(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  kernel.set_warm_reboot(false);
  for (auto _ : state) {
    dirty_kernel(kernel.machine());
    kernel.reboot();
  }
}
BENCHMARK(BM_ColdReboot);

/// The warm path: replay the recorded boot write-log over only the pages
/// dirtied since the last reboot. The snapshot subsystem's acceptance bar
/// is >= 10x BM_ColdReboot (see BENCH_snapshot.json).
void BM_SnapshotRestore(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);  // first boot records the log
  for (auto _ : state) {
    dirty_kernel(kernel.machine());
    kernel.reboot();
  }
}
BENCHMARK(BM_SnapshotRestore);

/// Full cold SUB bring-up (snapshot::bring_up): MiniC compile + boot + file
/// set + OS reboot + server start + warm-up serve — what every campaign task
/// pays without warm-boot snapshots.
void BM_ControllerBuildCold(benchmark::State& state) {
  for (auto _ : state) {
    depbench::Controller ctl(os::OsVersion::kVos2000, "apex");
    benchmark::DoNotOptimize(ctl.kernel().ticks());
  }
}
BENCHMARK(BM_ControllerBuildCold);

/// Warm SUB bring-up: reconstruct the controller from the shared per-cell
/// snapshot (restore machine state + COW disk + server process image).
void BM_ControllerBuildWarm(benchmark::State& state) {
  const auto snap = snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  for (auto _ : state) {
    depbench::Controller ctl(snap);
    benchmark::DoNotOptimize(ctl.kernel().ticks());
  }
}
BENCHMARK(BM_ControllerBuildWarm);

/// Warm SUB reuse: return a used controller to the same snapshot in place.
/// Each iteration first re-dirties the pages one short single-fault run
/// leaves dirty (learned once, up front), so the reset copies back a fault
/// run's worth of memory — the per-run cost the campaign runner pays instead
/// of BM_ControllerBuildWarm.
void BM_ControllerResetWarm(benchmark::State& state) {
  const auto snap = snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(snap->kernel.pristine, fns);
  depbench::ControllerConfig cfg;
  cfg.time_scale = 0.02;
  cfg.fault_stride = static_cast<int>(fl.faults.size());
  depbench::Controller ctl(snap, cfg);
  (void)ctl.run_iteration(fl, 1);
  auto& m = ctl.kernel().machine();
  constexpr auto kPage = vm::Machine::kDirtyPageSize;
  std::vector<std::uint64_t> dirty;
  for (std::uint64_t a = 0; a < m.mem_size(); a += kPage) {
    if (m.page_dirty(a)) dirty.push_back(a);
  }
  for (auto _ : state) {
    for (const auto a : dirty) m.mark_dirty(a, kPage);
    ctl.reset(cfg);
    benchmark::DoNotOptimize(ctl.kernel().ticks());
  }
  state.counters["dirty_pages"] = static_cast<double>(dirty.size());
}
BENCHMARK(BM_ControllerResetWarm);

/// Host serving path, fault-free: one SPEC-mix request per iteration against
/// a server on a warm snapshot — the VM, the OsApi boundary and the host web
/// model together, without the client's content checks. The controller is
/// reset to the snapshot after every pass over the pregenerated requests
/// (outside the timing) so the POST log and the guest heap stay bounded.
void BM_ServeRequest(benchmark::State& state, const char* server) {
  const auto snap = snapshot::capture_warm_boot(os::OsVersion::kVos2000, server);
  depbench::Controller ctl(snap);
  const spec::Fileset fs(ctl.kernel().disk(), {}, /*populate=*/false);
  spec::WorkloadGenerator gen(fs, 1);
  std::vector<web::Request> reqs(1024);
  for (auto& r : reqs) r = gen.next();
  std::size_t next = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    if (next == reqs.size()) {
      state.PauseTiming();
      ctl.reset({});
      next = 0;
      state.ResumeTiming();
    }
    const auto resp = ctl.server().handle(reqs[next++]);
    bytes += static_cast<std::int64_t>(resp.body.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(bytes);
}
BENCHMARK_CAPTURE(BM_ServeRequest, apex, "apex");
BENCHMARK_CAPTURE(BM_ServeRequest, abyssal, "abyssal");

void BM_FaultloadSerialize(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVosXp);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  for (auto _ : state) {
    const auto text = fl.serialize();
    auto back = swfit::Faultload::parse(text);
    benchmark::DoNotOptimize(back.faults.size());
  }
}
BENCHMARK(BM_FaultloadSerialize);

}  // namespace

int main(int argc, char** argv) {
  // Report which interpreter lowering this binary was built with — the
  // micro schema (tools/json_check --schema micro) and the A/B comparison
  // need it to interpret BM_VmDispatch* numbers.
  benchmark::AddCustomContext("vm_dispatch", vm::Machine::dispatch_kind());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
