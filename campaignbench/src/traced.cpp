// Traced run: per-layer self time and counts of one workload's campaign.
//
// The run first times one untraced campaign pass exactly as the measured
// run does (the reference for both the output check and trace.overhead),
// then re-composes the same campaign from public parts under the span
// recorder. The re-composed cells must equal the reference pass's, so the
// layer numbers describe the program that was measured.
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "bench.h"
#include "store/key.h"
#include "swfit/scanner.h"
#include "tracer.h"

namespace cb {

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kOsBoot: return "os.boot";
    case Layer::kSwfitScan: return "swfit.scan";
    case Layer::kSnapshotCapture: return "snapshot.capture";
    case Layer::kPlan: return "depbench.plan";
    case Layer::kRebuild: return "depbench.rebuild";
    case Layer::kBaseline: return "depbench.baseline";
    case Layer::kExposure: return "depbench.exposure";
    case Layer::kProbe: return "trace.probe";
    case Layer::kProbeBuild: return "trace.probe_build";
    case Layer::kInjectRestore: return "swfit.inject_restore";
    case Layer::kWebHandle: return "web.handle";
    case Layer::kOsApi: return "os.api";
    case Layer::kSpecValidate: return "spec.validate";
    case Layer::kStorePut: return "store.put";
    case Layer::kStoreGet: return "store.get";
    case Layer::kMerge: return "depbench.merge";
    case Layer::kRender: return "depbench.render";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "id,layer,parent,task,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << i << ',' << layer_name(s.layer) << ','
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ',' << s.task << ',' << s.start_ns << ',' << s.end_ns << ','
        << (s.end_ns - s.start_ns - s.child_ns) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

namespace {

using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// Digest of the running executable: counts are only comparable between
/// runs of the same build.
std::string executable_digest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  gf::store::KeyBuilder kb;
  kb.str(bytes);
  return kb.finish().hex().substr(0, 12);
}

/// Deterministic counts must repeat exactly across traced runs of the same
/// build, workload, size and campaign: compare with the previous run's
/// file, if any, then record this run's. Returns what differed ("" =
/// nothing).
std::string check_repeat(const Counts& counts, const std::string& path) {
  std::string diff;
  std::ifstream in(path);
  std::string name;
  std::uint64_t value = 0;
  while (in >> name >> value) {
    for (const auto& [n, v] : counts) {
      if (n == name && v != value) {
        diff += n + " " + std::to_string(v) + " != previous " +
                std::to_string(value) + "; ";
      }
    }
  }
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [n, v] : counts) out << n << ' ' << v << '\n';
  return diff;
}

}  // namespace

int traced_run(const Args& a, const Context& ctx) {
  const Shape& shape = a.tiny ? a.workload->tiny : a.workload->full;
  // The first campaign of the benchmark seed: the one the measured run
  // times first and whose store its resumes read.
  const auto ro = runner_options(shape, campaign_seed(a.seed, 0));
  const std::string dir = a.out + "/" + std::string(a.workload->name);
  const std::size_t runs = fault_runs_per_pass(ro);
  Outcome o;
  std::vector<std::string> failures;

  std::filesystem::create_directories(dir);
  (void)setup_pass(ro);
  const Pass ref =
      run_pass(ro, shape.store ? dir + "/store" : "", true, dir + "/reference");
  o.attempted += runs;
  if (!ref.error.empty()) failures.push_back("reference pass " + ref.error);

  // Cleared so the set-up layers (kernel build, scan) are paid inside the
  // trace, as the measured set-up pays them.
  gf::swfit::clear_scan_cache();
  Tracer tr;
  Recomposed rc;
  const double c0 = process_cpu_s();
  const auto w0 = tr.now_ns();
  try {
    rc = recompose(ro, &tr, dir + "/trace-store");
  } catch (const std::exception& e) {
    failures.push_back(std::string("re-composition threw: ") + e.what());
  }
  const auto w1 = tr.now_ns();
  const double traced_cpu = process_cpu_s() - c0;
  o.attempted += runs;

  const std::string rc_cells = cells_digest(rc.cells);
  if (rc.obs && rc_cells != ref.cells) {
    failures.push_back("re-composed cells " + rc_cells +
                       " != run_campaign cells " + ref.cells);
  }
  const Pinned pin = find_pinned(a, ro.seed);
  if (!pin.cells.empty() && ref.cells != pin.cells) {
    failures.push_back("run_campaign cells " + ref.cells + " != pinned " +
                       pin.cells);
  }
  if (shape.store && !pin.cells.empty() && ref.artifacts != pin.artifacts) {
    failures.push_back("artifacts " + ref.artifacts + " != pinned " +
                       pin.artifacts);
  }
  if (!a.tiny && !ref.violation.empty()) failures.push_back(ref.violation);

  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_s{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> n{};
  double top_s = 0;
  for (const auto& s : tr.spans()) {
    const auto l = static_cast<std::size_t>(s.layer);
    self_s[l] += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
    ++n[l];
    if (s.parent == Tracer::kNoParent) {
      top_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  auto self = [&](Layer l) { return self_s[static_cast<std::size_t>(l)]; };
  auto count = [&](Layer l) { return n[static_cast<std::size_t>(l)]; };
  const double traced_wall = static_cast<double>(w1 - w0) * 1e-9;
  const double unattributed = std::max(0.0, traced_wall - top_s);

  auto obs_counter = [&](const char* name) -> std::uint64_t {
    return rc.obs ? rc.obs->metrics.counter(name) : 0;
  };
  const Counts counts = {
      {"depbench.rebuilds", count(Layer::kRebuild)},
      {"depbench.fault_runs", count(Layer::kExposure)},
      {"swfit.inject_restores", count(Layer::kInjectRestore)},
      {"os.api_calls", count(Layer::kOsApi)},
      {"web.requests", count(Layer::kWebHandle)},
      {"spec.validated_bytes", rc.validated_bytes},
      {"vm.instructions", obs_counter("vm.instructions")},
      {"vm.entries", obs_counter("vm.runs")},
      {"os.syscalls", obs_counter("os.syscalls")},
      {"store.puts", rc.store_puts},
      {"store.bytes", rc.store_bytes},
      {"store.gets", rc.store_gets},
  };
  if (count(Layer::kExposure) != runs) {
    failures.push_back("traced " + std::to_string(count(Layer::kExposure)) +
                       " fault runs, expected " + std::to_string(runs));
  }
  // The store workload's own run_campaign keeps an obs registry: the
  // re-composition must have executed exactly the same guest work.
  for (const char* name : {"vm.instructions", "vm.runs", "os.syscalls"}) {
    if (!ref.obs_counters.empty() &&
        ref.obs_counters.at(name) != obs_counter(name)) {
      failures.push_back(std::string(name) + " differs from run_campaign's");
    }
  }
  const std::string repeat = check_repeat(
      counts, dir + "/counts-" + (a.tiny ? "tiny" : "full") + "-campaign" +
                  std::to_string(ro.seed) + "-" + executable_digest() + ".txt");
  if (!repeat.empty()) failures.push_back("counts did not repeat: " + repeat);

  for (const auto& f : failures) std::printf("# FAILED %s\n", f.c_str());
  if (!failures.empty()) o.failed = o.attempted;
  o.correct = failures.empty();

  auto secs = [&](const char* name, double v) {
    o.metrics.push_back({name, "s", {v}});
  };
  secs("swfit.scan_s", self(Layer::kSwfitScan));
  secs("snapshot.capture_s", self(Layer::kSnapshotCapture));
  secs("os.boot_s", self(Layer::kOsBoot));
  secs("depbench.plan_s", self(Layer::kPlan));
  secs("depbench.rebuild_s", self(Layer::kRebuild));
  secs("depbench.baseline_s", self(Layer::kBaseline));
  secs("depbench.exposure_s", self(Layer::kExposure));
  secs("swfit.inject_restore_s", self(Layer::kInjectRestore));
  secs("os.api_s", self(Layer::kOsApi));
  secs("web.handle_self_s", self(Layer::kWebHandle));
  secs("spec.validate_s", self(Layer::kSpecValidate));
  secs("trace.probe_s", self(Layer::kProbe) + self(Layer::kProbeBuild));
  secs("store.put_s", self(Layer::kStorePut));
  secs("store.get_s", self(Layer::kStoreGet));
  secs("depbench.merge_s", self(Layer::kMerge));
  secs("depbench.render_s", self(Layer::kRender));
  for (const auto& [name, v] : counts) {
    const bool bytes = name.find("bytes") != std::string::npos;
    o.metrics.push_back(
        {name, bytes ? "bytes" : "count", {static_cast<double>(v)}});
  }
  o.metrics.push_back({"store.hit_ratio", "ratio",
                       {rc.store_gets ? static_cast<double>(rc.store_hits) /
                                            static_cast<double>(rc.store_gets)
                                      : 0.0}});
  o.metrics.push_back({"depbench.sched.utilization", "ratio",
                       {ref.sched.utilization()}});
  o.metrics.push_back({"depbench.sched.imbalance", "ratio",
                       {ref.sched.imbalance()}});
  o.metrics.push_back({"depbench.sched.steals", "count",
                       {static_cast<double>(ref.sched.steals())}});
  secs("trace.wall_s", traced_wall);
  secs("trace.unattributed_s", unattributed);
  o.metrics.push_back({"trace.overhead", "ratio",
                       {ref.cpu_s > 0 ? traced_cpu / ref.cpu_s : 0.0}});

  std::printf("# traced %.3f s wall, %.3f s CPU; untraced pass %.3f s CPU; "
              "%.1f%% of traced wall in named spans; %zu spans\n",
              traced_wall, traced_cpu, ref.cpu_s,
              traced_wall > 0 ? 100.0 * top_s / traced_wall : 0.0,
              tr.spans().size());
  const std::string spans_path = dir + "/spans.csv";
  tr.write_csv(spans_path);
  std::printf("# spans -> %s\n", spans_path.c_str());
  print_outcome(o, ctx, dir + "/result-trace1-seed" + std::to_string(a.seed) +
                            ".json");
  return o.correct ? 0 : 1;
}

}  // namespace cb
