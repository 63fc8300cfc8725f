#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "depbench/campaign_report.h"
#include "depbench/controller.h"
#include "depbench/scheduler.h"
#include "os/api.h"
#include "os/sources.h"
#include "snapshot/warmboot.h"
#include "spec/client.h"
#include "spec/fileset.h"
#include "spec/workload.h"
#include "store/campaign_codec.h"
#include "store/key.h"
#include "store/store.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "tracer.h"
#include "web/server.h"

namespace cb {

namespace dep = gf::depbench;

// Why these three: many-short-faults makes the fixed cost of a fault run
// (Controller rebuild, inject/restore, planning) dominate; few-long-faults
// runs the paper's full 10 s exposure, so serving (VM dispatch, the OsApi
// boundary, the web model, content checks) dominates and per-run fixed
// cost is bypassed; store-parallel is many-short-faults on every CPU with
// obs, profiler, store writes, all-hit store reads and every renderer on.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"many-short-faults", {1, 16, 3, 0.02, false}, {1, 128, 1, 0.02, false}},
      {"few-long-faults", {1, 96, 1, 1.0, false}, {1, 384, 1, 0.1, false}},
      {"store-parallel", {0, 16, 3, 0.02, true}, {0, 128, 1, 0.02, true}},
  };
  return w;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

dep::RunnerOptions runner_options(const Shape& shape, std::uint64_t seed) {
  dep::RunnerOptions ro;
  ro.iterations = shape.iterations;
  ro.stride = shape.stride;
  ro.time_scale = shape.time_scale;
  ro.baseline_window_ms = kBaselineWindowMs;
  ro.seed = seed;
  ro.jobs = shape.jobs > 0
                ? shape.jobs
                : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ro.warm_boot = true;
  ro.obs = shape.store;
  ro.profile = shape.store;
  return ro;
}

namespace {

std::vector<std::string> api_names() {
  std::vector<std::string> names;
  for (const auto& f : gf::os::api_functions()) names.emplace_back(f.name);
  return names;
}

std::size_t positions(std::size_t faults, std::size_t stride) {
  return faults == 0 ? 0 : (faults + stride - 1) / stride;
}

void key_window(gf::store::KeyBuilder& kb, const gf::spec::WindowMetrics& m) {
  kb.f64(m.duration_ms).u64(m.ops).u64(m.errors).u64(m.bytes);
  kb.f64(m.thr).f64(m.rtm_ms).f64(m.er_pct);
  kb.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(m.spc)));
  kb.f64(m.cc_pct);
}

/// The controller configuration the runner gives a cell (runner.cpp's
/// cell_config); the re-composition must match it field for field.
dep::ControllerConfig cell_config(const std::string& server,
                                  const dep::RunnerOptions& ro) {
  dep::ControllerConfig cfg;
  cfg.connections = server == "apex" ? 37 : 34;
  cfg.time_scale = ro.time_scale;
  cfg.fault_stride = ro.stride;
  cfg.trace = ro.trace;
  cfg.trace_probe_per_call = ro.trace_probe_per_call;
  cfg.profile_stride = ro.profile ? ro.profile_stride : 0;
  return cfg;
}

/// Replays one fault run's request stream on a private SUB with a host
/// clock on every OsApi call, so the exposure's time can be split into the
/// OsApi boundary (VM included), the host server model and the client's
/// content checks, which the Controller does not expose. Serves the same
/// number of requests the exposure served, or fewer if the server leaves
/// the running state first. Adds the response bytes it checked to
/// `validated_bytes`.
void serve_probe(Tracer& tr, const gf::snapshot::WarmSnapshot& snap,
                 const gf::swfit::FaultLocation& fault, std::uint64_t seed,
                 std::uint64_t requests, std::uint64_t& validated_bytes) {
  Tracer::Scope probe(&tr, Layer::kProbe);
  std::unique_ptr<gf::os::Kernel> kernel;
  std::unique_ptr<gf::os::OsApi> api;
  std::unique_ptr<gf::spec::Fileset> fileset;
  std::unique_ptr<gf::web::WebServer> server;
  {
    Tracer::Scope s(&tr, Layer::kProbeBuild);
    kernel = std::make_unique<gf::os::Kernel>(snap.kernel);
    api = std::make_unique<gf::os::OsApi>(*kernel);
    fileset = std::make_unique<gf::spec::Fileset>(kernel->disk(), snap.fileset,
                                                  /*populate=*/false);
    server = gf::web::make_server(snap.server_name, *api);
    server->restore_process(snap.server);
  }
  api->set_call_hook([&tr](const std::string&) { tr.open(Layer::kOsApi); });
  api->set_post_call_hook(
      [&tr](const std::string&, const gf::os::ApiResult&) { tr.close(); });
  gf::swfit::Injector injector(*kernel);
  {
    Tracer::Scope s(&tr, Layer::kInjectRestore);
    if (!injector.inject(fault)) {
      throw std::runtime_error("serve probe: fault window mismatch");
    }
  }
  gf::spec::WorkloadGenerator gen(*fileset, seed);
  for (std::uint64_t i = 0; i < requests; ++i) {
    const auto req = gen.next();
    gf::web::Response resp;
    {
      Tracer::Scope s(&tr, Layer::kWebHandle);
      resp = server->handle(req);
    }
    if (server->state() != gf::web::ServerState::kRunning) break;
    Tracer::Scope s(&tr, Layer::kSpecValidate);
    (void)gf::spec::SpecClient::validate(req, resp, gen.size_of(req.path));
    validated_bytes += resp.body.size();
  }
  Tracer::Scope s(&tr, Layer::kInjectRestore);
  injector.restore();
}

}  // namespace

double setup_pass(const dep::RunnerOptions& ro) {
  gf::swfit::clear_scan_cache();
  const double t0 = wall_now_s();
  const auto names = api_names();
  for (const auto v : ro.versions) {
    gf::os::Kernel k(v);
    (void)gf::swfit::Scanner{}.scan(k.pristine_image(), names);
  }
  for (const auto v : ro.versions) {
    for (const auto& server : ro.servers) {
      (void)gf::snapshot::capture_warm_boot(v, server);
    }
  }
  return wall_now_s() - t0;
}

std::size_t fault_runs_per_pass(const dep::RunnerOptions& ro) {
  const auto names = api_names();
  std::size_t runs = 0;
  for (const auto v : ro.versions) {
    gf::os::Kernel k(v);
    const auto fl = gf::swfit::Scanner{}.scan(k.pristine_image(), names);
    runs += positions(fl.faults.size(),
                      static_cast<std::size_t>(std::max(1, ro.stride))) *
            ro.servers.size();
  }
  return runs * static_cast<std::size_t>(std::max(0, ro.iterations));
}

std::string cells_digest(const std::vector<dep::ExperimentCell>& cells) {
  gf::store::KeyBuilder kb;
  kb.u64(cells.size());
  for (const auto& c : cells) {
    kb.str(c.os_name).str(c.server_name);
    key_window(kb, c.baseline);
    kb.u64(c.iterations.size());
    for (const auto& it : c.iterations) {
      key_window(kb, it.metrics);
      const auto& k = it.counters;
      for (const int v : {k.mis, k.kns, k.kcp, k.faults_injected,
                          k.self_restarts}) {
        kb.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
      }
      kb.u64(it.activations.size());
    }
  }
  return kb.finish().hex();
}

std::string shape_violation(const std::vector<dep::ExperimentCell>& cells) {
  auto er = [&](const std::string& os, const std::string& server) {
    for (const auto& c : cells) {
      if (c.os_name == os && c.server_name == server) {
        return dep::derive_metrics(c).erf_pct;
      }
    }
    throw std::runtime_error("shape check: missing cell " + os + "/" + server);
  };
  std::string why;
  for (const char* os : {"VOS-2000", "VOS-XP"}) {
    const double apex = er(os, "apex");
    const double abyssal = er(os, "abyssal");
    if (!(apex < abyssal)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: apex ER%%f %.3f not below abyssal %.3f; ",
                    os, apex, abyssal);
      why += buf;
    }
  }
  return why;
}

std::string Artifacts::digest() const {
  gf::store::KeyBuilder kb;
  for (const auto& [name, bytes] : files) {
    kb.str(name);
    if (name != "chrome_trace.json") {
      kb.str(bytes);
      continue;
    }
    // Host-view events ("ph": "X" on pid 1) are wall-clock task bounds.
    std::istringstream in(bytes);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"ph\": \"X\", \"pid\": 1,", 0) == 0) continue;
      kb.str(line);
    }
  }
  return kb.finish().hex();
}

Artifacts render_artifacts(const std::vector<dep::ExperimentCell>& cells,
                           const dep::RunnerOptions& ro,
                           const dep::CampaignObs* obs) {
  Artifacts a;
  a.files.emplace_back("manifest.json",
                       dep::campaign_manifest_json(cells, ro, obs));
  a.files.emplace_back("report.html", dep::campaign_html_report(cells, ro, obs));
  if (obs == nullptr) return a;
  std::ostringstream journal;
  dep::write_campaign_journal(journal, *obs);
  a.files.emplace_back("journal.jsonl", journal.str());
  a.files.emplace_back("chrome_trace.json", dep::campaign_chrome_trace(*obs));
  if (ro.profile) {
    a.files.emplace_back("profile.json",
                         dep::campaign_profile_json(cells, ro, *obs));
    a.files.emplace_back("flamegraph.txt", dep::campaign_flamegraph(*obs));
  }
  return a;
}

void write_artifacts(const Artifacts& a, const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& [name, bytes] : a.files) {
    std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("cannot write " + dir + "/" + name);
  }
}

void remove_tree(const std::string& dir) {
  std::filesystem::remove_all(dir);
}

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Recomposed recompose(const dep::RunnerOptions& ro, Tracer* tr,
                     const std::string& store_dir) {
  using Scope = Tracer::Scope;
  const auto names = api_names();
  const auto stride = static_cast<std::size_t>(std::max(1, ro.stride));
  const auto iters = static_cast<std::size_t>(std::max(0, ro.iterations));
  const std::size_t n_servers = ro.servers.size();
  const std::size_t n_cells = ro.versions.size() * n_servers;

  // The runner scans each version from a freshly built kernel on every
  // campaign (the scan itself is memoized process-wide); so does this.
  std::vector<gf::swfit::Faultload> fls;
  for (const auto v : ro.versions) {
    std::unique_ptr<gf::os::Kernel> k;
    {
      Scope s(tr, Layer::kOsBoot);
      k = std::make_unique<gf::os::Kernel>(v);
    }
    Scope s(tr, Layer::kSwfitScan);
    fls.push_back(gf::swfit::Scanner{}.scan(k->pristine_image(), names));
  }
  auto fl_of = [&](std::size_t cell) -> const gf::swfit::Faultload& {
    return fls[cell / n_servers];
  };

  {
    // Timed only: the runner makes this plan; its chunks never change a
    // result.
    Scope s(tr, Layer::kPlan);
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      const auto costs = dep::estimate_fault_costs(fl_of(cell), {});
      std::vector<double> pos_cost(positions(costs.size(), stride));
      for (std::size_t p = 0; p < pos_cost.size(); ++p) {
        pos_cost[p] = costs[p * stride];
      }
      for (std::size_t it = 0; it < iters; ++it) {
        (void)dep::plan_chunks(pos_cost, static_cast<std::size_t>(ro.jobs), 0);
      }
    }
  }

  std::vector<std::shared_ptr<const gf::snapshot::WarmSnapshot>> warm(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    Scope s(tr, Layer::kSnapshotCapture);
    warm[cell] = gf::snapshot::capture_warm_boot(ro.versions[cell / n_servers],
                                                 ro.servers[cell % n_servers]);
  }

  Recomposed out;
  out.cells.resize(n_cells);
  // Task obs is always on under the tracer: the serve probe replays as many
  // requests as the exposure's client issued (its client.ops counter).
  const bool with_obs = ro.obs || tr != nullptr;
  std::vector<std::size_t> slot_base(n_cells);
  std::size_t total_slots = 0;
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    slot_base[cell] = total_slots;
    total_slots += 1 + iters * positions(fl_of(cell).faults.size(), stride);
  }
  if (with_obs) {
    out.obs = std::make_unique<dep::CampaignObs>();
    out.obs->tasks.resize(total_slots);
  }

  std::unique_ptr<gf::store::CampaignStore> st;
  std::vector<gf::store::ResultKey> keys;
  if (tr != nullptr && !store_dir.empty()) {
    remove_tree(store_dir);
    st = std::make_unique<gf::store::CampaignStore>(store_dir);
  }
  auto commit = [&](std::size_t cell, std::size_t task,
                    const std::string& label,
                    const dep::IterationResult& result,
                    const dep::TaskObsSlot* slot) {
    if (!st) return;
    Scope s(tr, Layer::kStorePut);
    gf::store::RunRecord rec;
    rec.cell = std::string(gf::os::os_version_name(ro.versions[cell / n_servers])) +
               "/" + ro.servers[cell % n_servers];
    rec.label = label;
    rec.result = result;
    rec.has_obs = slot != nullptr;
    if (slot != nullptr) rec.obs = slot->obs;
    const auto key = gf::store::KeyBuilder().u64(cell).u64(task).finish();
    const auto payload = gf::store::encode_run_record(rec);
    st->put(key, payload);
    keys.push_back(key);
    out.store_bytes += payload.size();
  };

  std::vector<std::vector<dep::IterationResult>> runs(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    const auto& fl = fl_of(cell);
    const auto& server = ro.servers[cell % n_servers];
    const std::string cell_name =
        std::string(gf::os::os_version_name(ro.versions[cell / n_servers])) +
        "/" + server;
    const std::size_t npos = positions(fl.faults.size(), stride);
    auto slot_at = [&](std::size_t task) -> dep::TaskObsSlot* {
      return out.obs ? &out.obs->tasks[slot_base[cell] + task] : nullptr;
    };

    if (tr != nullptr) tr->set_task(0);
    {
      auto cfg = cell_config(server, ro);
      auto* slot = slot_at(0);
      if (slot != nullptr) {
        slot->cell = cell_name;
        slot->label = "baseline";
        cfg.obs = &slot->obs;
      }
      std::unique_ptr<dep::Controller> ctl;
      {
        Scope s(tr, Layer::kRebuild);
        ctl = std::make_unique<dep::Controller>(warm[cell], cfg);
      }
      {
        Scope s(tr, Layer::kBaseline);
        out.cells[cell].baseline = ctl->run_profile_mode(
            fl, ro.baseline_window_ms, dep::derive_seed(ro.seed, cell, 0));
      }
      dep::IterationResult rec;
      rec.metrics = out.cells[cell].baseline;
      commit(cell, 0, "baseline", rec, slot);
    }

    runs[cell].resize(iters * npos);
    for (std::size_t it = 0; it < iters; ++it) {
      for (std::size_t pos = 0; pos < npos; ++pos) {
        const std::size_t task = 1 + it * npos + pos;
        const std::size_t fault_index = pos * stride;
        const auto label =
            "iter" + std::to_string(it) + ".f" + std::to_string(fault_index);
        if (tr != nullptr) tr->set_task(static_cast<std::uint32_t>(task));
        auto cfg = cell_config(server, ro);
        cfg.fault_offset = static_cast<int>(fault_index);
        cfg.fault_stride =
            static_cast<int>(std::max<std::size_t>(fl.faults.size(), 1));
        auto* slot = slot_at(task);
        if (slot != nullptr) {
          slot->cell = cell_name;
          slot->label = label;
          cfg.obs = &slot->obs;
        }
        const auto seed = dep::derive_seed(ro.seed, cell, task);
        std::unique_ptr<dep::Controller> ctl;
        {
          Scope s(tr, Layer::kRebuild);
          ctl = std::make_unique<dep::Controller>(warm[cell], cfg);
        }
        auto& result = runs[cell][it * npos + pos];
        {
          Scope s(tr, Layer::kExposure);
          result = ctl->run_iteration(fl, seed);
        }
        ctl.reset();
        if (tr != nullptr) {
          serve_probe(*tr, *warm[cell], fl.faults[fault_index], seed,
                      slot->obs.metrics.counter("client.ops"),
                      out.validated_bytes);
        }
        commit(cell, task, label, result, slot);
      }
    }
  }

  {
    Scope s(tr, Layer::kMerge);
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      auto& c = out.cells[cell];
      c.os_name = gf::os::os_version_name(ro.versions[cell / n_servers]);
      c.server_name = ro.servers[cell % n_servers];
      const std::size_t npos = positions(fl_of(cell).faults.size(), stride);
      for (std::size_t it = 0; it < iters; ++it) {
        const auto first =
            runs[cell].begin() + static_cast<std::ptrdiff_t>(it * npos);
        c.iterations.push_back(dep::merge_fault_runs(
            std::vector<dep::IterationResult>(
                first, first + static_cast<std::ptrdiff_t>(npos))));
      }
    }
    if (out.obs) out.obs->merge_tasks();
  }
  if (tr == nullptr) return out;

  std::uint64_t hits = 0;
  std::vector<std::uint8_t> payload;
  for (const auto& key : keys) {
    Scope s(tr, Layer::kStoreGet);
    if (st->get(key, payload)) {
      (void)gf::store::decode_run_record(payload);
      ++hits;
    }
  }
  if (hits != keys.size()) {
    throw std::runtime_error("traced store drive: " +
                             std::to_string(keys.size() - hits) +
                             " records not read back");
  }
  {
    Scope s(tr, Layer::kRender);
    (void)render_artifacts(out.cells, ro, ro.obs ? out.obs.get() : nullptr);
  }
  out.store_puts = keys.size();
  out.store_gets = keys.size();
  out.store_hits = hits;
  return out;
}

}  // namespace cb
