#include "depbench/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "isa/isa.h"
#include "snapshot/warmboot.h"
#include "store/campaign_codec.h"
#include "swfit/scanner.h"
#include "util/log.h"
#include "util/rng.h"

namespace gf::depbench {

namespace {

std::vector<std::string> all_api_names() {
  std::vector<std::string> names;
  for (const auto& f : os::api_functions()) names.emplace_back(f.name);
  return names;
}

ControllerConfig cell_config(const std::string& server,
                             const RunnerOptions& opt) {
  ControllerConfig cfg;
  cfg.connections = server == "apex" ? 37 : 34;
  cfg.time_scale = opt.time_scale;
  cfg.fault_stride = opt.stride;
  cfg.trace = opt.trace;
  cfg.trace_probe_per_call = opt.trace_probe_per_call;
  cfg.profile_stride = opt.profile ? opt.profile_stride : 0;
  return cfg;
}

void key_instrs(store::KeyBuilder& kb, const std::vector<isa::Instr>& code) {
  std::vector<std::uint8_t> raw(code.size() * isa::kInstrSize);
  for (std::size_t i = 0; i < code.size(); ++i) {
    isa::encode(code[i], raw.data() + i * isa::kInstrSize);
  }
  kb.bytes(raw.data(), raw.size());
}

/// Content digest of ONE fault: everything an injected run can observe of
/// it. Keyed per fault (not per faultload) so editing one fault type's
/// mutations invalidates only that type's cached runs.
std::uint64_t fault_digest(const swfit::FaultLocation& f) {
  store::KeyBuilder kb;
  kb.u64(static_cast<std::uint64_t>(f.type)).str(f.function).u64(f.addr);
  key_instrs(kb, f.original);
  key_instrs(kb, f.mutated);
  const auto k = kb.finish();
  return k.hi ^ k.lo;
}

/// Digest of what profile mode sees of the schedule: the *original* windows
/// only (profile mode verifies but never patches), over the sampled
/// positions. Mutation edits therefore keep the baseline cached.
std::uint64_t profile_digest(const swfit::Faultload& fl, std::size_t stride) {
  store::KeyBuilder kb;
  for (std::size_t i = 0; i < fl.faults.size(); i += stride) {
    const auto& f = fl.faults[i];
    kb.u64(static_cast<std::uint64_t>(f.type)).str(f.function).u64(f.addr);
    key_instrs(kb, f.original);
  }
  const auto k = kb.finish();
  return k.hi ^ k.lo;
}

/// Key prefix shared by every run of one cell: schema, target build,
/// cell identity and index, the full controller/client configuration, seed
/// and schedule shape. Everything a run's result depends on except
/// (kind, iteration, position, fault content).
store::KeyBuilder cell_key_base(const RunnerOptions& opt,
                                const ControllerConfig& cfg,
                                const swfit::Faultload& fl,
                                os::OsVersion version,
                                const std::string& server, std::size_t cell,
                                std::size_t stride, std::size_t positions) {
  store::KeyBuilder kb;
  kb.u64(store::kResultSchema);
  kb.u64(fl.digest).str(fl.target);
  // Run seeds are derive_seed(seed, cell, task): the cell's position in the
  // campaign matrix shapes every result, so the same (version, server) at
  // another index must read as a miss.
  kb.str(os::os_version_name(version)).str(server).u64(cell);
  kb.f64(cfg.fault_exposure_ms).f64(cfg.detect_ms).f64(cfg.admin_restart_ms);
  kb.u64(static_cast<std::uint64_t>(cfg.connections)).f64(cfg.time_scale);
  kb.u64(static_cast<std::uint64_t>(cfg.faults_per_slot));
  kb.u64(static_cast<std::uint64_t>(cfg.self_restart_budget));
  // trace and obs shape what a run records (activations, journal, registry);
  // a record cached without them must read as a miss, never as a wrong hit.
  kb.u64(cfg.trace ? 1 : 0).u64(cfg.trace_probe_per_call ? 1 : 0);
  kb.u64(opt.obs ? 1 : 0);
  // The sampling stride shapes the recorded profile (0 = off), so records
  // cached at one stride never serve a campaign run at another.
  kb.u64(cfg.profile_stride);
  const auto& cl = cfg.client;
  kb.u64(static_cast<std::uint64_t>(cl.connections));
  kb.f64(cl.conn_bandwidth_kbps).f64(cl.conforming_kbps);
  kb.f64(cl.max_error_pct).f64(cl.base_latency_ms).f64(cl.cycles_per_ms);
  kb.f64(cl.op_timeout_ms).f64(cl.error_latency_ms);
  kb.f64(cl.spc_batch_ms);
  kb.u64(opt.seed).u64(stride).u64(positions);
  return kb;
}

/// Worker threads for `opt.jobs` (0 = hardware concurrency).
std::size_t worker_count(const RunnerOptions& opt) {
  return opt.jobs > 0 ? static_cast<std::size_t>(opt.jobs)
                      : std::max(1u, std::thread::hardware_concurrency());
}

/// Run kinds folded after the cell prefix (baseline vs fault run).
constexpr std::uint64_t kKindBaseline = 1;
constexpr std::uint64_t kKindFault = 2;

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t cell,
                          std::uint64_t task) noexcept {
  // Two SplitMix64 hops: the first opens a per-cell stream, the second picks
  // the task's value inside it. Both inputs are mixed multiplicatively so
  // (cell=1, task=0) and (cell=0, task=1) land in unrelated streams.
  util::SplitMix64 g(seed ^ (0x9E3779B97F4A7C15ULL * (cell + 1)));
  util::SplitMix64 h(g.next() ^ (0xBF58476D1CE4E5B9ULL * (task + 1)));
  return h.next();
}

CampaignCounters merge_counters(const CampaignCounters& a,
                                const CampaignCounters& b) noexcept {
  CampaignCounters m;
  m.mis = a.mis + b.mis;
  m.kns = a.kns + b.kns;
  m.kcp = a.kcp + b.kcp;
  m.faults_injected = a.faults_injected + b.faults_injected;
  m.self_restarts = a.self_restarts + b.self_restarts;
  return m;
}

void CampaignObs::merge_tasks() {
  // The merges are commutative folds, but a fixed (slot) order keeps the
  // join auditable.
  for (const auto& slot : tasks) {
    metrics.merge(slot.obs.metrics);
    api.merge(slot.obs.api);
  }
  api.export_into(metrics);
  // Kernel churn derived from the per-function API counts: heap and handle
  // lifecycles in VOS happen exclusively through these entry points.
  auto c = [&](const char* n) { return metrics.counter(n); };
  metrics.add("kernel.heap.allocs", c("api.RtlAllocateHeap.calls"));
  metrics.add("kernel.heap.frees", c("api.RtlFreeHeap.calls"));
  metrics.add("kernel.handles.opened",
              c("api.NtCreateFile.calls") + c("api.NtOpenFile.calls"));
  metrics.add("kernel.handles.closed",
              c("api.NtClose.calls") + c("api.CloseHandle.calls"));
}

IterationResult merge_fault_runs(const std::vector<IterationResult>& runs) {
  IterationResult m;
  if (runs.empty()) return m;
  double succ_total = 0, rtm_weighted = 0, spc_sum = 0, cc_sum = 0;
  for (const auto& r : runs) {
    m.metrics.duration_ms += r.metrics.duration_ms;
    m.metrics.ops += r.metrics.ops;
    m.metrics.errors += r.metrics.errors;
    m.metrics.bytes += r.metrics.bytes;
    const auto succ = static_cast<double>(r.metrics.ops - r.metrics.errors);
    succ_total += succ;
    rtm_weighted += r.metrics.rtm_ms * succ;
    spc_sum += r.metrics.spc;
    cc_sum += r.metrics.cc_pct;
    m.counters = merge_counters(m.counters, r.counters);
    m.activations.insert(m.activations.end(), r.activations.begin(),
                         r.activations.end());
  }
  const auto n = static_cast<double>(runs.size());
  m.metrics.thr = m.metrics.duration_ms > 0
                      ? succ_total / (m.metrics.duration_ms / 1000.0)
                      : 0;
  m.metrics.rtm_ms = succ_total > 0 ? rtm_weighted / succ_total : 0;
  m.metrics.er_pct = m.metrics.ops > 0
                         ? 100.0 * static_cast<double>(m.metrics.errors) /
                               static_cast<double>(m.metrics.ops)
                         : 0;
  m.metrics.spc = static_cast<int>(spc_sum / n + 0.5);
  m.metrics.cc_pct = cc_sum / n;
  trace::sort_records(m.activations);
  return m;
}

void CampaignRunner::scan_faultloads() {
  if (!faultloads_.empty()) return;
  for (const auto version : opt_.versions) {
    if (opt_.faultload != nullptr) {
      faultloads_.emplace_back(version, *opt_.faultload);
      continue;
    }
    os::Kernel scan_kernel(version);
    faultloads_.emplace_back(
        version, swfit::Scanner{}.scan(scan_kernel.pristine_image(),
                                       all_api_names()));
  }
}

const swfit::Faultload& CampaignRunner::faultload_for(os::OsVersion v) const {
  for (const auto& [version, fl] : faultloads_) {
    if (version == v) return fl;
  }
  throw std::logic_error("faultload_for: version was not scanned");
}

std::vector<ExperimentCell> CampaignRunner::run_campaign() {
  // Scan-cache traffic attributable to this campaign (process-wide memo, so
  // absolute hit/miss values are not a pure function of the campaign — only
  // the request delta is recorded).
  const auto scan0 = swfit::scan_cache_stats();
  scan_faultloads();
  const auto scan1 = swfit::scan_cache_stats();

  const auto iters = static_cast<std::size_t>(std::max(0, opt_.iterations));
  const auto stride = static_cast<std::size_t>(std::max(1, opt_.stride));
  const std::size_t n_cells = opt_.versions.size() * opt_.servers.size();
  const std::size_t jobs = worker_count(opt_);

  // Oracle-sensitivity hook for the differential fuzzer (src/check): with
  // GF_CHECK_PERTURB set, parallel campaigns (jobs > 1) deliberately skew one
  // merge input — an extra self-restart per fault run. The jobs=1 reference
  // stays clean, so the matrix fuzzer's byte-identity oracles MUST flag every
  // perturbed run; CI uses this to prove the oracles can actually detect a
  // scheduling-shape-dependent bug rather than vacuously agreeing.
  const char* perturb_env = std::getenv("GF_CHECK_PERTURB");
  const bool perturb = perturb_env != nullptr && *perturb_env != '\0' && jobs > 1;

  // Baseline cost in the cost model's unit (one healthy exposure window).
  // run_profile_mode takes its window length unscaled while exposures are
  // time_scale'd, hence the scale in the denominator.
  const double exposure_ms =
      ControllerConfig{}.fault_exposure_ms * std::max(1e-9, opt_.time_scale);
  const double baseline_cost =
      std::max(0.0, opt_.baseline_window_ms) / exposure_ms;

  // Per-cell schedule plan: every iteration is decomposed into single-fault
  // positions (position p = faultload index p*stride), grouped into
  // cost-balanced chunks. Cells of different OS versions have different
  // faultload sizes, so slot layout is a prefix sum, not a uniform grid.
  struct CellPlan {
    os::OsVersion version{};
    std::string server;
    const swfit::Faultload* fl = nullptr;
    std::size_t positions = 0;  ///< faults per iteration (ceil(n/stride))
    std::size_t slot_base = 0;  ///< first obs/result slot of this cell
    std::vector<double> pos_cost;
    // Store keying (meaningful only when a store is wired).
    store::KeyBuilder key_base;        ///< shared key prefix of this cell
    std::vector<std::uint64_t> fdig;   ///< per-position fault content digest
    std::uint64_t profile_dig = 0;     ///< baseline schedule digest
    bool baseline_cached = false;
    /// Positions still to execute, per iteration; without a store (or with
    /// store_read off) every position is a miss — the identity schedule.
    std::vector<std::vector<std::size_t>> miss;
    std::vector<std::vector<Chunk>> iter_chunks;  ///< chunks over miss[it]
  };
  std::vector<CellPlan> plan(n_cells);
  std::size_t total_slots = 0;
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    auto& cp = plan[cell];
    cp.version = opt_.versions[cell / opt_.servers.size()];
    cp.server = opt_.servers[cell % opt_.servers.size()];
    cp.fl = &faultload_for(cp.version);
    const auto n = cp.fl->faults.size();
    cp.positions = n == 0 ? 0 : (n + stride - 1) / stride;
    const auto fault_costs = estimate_fault_costs(*cp.fl, FaultCostModel{});
    cp.pos_cost.resize(cp.positions);
    for (std::size_t p = 0; p < cp.positions; ++p) {
      cp.pos_cost[p] = fault_costs[p * stride];
    }
    cp.slot_base = total_slots;
    total_slots += 1 + iters * cp.positions;
    if (opt_.store != nullptr) {
      cp.key_base = cell_key_base(opt_, cell_config(cp.server, opt_), *cp.fl,
                                  cp.version, cp.server, cell, stride,
                                  cp.positions);
      cp.fdig.resize(cp.positions);
      for (std::size_t p = 0; p < cp.positions; ++p) {
        cp.fdig[p] = fault_digest(cp.fl->faults[p * stride]);
      }
      cp.profile_dig = profile_digest(*cp.fl, stride);
    }
  }
  auto fault_key = [&](const CellPlan& cp, std::size_t it, std::size_t pos) {
    auto kb = cp.key_base;
    kb.u64(kKindFault).u64(it).u64(pos).u64(cp.fdig[pos]);
    return kb.finish();
  };
  auto baseline_key = [&](const CellPlan& cp) {
    auto kb = cp.key_base;
    kb.u64(kKindBaseline).f64(opt_.baseline_window_ms).u64(cp.profile_dig);
    return kb.finish();
  };

  // Observability slots mirror the result slots: one private bundle per
  // fault run (plus one per baseline), merged in slot order after the join.
  obs_.reset();
  if (opt_.obs) {
    obs_ = std::make_unique<CampaignObs>();
    obs_->tasks.resize(total_slots);
  }
  std::vector<ExperimentCell> cells(n_cells);
  // One result slot per (cell, iteration, position): runs write only their
  // own slot, which is what makes the merge independent of scheduling.
  std::vector<std::vector<IterationResult>> fault_results(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    fault_results[cell].resize(iters * plan[cell].positions);
  }

  auto cell_name = [&](std::size_t cell) {
    return std::string(os::os_version_name(plan[cell].version)) + "/" +
           plan[cell].server;
  };
  auto restore_slot = [&](std::size_t slot_index, std::size_t cell,
                          std::string label, store::RunRecord&& rec) {
    if (!obs_) return;
    auto& slot = obs_->tasks[slot_index];
    slot.cell = cell_name(cell);
    slot.label = std::move(label);
    slot.obs = std::move(rec.obs);
  };

  // Cache resolution: fold every stored run into the slot a live run would
  // have filled, and schedule only the misses. Records cached under a
  // different obs/trace shape carry different keys, so a hit is always
  // shape-compatible; the decode guard below is pure defense.
  store::CampaignStore* st = opt_.store;
  const store::StoreStats stats0 = st != nullptr ? st->stats()
                                                 : store::StoreStats{};
  std::uint64_t cached_runs = 0;
  std::vector<std::uint8_t> payload;
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    auto& cp = plan[cell];
    cp.miss.assign(iters, {});
    const bool reading = st != nullptr && opt_.store_read;
    if (reading && st->get(baseline_key(cp), payload)) {
      try {
        auto rec = store::decode_run_record(payload);
        if (!opt_.obs || rec.has_obs) {
          cells[cell].baseline = rec.result.metrics;
          restore_slot(cp.slot_base, cell, "baseline", std::move(rec));
          cp.baseline_cached = true;
          ++cached_runs;
        }
      } catch (const store::WireError&) {
        cp.baseline_cached = false;
      }
    }
    for (std::size_t it = 0; it < iters; ++it) {
      for (std::size_t pos = 0; pos < cp.positions; ++pos) {
        bool hit = false;
        if (reading && st->get(fault_key(cp, it, pos), payload)) {
          try {
            auto rec = store::decode_run_record(payload);
            if (!opt_.obs || rec.has_obs) {
              const std::size_t idx = it * cp.positions + pos;
              fault_results[cell][idx] = std::move(rec.result);
              restore_slot(cp.slot_base + 1 + idx, cell,
                           "iter" + std::to_string(it) + ".f" +
                               std::to_string(pos * stride),
                           std::move(rec));
              hit = true;
              ++cached_runs;
            }
          } catch (const store::WireError&) {
            hit = false;
          }
        }
        if (!hit) cp.miss[it].push_back(pos);
      }
    }
    // Chunks are planned over the miss list only: cached positions never
    // occupy scheduler slots, so their cost is subtracted before the first
    // progress line, not amortized into the measured rate.
    cp.iter_chunks.resize(iters);
    for (std::size_t it = 0; it < iters; ++it) {
      std::vector<double> miss_cost(cp.miss[it].size());
      for (std::size_t k = 0; k < cp.miss[it].size(); ++k) {
        miss_cost[k] = cp.pos_cost[cp.miss[it][k]];
      }
      cp.iter_chunks[it] = plan_chunks(miss_cost, jobs, opt_.chunk);
    }
  }

  double total_cost = 0;
  std::uint64_t planned_faults = 0;
  for (const auto& cp : plan) {
    if (!cp.baseline_cached) total_cost += baseline_cost;
    for (std::size_t it = 0; it < iters; ++it) {
      planned_faults += cp.miss[it].size();
      for (const auto pos : cp.miss[it]) total_cost += cp.pos_cost[pos];
    }
  }
  if (opt_.progress != nullptr) {
    opt_.progress->set_total(planned_faults);
    opt_.progress->set_total_cost(total_cost);
    opt_.progress->set_cached(cached_runs);
  }
  if (st != nullptr && cached_runs > 0) {
    GF_INFO() << "campaign store: " << cached_runs
              << " cached runs folded, " << planned_faults
              << " fault runs to execute";
  }
  const auto wall0 = std::chrono::steady_clock::now();

  // Warm-boot snapshots: one bring-up per cell (parallelized), shared
  // read-only by every fault run of that cell. Each run then resets its
  // worker's SUB to the snapshot in O(dirty), or clones one from it in
  // O(memory copy) when the worker last ran another cell, instead of
  // recompiling the OS image and re-running boot + file-set population +
  // server start.
  std::vector<std::shared_ptr<const snapshot::WarmSnapshot>> warm(n_cells);
  if (opt_.warm_boot) {
    std::vector<WorkUnit> captures;
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      captures.push_back({[&warm, &plan, cell](std::size_t) {
                            warm[cell] = snapshot::capture_warm_boot(
                                plan[cell].version, plan[cell].server);
                          },
                          1.0});
    }
    run_units(std::move(captures), SchedOptions{jobs});
  }

  // Per-cell countdown over *work units* so campaign progress is narrated
  // live (one line per completed cell) even under steal interleaving.
  std::vector<std::atomic<std::size_t>> remaining(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    std::size_t units_of_cell = plan[cell].baseline_cached ? 0 : 1;
    for (std::size_t it = 0; it < iters; ++it) {
      units_of_cell += plan[cell].iter_chunks[it].size();
    }
    remaining[cell].store(units_of_cell, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> cells_done{0};

  auto wall_us = [&] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - wall0)
        .count();
  };
  // One controller slot per worker. On the warm path a run of the cell the
  // slot already holds resets that controller in place from the cell's
  // snapshot (O(dirty)); a run of another cell rebuilds it. The cold path
  // builds a fresh controller for every run — the reference oracle. A run
  // that throws drops its slot, and all slots are freed at the join.
  struct WorkerSlot {
    std::size_t cell = 0;
    std::unique_ptr<Controller> ctl;
  };
  std::vector<WorkerSlot> slots(jobs);
  // Runs `body` on the worker's controller, set up for `cell` and `c`.
  auto with_controller = [&](std::size_t worker, std::size_t cell,
                             const ControllerConfig& c, const auto& body) {
    auto& s = slots[worker];
    if (opt_.warm_boot && s.ctl != nullptr && s.cell == cell) {
      s.ctl->reset(c);
    } else {
      s.ctl.reset();  // at most one controller per worker at any time
      s.ctl = opt_.warm_boot ? std::make_unique<Controller>(warm[cell], c)
                             : std::make_unique<Controller>(
                                   plan[cell].version, plan[cell].server, c);
      s.cell = cell;
      // A/B hook: fusion is an execution strategy, not a semantic knob, so
      // it is applied to the built machine instead of traveling through
      // ControllerConfig (and store keys). Default-on costs nothing here.
      if (!opt_.fusion) s.ctl->kernel().machine().set_fusion(false);
    }
    try {
      body(*s.ctl);
    } catch (...) {
      s.ctl.reset();
      throw;
    }
  };
  // The per-fault mini-run: a controller in its snapshot state (reset or
  // freshly built — bit-identical either way), exactly one fault injected
  // (offset = its absolute index, stride spans the whole faultload), seeded
  // by the task id 1 + iter*positions + pos. Nothing here depends on which
  // chunk or worker the run rides in, or on what that worker ran before.
  // Post-run commit: everything the cache-resolution pass needs to fold the
  // run back without executing it. The TaskObs copy happens at the run
  // boundary, never on the VM hot path.
  auto commit_run = [&](const store::ResultKey& key, std::size_t cell,
                        const std::string& label,
                        const IterationResult& result,
                        const TaskObsSlot* slot) {
    if (st == nullptr) return;
    store::RunRecord rec;
    rec.cell = cell_name(cell);
    rec.label = label;
    rec.result = result;
    rec.has_obs = slot != nullptr;
    if (slot != nullptr) rec.obs = slot->obs;
    st->put(key, store::encode_run_record(rec));
  };
  auto run_fault = [&](std::size_t worker, std::size_t cell, std::size_t it,
                       std::size_t pos) {
    const auto& cp = plan[cell];
    const std::size_t task = 1 + it * cp.positions + pos;
    const std::size_t fault_index = pos * stride;
    const auto label =
        "iter" + std::to_string(it) + ".f" + std::to_string(fault_index);
    auto cfg = cell_config(cp.server, opt_);
    cfg.progress = opt_.progress;
    cfg.fault_offset = static_cast<int>(fault_index);
    cfg.fault_stride =
        static_cast<int>(std::max<std::size_t>(cp.fl->faults.size(), 1));
    const auto seed = derive_seed(opt_.seed, cell, task);
    TaskObsSlot* slot = obs_ ? &obs_->tasks[cp.slot_base + task] : nullptr;
    if (slot != nullptr) {
      slot->cell = cell_name(cell);
      slot->label = label;
      cfg.obs = &slot->obs;
      slot->obs.wall_start_us = wall_us();
    }
    auto& result = fault_results[cell][it * cp.positions + pos];
    with_controller(worker, cell, cfg, [&](Controller& ctl) {
      result = ctl.run_iteration(*cp.fl, seed);
    });
    if (perturb) result.counters.self_restarts += 1;
    if (slot != nullptr) slot->obs.wall_end_us = wall_us();
    if (st != nullptr) commit_run(fault_key(cp, it, pos), cell, label, result, slot);
  };
  auto run_baseline = [&](std::size_t worker, std::size_t cell) {
    const auto& cp = plan[cell];
    auto cfg = cell_config(cp.server, opt_);
    cfg.progress = opt_.progress;
    const auto seed = derive_seed(opt_.seed, cell, 0);
    TaskObsSlot* slot = obs_ ? &obs_->tasks[cp.slot_base] : nullptr;
    if (slot != nullptr) {
      slot->cell = cell_name(cell);
      slot->label = "baseline";
      cfg.obs = &slot->obs;
      slot->obs.wall_start_us = wall_us();
    }
    with_controller(worker, cell, cfg, [&](Controller& ctl) {
      cells[cell].baseline =
          ctl.run_profile_mode(*cp.fl, opt_.baseline_window_ms, seed);
    });
    if (slot != nullptr) slot->obs.wall_end_us = wall_us();
    if (st != nullptr) {
      IterationResult rec;
      rec.metrics = cells[cell].baseline;
      commit_run(baseline_key(cp), cell, "baseline", rec, slot);
    }
  };
  auto cell_complete = [&](std::size_t cell) {
    const auto done = cells_done.fetch_add(1, std::memory_order_relaxed) + 1;
    const auto name = cell_name(cell);
    if (opt_.progress != nullptr) {
      opt_.progress->cell_done(name, done, n_cells);
    } else {
      GF_INFO() << "campaign cell done: " << name << " (" << done << "/"
                << n_cells << " cells)";
    }
  };
  auto unit_done = [&](std::size_t cell, double cost) {
    if (opt_.progress != nullptr) opt_.progress->add_cost(cost);
    if (remaining[cell].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cell_complete(cell);
    }
  };
  // Cells fully satisfied from the store never reach the scheduler; narrate
  // them here so the cell countdown stays complete on resume.
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    if (remaining[cell].load(std::memory_order_relaxed) == 0) {
      cell_complete(cell);
    }
  }

  // Work units, in deterministic construction order (cell-major, baseline
  // first, then iteration-major chunks over the miss lists). The scheduler
  // is free to run them in any order on any worker — units only write their
  // own slots.
  std::vector<WorkUnit> units;
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    if (!plan[cell].baseline_cached) {
      units.push_back({[&unit_done, &run_baseline, cell,
                        baseline_cost](std::size_t worker) {
                         run_baseline(worker, cell);
                         unit_done(cell, baseline_cost);
                       },
                       baseline_cost});
    }
    for (std::size_t it = 0; it < iters; ++it) {
      for (const auto& c : plan[cell].iter_chunks[it]) {
        units.push_back({[&unit_done, &run_fault, &plan, cell, it,
                          c](std::size_t worker) {
                           for (std::size_t k = 0; k < c.count; ++k) {
                             run_fault(worker, cell, it,
                                       plan[cell].miss[it][c.first + k]);
                           }
                           unit_done(cell, c.cost);
                         },
                         c.cost});
      }
    }
  }

  SchedOptions sopt;
  sopt.jobs = jobs;
  sched_ = std::make_unique<SchedStats>(run_units(std::move(units), sopt));
  slots.clear();  // free every worker's controller before merge/render
  GF_INFO() << "campaign schedule: " << sched_->total_units << " units on "
            << sched_->workers.size() << " workers, utilization "
            << sched_->utilization() << ", " << sched_->steals()
            << " steals (" << sched_->stolen() << " units)";

  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    const auto& cp = plan[cell];
    cells[cell].os_name = os::os_version_name(cp.version);
    cells[cell].server_name = cp.server;
    for (std::size_t it = 0; it < iters; ++it) {
      const auto first = fault_results[cell].begin() +
                         static_cast<std::ptrdiff_t>(it * cp.positions);
      cells[cell].iterations.push_back(merge_fault_runs(
          std::vector<IterationResult>(
              first, first + static_cast<std::ptrdiff_t>(cp.positions))));
    }
  }

  if (obs_) {
    // Deterministic join: fold the per-run bundles in slot order, then add
    // the campaign-level tallies no single run can know.
    obs_->merge_tasks();
    obs_->metrics.add("campaign.cells", n_cells);
    obs_->metrics.add("campaign.tasks", total_slots);
    obs_->metrics.add("scan.requests", (scan1.hits + scan1.misses) -
                                           (scan0.hits + scan0.misses));
    for (const auto& [version, fl] : faultloads_) {
      obs_->metrics.add("scan.faults", fl.faults.size());
    }
    obs_->metrics.add("snapshot.captures", opt_.warm_boot ? n_cells : 0);
    obs_->metrics.add(opt_.warm_boot ? "snapshot.warm_tasks"
                                     : "snapshot.cold_tasks",
                      total_slots);
    for (const auto& snap : warm) {
      if (snap) {
        obs_->metrics.gauge("snapshot.bringup_cycles", snap->capture_cycles);
      }
    }
  }
  store_stats_.reset();
  if (st != nullptr) {
    store_stats_ = std::make_unique<store::StoreStats>(
        st->stats().delta(stats0));
    GF_INFO() << "campaign store: " << store_stats_->hits << " hits, "
              << store_stats_->misses << " misses, " << store_stats_->puts
              << " puts; " << store_stats_->records << " live records ("
              << store_stats_->bytes << " payload bytes)";
  }
  if (opt_.progress != nullptr) opt_.progress->finish();
  return cells;
}

std::vector<IntrusivenessCell> CampaignRunner::run_intrusiveness() {
  scan_faultloads();

  const std::size_t n_cells = opt_.versions.size() * opt_.servers.size();
  std::vector<IntrusivenessCell> cells(n_cells);

  // Two units per cell: 0 = max-performance baseline, 1 = profile mode.
  // Both use the cell's task-0 seed so the degradation comparison is paired
  // (same workload stream), exactly like the sequential Table 4 bench.
  auto run_pair_half = [&](std::size_t idx) {
    const std::size_t cell = idx / 2;
    const auto version = opt_.versions[cell / opt_.servers.size()];
    const auto& server = opt_.servers[cell % opt_.servers.size()];
    const auto seed = derive_seed(opt_.seed, cell, 0);
    Controller ctl(version, server, cell_config(server, opt_));
    if (!opt_.fusion) ctl.kernel().machine().set_fusion(false);
    if (idx % 2 == 0) {
      cells[cell].max_perf = ctl.run_baseline(opt_.baseline_window_ms, seed);
    } else {
      cells[cell].profile = ctl.run_profile_mode(
          faultload_for(version), opt_.baseline_window_ms, seed);
    }
  };
  std::vector<WorkUnit> units;
  for (std::size_t idx = 0; idx < n_cells * 2; ++idx) {
    units.push_back({[&run_pair_half, idx](std::size_t) { run_pair_half(idx); },
                     1.0});
  }
  run_units(std::move(units), SchedOptions{worker_count(opt_)});

  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    cells[cell].os_name =
        os::os_version_name(opt_.versions[cell / opt_.servers.size()]);
    cells[cell].server_name = opt_.servers[cell % opt_.servers.size()];
  }
  return cells;
}

}  // namespace gf::depbench
