#include "depbench/controller.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "trace/probe.h"
#include "trace/tracer.h"
#include "util/log.h"

namespace gf::depbench {

Controller::Controller(os::OsVersion version, const std::string& server_name,
                       ControllerConfig cfg)
    : sub_(snapshot::bring_up(version, server_name)) {
  configure(cfg);
}

Controller::Controller(std::shared_ptr<const snapshot::WarmSnapshot> snap,
                       ControllerConfig cfg)
    : snap_(std::move(snap)), sub_(snapshot::restore(*snap_)) {
  configure(cfg);
}

void Controller::reset(ControllerConfig cfg) {
  if (snap_ == nullptr) {
    throw std::logic_error(
        "Controller::reset: a cold-built controller has no snapshot");
  }
  sub_.kernel->reset();
  sub_.server->restore_process(snap_->server);
  configure(cfg);
}

void Controller::configure(ControllerConfig cfg) {
  cfg_ = cfg;
  cfg_.client.connections = cfg_.connections;
  sub_.api->set_metrics(cfg_.obs != nullptr ? &cfg_.obs->api : nullptr);
  ran_ = false;
}

void Controller::begin_run() {
  if (ran_) {
    throw std::logic_error(
        "Controller: one run per build or reset (call reset() first)");
  }
  ran_ = true;
  obs_begin_run();
  profile_begin();
}

void Controller::obs_begin_run() {
  if (cfg_.obs == nullptr) return;
  obs_vm_base_ = sub_.kernel->machine().dispatch_stats();
  obs_kernel_base_ = sub_.kernel->counters();
  // Marks the SUB's brought-up state the run starts from (bring-up itself
  // happened before the run, from whichever state source).
  cfg_.obs->journal.instant("bring_up", 0,
                            sub_.kernel->machine().total_cycles());
}

void Controller::obs_end_run(const spec::WindowMetrics& m) {
  if (cfg_.obs == nullptr) return;
  auto& r = cfg_.obs->metrics;
  // Harvest the hot layers' raw counters as deltas over this run. The keys
  // are added unconditionally (delta 0 included) so the registry's key set
  // — and therefore its canonical rendering — is stable.
  const auto& vs = sub_.kernel->machine().dispatch_stats();
  r.add("vm.instructions", vs.instructions - obs_vm_base_.instructions);
  r.add("vm.runs", vs.runs - obs_vm_base_.runs);
  for (std::size_t i = 1; i < vm::kNumTraps; ++i) {
    r.add("vm.trap." + std::string(vm::trap_name(static_cast<vm::Trap>(i))),
          vs.traps[i] - obs_vm_base_.traps[i]);
  }
  const auto& kc = sub_.kernel->counters();
  r.add("os.reboots", kc.reboots - obs_kernel_base_.reboots);
  r.add("os.reboots.cold", kc.cold_boots - obs_kernel_base_.cold_boots);
  r.add("os.reboots.replay", kc.replay_boots - obs_kernel_base_.replay_boots);
  r.add("os.syscalls", kc.syscalls - obs_kernel_base_.syscalls);
  r.add("os.code_syncs", kc.code_syncs - obs_kernel_base_.code_syncs);
  r.add("client.ops", m.ops);
  r.add("client.errors", m.errors);
  r.add("client.bytes", m.bytes);
  // End-of-run kernel health: free-list depth as a gauge plus a violation
  // counter (a non-zero value here means latent corruption survived the run).
  const auto inv = trace::snapshot_invariants(*sub_.kernel);
  r.gauge("kernel.heap.free_nodes", inv.heap_free_nodes);
  if (!inv.heap_ok || !inv.handles_ok) r.add("kernel.invariant_violations");
}

void Controller::profile_begin() {
  if (cfg_.profile_stride == 0 || cfg_.obs == nullptr) return;
  sub_.kernel->machine().arm_sampler(cfg_.profile_stride);
}

void Controller::profile_end() {
  if (cfg_.profile_stride == 0 || cfg_.obs == nullptr) return;
  auto& m = sub_.kernel->machine();
  auto& p = cfg_.obs->profile;
  p.stride = cfg_.profile_stride;
  // Attribute each sampled pc to the function containing it in the pristine
  // image (injection patches never move symbol boundaries). Samples outside
  // any symbol — holes, mutated control flow into padding — get a stable
  // hex label so nothing is silently dropped and totals stay exact.
  const auto& img = sub_.kernel->pristine_image();
  for (const auto& [pc, n] : m.samples()) {
    if (const auto* sym = img.symbol_at(pc); sym != nullptr) {
      p.add(sym->name, n);
    } else {
      char buf[24];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(pc));
      p.add(buf, n);
    }
  }
  m.disarm_sampler();
}

spec::WindowMetrics Controller::run_baseline(double duration_ms,
                                             std::uint64_t seed) {
  return serve_window("baseline", nullptr, duration_ms, seed);
}

spec::WindowMetrics Controller::run_profile_mode(const swfit::Faultload& fl,
                                                 double duration_ms,
                                                 std::uint64_t seed) {
  return serve_window("profile", &fl, duration_ms, seed);
}

spec::WindowMetrics Controller::serve_window(const char* label,
                                             const swfit::Faultload* fl,
                                             double duration_ms,
                                             std::uint64_t seed) {
  begin_run();
  if (cfg_.obs != nullptr) {
    cfg_.obs->journal.begin(label, 0, sub_.kernel->machine().total_cycles());
  }
  spec::WorkloadGenerator gen(*sub_.fileset, seed);
  auto ccfg = cfg_.client;
  // In profile mode the injector runs co-located with the server (paper
  // Fig. 3); its schedule bookkeeping and monitor polling steal a small CPU
  // share, modeled as extra per-operation service time.
  if (fl != nullptr) ccfg.base_latency_ms += 0.1;
  spec::SpecClient client(ccfg);

  // Profile mode performs the complete injection workflow against the
  // active image — schedule walking, original-window verification, monitor
  // polling — without patching. Its cost is the injector's intrusiveness.
  std::size_t fault_index = 0;
  double next_swap = 0;
  const double exposure = cfg_.fault_exposure_ms * cfg_.time_scale;
  std::uint64_t window_check = 0;
  auto tick = [&](double now) {
    if (now >= next_swap && !fl->faults.empty()) {
      const auto& f = fl->faults[fault_index++ % fl->faults.size()];
      // Verify the target window bytes as a real injection would: one
      // ranged access over the whole window (the injector's verification
      // path) instead of per-instruction at() decodes.
      const auto* win = sub_.kernel->active_image().window(
          f.addr, f.window() * isa::kInstrSize);
      if (win != nullptr) window_check ^= win[0];
      next_swap = now + exposure;
    }
    (void)sub_.server->state();  // monitor poll
  };

  auto m = client.run_window(*sub_.server, gen, 0, duration_ms,
                             fl != nullptr ? spec::SpecClient::Tick(tick)
                                           : spec::SpecClient::Tick());
  (void)window_check;
  sub_.server->stop();
  if (cfg_.obs != nullptr) {
    cfg_.obs->journal.end(label, duration_ms,
                          sub_.kernel->machine().total_cycles());
  }
  profile_end();
  obs_end_run(m);
  return m;
}

IterationResult Controller::run_iteration(const swfit::Faultload& fl,
                                          std::uint64_t seed) {
  if (!fl.matches(sub_.kernel->pristine_digest(),
                  sub_.kernel->pristine_image().name())) {
    throw std::invalid_argument(
        "faultload was generated for a different OS build");
  }
  begin_run();

  spec::WorkloadGenerator gen(*sub_.fileset, seed);
  const auto stride = static_cast<std::size_t>(std::max(1, cfg_.fault_stride));
  const auto offset =
      static_cast<std::size_t>(std::max(0, cfg_.fault_offset));
  const auto remaining =
      offset < fl.faults.size() ? fl.faults.size() - offset : 0;
  const auto total_faults = (remaining + stride - 1) / stride;
  auto ccfg = cfg_.client;
  // SPECWeb assesses conformance per batch; tie the batch length to the
  // fault schedule so scaled runs keep the same batches-per-fault ratio.
  // A single-fault run (the work-stealing runner's unit of decomposition)
  // gets a batch that exactly spans its one exposure, so conformance is
  // normalized over served time instead of a half-empty double window.
  ccfg.spc_batch_ms =
      (total_faults == 1 ? 1 : 2) * cfg_.fault_exposure_ms * cfg_.time_scale;
  spec::SpecClient client(ccfg);
  swfit::Injector injector(*sub_.kernel);
  CampaignCounters counters;

  // Journal plumbing: fault spans are opened at inject and closed wherever
  // the fault actually ends (scheduled swap, admin restart, iteration end).
  obs::Journal* jr = cfg_.obs != nullptr ? &cfg_.obs->journal : nullptr;
  auto cyc = [&] { return sub_.kernel->machine().total_cycles(); };
  auto obs_fault_end = [&](double now) {
    if (jr != nullptr && injector.active()) jr->end("fault", now, cyc());
  };

  // Activation & propagation tracing: armed per fault, finished (probed +
  // classified) whenever the fault is removed, for whatever reason.
  std::optional<trace::FaultTracer> tracer;
  std::vector<trace::ActivationRecord> activations;
  std::uint64_t errors_at_begin = 0;
  if (cfg_.trace) {
    tracer.emplace(*sub_.kernel);
    tracer->attach(*sub_.api);
    tracer->set_probe_per_call(cfg_.trace_probe_per_call);
  }
  auto finish_fault = [&] {
    if (!tracer || !tracer->active()) return;
    // Client-visible error responses during the exposure are externally
    // observed failures (baseline ER% is zero). Server restarts reset the
    // stats counter, but every restart path already notes the failure.
    if (sub_.server->stats().errors > errors_at_begin) {
      tracer->note_external_failure();
    }
    activations.push_back(tracer->end_fault());
  };

  // Monitor latencies shrink with the exposure so that scaled-down runs
  // keep the same downtime-to-exposure ratios as a full-length campaign.
  const double exposure = cfg_.fault_exposure_ms * cfg_.time_scale;
  const double detect = cfg_.detect_ms * cfg_.time_scale;
  const double restart_time = cfg_.admin_restart_ms * cfg_.time_scale;
  std::size_t next_fault = offset;
  double next_swap = 0;
  int injected_this_slot = 0;
  int self_restarts_this_fault = 0;

  // Monitor bookkeeping.
  double failure_noticed_at = -1;  ///< when the monitor saw the failure
  double server_up_at = -1;        ///< restart completion time

  auto begin_admin_restart = [&](double now) {
    finish_fault();
    obs_fault_end(now);
    injector.restore();  // the 10 s exposure of this fault effectively ends
    sub_.server->stop();
    sub_.kernel->reboot();   // administrator reboots the corrupted OS
    server_up_at = now + restart_time;
    if (jr != nullptr) jr->instant("admin_restart", now, cyc());
  };

  auto tick = [&](double now) {
    // 1. Finish a pending restart.
    if (server_up_at >= 0 && now >= server_up_at) {
      if (sub_.server->state() == web::ServerState::kStopped) {
        if (sub_.server->start()) {
          server_up_at = -1;
          if (jr != nullptr) jr->instant("server_up", now, cyc());
        } else {
          // OS still too broken to boot the server; administrator retries.
          sub_.kernel->reboot();
          server_up_at = now + restart_time;
        }
      } else {
        server_up_at = -1;
      }
    }

    // 2. Fault schedule: swap the active fault every `exposure` ms.
    if (now >= next_swap) {
      finish_fault();
      obs_fault_end(now);
      injector.restore();
      self_restarts_this_fault = 0;
      // Slot boundary (paper Fig. 4): the SUB is reset between slots; this
      // scheduled maintenance is not an administrator intervention.
      if (injected_this_slot >= cfg_.faults_per_slot &&
          server_up_at < 0) {
        injected_this_slot = 0;
        sub_.server->stop();
        sub_.kernel->reboot();
        if (!sub_.server->start()) {
          server_up_at = now + restart_time;  // retried in step 1
        }
        if (jr != nullptr) jr->instant("slot_reset", now, cyc());
      }
      if (next_fault < fl.faults.size()) {
        const auto& f = fl.faults[next_fault];
        if (!injector.inject(f)) {
          throw std::runtime_error("stale faultload: window mismatch");
        }
        if (tracer) {
          errors_at_begin = sub_.server->stats().errors;
          tracer->begin_fault(static_cast<std::uint32_t>(next_fault), f);
        }
        if (jr != nullptr) {
          jr->begin("fault", now, cyc(),
                    "{\"index\": " + std::to_string(next_fault) +
                        ", \"type\": \"" +
                        std::string(swfit::fault_type_name(f.type)) +
                        "\", \"fn\": \"" + f.function + "\"}");
        }
        if (cfg_.progress != nullptr) cfg_.progress->add_faults(1);
        ++counters.faults_injected;
        ++injected_this_slot;
        next_fault += stride;
      }
      next_swap = now + exposure;
    }

    // 3. Monitor the BT. Detection takes `detect` ms from the first
    // observation of a failed state.
    const auto state = sub_.server->state();
    if (state == web::ServerState::kRunning ||
        state == web::ServerState::kStopped) {
      failure_noticed_at = -1;
      return;
    }
    if (failure_noticed_at < 0) {
      failure_noticed_at = now;
      return;
    }
    if (now - failure_noticed_at < detect) return;
    failure_noticed_at = -1;

    // Any monitor intervention is an externally observed failure of the
    // fault currently under exposure.
    if (tracer) tracer->note_external_failure();
    switch (state) {
      case web::ServerState::kHung:
        ++counters.kns;  // killed: not responding to requests
        begin_admin_restart(now);
        break;
      case web::ServerState::kSpinning:
        ++counters.kcp;  // killed: hogging the CPU without service
        begin_admin_restart(now);
        break;
      case web::ServerState::kCrashed: {
        // The watchdog gets the first shot; a crash-loop within one fault
        // exposure exhausts its budget and needs the administrator.
        // The dying process releases its OS resources (heap, handles are
        // process-local state in VOS), so the respawned process starts
        // clean — only the injected code fault itself can persist.
        const bool budget_left =
            self_restarts_this_fault < cfg_.self_restart_budget;
        if (budget_left && sub_.server->has_self_restart()) {
          sub_.kernel->reboot();
        }
        if (budget_left && sub_.server->try_self_restart()) {
          ++self_restarts_this_fault;
          ++counters.self_restarts;
          if (jr != nullptr) jr->instant("self_restart", now, cyc());
        } else {
          ++counters.mis;  // died and did not (or could not) self-restart
          begin_admin_restart(now);
        }
        break;
      }
      default:
        break;
    }
  };

  const double duration = static_cast<double>(total_faults) * exposure;
  // Narrative logging is debug-level; live campaign progress comes from the
  // rate-limited reporter (cfg_.progress) instead of per-iteration spam.
  GF_DEBUG() << "campaign iteration: " << sub_.server->name() << " on "
             << os::os_version_name(sub_.kernel->version()) << ", "
             << total_faults << " faults, " << duration / 1000 << " sim-s";
  if (jr != nullptr) {
    jr->begin("iteration", 0, cyc(),
              "{\"faults\": " + std::to_string(total_faults) + "}");
  }
  auto metrics = client.run_window(*sub_.server, gen, 0, duration, tick);
  GF_DEBUG() << "iteration done: ops=" << metrics.ops
             << " er%=" << metrics.er_pct << " mis=" << counters.mis
             << " kns=" << counters.kns << " kcp=" << counters.kcp;

  finish_fault();
  obs_fault_end(duration);
  injector.restore();
  sub_.server->stop();
  if (jr != nullptr) jr->end("iteration", duration, cyc());
  trace::sort_records(activations);
  if (cfg_.obs != nullptr) {
    auto& r = cfg_.obs->metrics;
    r.add("campaign.faults_injected",
          static_cast<std::uint64_t>(counters.faults_injected));
    r.add("campaign.mis", static_cast<std::uint64_t>(counters.mis));
    r.add("campaign.kns", static_cast<std::uint64_t>(counters.kns));
    r.add("campaign.kcp", static_cast<std::uint64_t>(counters.kcp));
    r.add("campaign.self_restarts",
          static_cast<std::uint64_t>(counters.self_restarts));
    r.add("inject.patches", injector.injections());
    r.add("inject.restores", injector.restores());
    r.add("inject.verifies", injector.verifies());
    r.add("inject.verify_failures", injector.verify_failures());
    trace::export_metrics(activations, r);
  }
  profile_end();
  obs_end_run(metrics);

  IterationResult result;
  result.metrics = metrics;
  result.counters = counters;
  result.activations = std::move(activations);
  return result;
}

}  // namespace gf::depbench
