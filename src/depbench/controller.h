// The experiment controller: the paper's injector-monitor (§3.1).
//
// One iteration walks the faultload, exposing each fault for 10 simulated
// seconds while the SPECWeb-like client exercises the server, and monitors
// the BT:
//   - web server died and did not self-restart            -> MIS
//   - killed because it stopped responding to requests    -> KNS
//   - killed because it hogged the CPU without service    -> KCP
// Administrator intervention (MIS/KNS/KCP) restarts the server and reboots
// the OS; apex's watchdog self-restart restarts only the server process.
//
// The controller also implements the paper's baseline and "profile mode"
// runs (Table 4): in profile mode the injector performs every task of an
// injection campaign except the actual code patch, which measures the
// instrumentation overhead.
//
// A controller drives one SUB that is already up and serving, from one of
// two state sources: a live bring-up (snapshot::bring_up, the cold path) or
// a warm-boot snapshot (snapshot::restore). Either way the bring-up lies
// outside every run, so both produce the same results and artifacts.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "depbench/task_obs.h"
#include "obs/progress.h"
#include "os/api.h"
#include "os/kernel.h"
#include "snapshot/warmboot.h"
#include "spec/client.h"
#include "swfit/injector.h"
#include "trace/activation.h"

namespace gf::depbench {

struct ControllerConfig {
  double fault_exposure_ms = 10000;  ///< 10 s per fault, as in the paper
  double detect_ms = 2500;           ///< monitor latency to notice a failure
  double admin_restart_ms = 3000;    ///< kill + OS reboot + server start
  int connections = 37;              ///< offered load (baseline SPEC score)
  double time_scale = 1.0;           ///< scales exposure & monitor latencies
  int fault_stride = 1;              ///< inject every k-th fault (sampling)
  /// First fault index of the iteration. Together with fault_stride this
  /// lets a campaign runner pick out one fault: offset = its index and a
  /// stride spanning the whole faultload inject exactly that fault.
  int fault_offset = 0;
  /// Faults per slot (paper Fig. 4): at slot boundaries the SUB is not
  /// exercised and gets a scheduled reset (OS reboot + server restart)
  /// that does NOT count as administrator intervention.
  int faults_per_slot = 24;
  /// Watchdog tolerance: self-restarts allowed per fault exposure before
  /// the monitor declares the server dead (MIS) and calls the admin.
  int self_restart_budget = 2;
  /// Per-fault activation & propagation tracing (src/trace). Off by default:
  /// with it off the VM hot loop is untouched (the armed bit is never set).
  bool trace = false;
  /// Probe kernel invariants at every OsApi call boundary while a fault is
  /// live (more precise latency attribution for latent corruption, at a
  /// per-call walk cost). Only meaningful when `trace` is on.
  bool trace_probe_per_call = false;
  /// Virtual-cycle sampling stride for the deterministic guest profiler
  /// (0 = off). When set (and `obs` is non-null) the VM's PC sampler is
  /// armed at run entry and harvested into obs->profile at run exit,
  /// attributed to functions via the pristine image's symbol table. The
  /// bring-up precedes every run, so its cycles are never sampled.
  std::uint64_t profile_stride = 0;
  /// Per-task observability bundle (metrics + journal), owned by the caller.
  /// Null (the default) compiles the campaign down to a handful of
  /// never-taken branches at run boundaries — the hot paths are untouched.
  TaskObs* obs = nullptr;
  /// Shared campaign progress reporter; bumped once per injected fault.
  obs::ProgressReporter* progress = nullptr;
  spec::ClientConfig client;  ///< timing model knobs
};

/// Injector-monitor counters for one iteration (Table 5 right half).
struct CampaignCounters {
  int mis = 0;
  int kns = 0;
  int kcp = 0;
  int faults_injected = 0;
  int self_restarts = 0;
  /// ADMf: required administrator interventions (paper §3.2).
  int admf() const noexcept { return mis + kns + kcp; }
};

struct IterationResult {
  spec::WindowMetrics metrics;
  CampaignCounters counters;
  /// One record per injected fault when tracing is on (empty otherwise),
  /// sorted by absolute faultload index — the canonical order that makes
  /// shard merges independent of scheduling.
  std::vector<trace::ActivationRecord> activations;
};

class Controller {
 public:
  /// Cold path: brings up a fresh SUB (snapshot::bring_up) — kernel of
  /// `version`, file set, server `server_name`, started and warmed.
  Controller(os::OsVersion version, const std::string& server_name,
             ControllerConfig cfg = {});

  /// Warm path: restores the SUB a warm-boot snapshot captured
  /// (snapshot::restore) — no MiniC compile, no boot, no file-set
  /// regeneration. Its runs are byte-identical to a cold-built
  /// controller's.
  Controller(std::shared_ptr<const snapshot::WarmSnapshot> snap,
             ControllerConfig cfg = {});

  /// Returns a used warm controller to its snapshot state in O(dirty) and
  /// takes on `cfg`, so one controller can serve a cell's fault runs back to
  /// back. Restored: the kernel (machine pages written since the last
  /// construction/reset, the whole kernel data region, active image, disk,
  /// boot replay, ticks — see os::Kernel::reset), the server's process
  /// image and the OsApi metrics sink (re-pointed at cfg.obs, or detached).
  /// Unchanged and never snapshot state: the file set (a pure function of
  /// the snapshot), execution-strategy switches set on the machine (fusion),
  /// and the lifetime counters — vm::DispatchStats and os::KernelCounters
  /// keep counting across resets, and every consumer reads them as per-run
  /// deltas. Every run_* result after a reset is byte-identical to the same
  /// run on a fresh Controller(snap, cfg), whatever the controller ran
  /// before (tests/test_snapshot.cpp). A cold-built controller has no
  /// snapshot to return to: reset() throws std::logic_error.
  void reset(ControllerConfig cfg);

  // Each run_* may be called once per build or reset; a second call throws
  // std::logic_error.

  /// Baseline performance (no injector at all).
  spec::WindowMetrics run_baseline(double duration_ms, std::uint64_t seed);

  /// Injector in profile mode: every injection-campaign task runs (fault
  /// schedule bookkeeping, code-window verification, monitor polling) but
  /// the target is never patched.
  spec::WindowMetrics run_profile_mode(const swfit::Faultload& fl,
                                       double duration_ms, std::uint64_t seed);

  /// One full campaign iteration over the faultload.
  IterationResult run_iteration(const swfit::Faultload& fl, std::uint64_t seed);

  os::Kernel& kernel() noexcept { return *sub_.kernel; }
  web::WebServer& server() noexcept { return *sub_.server; }

 private:
  /// Takes on `cfg` for the next run; shared by both constructors and
  /// reset() so the paths cannot drift.
  void configure(ControllerConfig cfg);

  /// Run entry: enforces one run per build or reset, then opens the obs
  /// and profiler windows.
  void begin_run();

  /// The serving window shared by run_baseline and run_profile_mode;
  /// `fl` non-null selects profile mode.
  spec::WindowMetrics serve_window(const char* label,
                                   const swfit::Faultload* fl,
                                   double duration_ms, std::uint64_t seed);

  /// Observability harvest window: begin records the lifetime counter
  /// baselines, end folds the deltas (VM dispatch, kernel activity, client
  /// window tallies) into the task registry. No-ops without cfg_.obs.
  void obs_begin_run();
  void obs_end_run(const spec::WindowMetrics& m);

  /// Guest profiler window: begin arms the VM's PC sampler, end harvests the
  /// samples into obs->profile attributed by function symbol and disarms.
  /// No-ops unless cfg_.profile_stride != 0 and cfg_.obs is set.
  void profile_begin();
  void profile_end();

  ControllerConfig cfg_;
  vm::DispatchStats obs_vm_base_;
  os::KernelCounters obs_kernel_base_;
  /// The snapshot a warm controller was built from (null when cold-built);
  /// held so the kernel's reset origin stays alive.
  std::shared_ptr<const snapshot::WarmSnapshot> snap_;
  snapshot::Sub sub_;
  bool ran_ = false;
};

}  // namespace gf::depbench
