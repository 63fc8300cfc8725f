#include "depbench/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "depbench/tuner.h"
#include "obs/json.h"

namespace gf::depbench {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Calling thread's consumed CPU time in microseconds (0 where unsupported).
double thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return 0;
}

std::int64_t millicost(double cost) {
  return static_cast<std::int64_t>(cost * 1000.0 + 0.5);
}

/// One worker's deque. Owner pops from the front (its block in schedule
/// order), thieves take the back half. `rem` mirrors the queued
/// estimated cost; it is read lock-free as a victim-selection hint and only
/// mutated under `mu`, so it can overstate but never dangles.
struct WorkerDeque {
  std::deque<std::size_t> q;
  std::mutex mu;
  std::atomic<std::int64_t> rem{0};
};

}  // namespace

double SchedStats::utilization() const noexcept {
  if (workers.empty() || wall_us <= 0) return 0;
  double busy = 0;
  for (const auto& w : workers) busy += w.busy_us;
  return busy / (wall_us * static_cast<double>(workers.size()));
}

double SchedStats::imbalance() const noexcept {
  if (workers.empty()) return 1.0;
  double busy = 0, worst = 0;
  for (const auto& w : workers) {
    busy += w.busy_us;
    worst = std::max(worst, w.busy_us);
  }
  const double mean = busy / static_cast<double>(workers.size());
  return mean > 0 ? worst / mean : 1.0;
}

double SchedStats::makespan_cpu_us() const noexcept {
  double worst = 0;
  for (const auto& w : workers) worst = std::max(worst, w.cpu_us);
  return worst;
}

std::uint64_t SchedStats::steals() const noexcept {
  std::uint64_t n = 0;
  for (const auto& w : workers) n += w.steal_batches;
  return n;
}

std::uint64_t SchedStats::stolen() const noexcept {
  std::uint64_t n = 0;
  for (const auto& w : workers) n += w.stolen_units;
  return n;
}

std::string SchedStats::to_json() const {
  using obs::json::number;
  std::string out = "{\n  \"schema\": \"genfault-sched/1\",\n";
  out += "  \"jobs\": " + std::to_string(workers.size()) + ",\n";
  out += "  \"units\": " + std::to_string(total_units) + ",\n";
  out += "  \"wall_us\": " + number(wall_us) + ",\n";
  out += "  \"utilization\": " + number(utilization()) + ",\n";
  out += "  \"imbalance\": " + number(imbalance()) + ",\n";
  out += "  \"cpu_makespan_us\": " + number(makespan_cpu_us()) + ",\n";
  out += "  \"steal_batches\": " + std::to_string(steals()) + ",\n";
  out += "  \"stolen_units\": " + std::to_string(stolen()) + ",\n";
  out += "  \"workers\": [";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const auto& w = workers[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"units\": " + std::to_string(w.units) +
           ", \"stolen_units\": " + std::to_string(w.stolen_units) +
           ", \"steal_batches\": " + std::to_string(w.steal_batches) +
           ", \"steal_attempts\": " + std::to_string(w.steal_attempts) +
           ", \"busy_us\": " + number(w.busy_us) +
           ", \"cpu_us\": " + number(w.cpu_us) +
           ", \"est_cost\": " + number(w.est_cost) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

SchedStats run_units(std::vector<WorkUnit> units, const SchedOptions& opt) {
  SchedStats st;
  st.total_units = units.size();
  const auto wall0 = Clock::now();

  std::size_t jobs = std::max<std::size_t>(1, opt.jobs);
  if (!opt.seed_single_worker) jobs = std::min(jobs, std::max<std::size_t>(1, units.size()));
  st.workers.resize(jobs);

  // Block seeding: worker w starts on one contiguous run of the unit list in
  // construction order (cell-major), so it stays on about one cell and
  // resets that cell's Controller in place instead of rebuilding it. The
  // seed is a pure function of the unit count; only steals depend on timing.
  std::vector<WorkerDeque> dq(jobs);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto w = opt.seed_single_worker ? 0 : i * jobs / units.size();
    dq[w].q.push_back(i);
    dq[w].rem.fetch_add(millicost(units[i].cost), std::memory_order_relaxed);
  }

  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::exception_ptr err;

  auto pop_own = [&](std::size_t w) -> std::ptrdiff_t {
    auto& d = dq[w];
    const std::lock_guard<std::mutex> lock(d.mu);
    if (d.q.empty()) return -1;
    const auto u = d.q.front();
    d.q.pop_front();
    d.rem.fetch_sub(millicost(units[u].cost), std::memory_order_relaxed);
    return static_cast<std::ptrdiff_t>(u);
  };

  // Steal half of the most-loaded victim's queued units (from the back —
  // the owner keeps the front it is about to execute). Returns true when
  // anything moved into `w`'s deque.
  auto try_steal = [&](std::size_t w) -> bool {
    ++st.workers[w].steal_attempts;
    std::size_t victim = w;
    std::int64_t best = 0;
    for (std::size_t v = 0; v < jobs; ++v) {
      if (v == w) continue;
      const auto rem = dq[v].rem.load(std::memory_order_relaxed);
      if (rem > best) {
        best = rem;
        victim = v;
      }
    }
    if (victim == w) return false;
    std::vector<std::size_t> loot;
    {
      const std::lock_guard<std::mutex> lock(dq[victim].mu);
      const auto n = dq[victim].q.size();
      if (n == 0) return false;
      const auto k = (n + 1) / 2;
      std::int64_t moved = 0;
      for (std::size_t i = 0; i < k; ++i) {
        loot.push_back(dq[victim].q.back());
        dq[victim].q.pop_back();
        moved += millicost(units[loot.back()].cost);
      }
      dq[victim].rem.fetch_sub(moved, std::memory_order_relaxed);
    }
    // Re-queue in schedule order so the thief walks its loot front-to-back.
    std::reverse(loot.begin(), loot.end());
    {
      const std::lock_guard<std::mutex> lock(dq[w].mu);
      std::int64_t moved = 0;
      for (const auto u : loot) {
        dq[w].q.push_back(u);
        moved += millicost(units[u].cost);
      }
      dq[w].rem.fetch_add(moved, std::memory_order_relaxed);
    }
    ++st.workers[w].steal_batches;
    st.workers[w].stolen_units += loot.size();
    return true;
  };

  auto all_empty = [&] {
    for (auto& d : dq) {
      const std::lock_guard<std::mutex> lock(d.mu);
      if (!d.q.empty()) return false;
    }
    return true;
  };

  auto worker = [&](std::size_t w) {
    auto& ws = st.workers[w];
    while (!abort.load(std::memory_order_relaxed)) {
      const auto u = pop_own(w);
      if (u < 0) {
        // No work can appear out of thin air: once every deque is empty the
        // remaining in-flight units are already claimed, so the worker is
        // done for good.
        if (try_steal(w)) continue;
        if (all_empty()) return;
        std::this_thread::yield();
        continue;
      }
      const auto t0 = Clock::now();
      const auto c0 = thread_cpu_us();
      try {
        units[static_cast<std::size_t>(u)].run(w);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
      ws.busy_us += us_since(t0);
      ws.cpu_us += thread_cpu_us() - c0;
      ++ws.units;
      ws.est_cost += units[static_cast<std::size_t>(u)].cost;
    }
  };

  // Worker 0 is the calling thread, so jobs=1 runs the same loop.
  std::vector<std::thread> pool;
  pool.reserve(jobs - 1);
  for (std::size_t w = 1; w < jobs; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (auto& t : pool) t.join();
  st.wall_us = us_since(wall0);
  if (err) std::rethrow_exception(err);
  return st;
}

// ---------------------------------------------------------------------------
// Cost model + chunk planner
// ---------------------------------------------------------------------------

namespace {

/// Activation priors per fault type, calibrated against the measured rates
/// of the traced reference campaign (BENCH_activation.json). Only relative
/// order matters: they steer chunk sizing and victim choice, not results.
double type_activation_prior(swfit::FaultType t) {
  using swfit::FaultType;
  switch (t) {
    case FaultType::kMVI: return 0.80;
    case FaultType::kMVAV: return 0.05;
    case FaultType::kMVAE: return 0.27;
    case FaultType::kMIA: return 0.88;
    case FaultType::kMLAC: return 0.05;
    case FaultType::kMFC: return 0.05;
    case FaultType::kMIFS: return 0.63;
    case FaultType::kMLPC: return 0.53;
    case FaultType::kWVAV: return 0.68;
    case FaultType::kWLEC: return 0.84;
    case FaultType::kWAEP: return 1.00;
    case FaultType::kWPFV: return 0.05;
    default: return 0.50;
  }
}

}  // namespace

std::vector<double> estimate_fault_costs(const swfit::Faultload& fl,
                                         const FaultCostModel& model) {
  // Measured activation/outcome tallies per fault index, when traces exist.
  std::map<std::uint32_t, MeasuredActivation> measured;
  if (model.traces != nullptr) {
    measured = measured_activation_by_fault(*model.traces);
  }

  std::vector<double> costs(fl.faults.size(), 1.0);
  for (std::size_t i = 0; i < fl.faults.size(); ++i) {
    const auto& f = fl.faults[i];
    const auto it = measured.find(static_cast<std::uint32_t>(i));
    double p_act, p_ext;
    if (it != measured.end()) {
      p_act = it->second.activation_rate();
      p_ext = it->second.external_rate();
    } else {
      // Static estimate: type prior scaled by how hot the carrying function
      // is under the profiled workload (Table 2 shares; >= 5% of all API
      // calls counts as fully hot). Without a profile every function is
      // assumed moderately hot — the paper's fine-tuning already restricted
      // the faultload to heavily-used code.
      double hot = 0.6;
      if (model.profile != nullptr) {
        hot = std::min(1.0, model.profile->average_pct(f.function) / 5.0);
      }
      p_act = std::min(1.0, type_activation_prior(f.type) * (0.3 + 0.7 * hot));
      p_ext = 0.55 * p_act;  // measured share of activations that kill/hang
    }
    // A healthy full-exposure window is the expensive case in this substrate
    // (the client drives the server at full rate, every op executes OS code
    // on the VM); a killed or hung server collapses the window's op count to
    // timeouts and fast-fails, which cost almost nothing to simulate.
    costs[i] = std::max(0.2, 1.0 - 0.6 * p_ext - 0.1 * (p_act - p_ext));
  }
  return costs;
}

std::vector<Chunk> plan_chunks(const std::vector<double>& position_costs,
                               std::size_t jobs, int chunk_override) {
  const std::size_t n = position_costs.size();
  std::vector<Chunk> chunks;
  if (n == 0) return chunks;

  const auto fixed = static_cast<std::size_t>(std::max(0, chunk_override));

  double total = 0;
  for (const auto c : position_costs) total += c;
  // Adaptive target: enough chunks that every worker sees kChunksPerWorker
  // steal-able pieces; expensive ranges hit the cost target early (small
  // chunks), cheap ranges run long (large chunks, capped).
  const double target =
      total / static_cast<double>(std::max<std::size_t>(1, jobs) *
                                  kChunksPerWorker);

  std::size_t first = 0;
  while (first < n) {
    Chunk c;
    c.first = first;
    if (fixed > 0) {
      c.count = std::min(fixed, n - first);
      for (std::size_t i = 0; i < c.count; ++i) {
        c.cost += position_costs[first + i];
      }
    } else {
      while (first + c.count < n && c.count < kMaxChunkFaults &&
             (c.count == 0 || c.cost + position_costs[first + c.count] <=
                                  std::max(target, position_costs[first]))) {
        c.cost += position_costs[first + c.count];
        ++c.count;
      }
    }
    first += c.count;
    chunks.push_back(c);
  }
  return chunks;
}

}  // namespace gf::depbench
