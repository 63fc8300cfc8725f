// campaignbench: end-to-end campaign benchmark of genfault.
//
//   campaignbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--size full|tiny] [--digests FILE] [--out DIR]
//                 [--commit ID] [--print-digest]
//
// --trace 0 (measured run): times whole campaign passes through the public
// CampaignRunner until S seconds have passed and reports the end-to-end
// metrics as medians over the passes. --trace 1 (traced run): re-composes
// the same campaign from the library's public parts with a span around
// every layer call and reports per-layer self time and counts. Both check
// the campaign's Table 5 cells against the pinned digest (or, for an
// unpinned seed, against the independent re-composition); a run whose
// bytes are wrong is counted failed and never timed as a success.
// --print-digest runs one pass plus the re-composition and prints the
// digest line that the pinned-digests file holds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "store/store.h"
#include "util/log.h"

namespace cb {

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "campaignbench: %s\n"
               "usage: campaignbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--digests FILE] [--out DIR] "
               "[--commit ID] [--print-digest]\n"
               "workloads:",
               why);
  for (const auto& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string read_first(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    auto v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(" \t"));
    return v;
  }
  return "unknown";
}

Context host_context(const Args& a) {
  Context c;
  c.emplace_back("workload", std::string(a.workload->name));
  c.emplace_back("size", a.tiny ? "tiny" : "full");
  c.emplace_back("seed", std::to_string(a.seed));
  c.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  c.emplace_back("cpu_model", read_first("/proc/cpuinfo", "model name"));
  c.emplace_back("cpu_mhz", read_first("/proc/cpuinfo", "cpu MHz"));
  c.emplace_back("build_type", CB_BUILD_TYPE);
#if defined(__clang__)
  c.emplace_back("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  c.emplace_back("compiler", std::string("gcc ") + __VERSION__);
#else
  c.emplace_back("compiler", "unknown");
#endif
  c.emplace_back("commit", a.commit);
  return c;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// statistics.quantiles(data, n=4) with the default exclusive method.
std::vector<double> quartiles(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const auto ld = static_cast<long>(d.size());
  if (ld == 0) return {0, 0, 0};
  if (ld == 1) return {d[0], d[0], d[0]};
  const long m = ld + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((d[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 d[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

double median(std::vector<double> d) {
  if (d.empty()) return 0;
  std::sort(d.begin(), d.end());
  const auto n = d.size();
  return n % 2 == 1 ? d[n / 2] : (d[n / 2 - 1] + d[n / 2]) / 2.0;
}

std::map<std::string, Pinned> load_pinned(const std::string& path) {
  std::map<std::string, Pinned> pins;
  if (path.empty()) return pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, size, seed;
    Pinned p;
    if (!(ls >> workload >> size >> seed >> p.cells >> p.artifacts)) {
      throw std::runtime_error("malformed digests line: " + line);
    }
    pins[workload + " " + size + " " + seed] = p;
  }
  return pins;
}

/// Measured run: set-up samples, one untimed warm-up pass, then timed
/// passes (and all-hit resumes) until the time budget is spent.
int measured_run(const Args& a, const Context& ctx) {
  const Shape& shape = a.tiny ? a.workload->tiny : a.workload->full;
  std::vector<gf::depbench::RunnerOptions> campaigns;
  for (int k = 0; k < kCampaignsPerSeed; ++k) {
    campaigns.push_back(runner_options(shape, campaign_seed(a.seed, k)));
  }
  const std::string dir = a.out + "/" + std::string(a.workload->name);
  const std::string store_dir = dir + "/store";
  const std::size_t runs = fault_runs_per_pass(campaigns.front());

  // Set-up, many times, spread over the whole run so its median sees the
  // same host conditions as the passes. The first, untimed, pays one-off
  // process costs (page faults of a growing heap) no later set-up repeats.
  std::filesystem::create_directories(dir);
  constexpr int kSetupRepsPerPass = 3;
  std::vector<double> setup;
  (void)setup_pass(campaigns.front());
  for (int i = 0; i < kSetupRepsPerPass; ++i) {
    setup.push_back(setup_pass(campaigns.front()));
  }

  // Warm-up (untimed): settles allocator and page cache, and for the
  // workloads without a store of their own writes the store (of the first
  // campaign) that the resume passes read.
  const Pass warm =
      run_pass(campaigns.front(), store_dir, /*fresh=*/true, dir + "/warmup");

  constexpr int kResumesPerPass = 3;
  struct Timed {
    std::size_t campaign;  ///< index into `campaigns`
    Pass cold;
    std::vector<Pass> resumes;
  };
  std::vector<Timed> timed;
  const double deadline = wall_now_s() + a.seconds;
  do {
    Timed t;
    t.campaign = timed.size() % campaigns.size();
    const auto& ro = campaigns[t.campaign];
    t.cold = shape.store ? run_pass(ro, store_dir, /*fresh=*/true, dir + "/cold")
                         : run_pass(ro, "", false, dir + "/cold");
    const auto& resume_ro = shape.store ? ro : campaigns.front();
    for (int r = 0; r < kResumesPerPass; ++r) {
      t.resumes.push_back(run_pass(resume_ro, store_dir, false, dir + "/resume"));
    }
    for (int i = 0; i < kSetupRepsPerPass; ++i) {
      setup.push_back(setup_pass(campaigns.front()));
    }
    timed.push_back(std::move(t));
  } while (timed.back().cold.error.empty() &&
           (wall_now_s() < deadline || timed.size() < campaigns.size()));

  // Expected bytes per campaign: the pinned digests, else the independent
  // re-composition (computed after timing so it cannot disturb it) and, for
  // the artifacts, the campaign's first timed pass.
  std::vector<Pinned> expect;
  for (std::size_t k = 0; k < campaigns.size(); ++k) {
    Pinned e = find_pinned(a, campaigns[k].seed);
    const bool pinned = !e.cells.empty();
    if (!pinned) {
      e.cells = cells_digest(recompose(campaigns[k], nullptr, "").cells);
      e.artifacts = shape.store && k < timed.size() ? timed[k].cold.artifacts
                                                    : "-";
    }
    std::printf("# campaign seed %llu: expected cells %s (%s)\n",
                static_cast<unsigned long long>(campaigns[k].seed),
                e.cells.c_str(), pinned ? "pinned" : "re-composed reference");
    expect.push_back(e);
  }

  Outcome o;
  auto judge = [&](const Pass& p, const Pinned& want, const char* what) {
    std::string why = p.error;
    if (why.empty() && p.cells != want.cells) {
      why = "cells digest " + p.cells + " != expected " + want.cells;
    }
    if (why.empty() && shape.store && p.artifacts != want.artifacts) {
      why = "artifacts digest " + p.artifacts + " != " + want.artifacts;
    }
    // The paper's shape needs the full-size campaign; tiny runs only
    // check bytes.
    if (why.empty() && !a.tiny) why = p.violation;
    o.attempted += runs;
    if (why.empty()) return true;
    o.failed += runs;
    std::printf("# FAILED %s pass: %s\n", what, why.c_str());
    return false;
  };
  (void)judge(warm, expect.front(), "warm-up");
  Metric campaign{"campaign_s", "s", {}}, cpu{"cpu_s", "s", {}};
  Metric resume{"resume_s", "s", {}};
  for (const auto& t : timed) {
    const bool cold_ok = judge(t.cold, expect[t.campaign], "campaign");
    if (cold_ok) {
      campaign.samples.push_back(t.cold.wall_s);
      cpu.samples.push_back(t.cold.cpu_s);
    }
    // A resume must reproduce the artifacts of the pass that wrote its
    // store, byte for byte (the warm-up's, for workloads without a store).
    const Pinned& want = shape.store ? expect[t.campaign] : expect.front();
    for (const auto& r : t.resumes) {
      if (judge(r, want, "resume") && (!shape.store || cold_ok)) {
        resume.samples.push_back(r.wall_s);
      }
    }
  }

  o.correct = o.failed == 0 && !campaign.samples.empty() &&
              !resume.samples.empty();
  o.metrics.push_back(campaign);
  o.metrics.push_back(cpu);
  o.metrics.push_back(resume);
  o.metrics.push_back({"setup_s", "s", setup});
  o.metrics.push_back({"peak_rss_mb", "MB", {peak_rss_mb()}});
  print_outcome(o, ctx, dir + "/result-trace0-seed" + std::to_string(a.seed) +
                            ".json");
  return o.correct ? 0 : 1;
}

/// Every campaign of the benchmark seed: one pass plus the re-composition
/// each; prints one pinned-digests line per campaign.
int print_digest(const Args& a) {
  const Shape& shape = a.tiny ? a.workload->tiny : a.workload->full;
  const std::string dir = a.out + "/" + std::string(a.workload->name);
  std::filesystem::create_directories(dir);
  for (int k = 0; k < kCampaignsPerSeed; ++k) {
    const auto ro = runner_options(shape, campaign_seed(a.seed, k));
    (void)setup_pass(ro);
    const Pass p = run_pass(ro, shape.store ? dir + "/store" : "", true,
                            dir + "/digest");
    const std::string ref = cells_digest(recompose(ro, nullptr, "").cells);
    if (!p.error.empty() || p.cells != ref ||
        (!a.tiny && !p.violation.empty())) {
      std::fprintf(stderr, "campaignbench: refusing to pin seed %llu: %s%s%s\n",
                   static_cast<unsigned long long>(ro.seed), p.error.c_str(),
                   p.cells != ref ? "run_campaign != re-composition; " : "",
                   p.violation.c_str());
      return 1;
    }
    std::printf("%.*s %s %llu %s %s\n",
                static_cast<int>(a.workload->name.size()),
                a.workload->name.data(), a.tiny ? "tiny" : "full",
                static_cast<unsigned long long>(ro.seed), p.cells.c_str(),
                shape.store ? p.artifacts.c_str() : "-");
  }
  return 0;
}

}  // namespace

Pinned find_pinned(const Args& a, std::uint64_t campaign) {
  const auto pins = load_pinned(a.digests);
  const auto it = pins.find(std::string(a.workload->name) + " " +
                            (a.tiny ? "tiny" : "full") + " " +
                            std::to_string(campaign));
  return it == pins.end() ? Pinned{} : it->second;
}

Pass run_pass(const gf::depbench::RunnerOptions& ro_in,
              const std::string& store_dir, bool fresh,
              const std::string& artifact_dir) {
  Pass p;
  if (fresh && !store_dir.empty()) remove_tree(store_dir);
  try {
    const double w0 = wall_now_s();
    const double c0 = process_cpu_s();
    std::unique_ptr<gf::store::CampaignStore> st;
    auto ro = ro_in;
    if (!store_dir.empty()) {
      st = std::make_unique<gf::store::CampaignStore>(store_dir);
      ro.store = st.get();
    }
    gf::depbench::CampaignRunner runner(ro);
    const auto cells = runner.run_campaign();
    const auto art = render_artifacts(cells, ro, runner.campaign_obs());
    write_artifacts(art, artifact_dir);
    st.reset();
    p.wall_s = wall_now_s() - w0;
    p.cpu_s = process_cpu_s() - c0;
    p.cells = cells_digest(cells);
    p.artifacts = ro.obs ? art.digest() : "-";
    p.violation = shape_violation(cells);
    if (runner.scheduler_stats() != nullptr) p.sched = *runner.scheduler_stats();
    if (runner.campaign_obs() != nullptr) {
      p.obs_counters = runner.campaign_obs()->metrics.counters();
    }
  } catch (const std::exception& e) {
    p.error = std::string("threw: ") + e.what();
  }
  return p;
}

void print_outcome(const Outcome& o, const Context& ctx,
                   const std::string& record_path) {
  std::string ctx_json = "{";
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    ctx_json += (i ? ", \"" : "\"") + ctx[i].first + "\": \"" +
                json_escape(ctx[i].second) + "\"";
  }
  ctx_json += "}";
  std::printf("# context %s\n", ctx_json.c_str());

  std::ostringstream stats, metrics;
  stats << '{';
  metrics << '{';
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const auto& m = o.metrics[i];
    const double med = median(m.samples);
    const auto q = quartiles(m.samples);
    const double spread = med != 0 ? (q[2] - q[0]) / med : 0;
    if (m.samples.size() == 1) {
      std::printf("# %-28s %16.10g %s\n", m.name.c_str(), med, m.unit.c_str());
    } else {
      std::printf("# %-28s %16.10g %-5s n=%zu q1=%.6g q3=%.6g spread=%.2f%%\n",
                  m.name.c_str(), med, m.unit.c_str(), m.samples.size(), q[0],
                  q[2], 100 * spread);
    }
    const char* sep = i ? ", " : "";
    metrics << sep << '"' << m.name << "\": {\"value\": " << num(med)
            << ", \"unit\": \"" << m.unit << "\"}";
    stats << sep << '"' << m.name << "\": {\"unit\": \"" << m.unit
          << "\", \"n\": " << m.samples.size() << ", \"median\": " << num(med)
          << ", \"q1\": " << num(q[0]) << ", \"q3\": " << num(q[2])
          << ", \"spread\": " << num(spread) << ", \"samples\": [";
    for (std::size_t k = 0; k < m.samples.size(); ++k) {
      stats << (k ? ", " : "") << num(m.samples[k]);
    }
    stats << "]}";
  }
  metrics << '}';
  stats << '}';
  std::ostringstream result;
  result << "{\"correct\": " << (o.correct ? "true" : "false")
         << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
         << ", \"metrics\": " << metrics.str() << '}';

  const auto slash = record_path.rfind('/');
  if (slash != std::string::npos) {
    std::filesystem::create_directories(record_path.substr(0, slash));
  }
  std::ofstream rec(record_path, std::ios::trunc);
  rec << "{\"schema\": \"campaignbench/1\", \"context\": " << ctx_json
      << ", \"stats\": " << stats.str() << ", \"result\": " << result.str()
      << "}\n";
  std::printf("# record -> %s\n", record_path.c_str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

}  // namespace cb

int main(int argc, char** argv) {
  using namespace cb;
  Args a;
  bool print_digest_mode = false;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      const auto name = value();
      a.workload = find_workload(name);
      if (a.workload == nullptr) usage(("unknown workload " + name).c_str());
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value().c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      const auto v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (arg == "--size") {
      const auto v = value();
      if (v != "full" && v != "tiny") usage("--size takes full or tiny");
      a.tiny = v == "tiny";
    } else if (arg == "--digests") {
      a.digests = value();
    } else if (arg == "--out") {
      a.out = value();
    } else if (arg == "--commit") {
      a.commit = value();
    } else if (arg == "--print-digest") {
      print_digest_mode = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload == nullptr || !have_seed) usage("--workload and --seed are required");
  if (!print_digest_mode && (!have_seconds || !have_trace)) {
    usage("--seconds and --trace are required");
  }
  // Timings from an unoptimized or assert-enabled build describe nothing.
#ifndef NDEBUG
  std::fprintf(stderr, "campaignbench: refusing a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(CB_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "campaignbench: refusing a %s build (need Release)\n",
                 CB_BUILD_TYPE);
    return 2;
  }
  gf::util::set_log_level(gf::util::LogLevel::kWarn);
  try {
    if (print_digest_mode) return print_digest(a);
    const auto ctx = host_context(a);
    return a.trace ? traced_run(a, ctx) : measured_run(a, ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
}
