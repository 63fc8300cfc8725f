#include "depbench/campaign_cli.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "depbench/campaign_report.h"
#include "depbench/report.h"
#include "os/kernel.h"
#include "trace/activation.h"
#include "util/log.h"

namespace gf::depbench {

namespace {

bool to_int(const char* s, int& out, long min) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < min || v > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

bool to_u64(const char* s, std::uint64_t& out, std::uint64_t min) {
  char* end = nullptr;
  errno = 0;
  if (*s == '-') return false;  // strtoull would wrap it
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < min) return false;
  out = v;
  return true;
}

bool to_f64(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0) return false;
  out = v;
  return true;
}

// Setters: return false when the value is malformed or out of range.
using Setter = bool (*)(CampaignArgs&, const char*);

template <int RunnerOptions::*F, long Min>
bool set_int(CampaignArgs& a, const char* v) {
  return to_int(v, a.runner.*F, Min);
}

template <double RunnerOptions::*F>
bool set_f64(CampaignArgs& a, const char* v) {
  return to_f64(v, a.runner.*F);
}

template <bool RunnerOptions::*F>
bool clear_runner(CampaignArgs& a, const char*) {
  a.runner.*F = false;
  return true;
}

template <bool CampaignArgs::*F>
bool set_flag(CampaignArgs& a, const char*) {
  a.*F = true;
  return true;
}

template <std::string CampaignArgs::*F>
bool set_path(CampaignArgs& a, const char* v) {
  a.*F = v;
  return *v != '\0';
}

struct Flag {
  const char* name;
  const char* arg;  ///< value placeholder; null = switch
  const char* help;
  Setter set;
};

// Every campaign flag, in usage order.
const Flag kFlags[] = {
    {"os", "2000|xp", "run only this OS version's cells",
     [](CampaignArgs& a, const char* v) {
       if (std::strcmp(v, "2000") == 0) {
         a.runner.versions = {os::OsVersion::kVos2000};
       } else if (std::strcmp(v, "xp") == 0) {
         a.runner.versions = {os::OsVersion::kVosXp};
       } else {
         return false;
       }
       return true;
     }},
    {"server", "NAME", "run only this web server's cells",
     [](CampaignArgs& a, const char* v) {
       a.runner.servers = {v};
       return *v != '\0';
     }},
    {"faultload", "FILE",
     "portable faultload (must match every selected OS build)",
     set_path<&CampaignArgs::faultload>},
    {"quick", nullptr, "sampled campaign: stride 16, 2 iterations",
     [](CampaignArgs& a, const char*) {
       a.runner.stride = 16;
       a.runner.iterations = 2;
       return true;
     }},
    {"full", nullptr, "every fault: stride 1, 3 iterations",
     [](CampaignArgs& a, const char*) {
       a.runner.stride = 1;
       a.runner.iterations = 3;
       return true;
     }},
    {"scale", "S", "fault exposure scale (1.0 = the paper's 10 s)",
     set_f64<&RunnerOptions::time_scale>},
    {"stride", "K", "inject every K-th fault of the faultload",
     set_int<&RunnerOptions::stride, 1>},
    {"iterations", "N", "injection iterations per cell",
     set_int<&RunnerOptions::iterations, 1>},
    {"seed", "X", "campaign seed (per-run seeds are derived from it)",
     [](CampaignArgs& a, const char* v) { return to_u64(v, a.runner.seed, 0); }},
    {"baseline-ms", "MS", "profile-mode baseline window",
     set_f64<&RunnerOptions::baseline_window_ms>},
    {"jobs", "J", "worker threads (0 = hardware concurrency)",
     set_int<&RunnerOptions::jobs, 0>},
    {"chunk", "N", "fault positions per chunk (0 = adaptive)",
     set_int<&RunnerOptions::chunk, 0>},
    {"no-fusion", nullptr, "disable VM superinstruction fusion (A/B)",
     clear_runner<&RunnerOptions::fusion>},
    {"cold-boot", nullptr, "disable warm-boot snapshots (A/B)",
     clear_runner<&RunnerOptions::warm_boot>},
    {"progress", nullptr, "live faults/s and ETA on stderr",
     set_flag<&CampaignArgs::progress>},
    {"store", "DIR", "crash-safe result store (created if missing)",
     set_path<&CampaignArgs::store_dir>},
    {"resume", nullptr, "require the --store to exist already",
     set_flag<&CampaignArgs::resume>},
    {"no-cache", nullptr, "ignore cached results (still commits)",
     set_flag<&CampaignArgs::no_cache>},
    {"crash-after-puts", "N", "test hook: SIGKILL after the N-th store commit",
     [](CampaignArgs& a, const char* v) {
       return to_u64(v, a.crash_after_puts, 1);
     }},
    {"metrics-json", "FILE", "campaign manifest (genfault-campaign/1)",
     set_path<&CampaignArgs::metrics_json>},
    {"html-report", "FILE", "self-contained HTML report",
     set_path<&CampaignArgs::html_report>},
    {"journal-out", "FILE", "per-run event journal (JSONL)",
     set_path<&CampaignArgs::journal_out>},
    {"chrome-trace", "FILE", "Chrome/Perfetto trace-event JSON",
     set_path<&CampaignArgs::chrome_trace>},
    {"profile-json", "FILE", "guest cycle profiles (genfault-profile/1)",
     set_path<&CampaignArgs::profile_json>},
    {"flame-out", "FILE", "collapsed-stack flamegraph",
     set_path<&CampaignArgs::flame_out>},
    {"profile-stride", "N", "cycles between profiler PC samples",
     [](CampaignArgs& a, const char* v) {
       return to_u64(v, a.runner.profile_stride, 1);
     }},
    {"activation-report", nullptr,
     "print the per-fault-type x per-function activation table",
     set_flag<&CampaignArgs::activation_report>},
    {"trace-out", "FILE", "activation event log (JSONL)",
     set_path<&CampaignArgs::trace_out>},
    {"activation-json", "FILE", "activation summary stats",
     set_path<&CampaignArgs::activation_json>},
    {"sched-json", "FILE", "scheduler telemetry (genfault-sched/1)",
     set_path<&CampaignArgs::sched_json>},
    {"store-json", "FILE", "store telemetry (genfault-store/1)",
     set_path<&CampaignArgs::store_json>},
};

bool write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path);
  if (!out || !(out << content)) return false;
  std::fprintf(stderr, "[campaign] %s -> %s\n", what, path.c_str());
  return true;
}

}  // namespace

std::string parse_campaign_args(int argc, char** argv, int from,
                                CampaignArgs& args) {
  for (int i = from; i < argc; ++i) {
    const char* word = argv[i];
    const Flag* flag = nullptr;
    if (std::strncmp(word, "--", 2) == 0) {
      for (const auto& f : kFlags) {
        if (std::strcmp(word + 2, f.name) == 0) flag = &f;
      }
    }
    if (flag == nullptr) return std::string("unknown argument ") + word;
    const char* value = "";
    if (flag->arg != nullptr) {
      if (i + 1 >= argc) return std::string(word) + " needs a value";
      value = argv[++i];
    }
    if (!flag->set(args, value)) {
      return std::string("invalid value '") + value + "' for " + word + " " +
             flag->arg;
    }
  }
  if (args.resume && args.store_dir.empty()) {
    return "--resume requires --store DIR";
  }
  return {};
}

std::string campaign_usage() {
  std::string out;
  for (const auto& f : kFlags) {
    std::string lhs = std::string("  --") + f.name;
    if (f.arg != nullptr) lhs += std::string(" ") + f.arg;
    lhs.resize(std::max<std::size_t>(lhs.size() + 1, 26), ' ');
    out += lhs + f.help + "\n";
  }
  return out;
}

std::string run_campaign_cli(const CampaignArgs& args, CampaignRun& run) {
  auto ropt = args.runner;
  ropt.trace = args.activation_report || !args.trace_out.empty() ||
               !args.activation_json.empty();
  ropt.profile = !args.profile_json.empty() || !args.flame_out.empty();
  ropt.obs = ropt.profile || !args.metrics_json.empty() ||
             !args.html_report.empty() || !args.journal_out.empty() ||
             !args.chrome_trace.empty();

  // A portable faultload file is used for every selected cell, so it must
  // match every selected OS build before anything is injected.
  if (!args.faultload.empty()) {
    std::ifstream f(args.faultload);
    if (!f) return "cannot read " + args.faultload;
    std::stringstream buf;
    buf << f.rdbuf();
    try {
      run.faultload = swfit::Faultload::parse(buf.str());
    } catch (const std::exception& e) {
      return args.faultload + ": " + e.what();
    }
    for (const auto version : ropt.versions) {
      if (!run.faultload.matches(os::Kernel(version).pristine_image())) {
        return std::string("faultload digest does not match this ") +
               os::os_version_name(version) + " build — refusing to inject";
      }
    }
    ropt.faultload = &run.faultload;
  }

  if (!args.store_dir.empty()) {
    // A typo'd --resume directory fails loudly instead of running cold.
    if (args.resume && !std::ifstream(args.store_dir + "/wal.gfj")) {
      return "--resume: no store at " + args.store_dir;
    }
    run.store = std::make_unique<store::CampaignStore>(args.store_dir);
    ropt.store = run.store.get();
    ropt.store_read = !args.no_cache;
    if (args.crash_after_puts > 0) {
      const auto n = args.crash_after_puts;
      run.store->set_commit_hook([n](std::uint64_t count) {
        if (count >= n) std::raise(SIGKILL);
      });
    }
  }
  if (args.progress) {
    run.progress = std::make_unique<obs::ProgressReporter>();
    ropt.progress = run.progress.get();
  }

  // Campaigns narrate progress: one log line per completed cell, or the
  // rate-limited live reporter with --progress.
  if (util::log_level() > util::LogLevel::kInfo) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  std::fprintf(stderr,
               "[campaign] %zu servers x %zu OS versions, stride %d, %d "
               "iterations, jobs=%s%s%s\n",
               ropt.servers.size(), ropt.versions.size(), ropt.stride,
               ropt.iterations,
               ropt.jobs > 0 ? std::to_string(ropt.jobs).c_str() : "auto",
               ropt.trace ? ", tracing on" : "",
               ropt.warm_boot ? ", warm boot" : ", cold boot");
  run.runner = std::make_unique<CampaignRunner>(std::move(ropt));
  run.cells = run.runner->run_campaign();
  return {};
}

std::string write_campaign_artifacts(const CampaignArgs& args,
                                     const CampaignRun& run) {
  const auto& runner = *run.runner;
  const auto& cells = run.cells;
  std::string failed;
  auto emit = [&](const std::string& path, auto&& render, const char* what) {
    if (path.empty() || !failed.empty()) return;
    if (!write_file(path, render(), what)) failed = "cannot write " + path;
  };

  if (const auto* obs = runner.campaign_obs()) {
    emit(args.metrics_json,
         [&] { return campaign_manifest_json(cells, runner.options(), obs); },
         "campaign manifest");
    emit(args.html_report,
         [&] { return campaign_html_report(cells, runner.options(), obs); },
         "html report");
    emit(args.journal_out,
         [&] {
           std::ostringstream out;
           write_campaign_journal(out, *obs);
           return out.str();
         },
         "event journal");
    emit(args.chrome_trace, [&] { return campaign_chrome_trace(*obs); },
         "chrome trace");
    emit(args.profile_json,
         [&] { return campaign_profile_json(cells, runner.options(), *obs); },
         "cycle profile");
    emit(args.flame_out, [&] { return campaign_flamegraph(*obs); },
         "flamegraph");
  }
  if (const auto* st = runner.store_stats()) {
    emit(args.store_json, [&] { return st->to_json(); }, "store telemetry");
  }
  if (const auto* st = runner.scheduler_stats()) {
    emit(args.sched_json, [&] { return st->to_json(); },
         "scheduler telemetry");
  }

  if (runner.options().trace) {
    trace::ActivationStats stats;
    for (const auto& cell : cells) {
      stats.merge(trace::aggregate(collect_activations(cell)));
    }
    if (args.activation_report) {
      std::printf(
          "\nActivation & error propagation (per traced exposure)\n%s\n",
          trace::render_activation_report(stats).c_str());
    }
    emit(args.trace_out,
         [&] {
           std::ostringstream out;
           for (const auto& cell : cells) {
             for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
               trace::write_jsonl(out,
                                  cell.os_name + "/" + cell.server_name +
                                      "/iter" + std::to_string(it),
                                  cell.iterations[it].activations);
             }
           }
           return out.str();
         },
         "activation event log");
    emit(args.activation_json,
         [&] { return trace::activation_summary_json(stats); },
         "activation summary");
  }
  return failed;
}

}  // namespace gf::depbench
