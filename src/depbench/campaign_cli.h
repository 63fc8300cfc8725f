// Campaign front-end: the one flag table, parser, run step and artifact
// writer behind `gfbench campaign`, `table5_campaign` and `fig5_comparison`.
//
// A front-end fills a CampaignArgs with its own defaults (gfbench: stride 1,
// seed 1000; the paper benches: stride 6, seed 1), parses argv over them,
// runs the campaign and writes the artifacts through this module, keeping
// only its own rendering (header, table or figure, shape checks). Errors
// come back as values — an empty string means success — and nothing here
// exits the process.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "depbench/runner.h"
#include "obs/progress.h"
#include "store/store.h"
#include "swfit/faultload.h"

namespace gf::depbench {

/// Everything a campaign flag can set.
struct CampaignArgs {
  /// Campaign shape and scheduling knobs. `versions`/`servers` select the
  /// cells (--os/--server narrow them; by default all four cells run).
  /// trace/obs/profile are derived from the artifact paths at run time.
  RunnerOptions runner;
  std::string faultload;  ///< portable faultload file (digest-checked)
  /// Crash-safe result store (src/store): artifacts are byte-identical for
  /// any cache-hit pattern; hit/miss telemetry goes to `store_json` only.
  std::string store_dir;
  bool resume = false;    ///< the store must already exist
  bool no_cache = false;  ///< re-execute everything (still commits)
  /// CI/test hook: SIGKILL the process after the Nth store commit (0 = off)
  /// to exercise torn-tail recovery + resume.
  std::uint64_t crash_after_puts = 0;
  /// Rate-limited live progress on stderr instead of per-cell log lines.
  /// Display only — never feeds the deterministic artifacts.
  bool progress = false;
  bool activation_report = false;  ///< print the per-type x function table
  // Artifact paths; empty = not written.
  std::string metrics_json;     ///< campaign manifest (genfault-campaign/1)
  std::string html_report;      ///< self-contained HTML report
  std::string journal_out;      ///< slot-ordered event journal, JSONL
  std::string chrome_trace;     ///< Perfetto-loadable trace-event JSON
  std::string profile_json;     ///< cycle profiles (genfault-profile/1)
  std::string flame_out;        ///< collapsed-stack flamegraph
  std::string trace_out;        ///< activation event log, JSONL
  std::string activation_json;  ///< activation summary stats
  std::string sched_json;       ///< scheduler telemetry (genfault-sched/1)
  std::string store_json;       ///< store telemetry (genfault-store/1)
};

/// Parses argv[from, argc) over `args` (which carries the front-end's
/// defaults). Returns an error message for an unknown flag, a missing or
/// malformed value, a negative --chunk or --resume without --store.
std::string parse_campaign_args(int argc, char** argv, int from,
                                CampaignArgs& args);

/// One line per flag, generated from the flag table.
std::string campaign_usage();

/// A finished campaign plus everything the runner borrowed while running.
struct CampaignRun {
  CampaignRun() = default;
  CampaignRun(const CampaignRun&) = delete;  // the runner points into it
  CampaignRun& operator=(const CampaignRun&) = delete;

  swfit::Faultload faultload;
  std::unique_ptr<store::CampaignStore> store;
  std::unique_ptr<obs::ProgressReporter> progress;
  std::unique_ptr<CampaignRunner> runner;
  std::vector<ExperimentCell> cells;
};

/// Loads and digest-checks --faultload against every selected OS version,
/// opens the store, and runs the campaign into `run`. Returns an error
/// message when the faultload is unreadable or does not match, or when
/// --resume finds no store.
std::string run_campaign_cli(const CampaignArgs& args, CampaignRun& run);

/// Writes every artifact `args` asks for (manifest, HTML, journal, Chrome
/// trace, profile, flamegraph, sched/store telemetry, activation JSONL and
/// summary) and prints the activation report on stdout. Returns an error
/// message naming the first file that could not be written.
std::string write_campaign_artifacts(const CampaignArgs& args,
                                     const CampaignRun& run);

}  // namespace gf::depbench
