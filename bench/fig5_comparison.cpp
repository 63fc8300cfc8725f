// Reproduces Figure 5 of the paper: side-by-side comparison of the behaviour
// of the two web servers in the presence of software faults — baseline vs
// faulty SPC/THR/RTM, ER%f and ADMf, for both operating systems.
//
// Run with --quick for a sampled campaign. The headline conclusion to check:
// apex (Apache-analogue) degrades less than abyssal (Abyss-analogue) on
// every metric, and the relative difference is stable across OS versions.
// Takes the same flags and defaults as table5_campaign (depbench/campaign_cli)
// so the two stay consistent.
#include <cstdio>

#include "depbench/campaign_cli.h"
#include "depbench/report.h"

int main(int argc, char** argv) {
  using namespace gf;
  depbench::CampaignArgs args;
  if (const auto err = depbench::parse_campaign_args(argc, argv, 1, args);
      !err.empty()) {
    std::fprintf(stderr, "%s\nusage: %s [options]\n%s", err.c_str(), argv[0],
                 depbench::campaign_usage().c_str());
    return 2;
  }

  depbench::CampaignRun run;
  auto err = depbench::run_campaign_cli(args, run);
  if (err.empty()) {
    std::printf("%s", depbench::render_fig5(run.cells).c_str());
    err = depbench::write_campaign_artifacts(args, run);
  }
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }

  // The paper's closing observation: the apex/abyssal relation is the same
  // on both OS versions (the faultloads expose an intrinsic BT property).
  const auto& cells = run.cells;
  if (cells.size() == 4) {
    const auto a2000 = depbench::derive_metrics(cells[0]);
    const auto b2000 = depbench::derive_metrics(cells[1]);
    const auto axp = depbench::derive_metrics(cells[2]);
    const auto bxp = depbench::derive_metrics(cells[3]);
    std::printf("Cross-OS stability: ER ratio abyssal/apex = %.1fx (VOS-2000) "
                "vs %.1fx (VOS-XP); SPC retention apex %.0f%%/%.0f%%, "
                "abyssal %.0f%%/%.0f%%\n",
                a2000.erf_pct > 0 ? b2000.erf_pct / a2000.erf_pct : 0.0,
                axp.erf_pct > 0 ? bxp.erf_pct / axp.erf_pct : 0.0,
                100 * a2000.spc_rel, 100 * axp.spc_rel, 100 * b2000.spc_rel,
                100 * bxp.spc_rel);
  }
  return 0;
}
