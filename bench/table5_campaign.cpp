// Reproduces Table 5 of the paper: the full dependability benchmarking
// campaign — SPC, THR, RTM, ER%, MIS, KCP, KNS for three iterations of each
// web server on each OS version, plus per-cell averages.
//
// Flags: --quick (sampled faultload, 2 iterations), --full (every fault),
// --scale/--stride/--iterations for fine control. Default: every 6th fault
// at the paper's full 10 s exposure, 3 iterations. Every campaign flag
// (cells, scheduling, store, artifacts, tracing) is shared with
// fig5_comparison and `gfbench campaign` (depbench/campaign_cli; run with
// --help for the list).
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
  const auto& opt = args.runner;
  std::printf("Table 5 - Experimental results (exposure %.1f s/fault, "
              "stride %d, %d iterations)\n\n",
              10.0 * opt.time_scale, opt.stride, opt.iterations);

  depbench::CampaignRun run;
  auto err = depbench::run_campaign_cli(args, run);
  if (err.empty()) {
    for (const auto& cell : run.cells) {
      std::printf("%s\n", depbench::render_table5_cell(cell).c_str());
    }
    err = depbench::write_campaign_artifacts(args, run);
  }
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }

  // Pairs (apex, abyssal) per OS version; a --server run has no pairs.
  const auto& cells = run.cells;
  std::printf("Shape checks (paper Table 5):\n");
  for (std::size_t i = 0; opt.servers.size() == 2 && i + 1 < cells.size();
       i += 2) {
    const auto apex = depbench::derive_metrics(cells[i]);
    const auto abyssal = depbench::derive_metrics(cells[i + 1]);
    std::printf("  %s: apex ER%%=%.1f < abyssal ER%%=%.1f : %s | "
                "apex ADMf=%.1f vs abyssal ADMf=%.1f | "
                "apex SPCf=%.1f > abyssal SPCf=%.1f : %s\n",
                cells[i].os_name.c_str(), apex.erf_pct, abyssal.erf_pct,
                apex.erf_pct < abyssal.erf_pct ? "OK" : "MISMATCH",
                apex.admf, abyssal.admf, apex.spcf, abyssal.spcf,
                apex.spcf > abyssal.spcf ? "OK" : "MISMATCH");
  }
  return 0;
}
