// gfbench — command-line front end to the genfault library.
//
//   gfbench scan     --os 2000|xp [--out FILE] [--all-symbols]
//   gfbench profile  --os 2000|xp [--servers a,b,...]
//   gfbench campaign [--os 2000|xp] [--server NAME] [--faultload FILE]
//                    [campaign flags shared with table5_campaign]
//   gfbench store    <ls|verify|gc> --store DIR [--max-bytes N]
//   gfbench show     --faultload FILE [--limit N]
//   gfbench diff     OLD.json NEW.json [--threshold PCT] [--json FILE]
//
// `scan` writes a portable faultload file; `campaign` can consume it later
// (possibly on another machine — the digest check refuses a mismatched OS
// build), which is exactly the paper's repeatable/portable faultload story.
// `--store` adds the crash-safe result cache (src/store): interrupted
// campaigns resume with `--resume`, unchanged faults are never re-executed,
// and the merged artifacts stay byte-identical for any cache-hit pattern.
// `diff` compares two campaign manifests and exits nonzero when any gated
// metric drifted beyond the threshold — the cross-campaign regression gate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "depbench/campaign_cli.h"
#include "depbench/campaign_diff.h"
#include "depbench/report.h"
#include "depbench/tuner.h"
#include "isa/disassembler.h"
#include "store/campaign_codec.h"
#include "store/store.h"
#include "swfit/scanner.h"
#include "util/log.h"

namespace {

using namespace gf;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: gfbench <scan|profile|campaign|store|show|diff> "
               "[options]\n"
               "  scan     --os 2000|xp [--out FILE] [--all-symbols]\n"
               "  profile  --os 2000|xp [--servers apex,abyssal,...]\n"
               "  campaign [campaign options]  (default: all four cells, "
               "stride 1, seed 1000)\n"
               "  store    <ls|verify|gc> --store DIR [--max-bytes N]\n"
               "  show     --faultload FILE [--limit N]\n"
               "  diff     OLD.json NEW.json [--threshold PCT] [--json FILE]\n"
               "campaign options (shared with table5_campaign and "
               "fig5_comparison):\n%s",
               depbench::campaign_usage().c_str());
  std::exit(2);
}

/// Parses `--key value` pairs and `--switch`es; any flag outside the
/// command's lists is a usage error.
std::map<std::string, std::string> parse_flags(
    int argc, char** argv, int from, const std::set<std::string>& valued,
    const std::set<std::string>& switches = {}) {
  std::map<std::string, std::string> flags;
  for (int i = from; i < argc; ++i) {
    const std::string key =
        std::strncmp(argv[i], "--", 2) == 0 ? argv[i] + 2 : std::string{};
    if (switches.count(key) != 0) {
      flags[key] = "1";
    } else if (valued.count(key) != 0 && i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      std::fprintf(stderr, "gfbench %s: unknown or incomplete argument %s\n",
                   argv[1], argv[i]);
      usage();
    }
  }
  return flags;
}

os::OsVersion parse_os(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("os");
  if (it == flags.end() || it->second == "2000") return os::OsVersion::kVos2000;
  if (it->second == "xp") return os::OsVersion::kVosXp;
  usage();
}

std::vector<std::string> api_names() {
  std::vector<std::string> names;
  for (const auto& fn : os::api_functions()) names.emplace_back(fn.name);
  return names;
}

int cmd_scan(const std::map<std::string, std::string>& flags) {
  const auto version = parse_os(flags);
  os::Kernel kernel(version);
  swfit::Scanner scanner;
  const auto fl = flags.count("all-symbols")
                      ? scanner.scan_all(kernel.pristine_image())
                      : scanner.scan(kernel.pristine_image(), api_names());
  const auto counts = fl.counts_by_type();
  std::printf("scanned %s: %zu faults\n", os::os_version_name(version),
              fl.faults.size());
  for (int i = 0; i < swfit::kNumFaultTypes; ++i) {
    std::printf("  %-5s %d\n",
                swfit::fault_type_name(static_cast<swfit::FaultType>(i)),
                counts[static_cast<std::size_t>(i)]);
  }
  const auto out = flags.count("out") ? flags.at("out") : std::string{};
  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    f << fl.serialize();
    std::printf("faultload written to %s (digest %016llx)\n", out.c_str(),
                static_cast<unsigned long long>(fl.digest));
  }
  return 0;
}

int cmd_profile(const std::map<std::string, std::string>& flags) {
  const auto version = parse_os(flags);
  std::vector<std::string> servers = {"apex", "abyssal", "sambar", "savant"};
  if (flags.count("servers")) {
    servers.clear();
    std::istringstream in(flags.at("servers"));
    std::string name;
    while (std::getline(in, name, ',')) servers.push_back(name);
  }
  depbench::Profiler profiler;
  const auto profile = profiler.profile(version, servers);
  std::printf("%-30s", "function");
  for (const auto& col : profile.columns) std::printf(" %9s", col.server.c_str());
  std::printf(" %9s\n", "average");
  for (const auto& fn : os::api_functions()) {
    std::printf("%-30s", fn.name);
    for (const auto& col : profile.columns) {
      const auto it = col.pct.find(fn.name);
      std::printf(" %8.2f%%", it == col.pct.end() ? 0.0 : it->second);
    }
    std::printf(" %8.2f%%\n", profile.average_pct(fn.name));
  }
  const auto relevant = profile.relevant_functions();
  std::printf("selected for injection: %zu functions, %.2f%% call coverage\n",
              relevant.size(), profile.total_coverage());
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  // Same flags, runner and artifact writer as table5_campaign and
  // fig5_comparison; only the defaults differ. Run seeds derive from each
  // cell's position in the selected matrix, so a one-cell run is its own
  // campaign, not a slice of the four-cell one (the store keys on the
  // position too).
  depbench::CampaignArgs args;
  args.runner.stride = 1;
  args.runner.seed = 1000;
  if (const auto err = depbench::parse_campaign_args(argc, argv, 2, args);
      !err.empty()) {
    std::fprintf(stderr, "gfbench campaign: %s\n", err.c_str());
    usage();
  }
  depbench::CampaignRun run;
  auto err = depbench::run_campaign_cli(args, run);
  if (err.empty()) {
    for (const auto& cell : run.cells) {
      std::printf("%s\n", depbench::render_table5_cell(cell).c_str());
      const auto d = depbench::derive_metrics(cell);
      std::printf("SPC retention %.0f%%, THR retention %.0f%%, ER%%f %.1f, "
                  "ADMf %.1f\n",
                  100 * d.spc_rel, 100 * d.thr_rel, d.erf_pct, d.admf);
    }
    err = depbench::write_campaign_artifacts(args, run);
  }
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  return 0;
}

int cmd_store(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string action = argv[2];
  const auto flags = parse_flags(argc, argv, 3, {"store", "max-bytes"});
  if (!flags.count("store")) usage();
  store::CampaignStore st(flags.at("store"));
  if (action == "ls") {
    std::vector<std::uint8_t> payload;
    for (const auto& r : st.list()) {
      std::string cell = "?", label = "?";
      if (st.get(r.key, payload)) store::peek_run_meta(payload, cell, label);
      std::printf("%s  %10u  %s %s\n", r.key.hex().c_str(), r.length,
                  cell.c_str(), label.c_str());
    }
    const auto s = st.stats();
    std::printf("%llu records, %llu payload bytes",
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.bytes));
    if (s.torn_bytes_dropped > 0) {
      std::printf(" (%llu torn bytes dropped at open)",
                  static_cast<unsigned long long>(s.torn_bytes_dropped));
    }
    std::printf("\n");
    return 0;
  }
  if (action == "verify") {
    const auto bad = st.verify();
    const auto s = st.stats();
    std::printf("%llu records verified, %zu corrupt\n",
                static_cast<unsigned long long>(s.records), bad);
    return bad == 0 ? 0 : 1;
  }
  if (action == "gc") {
    const std::uint64_t max_bytes =
        flags.count("max-bytes") ? std::stoull(flags.at("max-bytes")) : 0;
    const auto dropped = st.gc(max_bytes);
    const auto s = st.stats();
    std::printf("gc: dropped %zu records, %llu live (%llu payload bytes)\n",
                dropped, static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.bytes));
    return 0;
  }
  usage();
}

int cmd_diff(int argc, char** argv) {
  // Two positional manifest paths, then flags.
  if (argc < 4 || std::strncmp(argv[2], "--", 2) == 0 ||
      std::strncmp(argv[3], "--", 2) == 0) {
    usage();
  }
  const auto flags = parse_flags(argc, argv, 4, {"threshold", "json"});
  auto slurp = [](const char* path, std::string& out) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot read %s\n", path);
      return false;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    out = buf.str();
    return true;
  };
  std::string old_text, new_text;
  if (!slurp(argv[2], old_text) || !slurp(argv[3], new_text)) return 1;

  depbench::DiffOptions dopt;
  if (flags.count("threshold")) {
    dopt.threshold_pct = std::stod(flags.at("threshold"));
  }
  const auto d = depbench::diff_campaigns(old_text, new_text, dopt);
  if (!d.ok) {
    std::fprintf(stderr, "error: %s\n", d.error.c_str());
    return 2;
  }
  if (flags.count("json")) {
    std::ofstream out(flags.at("json"));
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.at("json").c_str());
      return 1;
    }
    out << d.json;
  }
  std::fputs(d.text.c_str(), stdout);
  std::printf("%s (threshold %.1f%%)\n",
              d.breached ? "BREACHED" : "within threshold", dopt.threshold_pct);
  return d.breached ? 1 : 0;
}

int cmd_show(const std::map<std::string, std::string>& flags) {
  if (!flags.count("faultload")) usage();
  std::ifstream f(flags.at("faultload"));
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", flags.at("faultload").c_str());
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const auto fl = swfit::Faultload::parse(buf.str());
  std::printf("target %s, digest %016llx, %zu faults\n", fl.target.c_str(),
              static_cast<unsigned long long>(fl.digest), fl.faults.size());
  const auto limit = flags.count("limit")
                         ? static_cast<std::size_t>(std::stoul(flags.at("limit")))
                         : std::size_t{20};
  for (std::size_t i = 0; i < fl.faults.size() && i < limit; ++i) {
    const auto& fault = fl.faults[i];
    std::printf("%4zu  %-5s %-30s 0x%llx\n", i,
                swfit::fault_type_name(fault.type), fault.function.c_str(),
                static_cast<unsigned long long>(fault.addr));
    for (std::size_t k = 0; k < fault.window(); ++k) {
      std::printf("        %-28s => %s\n",
                  isa::disassemble(fault.original[k]).c_str(),
                  isa::disassemble(fault.mutated[k]).c_str());
    }
  }
  if (fl.faults.size() > limit) {
    std::printf("... %zu more (use --limit)\n", fl.faults.size() - limit);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  util::set_log_level(util::LogLevel::kInfo);
  try {
    // `store` takes an action word and `diff` two manifest paths before
    // their flags; everything else is flags-only from argv[2].
    if (cmd == "store") return cmd_store(argc, argv);
    if (cmd == "diff") return cmd_diff(argc, argv);
    if (cmd == "campaign") return cmd_campaign(argc, argv);
    if (cmd == "scan") {
      return cmd_scan(parse_flags(argc, argv, 2, {"os", "out"}, {"all-symbols"}));
    }
    if (cmd == "profile") {
      return cmd_profile(parse_flags(argc, argv, 2, {"os", "servers"}));
    }
    if (cmd == "show") {
      return cmd_show(parse_flags(argc, argv, 2, {"faultload", "limit"}));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
