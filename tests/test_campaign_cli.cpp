// Tests for the shared campaign front-end (depbench/campaign_cli): every
// flag in the table lands in its field, malformed command lines come back as
// errors (never a silent run), --os/--server select cells, a faultload is
// only injected into the OS build it was scanned from, and the one artifact
// writer produces a manifest the schema checker accepts. gfbench's other
// subcommands reject flags outside their own lists.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "depbench/campaign_cli.h"
#include "os/kernel.h"
#include "swfit/scanner.h"

namespace gf::depbench {
namespace {

/// Parses a command line (without the program name) over `args`.
std::string parse(std::initializer_list<const char*> words,
                  CampaignArgs& args) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (const char* w : words) argv.push_back(const_cast<char*>(w));
  return parse_campaign_args(static_cast<int>(argv.size()), argv.data(), 1,
                             args);
}

std::string parse(std::initializer_list<const char*> words) {
  CampaignArgs args;
  return parse(words, args);
}

TEST(CampaignCliTest, EveryFlagSetsItsField) {
  CampaignArgs a;
  const auto err = parse(
      {"--os", "xp", "--server", "abyssal", "--faultload", "fl.txt",
       "--full", "--quick", "--scale", "0.25", "--stride", "9",
       "--iterations", "4", "--seed", "77", "--baseline-ms", "321",
       "--jobs", "3", "--chunk", "5", "--no-fusion", "--cold-boot",
       "--progress", "--store", "S", "--resume", "--no-cache",
       "--crash-after-puts", "6", "--metrics-json", "m", "--html-report", "h",
       "--journal-out", "j", "--chrome-trace", "c", "--profile-json", "p",
       "--flame-out", "f", "--profile-stride", "512", "--activation-report",
       "--trace-out", "t", "--activation-json", "a", "--sched-json", "s",
       "--store-json", "sj"},
      a);
  ASSERT_EQ(err, "");
  const auto& r = a.runner;
  EXPECT_EQ(r.versions, std::vector<os::OsVersion>{os::OsVersion::kVosXp});
  EXPECT_EQ(r.servers, std::vector<std::string>{"abyssal"});
  EXPECT_EQ(a.faultload, "fl.txt");
  EXPECT_DOUBLE_EQ(r.time_scale, 0.25);
  EXPECT_EQ(r.stride, 9);
  EXPECT_EQ(r.iterations, 4);
  EXPECT_EQ(r.seed, 77u);
  EXPECT_DOUBLE_EQ(r.baseline_window_ms, 321);
  EXPECT_EQ(r.jobs, 3);
  EXPECT_EQ(r.chunk, 5);
  EXPECT_FALSE(r.fusion);
  EXPECT_FALSE(r.warm_boot);
  EXPECT_TRUE(a.progress);
  EXPECT_EQ(a.store_dir, "S");
  EXPECT_TRUE(a.resume);
  EXPECT_TRUE(a.no_cache);
  EXPECT_EQ(a.crash_after_puts, 6u);
  EXPECT_EQ(a.metrics_json, "m");
  EXPECT_EQ(a.html_report, "h");
  EXPECT_EQ(a.journal_out, "j");
  EXPECT_EQ(a.chrome_trace, "c");
  EXPECT_EQ(a.profile_json, "p");
  EXPECT_EQ(a.flame_out, "f");
  EXPECT_EQ(r.profile_stride, 512u);
  EXPECT_TRUE(a.activation_report);
  EXPECT_EQ(a.trace_out, "t");
  EXPECT_EQ(a.activation_json, "a");
  EXPECT_EQ(a.sched_json, "s");
  EXPECT_EQ(a.store_json, "sj");

  // --quick and --full are presets; the later one wins.
  CampaignArgs q;
  ASSERT_EQ(parse({"--full", "--quick"}, q), "");
  EXPECT_EQ(q.runner.stride, 16);
  EXPECT_EQ(q.runner.iterations, 2);
  CampaignArgs f;
  ASSERT_EQ(parse({"--quick", "--full"}, f), "");
  EXPECT_EQ(f.runner.stride, 1);
  EXPECT_EQ(f.runner.iterations, 3);

  // The usage text is generated from the same table: it lists exactly the
  // 31 flags exercised above.
  std::set<std::string> listed;
  std::istringstream usage(campaign_usage());
  std::string word;
  while (usage >> word) {
    if (word.rfind("--", 0) == 0) listed.insert(word);
  }
  const std::set<std::string> expected = {
      "--os", "--server", "--faultload", "--quick", "--full", "--scale",
      "--stride", "--iterations", "--seed", "--baseline-ms", "--jobs",
      "--chunk", "--no-fusion", "--cold-boot", "--progress",
      "--store", "--resume", "--no-cache", "--crash-after-puts",
      "--metrics-json", "--html-report", "--journal-out", "--chrome-trace",
      "--profile-json", "--flame-out", "--profile-stride",
      "--activation-report", "--trace-out", "--activation-json",
      "--sched-json", "--store-json"};
  EXPECT_EQ(listed, expected);
}

TEST(CampaignCliTest, DefaultsComeFromTheCaller) {
  CampaignArgs a;
  a.runner.stride = 1;
  a.runner.seed = 1000;
  ASSERT_EQ(parse({"--iterations", "2"}, a), "");
  EXPECT_EQ(a.runner.stride, 1);
  EXPECT_EQ(a.runner.seed, 1000u);
  EXPECT_EQ(a.runner.iterations, 2);
}

TEST(CampaignCliTest, MalformedCommandLinesAreErrors) {
  EXPECT_NE(parse({"--strde", "2"}), "");             // unknown flag
  EXPECT_NE(parse({"--trace-out", "t.jsonl", "--strde", "2"}), "");
  EXPECT_NE(parse({"--shards", "2"}), "");            // removed alias
  EXPECT_NE(parse({"stray"}), "");                    // positional word
  EXPECT_NE(parse({"--stride"}), "");                 // missing value
  EXPECT_NE(parse({"--metrics-json"}), "");
  EXPECT_NE(parse({"--stride", "abc"}), "");          // malformed value
  EXPECT_NE(parse({"--stride", "0"}), "");
  EXPECT_NE(parse({"--scale", "1x"}), "");
  EXPECT_NE(parse({"--seed", "-1"}), "");
  EXPECT_NE(parse({"--os", "nt"}), "");
  EXPECT_NE(parse({"--no-fusion", "1"}), "");         // switches take none
}

TEST(CampaignCliTest, NegativeChunkIsRejected) {
  const auto err = parse({"--chunk", "-3"});
  EXPECT_NE(err.find("--chunk"), std::string::npos) << err;
  EXPECT_EQ(parse({"--chunk", "0"}), "");
}

TEST(CampaignCliTest, ResumeWithoutStoreIsRejected) {
  EXPECT_NE(parse({"--resume"}).find("--store"), std::string::npos);
  EXPECT_EQ(parse({"--resume", "--store", "S"}), "");
}

TEST(CampaignCliTest, OsAndServerSelectCells) {
  CampaignArgs all;
  ASSERT_EQ(parse({}, all), "");
  EXPECT_EQ(all.runner.versions.size(), 2u);
  EXPECT_EQ(all.runner.servers.size(), 2u);

  CampaignArgs xp;
  ASSERT_EQ(parse({"--os", "xp"}, xp), "");
  EXPECT_EQ(xp.runner.versions,
            std::vector<os::OsVersion>{os::OsVersion::kVosXp});
  EXPECT_EQ(xp.runner.servers.size(), 2u);

  CampaignArgs apex;
  ASSERT_EQ(parse({"--server", "apex"}, apex), "");
  EXPECT_EQ(apex.runner.versions.size(), 2u);
  EXPECT_EQ(apex.runner.servers, std::vector<std::string>{"apex"});
}

TEST(CampaignCliTest, FaultloadOfAnotherBuildIsRefused) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> names;
  for (const auto& fn : os::api_functions()) names.emplace_back(fn.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), names);
  const auto path = ::testing::TempDir() + "gfcli_vos2000.fl";
  std::ofstream(path) << fl.serialize();

  // Scanned for VOS-2000: refused for --os xp, and for the default matrix
  // (which includes VOS-XP) — nothing runs.
  for (const bool narrow : {true, false}) {
    CampaignArgs args;
    ASSERT_EQ(narrow ? parse({"--os", "xp", "--faultload", path.c_str()}, args)
                     : parse({"--faultload", path.c_str()}, args),
              "");
    CampaignRun run;
    const auto err = run_campaign_cli(args, run);
    EXPECT_NE(err.find("digest does not match this VOS-XP build"),
              std::string::npos)
        << err;
    EXPECT_EQ(run.runner, nullptr);
  }

  CampaignArgs missing;
  ASSERT_EQ(parse({"--faultload", "/nonexistent/gf.fl"}, missing), "");
  CampaignRun run;
  EXPECT_NE(run_campaign_cli(missing, run), "");
}

TEST(CampaignCliTest, ResumeNeedsAnExistingStore) {
  CampaignArgs args;
  const auto dir = ::testing::TempDir() + "gfcli_no_such_store";
  ASSERT_EQ(parse({"--resume", "--store", dir.c_str()}, args), "");
  CampaignRun run;
  EXPECT_NE(run_campaign_cli(args, run).find("no store"), std::string::npos);
}

TEST(CampaignCliTest, SingleCellManifestPassesTheSchemaCheck) {
  const auto manifest = ::testing::TempDir() + "gfcli_manifest.json";
  const auto sched = ::testing::TempDir() + "gfcli_sched.json";
  std::remove(manifest.c_str());
  std::remove(sched.c_str());
  CampaignArgs args;
  ASSERT_EQ(parse({"--os", "xp", "--server", "abyssal", "--stride", "96",
                   "--iterations", "1", "--scale", "0.02", "--baseline-ms",
                   "500", "--jobs", "2", "--metrics-json", manifest.c_str(),
                   "--sched-json", sched.c_str()},
                  args),
            "");
  CampaignRun run;
  ASSERT_EQ(run_campaign_cli(args, run), "");
  ASSERT_EQ(run.cells.size(), 1u);
  EXPECT_EQ(run.cells[0].os_name, "VOS-XP");
  EXPECT_EQ(run.cells[0].server_name, "abyssal");
  ASSERT_EQ(write_campaign_artifacts(args, run), "");

  for (const auto& [schema, file] :
       {std::pair{"manifest", manifest}, std::pair{"sched", sched}}) {
    const std::string cmd = std::string(GF_JSON_CHECK) + " --schema " +
                            schema + " " + file + " > /dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }

  // A path that cannot be written comes back as an error naming it.
  auto bad = args;
  bad.metrics_json = "/nonexistent/dir/m.json";
  EXPECT_NE(write_campaign_artifacts(bad, run).find(bad.metrics_json),
            std::string::npos);
}

// The other gfbench subcommands check their flags against per-command
// lists, so a typo there is a usage error (exit 2) before any work starts.
TEST(GfbenchCliTest, SubcommandTyposAreUsageErrors) {
  for (const char* args :
       {"scan --os 2000 --outt x.fl", "profile --os 2000 --server apex",
        "show --faultload x.fl --limt 3", "store ls --stor d",
        "diff a.json b.json --threshhold 3", "campaign --strde 2",
        "campaign --trace-out t.jsonl --strde 2", "campaign --shards 2"}) {
    const std::string cmd =
        std::string(GF_GFBENCH) + " " + args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
  }
}

}  // namespace
}  // namespace gf::depbench
