// Campaign store tests: key derivation must be injective over the field
// sequence, the run-record codec must be canonical, the WAL+segment commit
// must survive torn tails and detect corruption, and — the load-bearing
// contract — the merged campaign artifacts must be byte-identical for ANY
// cache-hit pattern, including a resume after a mid-campaign SIGKILL.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "os/kernel.h"
#include "store/campaign_codec.h"
#include "store/key.h"
#include "store/store.h"
#include "store/wire.h"
#include "swfit/scanner.h"

namespace gf::store {
namespace {

// ------------------------------------------------------------------- keys

TEST(KeyBuilderTest, DeterministicAndHexSpelling) {
  const auto k1 = KeyBuilder().u64(7).str("apex").f64(0.05).finish();
  const auto k2 = KeyBuilder().u64(7).str("apex").f64(0.05).finish();
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.hex().size(), 32u);
  EXPECT_EQ(k1.hex().find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(KeyBuilderTest, EveryFieldChangesTheKey) {
  const auto base = KeyBuilder().u64(7).str("apex").f64(0.05).finish();
  EXPECT_NE(base, KeyBuilder().u64(8).str("apex").f64(0.05).finish());
  EXPECT_NE(base, KeyBuilder().u64(7).str("abyssal").f64(0.05).finish());
  EXPECT_NE(base, KeyBuilder().u64(7).str("apex").f64(0.06).finish());
}

TEST(KeyBuilderTest, NoConcatenationAmbiguity) {
  // "ab" + "c" and "a" + "bc" concatenate to the same bytes; the length
  // prefix must still separate them.
  const auto a = KeyBuilder().str("ab").str("c").finish();
  const auto b = KeyBuilder().str("a").str("bc").finish();
  EXPECT_NE(a, b);
  // A u64 and the string of its little-endian bytes must not collide either
  // (distinct type tags).
  const auto u = KeyBuilder().u64(0).finish();
  const auto s = KeyBuilder().str(std::string(8, '\0')).finish();
  EXPECT_NE(u, s);
}

TEST(KeyBuilderTest, SignedZeroAndBitPatternsDistinct) {
  EXPECT_NE(KeyBuilder().f64(0.0).finish(), KeyBuilder().f64(-0.0).finish());
}

// ------------------------------------------------------------------ codec

RunRecord sample_record() {
  RunRecord rec;
  rec.cell = "VOS-2000/apex";
  rec.label = "iter0.f12";
  rec.result.counters.mis = 2;
  rec.result.counters.kns = 1;
  rec.result.counters.faults_injected = 3;
  trace::ActivationRecord ar;
  ar.fault_index = 12;
  ar.function = "vos_alloc";
  ar.hits = 5;
  ar.first_hit_cycle = 4242;
  ar.outcome = trace::Outcome::kExternalFailure;
  rec.result.activations.push_back(ar);
  return rec;
}

TEST(RunCodecTest, RoundTripIsCanonical) {
  const auto rec = sample_record();
  const auto bytes = encode_run_record(rec);
  const auto back = decode_run_record(bytes);
  EXPECT_EQ(back.cell, rec.cell);
  EXPECT_EQ(back.label, rec.label);
  EXPECT_EQ(back.has_obs, rec.has_obs);
  EXPECT_EQ(back.result.counters.mis, rec.result.counters.mis);
  ASSERT_EQ(back.result.activations.size(), 1u);
  EXPECT_EQ(back.result.activations[0].function, "vos_alloc");
  EXPECT_EQ(back.result.activations[0].hits, 5u);
  // Canonical: re-encoding the decode reproduces the original bytes.
  EXPECT_EQ(encode_run_record(back), bytes);
}

TEST(RunCodecTest, PeekReadsCellAndLabelOnly) {
  const auto bytes = encode_run_record(sample_record());
  std::string cell, label;
  ASSERT_TRUE(peek_run_meta(bytes, cell, label));
  EXPECT_EQ(cell, "VOS-2000/apex");
  EXPECT_EQ(label, "iter0.f12");
  EXPECT_FALSE(peek_run_meta({}, cell, label));
}

TEST(RunCodecTest, TruncationThrowsWireError) {
  auto bytes = encode_run_record(sample_record());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_run_record(bytes), WireError);
  EXPECT_THROW(decode_run_record({}), WireError);
}

// ------------------------------------------------------------------ store

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gfstore_" + name;
  std::remove((dir + "/segment.gfs").c_str());
  std::remove((dir + "/wal.gfj").c_str());
  return dir;
}

std::vector<std::uint8_t> payload_of(const std::string& s) {
  return {s.begin(), s.end()};
}

ResultKey key_of(std::uint64_t n) { return KeyBuilder().u64(n).finish(); }

void append_bytes(const std::string& path, const std::string& junk) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  std::fclose(f);
}

void flip_byte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
}

long file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

TEST(CampaignStoreTest, PutGetPersistsAcrossReopen) {
  const auto dir = fresh_dir("reopen");
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("one"));
    st.put(key_of(2), payload_of("two-two"));
    st.put(key_of(3), payload_of("three"));
    EXPECT_EQ(st.stats().puts, 3u);
    EXPECT_EQ(st.stats().records, 3u);
  }
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 3u);
  EXPECT_EQ(st.stats().torn_bytes_dropped, 0u);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(2), p));
  EXPECT_EQ(p, payload_of("two-two"));
  ASSERT_TRUE(st.get(key_of(3), p));
  EXPECT_EQ(p, payload_of("three"));
  EXPECT_FALSE(st.get(key_of(4), p));
  EXPECT_EQ(st.stats().hits, 2u);
  EXPECT_EQ(st.stats().misses, 1u);
  EXPECT_EQ(st.verify(), 0u);
}

TEST(CampaignStoreTest, LastPutWinsAndGcCompactsDeadVersions) {
  const auto dir = fresh_dir("dupes");
  CampaignStore st(dir);
  st.put(key_of(1), payload_of("version-1"));
  st.put(key_of(1), payload_of("version-2!"));
  EXPECT_EQ(st.list().size(), 1u);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(1), p));
  EXPECT_EQ(p, payload_of("version-2!"));

  // Both versions' bytes sit in the segment; gc drops the dead one.
  EXPECT_EQ(file_size(dir + "/segment.gfs"), 19);
  EXPECT_EQ(st.gc(0), 0u);  // no live record dropped
  EXPECT_EQ(file_size(dir + "/segment.gfs"), 10);
  ASSERT_TRUE(st.get(key_of(1), p));
  EXPECT_EQ(p, payload_of("version-2!"));
  EXPECT_EQ(st.verify(), 0u);
}

TEST(CampaignStoreTest, GcEvictsOldestUnderBudget) {
  const auto dir = fresh_dir("evict");
  CampaignStore st(dir);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    st.put(key_of(i), payload_of("0123456789"));  // 10 bytes each
  }
  EXPECT_EQ(st.gc(20), 2u);  // 40 live bytes, budget 20: drop the 2 oldest
  EXPECT_EQ(st.list().size(), 2u);
  std::vector<std::uint8_t> p;
  EXPECT_FALSE(st.get(key_of(1), p));
  EXPECT_FALSE(st.get(key_of(2), p));
  EXPECT_TRUE(st.get(key_of(3), p));
  EXPECT_TRUE(st.get(key_of(4), p));
  EXPECT_EQ(st.stats().bytes, 20u);
}

TEST(CampaignStoreTest, TornWalTailIsTruncatedOnOpen) {
  const auto dir = fresh_dir("tornwal");
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("aaa"));
    st.put(key_of(2), payload_of("bbb"));
    st.put(key_of(3), payload_of("ccc"));
  }
  // A garbage "entry" (bad magic) plus a partial tail — the crash left the
  // WAL mid-append.
  append_bytes(dir + "/wal.gfj", std::string(48, '\xff') + "partial");
  {
    CampaignStore st(dir);
    EXPECT_EQ(st.stats().recovered_records, 3u);
    EXPECT_EQ(st.stats().torn_bytes_dropped, 55u);
    std::vector<std::uint8_t> p;
    ASSERT_TRUE(st.get(key_of(3), p));
    EXPECT_EQ(p, payload_of("ccc"));
  }
  // The truncation is durable: a second open sees a clean store.
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 3u);
  EXPECT_EQ(st.stats().torn_bytes_dropped, 0u);
}

TEST(CampaignStoreTest, TornSegmentTailIsTruncatedOnOpen) {
  const auto dir = fresh_dir("tornseg");
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("aaa"));
    st.put(key_of(2), payload_of("bbb"));
  }
  // Crash between the segment append and the WAL append: unreferenced
  // payload bytes at the segment tail, no WAL entry for them.
  append_bytes(dir + "/segment.gfs", "orphaned-payload");
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 2u);
  EXPECT_EQ(st.stats().torn_bytes_dropped, 16u);
  EXPECT_EQ(file_size(dir + "/segment.gfs"), 6);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(2), p));
  EXPECT_EQ(p, payload_of("bbb"));
  EXPECT_EQ(st.verify(), 0u);
}

TEST(CampaignStoreTest, TearHookRecoversInPlaceAndStoreStaysUsable) {
  const auto dir = fresh_dir("tearhook");
  CampaignStore st(dir);
  st.put(key_of(1), payload_of("first"));
  st.put(key_of(2), payload_of("second"));
  const long wal_before = file_size(dir + "/wal.gfj");
  st.put(key_of(3), payload_of("third"));
  const long wal_after = file_size(dir + "/wal.gfj");
  ASSERT_GT(wal_after, wal_before);

  // Tear the third commit's WAL entry clean off plus a few segment payload
  // bytes — the fuzzer's in-process crash model. Recovery re-runs in place:
  // the surviving prefix must stay intact and the store must remain
  // writable without a reopen.
  st.tear_tail_for_test(/*seg_drop=*/3,
                        /*wal_drop=*/static_cast<std::uint64_t>(wal_after -
                                                                wal_before));
  EXPECT_EQ(st.verify(), 0u);
  std::vector<std::uint8_t> p;
  EXPECT_FALSE(st.get(key_of(3), p));
  ASSERT_TRUE(st.get(key_of(2), p));
  EXPECT_EQ(p, payload_of("second"));

  st.put(key_of(4), payload_of("fourth"));
  ASSERT_TRUE(st.get(key_of(4), p));
  EXPECT_EQ(p, payload_of("fourth"));
}

TEST(CampaignStoreTest, CorruptPayloadInvalidatesFromThereOn) {
  const auto dir = fresh_dir("corrupt");
  long off2 = 0;
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("aaaa"));
    st.put(key_of(2), payload_of("bbbb"));
    st.put(key_of(3), payload_of("cccc"));
    off2 = static_cast<long>(st.list()[1].offset);
  }
  // External corruption inside record 2's payload: recovery is strictly a
  // tail truncation, so record 2 AND the later record 3 are dropped.
  flip_byte(dir + "/segment.gfs", off2 + 1);
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 1u);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(1), p));
  EXPECT_EQ(p, payload_of("aaaa"));
  EXPECT_FALSE(st.get(key_of(2), p));
  EXPECT_FALSE(st.get(key_of(3), p));
}

TEST(CampaignStoreTest, VerifyDetectsLiveCorruption) {
  const auto dir = fresh_dir("verify");
  CampaignStore st(dir);
  st.put(key_of(1), payload_of("aaaa"));
  st.put(key_of(2), payload_of("bbbb"));
  EXPECT_EQ(st.verify(), 0u);
  flip_byte(dir + "/segment.gfs", static_cast<long>(st.list()[1].offset));
  EXPECT_EQ(st.verify(), 1u);
  // The corrupt record reads as a miss, never as wrong bytes.
  std::vector<std::uint8_t> p;
  EXPECT_FALSE(st.get(key_of(2), p));
  EXPECT_TRUE(st.get(key_of(1), p));
}

TEST(CampaignStoreTest, CommitHookSeesEveryCommit) {
  const auto dir = fresh_dir("hook");
  CampaignStore st(dir);
  std::vector<std::uint64_t> counts;
  st.set_commit_hook([&counts](std::uint64_t c) { counts.push_back(c); });
  st.put(key_of(1), payload_of("a"));
  st.put(key_of(2), payload_of("b"));
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace gf::store

// ------------------------------------------- campaign cache-hit identity

namespace gf::depbench {
namespace {

RunnerOptions store_options() {
  RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex"};
  opt.iterations = 1;
  opt.stride = 41;
  opt.time_scale = 0.05;
  opt.baseline_window_ms = 2000;
  opt.seed = 11;
  opt.obs = true;
  opt.trace = true;
  return opt;
}

struct Artifacts {
  std::string manifest;
  std::string journal;
  bool operator==(const Artifacts&) const = default;
};

Artifacts run_artifacts(const RunnerOptions& opt,
                        store::StoreStats* stats_out = nullptr) {
  CampaignRunner runner(opt);
  const auto cells = runner.run_campaign();
  Artifacts a;
  a.manifest =
      campaign_manifest_json(cells, runner.options(), runner.campaign_obs());
  std::ostringstream j;
  write_campaign_journal(j, *runner.campaign_obs());
  a.journal = j.str();
  if (stats_out != nullptr) {
    EXPECT_NE(runner.store_stats(), nullptr) << "store was wired";
    if (runner.store_stats() != nullptr) *stats_out = *runner.store_stats();
  }
  return a;
}

std::string store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gfstore_" + name;
  std::remove((dir + "/segment.gfs").c_str());
  std::remove((dir + "/wal.gfj").c_str());
  return dir;
}

TEST(StoreCampaignTest, ColdResumeAndNoCacheAreByteIdentical) {
  const auto base = store_options();
  const auto ref = run_artifacts(base);  // no store at all
  ASSERT_FALSE(ref.manifest.empty());
  ASSERT_FALSE(ref.journal.empty());

  const auto dir = store_dir("identity");
  store::StoreStats st;
  {  // cold: empty store, everything executes and commits
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.store = &cs;
    const auto got = run_artifacts(opt, &st);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(st.hits, 0u);
    EXPECT_GT(st.misses, 0u);
    EXPECT_EQ(st.puts, st.misses);
  }
  const auto total = st.misses;
  {  // resume: every run is a cache hit, across a different jobs value
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.store = &cs;
    opt.jobs = 3;
    const auto got = run_artifacts(opt, &st);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.hits, total);
    EXPECT_EQ(st.puts, 0u);
  }
  {  // --no-cache: ignores the populated store, re-executes, re-commits
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.store = &cs;
    opt.store_read = false;
    const auto got = run_artifacts(opt, &st);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.puts, total);
  }
}

TEST(StoreCampaignTest, SeedChangeInvalidatesEveryKey) {
  const auto dir = store_dir("seed");
  store::StoreStats st;
  {
    store::CampaignStore cs(dir);
    auto opt = store_options();
    opt.store = &cs;
    run_artifacts(opt, &st);
    EXPECT_EQ(st.hits, 0u);
  }
  store::CampaignStore cs(dir);
  auto opt = store_options();
  opt.store = &cs;
  opt.seed = 12;  // every key folds the campaign seed
  run_artifacts(opt, &st);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
}

TEST(StoreCampaignTest, IncrementalRerunExecutesOnlyEditedFaultType) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> names;
  for (const auto& fn : os::api_functions()) names.emplace_back(fn.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), names);
  ASSERT_FALSE(fl.faults.empty());

  auto base = store_options();
  base.faultload = &fl;
  const std::size_t stride = static_cast<std::size_t>(base.stride);
  const std::size_t positions = (fl.faults.size() + stride - 1) / stride;

  // The sampled schedule's fault-type census; edit the rarest present type.
  std::array<std::size_t, swfit::kNumFaultTypes> sampled{};
  for (std::size_t p = 0; p < positions; ++p) {
    ++sampled[static_cast<std::size_t>(fl.faults[p * stride].type)];
  }
  std::size_t edited = 0;
  for (std::size_t t = 0; t < sampled.size(); ++t) {
    if (sampled[t] == 0) continue;
    if (sampled[edited] == 0 || sampled[t] < sampled[edited]) edited = t;
  }
  ASSERT_GT(sampled[edited], 0u);

  const auto dir = store_dir("incremental");
  store::StoreStats st;
  {
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.store = &cs;
    run_artifacts(opt, &st);
    EXPECT_EQ(st.misses, positions + 1);  // faults + profile baseline
  }
  // "The fault was fixed": the edited type's mutations revert to the
  // original windows. Originals are untouched, so the profile baseline and
  // every other fault's key stay cached.
  auto fl2 = fl;
  for (auto& f : fl2.faults) {
    if (static_cast<std::size_t>(f.type) == edited) f.mutated = f.original;
  }
  store::CampaignStore cs(dir);
  auto opt = base;
  opt.faultload = &fl2;
  opt.store = &cs;
  run_artifacts(opt, &st);
  EXPECT_EQ(st.misses, sampled[edited]);
  EXPECT_EQ(st.hits, positions + 1 - sampled[edited]);
}

TEST(StoreCampaignTest, KilledCampaignResumesByteIdentical) {
  const auto base = store_options();
  const auto ref = run_artifacts(base);
  const auto dir = store_dir("kill");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: run the campaign against the store and SIGKILL ourselves from
    // inside the 4th commit — mid-campaign, with the store lock held and
    // other workers mid-run. Nothing here may use gtest.
    store::CampaignStore cs(dir);
    cs.set_commit_hook([](std::uint64_t count) {
      if (count >= 4) std::raise(SIGKILL);
    });
    auto opt = base;
    opt.store = &cs;
    opt.jobs = 2;
    CampaignRunner runner(opt);
    runner.run_campaign();
    _exit(0);  // unreachable when the kill fires
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child must die by signal";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Resume: recovery keeps the committed runs, the rest re-execute, and the
  // merged artifacts are indistinguishable from the uninterrupted campaign.
  store::CampaignStore cs(dir);
  store::StoreStats st;
  auto opt = base;
  opt.store = &cs;
  const auto got = run_artifacts(opt, &st);
  EXPECT_EQ(got, ref);
  EXPECT_GT(st.hits, 0u) << "the killed run's commits must survive";
  EXPECT_GT(st.misses, 0u) << "the kill must have left work unfinished";
}

// Tier 1: the store must key on the cell's position in the campaign matrix.
// Run seeds are derive_seed(seed, cell, task), so VOS-XP/abyssal run alone
// (cell 0) and VOS-XP/abyssal inside the four-cell matrix (cell 3) compute
// different results; records of one must never serve the other.
TEST(StoreCellKeyTest, OneCellRecordsNeverServeAnotherCellIndex) {
  RunnerOptions four;
  four.iterations = 1;
  four.stride = 96;
  four.time_scale = 0.02;
  four.baseline_window_ms = 500;
  four.seed = 1;
  four.obs = true;
  four.jobs = 2;
  const auto ref = run_artifacts(four);

  const auto dir = store_dir("cellindex");
  store::StoreStats st;
  {
    store::CampaignStore cs(dir);
    auto one = four;
    one.versions = {os::OsVersion::kVosXp};
    one.servers = {"abyssal"};
    one.store = &cs;
    run_artifacts(one, &st);
    EXPECT_GT(st.puts, 0u);
  }
  store::CampaignStore cs(dir);
  auto opt = four;
  opt.store = &cs;
  const auto got = run_artifacts(opt, &st);
  EXPECT_EQ(st.hits, 0u) << "a one-cell record served a four-cell run";
  EXPECT_EQ(got, ref);
}

}  // namespace
}  // namespace gf::depbench
