// Property-based sweeps over the substrate invariants:
//   - randomly generated MiniC programs compile deterministically and
//     execute identically on every run (the repeatability foundation),
//   - the VOS heap preserves its invariants under arbitrary alloc/free
//     sequences, on both OS versions,
//   - every mutation operator preserves the faultload's structural
//     invariants on every fault it generates,
//   - mutated code can never escape the VM's containment,
//   - the gfcheck VM fuzzer's programs reach every fused dispatch token.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <sstream>

#include "check/check.h"
#include "check/progen.h"
#include "minic/compiler.h"
#include "os/api.h"
#include "os/kernel.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "testutil_seed.h"
#include "util/rng.h"
#include "vm/machine.h"

namespace gf {
namespace {

// Random program generation lives in src/check (check::ProgramGen) — shared
// with the gfcheck differential fuzzer engines.
using check::ProgramGen;

TEST(FuzzerCoverage, GfcheckProgramsCarryEveryFusedToken) {
  // The VM fuzzer (src/check/vmdiff.cpp) only proves fusion invisible for
  // tokens its programs contain. Rebuild the programs of CI's budget
  // (`gfcheck --seed 1 --cases 50`) exactly as the engine does and demand
  // every fused token somewhere in the table.
  std::map<std::string, std::size_t> total;
  for (std::uint64_t i = 0; i < 50; ++i) {
    util::Rng rng(check::case_seed(1, i));
    ProgramGen gen(rng);
    const auto img = minic::compile(gen.generate(), "p", 0x1000);
    vm::Machine m(1u << 20);
    m.load_image(img);
    for (const auto& [token, n] : m.fused_token_census()) total[token] += n;
  }
  ASSERT_FALSE(total.empty());
  for (const auto& [token, n] : total) {
    EXPECT_GT(n, 0u) << "no gfcheck program contains fused token " << token;
  }
}

class RandomProgramTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 24));

TEST_P(RandomProgramTest, CompilesDeterministicallyAndRunsIdentically) {
  const auto seed =
      testutil::test_seed(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  SCOPED_TRACE(testutil::seed_banner(seed));
  util::Rng rng(seed);
  ProgramGen gen(rng);
  const auto src = gen.generate();

  const auto img1 = minic::compile(src, "p", 0x1000);
  const auto img2 = minic::compile(src, "p", 0x1000);
  ASSERT_EQ(img1.code_digest(), img2.code_digest()) << src;

  // Note: division is excluded from the grammar, so no traps are expected;
  // every execution must halt well within the budget and agree.
  const auto* sym = img1.find_symbol("f");
  ASSERT_NE(sym, nullptr);
  for (std::int64_t a : {-3, 0, 7}) {
    for (std::int64_t b : {-1, 2}) {
      vm::Machine m1, m2;
      m1.load_image(img1);
      m2.load_image(img1);
      const auto r1 = m1.call(sym->addr, {a, b}, 1u << 20);
      const auto r2 = m2.call(sym->addr, {a, b}, 1u << 20);
      ASSERT_TRUE(r1.ok()) << src;
      EXPECT_EQ(r1.ret, r2.ret) << src;
      EXPECT_EQ(r1.cycles, r2.cycles);
    }
  }
}

TEST_P(RandomProgramTest, ScannerFaultsApplyAndRestoreCleanly) {
  const auto seed =
      testutil::test_seed(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  SCOPED_TRACE(testutil::seed_banner(seed));
  util::Rng rng(seed);
  ProgramGen gen(rng);
  const auto src = gen.generate();
  auto img = minic::compile(src, "p", 0x1000);
  const auto digest = img.code_digest();
  const auto fl = swfit::Scanner{}.scan_all(img);
  for (const auto& f : fl.faults) {
    ASSERT_TRUE(swfit::apply_fault(img, f)) << src;
    // Mutated code stays decodable everywhere (fixed-width property).
    for (std::uint64_t a = img.base(); a < img.end(); a += isa::kInstrSize) {
      ASSERT_TRUE(img.at(a).has_value());
    }
    // Containment: running the mutant can trap or hang but never escapes.
    vm::Machine m;
    m.load_image(img);
    (void)m.call(img.find_symbol("f")->addr, {3, 4}, 50000);
    ASSERT_TRUE(swfit::remove_fault(img, f));
    ASSERT_EQ(img.code_digest(), digest);
  }
}

// --- heap allocator properties -----------------------------------------------

class HeapPropertyTest
    : public ::testing::TestWithParam<std::tuple<os::OsVersion, int>> {};

INSTANTIATE_TEST_SUITE_P(
    VersionsAndSeeds, HeapPropertyTest,
    ::testing::Combine(::testing::Values(os::OsVersion::kVos2000,
                                         os::OsVersion::kVosXp),
                       ::testing::Values(1, 2, 3, 4)));

TEST_P(HeapPropertyTest, RandomAllocFreeSequencesKeepInvariants) {
  const auto [version, param_seed] = GetParam();
  os::Kernel kernel(version);
  os::OsApi api(kernel);
  const auto seed =
      testutil::test_seed(static_cast<std::uint64_t>(param_seed));
  SCOPED_TRACE(testutil::seed_banner(seed));
  util::Rng rng(seed);

  struct Block {
    std::uint64_t addr;
    std::int64_t size;
  };
  std::vector<Block> live;
  std::int64_t live_bytes_lower_bound = 0;

  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      const auto size = rng.range(1, 2000);
      const auto r = api.rtl_alloc(size);
      ASSERT_TRUE(r.completed);
      if (r.value == 0) continue;  // exhaustion is legal
      const auto addr = static_cast<std::uint64_t>(r.value);
      EXPECT_EQ(addr % 16, 0u);
      // No overlap with any live block.
      for (const auto& b : live) {
        EXPECT_TRUE(addr + static_cast<std::uint64_t>(size) <= b.addr ||
                    b.addr + static_cast<std::uint64_t>(b.size) <= addr)
            << "overlap at step " << step;
      }
      live.push_back({addr, size});
      live_bytes_lower_bound += size;
      // Write a pattern to catch cross-block clobbering later.
      std::vector<std::uint8_t> fill(static_cast<std::size_t>(size),
                                     static_cast<std::uint8_t>(addr >> 4));
      ASSERT_TRUE(api.write_bytes(addr, fill.data(), fill.size()));
    } else {
      const auto idx = rng.bounded(live.size());
      const auto blk = live[idx];
      // Contents must be intact right before the free.
      std::vector<std::uint8_t> back(static_cast<std::size_t>(blk.size));
      ASSERT_TRUE(api.read_bytes(blk.addr, back.data(), back.size()));
      for (const auto byte : back) {
        ASSERT_EQ(byte, static_cast<std::uint8_t>(blk.addr >> 4));
      }
      EXPECT_TRUE(api.rtl_free(blk.addr).ok());
      live[idx] = live.back();
      live.pop_back();
      live_bytes_lower_bound -= blk.size;
    }
  }
  // Free everything; afterwards a huge allocation must succeed again
  // (full coalescing back to one arena-sized block).
  for (const auto& b : live) EXPECT_TRUE(api.rtl_free(b.addr).ok());
  const auto big = api.rtl_alloc(3 << 20);
  EXPECT_GT(big.value, 0) << "arena did not coalesce";
}

// --- operator invariants over the full OS faultloads --------------------------

class OperatorInvariantTest : public ::testing::TestWithParam<os::OsVersion> {};
INSTANTIATE_TEST_SUITE_P(BothVersions, OperatorInvariantTest,
                         ::testing::Values(os::OsVersion::kVos2000,
                                           os::OsVersion::kVosXp),
                         [](const auto& info) {
                           return info.param == os::OsVersion::kVos2000
                                      ? "Vos2000"
                                      : "VosXp";
                         });

TEST_P(OperatorInvariantTest, EveryFaultDiffersFromOriginalInWindowOnly) {
  os::Kernel kernel(GetParam());
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  for (const auto& f : fl.faults) {
    // The mutation changes at least one instruction...
    EXPECT_NE(f.original, f.mutated) << swfit::fault_type_name(f.type);
    auto img = kernel.pristine_image();
    const auto before = img.code();
    std::vector<std::uint8_t> snapshot(before.begin(), before.end());
    ASSERT_TRUE(swfit::apply_fault(img, f));
    // ... and nothing outside the declared window.
    const auto after = img.code();
    const auto lo = (f.addr - img.base());
    const auto hi = lo + f.window() * isa::kInstrSize;
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (i >= lo && i < hi) continue;
      ASSERT_EQ(after[i], snapshot[i]) << "byte " << i << " outside window";
    }
  }
}

TEST_P(OperatorInvariantTest, TypeSpecificMutationShapes) {
  os::Kernel kernel(GetParam());
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  for (const auto& f : fl.faults) {
    switch (f.type) {
      case swfit::FaultType::kWLEC:
        ASSERT_EQ(f.window(), 1u);
        EXPECT_TRUE(isa::is_branch(f.original[0].op));
        EXPECT_EQ(f.mutated[0].op, isa::invert_branch(f.original[0].op));
        break;
      case swfit::FaultType::kMIFS:
        ASSERT_EQ(f.window(), 1u);
        EXPECT_TRUE(isa::is_branch(f.original[0].op));
        EXPECT_EQ(f.mutated[0].op, isa::Op::kJmp);
        EXPECT_EQ(f.mutated[0].imm, f.original[0].imm);
        break;
      case swfit::FaultType::kMIA:
      case swfit::FaultType::kMFC:
      case swfit::FaultType::kMLPC:
      case swfit::FaultType::kMLAC:
      case swfit::FaultType::kMVI:
      case swfit::FaultType::kMVAV:
      case swfit::FaultType::kMVAE:
        // Omission faults mutate strictly to NOPs.
        for (const auto& in : f.mutated) EXPECT_EQ(in.op, isa::Op::kNop);
        break;
      case swfit::FaultType::kWVAV:
        ASSERT_EQ(f.window(), 2u);
        EXPECT_EQ(f.mutated[0].imm, f.original[0].imm + 1);
        EXPECT_EQ(f.mutated[1], f.original[1]);
        break;
      case swfit::FaultType::kWAEP:
        ASSERT_EQ(f.window(), 1u);
        EXPECT_NE(f.mutated[0].op, f.original[0].op);
        EXPECT_TRUE(isa::is_alu(f.mutated[0].op));
        break;
      case swfit::FaultType::kWPFV:
        ASSERT_EQ(f.window(), 1u);
        EXPECT_EQ(f.mutated[0].op, isa::Op::kLd);
        EXPECT_NE(f.mutated[0].imm, f.original[0].imm);
        break;
    }
  }
}

// --- cross-version semantic equivalence ---------------------------------------

TEST(OsVersionEquivalence, CommonSurfaceBehavesIdentically) {
  // The XP hardening must not change fault-free semantics on valid inputs:
  // drive both versions through the same API transcript and compare.
  os::Kernel k2000(os::OsVersion::kVos2000);
  os::Kernel kxp(os::OsVersion::kVosXp);
  os::OsApi a(k2000), b(kxp);
  for (auto* k : {&k2000, &kxp}) {
    k->disk().add_file("/f", {'h', 'e', 'l', 'l', 'o'});
  }
  const auto seed = testutil::test_seed(99);
  SCOPED_TRACE(testutil::seed_banner(seed));
  util::Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    const auto op = rng.bounded(6);
    std::int64_t va = 0, vb = 0;
    switch (op) {
      case 0: {
        const auto size = rng.range(1, 512);
        va = a.rtl_alloc(size).value;
        vb = b.rtl_alloc(size).value;
        break;
      }
      case 1: {
        a.write_cstr(os::OsApi::kPathSlot, "/f");
        b.write_cstr(os::OsApi::kPathSlot, "/f");
        va = a.nt_open_file(os::OsApi::kPathSlot).value;
        vb = b.nt_open_file(os::OsApi::kPathSlot).value;
        break;
      }
      case 2: {
        const auto h = rng.range(1, 6);
        va = a.nt_read_file(h, 0x150000, 4).value;
        vb = b.nt_read_file(h, 0x150000, 4).value;
        break;
      }
      case 3: {
        const auto h = rng.range(1, 6);
        va = a.nt_close(h).value;
        vb = b.nt_close(h).value;
        break;
      }
      case 4: {
        a.write_wstr(os::OsApi::kWidePathSlot, "/some/file.html");
        b.write_wstr(os::OsApi::kWidePathSlot, "/some/file.html");
        va = a.rtl_unicode_to_multibyte(0x151000, 64, os::OsApi::kWidePathSlot, 30).value;
        vb = b.rtl_unicode_to_multibyte(0x151000, 64, os::OsApi::kWidePathSlot, 30).value;
        break;
      }
      default: {
        va = a.nt_protect_vm(os::layout::kHeapArena, 4096, 3).value;
        vb = b.nt_protect_vm(os::layout::kHeapArena, 4096, 3).value;
        break;
      }
    }
    ASSERT_EQ(va, vb) << "divergence at step " << i << " op " << op;
  }
}

}  // namespace
}  // namespace gf
