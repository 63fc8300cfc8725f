// Property-based differential campaign fuzzer (the `gfcheck` engine layer).
//
// Three engines, each a deterministic function of a 64-bit case seed:
//
//   matrix    — samples a random small campaign (random faultload subset,
//               random RunnerOptions across jobs/chunk/fusion/
//               warm-boot/store usage) and asserts the repo's determinism
//               contract: the merged manifest, journal, activation records
//               and profiles are byte-identical to a jobs=1 reference, the
//               derived §3.2 metrics (SPC/ER%f/...) match exactly, and a
//               store-backed replay (cold commit, then all-hit) reproduces
//               the same bytes.
//   vm        — runs randomly generated MiniC programs (check/progen.h)
//               under fusion-on vs fusion-off and predecode vs per-step
//               decode, comparing the full architectural state digest,
//               retired-instruction counts, sample streams and watch traces
//               at every trap boundary; mutated variants (random scanner
//               faults) must also agree across execution strategies.
//   structure — fuzzes the persistence and text formats: torn tails, bit
//               flips and truncations over store segment/WAL files (recovery
//               must tail-truncate cleanly or reject with a diagnostic,
//               never crash or serve wrong bytes), instruction encode/decode
//               and assembler/disassembler round-trips, and faultload
//               serialize/parse under corruption.
//
// Every failure carries the case seed plus a ready-to-run repro command
// line, so any CI hit replays locally with a single copy-paste. Case seeds
// are derived from the base seed with SplitMix64, so `--seed N --cases K`
// names a fixed, machine-independent set of cases.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gf::check {

struct CheckOptions {
  std::uint64_t seed = 1;    ///< base seed; case i runs at case_seed(seed, i)
  std::size_t cases = 25;    ///< cases per engine
  /// Non-empty = replay exactly these case seeds instead of deriving them
  /// (the `--case-seed` repro path). `cases` is ignored.
  std::vector<std::uint64_t> explicit_seeds;
  bool verbose = false;      ///< narrate every case to stderr
  /// Scratch directory for store-backed cases (created/removed per case).
  /// Empty = a "gfcheck-scratch" directory under the process temp dir.
  std::string scratch_dir;
  /// Collect canonical per-case digest lines from the VM engine's reference
  /// configuration (CheckReport::dump_lines). CI compares the dumps of a
  /// threaded-dispatch and a switch-dispatch build with `cmp` — the
  /// cross-lowering oracle that a single process cannot host.
  bool want_dump = false;
};

/// One oracle violation. `repro` is a complete gfcheck invocation that
/// replays exactly this case.
struct Failure {
  std::string engine;
  std::uint64_t case_seed = 0;
  std::string message;
  std::string repro;
};

struct CheckReport {
  std::size_t cases = 0;
  std::vector<Failure> failures;
  /// Canonical VM digest lines (want_dump only): one line per case, a pure
  /// function of the case seed — byte-identical across dispatch lowerings.
  std::vector<std::string> dump_lines;

  bool ok() const noexcept { return failures.empty(); }
};

/// Case-seed derivation: SplitMix64 over (base, index). Pure and stable —
/// part of the repro-line contract.
std::uint64_t case_seed(std::uint64_t base, std::uint64_t index) noexcept;

CheckReport run_matrix_engine(const CheckOptions& opt);
CheckReport run_vm_engine(const CheckOptions& opt);
CheckReport run_structure_engine(const CheckOptions& opt);

}  // namespace gf::check
