// The VISA virtual machine.
//
// The Machine executes (possibly mutated) code with *full containment*:
// every memory access is bounds-checked, the first page is left unmapped so
// null-pointer dereferences trap, control transfers are validated, and a
// cycle budget turns infinite loops into kCycleLimit traps. This is what
// lets the benchmark harness classify fault consequences (wrong result /
// crash / hang) instead of crashing the host process.
//
// A simple cycle cost model (memory ops and mul/div cost more, syscalls a
// lot more) feeds the performance simulation: response times in the
// SPECWeb-like client are derived from cycles consumed by OS API calls.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "isa/image.h"
#include "isa/isa.h"

namespace gf::vm {

enum class Trap : std::uint8_t {
  kNone = 0,     ///< still running (internal)
  kHalt,         ///< HALT executed or top-level RET reached
  kBadMemory,    ///< out-of-range or null-page access
  kBadOpcode,    ///< undecodable instruction (e.g. mutated into garbage)
  kBadJump,      ///< control transfer outside loaded code
  kDivZero,      ///< DIV/MOD by zero
  kCycleLimit,   ///< cycle budget exhausted (hang)
  kStackFault,   ///< push/pop outside the stack region
};

const char* trap_name(Trap t) noexcept;

constexpr std::size_t kNumTraps = 8;  ///< one past Trap::kStackFault

/// Lifetime dispatch tallies, folded in once per run at the execute() exit
/// (never touched inside the dispatch loop — the loop keeps a local step
/// counter in a register). The campaign controller harvests deltas of these
/// at run boundaries into the obs registry.
struct DispatchStats {
  std::uint64_t instructions = 0;  ///< instructions retired (incl. the trap op)
  std::uint64_t runs = 0;          ///< execute() invocations
  std::array<std::uint64_t, kNumTraps> traps{};  ///< indexed by Trap value
};

/// Outcome of one run/call.
struct RunResult {
  Trap trap = Trap::kNone;
  std::uint64_t cycles = 0;     ///< cycles consumed by this run
  std::uint64_t pc = 0;         ///< pc at stop
  std::int64_t ret = 0;         ///< r0 at stop (function return value)
  bool ok() const noexcept { return trap == Trap::kHalt; }
};

class Machine;

/// Kernel intrinsics (SYS instruction) are dispatched to this callback.
/// Arguments are in r1.., result goes to r0. Returning a trap aborts the run.
using SyscallHandler = std::function<Trap(Machine&, std::int32_t number)>;

/// One taken control transfer (from -> to) recorded after a watch hit.
struct TraceEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  bool operator==(const TraceEdge&) const = default;
};

/// Activation trace of the currently / last armed watch window: first-hit
/// cycle, hit count, and a bounded ring of the control-flow edges taken
/// after the window was first entered (the start of the propagation path).
struct WatchTrace {
  static constexpr std::size_t kEdgeRing = 16;
  std::uint64_t hits = 0;
  std::uint64_t first_hit_cycle = 0;  ///< Machine::total_cycles() at first hit
  std::uint64_t edge_count = 0;       ///< edges seen (ring keeps the last 16)
  std::array<TraceEdge, kEdgeRing> ring{};

  /// The recorded edges in chronological order (at most kEdgeRing).
  std::vector<TraceEdge> edges() const;
};

/// One recorded guest-memory write (see Machine::begin_write_capture):
/// replaying the spans of a deterministic execution in order reproduces its
/// memory effect exactly, without re-executing the code.
struct WriteSpan {
  std::uint64_t addr = 0;
  std::vector<std::uint8_t> bytes;
};

class Machine {
 public:
  /// `mem_size` is the flat physical memory size. The first kNullPageSize
  /// bytes are unmapped (null-deref detection).
  explicit Machine(std::size_t mem_size = kDefaultMemSize);

  static constexpr std::size_t kDefaultMemSize = 8u << 20;  // 8 MiB
  static constexpr std::uint64_t kNullPageSize = 0x1000;
  /// Sentinel return address: a top-level RET to this address ends the run.
  static constexpr std::uint64_t kReturnSentinel = 0xFFFFFFFFFFFF0000ULL;

  /// Dirty-tracking granularity (one bit of bookkeeping per 4 KiB page).
  static constexpr std::uint64_t kDirtyPageShift = 12;
  static constexpr std::uint64_t kDirtyPageSize = 1u << kDirtyPageShift;

  /// Full machine state for warm-boot snapshots: memory image plus the
  /// execution state a restore must reproduce (registers, comparison flags,
  /// lifetime cycle counter). Snapshots are plain data — safe to share
  /// read-only across threads.
  struct State {
    std::vector<std::uint8_t> mem;
    std::array<std::int64_t, isa::kNumRegs> regs{};
    int flags = 0;
    std::uint64_t total_cycles = 0;
  };

  // --- setup -------------------------------------------------------------
  /// Copies an image's code into memory at its base address and remembers
  /// the executable range (jumps outside any loaded image trap).
  void load_image(const isa::Image& img);

  /// Replaces the bytes of an already-loaded image (after mutation). The
  /// image must cover the same address range.
  void reload_code(const isa::Image& img);

  /// Overwrites `n` code bytes at `addr` and refreshes the predecoded
  /// instructions covering them. Unlike write_bytes this is exempt from the
  /// null-page rule (it is a loader/injector primitive, not a guest access).
  /// Returns false when [addr, addr+n) is not inside physical memory.
  bool patch_code(std::uint64_t addr, const void* data, std::size_t n) noexcept;

  /// Re-decodes the predecoded-instruction cache for every instruction slot
  /// overlapping [addr, addr+len). Anything that mutates code bytes in VM
  /// memory behind the accessors' back must call this; the checked write
  /// accessors and patch_code/reload_code call it automatically.
  void invalidate_code(std::uint64_t addr, std::uint64_t len) noexcept;

  /// Predecoded dispatch is on by default: code is decoded once at load and
  /// the hot loop indexes a flat side-table instead of re-decoding every
  /// step. Turning it off falls back to per-step decode (kept for A/B
  /// benchmarking); turning it back on rebuilds the cache from memory.
  void set_predecode(bool enabled);
  bool predecode() const noexcept { return predecode_; }

  /// Decode-time superinstruction fusion (on by default): the predecode pass
  /// additionally classifies each slot with an extended-opcode token so that
  /// common adjacent pairs (compare+branch, load+ALU, ...) execute as one
  /// handler and safe fall-throughs skip the full fetch. Architectural
  /// effects (registers, memory, cycles, traps, retired-instruction counts,
  /// watch traces) are identical with fusion on or off; the switch exists for
  /// A/B benchmarking and equivalence testing. Toggling re-tokenizes in
  /// place.
  void set_fusion(bool enabled);
  bool fusion() const noexcept { return fusion_; }

  /// Dispatch lowering compiled into this build: "threaded" (computed-goto
  /// labels-as-values) or "switch" (portable fallback). Selected at configure
  /// time via the GF_VM_DISPATCH CMake option.
  static const char* dispatch_kind() noexcept;

  /// Test hook for the differential fuzzer (src/check): FNV-1a digest over
  /// the full architectural state — memory, registers, comparison flags and
  /// the lifetime cycle counter. Two machines that executed equivalent
  /// instruction streams must agree on this digest at every trap boundary,
  /// for any dispatch lowering, predecode or fusion setting.
  std::uint64_t state_digest() const noexcept;

  /// Test hooks over the dispatch-token table, read-only and computed on
  /// demand (the dispatch loop keeps no counter for them): the raw token of
  /// every predecoded slot (empty without predecode), and how many slots
  /// currently carry each fused-superinstruction token, keyed by token name
  /// ("CmpBr", ..., "PushLd", "MovPopAlu", "LdMovIAlu"; zero counts
  /// included).
  const std::vector<std::uint8_t>& dispatch_tokens() const noexcept { return xop_; }
  std::map<std::string, std::size_t> fused_token_census() const;

  void set_syscall_handler(SyscallHandler handler) { syscall_ = std::move(handler); }

  /// [lo, hi) range PUSH/POP must stay within; also used to position sp.
  /// Re-tokenizes: whether a push may head a fused pair depends on the
  /// region (see machine.cpp).
  void set_stack_region(std::uint64_t lo, std::uint64_t hi);

  // --- register / memory access (also used by syscall handlers) ----------
  std::int64_t reg(int r) const noexcept { return regs_[r]; }
  void set_reg(int r, std::int64_t v) noexcept { regs_[r] = v; }

  std::size_t mem_size() const noexcept { return mem_.size(); }
  /// Checked accessors; return false / trap on range errors.
  bool read_u8(std::uint64_t addr, std::uint8_t& out) const noexcept;
  bool write_u8(std::uint64_t addr, std::uint8_t v) noexcept;
  bool read_u64(std::uint64_t addr, std::uint64_t& out) const noexcept;
  bool write_u64(std::uint64_t addr, std::uint64_t v) noexcept;
  /// Bulk helpers for syscall handlers; false when any byte is unmapped.
  bool read_bytes(std::uint64_t addr, void* out, std::size_t n) const noexcept;
  bool write_bytes(std::uint64_t addr, const void* data, std::size_t n) noexcept;
  /// Checked read-only view of the `n` bytes at `addr`, under read_bytes'
  /// rules (n == 0 always succeeds): nullopt when any byte is unmapped.
  /// Valid until the next guest write.
  std::optional<std::span<const std::uint8_t>> guest_bytes(
      std::uint64_t addr, std::size_t n) const noexcept;
  /// Reads a NUL-terminated byte string (bounded by max_len); false on fault.
  bool read_cstr(std::uint64_t addr, std::string& out,
                 std::size_t max_len = 4096) const noexcept;

  /// Read-only pointer to `n` bytes of physical memory at `addr`, or nullptr
  /// when the span is out of range (loader/snapshot primitive — not subject
  /// to the null-page rule).
  const std::uint8_t* raw(std::uint64_t addr, std::size_t n) const noexcept;

  // --- dirty tracking / snapshots -----------------------------------------
  /// Every mutation of guest memory (checked writes, patch_code, reload_code,
  /// load_image) marks the covered kDirtyPageSize pages dirty. restore()
  /// copies back only dirty pages, making per-iteration state reset O(dirty)
  /// instead of O(memory).
  bool page_dirty(std::uint64_t addr) const noexcept {
    const std::uint64_t page = addr >> kDirtyPageShift;
    return page < dirty_.size() && dirty_[page];
  }
  /// Marks [addr, addr+len) dirty (for external mutations of raw state).
  void mark_dirty(std::uint64_t addr, std::uint64_t len) noexcept;
  /// Clears the dirty bits covering [addr, addr+len).
  void clear_dirty(std::uint64_t addr, std::uint64_t len) noexcept;
  void clear_all_dirty() noexcept;

  /// Captures the full machine state (memory + registers + flags + lifetime
  /// cycle counter) and clears the dirty bitmap, establishing the baseline
  /// restore() diffs against.
  State snapshot();
  /// Restores to `s` by copying back only pages dirtied since the snapshot
  /// (plus registers/flags/cycles), invalidating the predecode cache over any
  /// restored code pages so they re-decode lazily. `s.mem` must match
  /// mem_size(). Clears the dirty bitmap.
  void restore(const State& s);
  /// Unconditional full restore (used when this machine never saw `s`'s
  /// baseline, e.g. warm construction from a shared snapshot).
  void restore_full(const State& s);

  /// Comparison-flag state (CMP result sign); call() preserves registers but
  /// not flags, so deterministic replays must restore these explicitly.
  int cmp_flags() const noexcept { return flags_; }
  void set_cmp_flags(int f) noexcept { flags_ = f; }

  /// Advances the lifetime cycle counter without executing (replay of a
  /// recorded boot must reproduce the counter exactly — activation traces
  /// record absolute first-hit cycles).
  void add_cycles(std::uint64_t c) noexcept { total_cycles_ += c; }

  // --- write capture -------------------------------------------------------
  /// Starts recording every checked guest write as a WriteSpan. Used once,
  /// during the first cold boot, to learn the boot's exact memory effect;
  /// replaying the spans is then equivalent to re-running the boot code.
  void begin_write_capture();
  /// Stops recording and returns the spans in write order.
  std::vector<WriteSpan> end_write_capture();

  // --- execution ----------------------------------------------------------
  /// Calls the function at `addr` with up to 6 integer arguments, using a
  /// fresh stack frame at the top of the stack region. Returns when the
  /// function returns (RET to sentinel), or on trap / budget exhaustion.
  RunResult call(std::uint64_t addr, std::span<const std::int64_t> args,
                 std::uint64_t cycle_budget);
  RunResult call(std::uint64_t addr, std::initializer_list<std::int64_t> args,
                 std::uint64_t cycle_budget) {
    return call(addr, std::span<const std::int64_t>(args.begin(), args.size()),
                cycle_budget);
  }

  /// Raw run from `pc` until HALT/trap/budget (used by tests/examples).
  RunResult run(std::uint64_t pc, std::uint64_t cycle_budget);

  /// Total cycles consumed over the machine's lifetime.
  std::uint64_t total_cycles() const noexcept { return total_cycles_; }

  /// Lifetime dispatch statistics. Deliberately *not* part of State: a
  /// restore rolls back the simulated machine, but the work spent executing
  /// still happened — consumers read deltas across run boundaries.
  const DispatchStats& dispatch_stats() const noexcept { return stats_; }

  // --- fault-activation watch ---------------------------------------------
  /// Arms an address watch on [lo, hi): the first time the PC enters the
  /// window the trace records the hit cycle, every re-entry bumps the hit
  /// count, and subsequent taken control transfers land in a bounded edge
  /// ring. The hot loop pays one branch on a per-slot armed bit that shares
  /// the byte the validity check already loads, so a disarmed machine
  /// executes the exact same memory traffic as before (ZOFI's principle:
  /// monitoring must cost ~zero when off). Re-arming resets the trace.
  void arm_watch(std::uint64_t lo, std::uint64_t hi);
  /// Disarms the watch; the accumulated trace stays readable.
  void disarm_watch();
  bool watch_armed() const noexcept { return watch_hi_ != 0; }
  const WatchTrace& watch_trace() const noexcept { return watch_; }

  // --- deterministic PC sampler ---------------------------------------------
  /// Arms the virtual-cycle stride sampler: every `stride` consumed cycles
  /// the PC of the instruction retiring at that boundary is recorded (pc ->
  /// hit count). Sampling runs on the *virtual* clock and only at retired
  /// architectural-step boundaries, so the sample stream is a pure function
  /// of executed code — bit-identical with fusion on/off and for either
  /// dispatch lowering. Overshoot carries into the next period (an
  /// instruction costing more than a stride yields multiple samples), so the
  /// cadence is exact regardless of per-instruction cost granularity. The
  /// hot loop folds the countdown into the compare it already makes against
  /// the cycle budget, so disarmed (the countdown idles at a sentinel no
  /// campaign can exhaust — the same trick as the armed-watch bit) it costs
  /// nothing. Re-arming resets the accumulated samples; `stride == 0`
  /// disarms.
  void arm_sampler(std::uint64_t stride);
  /// Disarms the sampler; accumulated samples stay readable.
  void disarm_sampler();
  bool sampler_armed() const noexcept { return sample_stride_ != 0; }
  /// Accumulated samples since the last arm, keyed by instruction address.
  const std::map<std::uint64_t, std::uint64_t>& samples() const noexcept {
    return samples_;
  }

 private:
  struct CodeRange {
    std::uint64_t lo, hi;
  };

  /// Per-slot flag bits (predecode side-table).
  static constexpr std::uint8_t kSlotValid = 1;  ///< slot inside a loaded image
  static constexpr std::uint8_t kSlotArmed = 2;  ///< slot inside the watch window

  bool in_code(std::uint64_t addr) const noexcept;
  RunResult execute(std::uint64_t pc, std::uint64_t cycle_budget);
  void rebuild_predecode();
  /// Dispatch token for one predecoded slot: the base opcode, a fetch-failure
  /// token (hole / armed single-step), or a fused pair/triple id, plus the
  /// glue bit when the fall-through successor is statically safe to enter
  /// without a full fetch. See machine.cpp for the token table and the
  /// safety argument.
  std::uint8_t xop_for_slot(std::size_t s) const noexcept;
  /// How far a token looks ahead: a change to slot `s` affects the tokens of
  /// `s - kXopReach .. s` (a triple headed two slots earlier spans it), so
  /// every re-tokenization extends its range this many slots to the left.
  static constexpr std::size_t kXopReach = 2;
  /// Recomputes xop_ over [lo_slot, hi_slot) (clamped).
  void rebuild_xop(std::size_t lo_slot, std::size_t hi_slot) noexcept;
  /// rebuild_xop over the slots covering [lo, hi) plus kXopReach to the left.
  void rebuild_xop_for_range(std::uint64_t lo, std::uint64_t hi) noexcept;
  /// Re-applies the armed bits of the active watch to the slot flags (after
  /// a predecode rebuild wiped them).
  void apply_watch_bits() noexcept;
  /// Cold path of the armed-bit branch: updates the watch trace.
  void note_watch_hit(std::uint64_t cycles) noexcept;
  void note_watch_edge(std::uint64_t from, std::uint64_t to) noexcept;
  /// Cold path of the sampler countdown (taken once per stride cycles):
  /// records the sample(s) and returns the replenished countdown.
  std::int64_t note_sample(std::uint64_t pc, std::int64_t left);
  /// Cheap overlap test before the full invalidate, for the loader paths
  /// (restore, reload_code) that mutate memory behind the checked accessors.
  void maybe_invalidate(std::uint64_t addr, std::uint64_t len) noexcept {
    if (!predecoded_.empty() && addr < code_hi_ && addr + len > code_lo_) {
      invalidate_code(addr, len);
    }
  }
  /// Dirty-marking + optional write-capture tail of the loader paths.
  void note_write(std::uint64_t addr, std::uint64_t len) noexcept {
    for (std::uint64_t p = addr >> kDirtyPageShift,
                       last = (addr + len - 1) >> kDirtyPageShift;
         p <= last; ++p) {
      dirty_[p] = 1;
    }
    if (capture_) [[unlikely]] {
      captured_.push_back({addr, {&mem_[addr], &mem_[addr] + len}});
    }
  }

  // --- checked guest memory ---------------------------------------------------
  // The one implementation of checked guest access. The public accessors
  // build a GuestMem on the fly; execute() holds one in registers for the
  // whole run (refreshed after a SYS, the only point where host code can
  // reshape the machine mid-run), so a guest load or store is one compare,
  // one copy and, for stores, two dirty-byte stores, with no call and no
  // reload through `this`.

  /// Exclusive bound on `addr - kNullPageSize` for an n-byte access to a
  /// memory of `mem_size` bytes: a single unsigned compare against it
  /// rejects the null page, the end of memory and address wrap alike.
  static constexpr std::uint64_t access_limit(std::uint64_t mem_size,
                                              std::uint64_t n) noexcept {
    return mem_size > kNullPageSize && n <= mem_size - kNullPageSize
               ? mem_size - kNullPageSize - n + 1
               : 0;
  }

  struct GuestMem {
    std::uint8_t* mem;
    std::uint8_t* dirty;
    std::uint64_t size;
    std::uint64_t lim1, lim8;  ///< access_limit(size, 1 / 8)
    /// Stores overlapping [cold_lo, cold_hi) take write_cold(): the code
    /// hull (predecode invalidation), or everything while capturing.
    std::uint64_t cold_lo, cold_hi;
  };
  /// Snapshot of the fields above (mem is writable only through store()).
  GuestMem guest_mem() const noexcept {
    const std::uint64_t size = mem_.size();
    const bool everything = capture_;
    return {const_cast<std::uint8_t*>(mem_.data()),
            const_cast<std::uint8_t*>(dirty_.data()),
            size,
            access_limit(size, 1),
            access_limit(size, 8),
            everything ? 0 : code_lo_,
            everything ? ~std::uint64_t{0} : code_hi_};
  }
  /// Checked load of n bytes; `lim` is access_limit(g.size, n).
  static bool load(const GuestMem& g, std::uint64_t addr, void* out,
                   std::size_t n, std::uint64_t lim) noexcept {
    if (addr - kNullPageSize >= lim) [[unlikely]] return false;
    std::memcpy(out, g.mem + addr, n);
    return true;
  }
  /// Checked store of n >= 1 bytes; `lim` is access_limit(g.size, n).
  bool store(const GuestMem& g, std::uint64_t addr, const void* src,
             std::size_t n, std::uint64_t lim) noexcept {
    if (addr - kNullPageSize >= lim) [[unlikely]] return false;
    std::memcpy(g.mem + addr, src, n);
    const std::uint64_t last = addr + n - 1;
    g.dirty[addr >> kDirtyPageShift] = 1;
    g.dirty[last >> kDirtyPageShift] = 1;
    if (n > kDirtyPageSize) [[unlikely]] {
      for (std::uint64_t p = (addr >> kDirtyPageShift) + 1;
           p < last >> kDirtyPageShift; ++p) {
        g.dirty[p] = 1;
      }
    }
    if (addr < g.cold_hi && last >= g.cold_lo) [[unlikely]] write_cold(addr, n);
    return true;
  }
  /// Cold tail of store(): predecode invalidation for stores into code and
  /// the boot write capture.
  void write_cold(std::uint64_t addr, std::uint64_t len) noexcept;

  std::vector<std::uint8_t> mem_;
  std::vector<std::uint8_t> dirty_;  ///< one byte per kDirtyPageSize page
  bool capture_ = false;
  std::vector<WriteSpan> captured_;
  std::int64_t regs_[isa::kNumRegs] = {};
  int flags_ = 0;  ///< sign of last comparison: -1, 0, +1
  std::vector<CodeRange> code_ranges_;

  // Predecode cache: one Instr per kInstrSize slot over the merged hull
  // [code_lo_, code_hi_) of all loaded ranges. slot_flags_ carries kSlotValid
  // for slots that lie inside an actual image (holes between images stay
  // kBadJump) plus kSlotArmed for slots inside the watch window; undecodable
  // bytes predecode to Op::kOpCount_ (the kBadOpcode marker). xop_ is the
  // parallel dispatch-token table (fused superinstructions + glue bits),
  // derived from predecoded_/slot_flags_ and rebuilt alongside them.
  bool predecode_ = true;
  bool fusion_ = true;
  std::uint64_t code_lo_ = 0, code_hi_ = 0;
  std::vector<isa::Instr> predecoded_;
  std::vector<std::uint8_t> slot_flags_;
  std::vector<std::uint8_t> xop_;
  mutable std::size_t last_range_ = 0;  ///< in_code() last-hit cache
  std::uint64_t stack_lo_ = 0, stack_hi_ = 0;
  SyscallHandler syscall_;
  std::uint64_t total_cycles_ = 0;
  DispatchStats stats_;

  /// Sampler countdown idle sentinel: the cycles of any realistic machine
  /// lifetime never drive it to zero, so a disarmed sampler never fires.
  static constexpr std::int64_t kSamplerIdle = std::int64_t{1} << 62;
  std::uint64_t sample_stride_ = 0;          ///< 0 = disarmed
  std::int64_t sample_left_ = kSamplerIdle;  ///< cycles until the next sample
  std::map<std::uint64_t, std::uint64_t> samples_;  ///< pc -> sample count

  // Armed watch window [watch_lo_, watch_hi_); hi == 0 means disarmed.
  std::uint64_t watch_lo_ = 0, watch_hi_ = 0;
  /// True once the armed window was entered: taken control transfers are
  /// recorded from that point on (checked once per instruction, but only
  /// while a fault is actually live and activated).
  bool edge_live_ = false;
  WatchTrace watch_;
};

}  // namespace gf::vm
