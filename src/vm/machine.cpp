#include "vm/machine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

// Dispatch lowering: computed-goto labels-as-values ("threaded") on
// compilers that support the GNU extension, with the portable switch kept as
// a fallback. The CMake option GF_VM_DISPATCH pins it explicitly; when the
// macro is not injected by the build, auto-detect.
#ifndef GF_VM_THREADED_DISPATCH
#if defined(__GNUC__) || defined(__clang__)
#define GF_VM_THREADED_DISPATCH 1
#else
#define GF_VM_THREADED_DISPATCH 0
#endif
#endif

namespace gf::vm {

using isa::Instr;
using isa::kInstrSize;
using isa::Op;

namespace {

// --- dispatch tokens (xop) --------------------------------------------------
//
// xop_[slot] refines predecoded_[slot].op into one dispatch token so the hot
// loop branches exactly once per handler entry:
//
//   0 .. kOpCount_   the base opcode (kOpCount_ = the undecodable marker)
//   kXBadJump        hole between images: fetch failure folded into dispatch
//   kXArmed          armed watch window: note the hit, single-step the base op
//   kXCmpBr ...      fused pairs (two slots) and triples (three slots),
//                    decided at predecode time
//
// plus the kXGlue bit when the fall-through successor slot is statically
// valid, unarmed and in-hull: the dispatch tail may then skip the full fetch
// (hull check, flag byte). Safety: validity and armedness are
// immune to guest writes (invalidate_code re-decodes content but never
// touches flags), and the glue path re-reads predecoded_/xop_ fresh, so a
// stale in-register glue bit can never execute stale bytes.
//
// Fused tokens: every slot a token covers is valid and unarmed, and no member
// but the last transfers control. Each member after the head is read from
// predecoded_ only once the previous member has retired (VM_FUSE_NEXT), but
// the token that names its opcode was decided before the head ran, so no
// member before the last may store into a later member's slot:
//   - members between head and last never write memory (ld, movi, cmpi,
//     pop);
//   - heads never write memory, except a push, which heads a pair (PushLd)
//     only while the stack region is disjoint from the code hull, so its
//     store cannot reach code (set_stack_region re-tokenizes).
// A store by the last member only matters at the next dispatch, which reads
// the tables fresh. Because a token looks up to kXopReach = 2 slots ahead,
// every re-tokenization after a code write (invalidate_code,
// rebuild_xop_for_range) starts two slots left of the written range: a write
// into the second or third slot of a triple splits it.
//
// Fusion/glue is disabled inside the armed window (single-step contract).
//
// The name list mirrors Op order exactly — static_asserts below pin it.
#define GF_VM_XOPS(X)                                                       \
  X(Nop) X(Halt) X(MovI) X(Mov) X(Ld) X(St) X(LdB) X(StB)                   \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(And) X(Or) X(Xor) X(Shl) X(Shr)      \
  X(AddI) X(Not) X(Neg) X(Cmp) X(CmpI)                                      \
  X(Jmp) X(Jz) X(Jnz) X(Jlt) X(Jle) X(Jgt) X(Jge)                           \
  X(Call) X(CallR) X(Ret) X(Push) X(Pop) X(Sys) X(BadOp)                    \
  X(BadJump) X(Armed)                                                       \
  X(CmpBr)     /* cmp  + conditional branch                  */             \
  X(CmpIBr)    /* cmpi + conditional branch                  */             \
  X(LdLd)      /* ld + ld                                    */             \
  X(LdAlu)     /* ld + 3-op ALU (add/sub/mul/bitops/shifts)  */             \
  X(LdPush)    /* ld + push                                  */             \
  X(MovIAlu)   /* movi + 3-op ALU                            */             \
  X(MovPop)    /* mov + pop                                  */             \
  X(AluSt)     /* 3-op ALU + st                              */             \
  X(PushLd)    /* push + ld (stack disjoint from code only)  */             \
  X(MovPopAlu) /* mov + pop + 3-op ALU: `a OP b` epilogue    */             \
  X(LdMovIAlu) /* ld + movi + 3-op ALU: `v OP const`         */

enum Xop : std::uint8_t {
#define GF_VM_DEF(name) kX##name,
  GF_VM_XOPS(GF_VM_DEF)
#undef GF_VM_DEF
  kXopCount_
};

constexpr std::uint8_t kXGlue = 0x40;
constexpr std::uint8_t kXopMask = 0x3F;
static_assert(kXNop == static_cast<std::uint8_t>(Op::kNop));
static_assert(kXSys == static_cast<std::uint8_t>(Op::kSys));
static_assert(kXBadOp == static_cast<std::uint8_t>(Op::kOpCount_));
static_assert(kXopCount_ <= kXGlue, "xop tokens must fit below the glue bit");

constexpr const char* kXopNames[] = {
#define GF_VM_NAME(name) #name,
    GF_VM_XOPS(GF_VM_NAME)
#undef GF_VM_NAME
};

// The 3-op ALU subset fused pairs admit: single behavior, no traps (div/mod
// keep their own handlers).
constexpr bool fusable_alu(Op op) noexcept {
  switch (op) {
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kAnd:
    case Op::kOr: case Op::kXor: case Op::kShl: case Op::kShr:
      return true;
    default:
      return false;
  }
}

inline std::int64_t alu_eval(Op op, std::int64_t a, std::int64_t b) noexcept {
  // add and mul are nearly all of MiniC's fused ALU traffic (`a + b`,
  // `i * k`): test them first instead of through a jump table, whose one
  // indirect branch would mispredict whenever the two alternate.
  if (op == Op::kAdd) return a + b;
  if (op == Op::kMul) return a * b;
  switch (op) {
    case Op::kSub: return a - b;
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kShl:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                       << (b & 63));
    default:  // kShr — the fuse-time filter admits nothing else
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                       (b & 63));
  }
}

constexpr std::uint64_t alu_cost(Op op) noexcept {
  return op == Op::kMul ? 3u : 1u;
}

// Taken-decision for the fused compare+branch handlers, indexed by
// [branch - kJz][flags + 1]. Row order matches the Op enum.
inline bool branch_taken(Op op, int flags) noexcept {
  static constexpr bool kTaken[6][3] = {
      /* kJz  */ {false, true, false},
      /* kJnz */ {true, false, true},
      /* kJlt */ {true, false, false},
      /* kJle */ {true, true, false},
      /* kJgt */ {false, false, true},
      /* kJge */ {false, true, true},
  };
  return kTaken[static_cast<int>(op) - static_cast<int>(Op::kJz)][flags + 1];
}

}  // namespace

const char* trap_name(Trap t) noexcept {
  switch (t) {
    case Trap::kNone: return "none";
    case Trap::kHalt: return "halt";
    case Trap::kBadMemory: return "bad-memory";
    case Trap::kBadOpcode: return "bad-opcode";
    case Trap::kBadJump: return "bad-jump";
    case Trap::kDivZero: return "div-zero";
    case Trap::kCycleLimit: return "cycle-limit";
    case Trap::kStackFault: return "stack-fault";
  }
  return "?";
}

std::vector<TraceEdge> WatchTrace::edges() const {
  std::vector<TraceEdge> out;
  const std::uint64_t n = edge_count < kEdgeRing ? edge_count : kEdgeRing;
  out.reserve(static_cast<std::size_t>(n));
  // Ring slots are written at edge_count % kEdgeRing; oldest surviving entry
  // starts the chronological order.
  const std::uint64_t first = edge_count - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(ring[static_cast<std::size_t>((first + i) % kEdgeRing)]);
  }
  return out;
}

Machine::Machine(std::size_t mem_size)
    : mem_(mem_size, 0),
      dirty_((mem_size + kDirtyPageSize - 1) >> kDirtyPageShift, 0) {
  // Default stack: top 64 KiB of memory.
  stack_hi_ = mem_.size();
  stack_lo_ = mem_.size() > (64u << 10) ? mem_.size() - (64u << 10) : 0;
}

const std::uint8_t* Machine::raw(std::uint64_t addr, std::size_t n) const noexcept {
  if (addr >= mem_.size() || mem_.size() - addr < n) return nullptr;
  return mem_.data() + addr;
}

void Machine::mark_dirty(std::uint64_t addr, std::uint64_t len) noexcept {
  if (len == 0 || addr >= mem_.size()) return;
  if (mem_.size() - addr < len) len = mem_.size() - addr;
  note_write(addr, len);
}

void Machine::clear_dirty(std::uint64_t addr, std::uint64_t len) noexcept {
  if (len == 0 || addr >= mem_.size()) return;
  if (mem_.size() - addr < len) len = mem_.size() - addr;
  for (std::uint64_t p = addr >> kDirtyPageShift,
                     last = (addr + len - 1) >> kDirtyPageShift;
       p <= last; ++p) {
    dirty_[p] = 0;
  }
}

void Machine::clear_all_dirty() noexcept {
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

Machine::State Machine::snapshot() {
  State s;
  s.mem = mem_;
  std::memcpy(s.regs.data(), regs_, sizeof regs_);
  s.flags = flags_;
  s.total_cycles = total_cycles_;
  clear_all_dirty();
  return s;
}

void Machine::restore(const State& s) {
  if (s.mem.size() != mem_.size()) {
    throw std::runtime_error("machine snapshot size mismatch");
  }
  // Copy back only pages dirtied since snapshot(); pages overlapping the
  // code hull additionally re-decode so the predecode cache never serves
  // instructions for bytes that just changed under it.
  for (std::size_t p = 0; p < dirty_.size(); ++p) {
    if (!dirty_[p]) continue;
    const std::uint64_t addr = static_cast<std::uint64_t>(p) << kDirtyPageShift;
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kDirtyPageSize, mem_.size() - addr));
    std::memcpy(mem_.data() + addr, s.mem.data() + addr, len);
    maybe_invalidate(addr, len);
  }
  std::memcpy(regs_, s.regs.data(), sizeof regs_);
  flags_ = s.flags;
  total_cycles_ = s.total_cycles;
  clear_all_dirty();
}

void Machine::restore_full(const State& s) {
  if (s.mem.size() != mem_.size()) {
    throw std::runtime_error("machine snapshot size mismatch");
  }
  mem_ = s.mem;
  std::memcpy(regs_, s.regs.data(), sizeof regs_);
  flags_ = s.flags;
  total_cycles_ = s.total_cycles;
  rebuild_predecode();
  clear_all_dirty();
}

void Machine::begin_write_capture() {
  capture_ = true;
  captured_.clear();
}

std::vector<WriteSpan> Machine::end_write_capture() {
  capture_ = false;
  return std::move(captured_);
}

void Machine::load_image(const isa::Image& img) {
  reload_code(img);
  code_ranges_.push_back({img.base(), img.end()});
  rebuild_predecode();
}

void Machine::reload_code(const isa::Image& img) {
  const auto code = img.code();
  if (img.base() + code.size() > mem_.size()) {
    // Misconfigured layout is a programming error in the embedding code,
    // not a runtime fault of the guest; fail loudly.
    throw std::runtime_error("image does not fit in VM memory: " + img.name());
  }
  std::memcpy(mem_.data() + img.base(), code.data(), code.size());
  maybe_invalidate(img.base(), code.size());
  if (!code.empty()) note_write(img.base(), code.size());
}

bool Machine::patch_code(std::uint64_t addr, const void* data,
                         std::size_t n) noexcept {
  if (n == 0) return true;
  if (addr >= mem_.size() || mem_.size() - addr < n) return false;
  std::memcpy(mem_.data() + addr, data, n);
  maybe_invalidate(addr, n);
  note_write(addr, n);
  return true;
}

void Machine::invalidate_code(std::uint64_t addr, std::uint64_t len) noexcept {
  if (predecoded_.empty() || len == 0) return;
  if (addr >= code_hi_) return;
  const std::uint64_t end =
      len > code_hi_ - addr ? code_hi_ : addr + len;  // overflow-safe clamp
  if (end <= code_lo_) return;
  const std::uint64_t lo = addr > code_lo_ ? addr : code_lo_;
  const auto s0 = static_cast<std::size_t>((lo - code_lo_) / kInstrSize);
  const auto e = static_cast<std::size_t>(
      (end - code_lo_ + kInstrSize - 1) / kInstrSize);
  // Only re-decodes; slot flags (validity, armed bits) are left untouched,
  // so an armed fault window survives the inject/restore patches it watches.
  for (std::size_t s = s0; s < e; ++s) {
    if (!(slot_flags_[s] & kSlotValid)) continue;
    const std::uint8_t* p = mem_.data() + code_lo_ + s * kInstrSize;
    if (!isa::decode_into(p, predecoded_[s])) {
      predecoded_[s] = Instr{Op::kOpCount_, 0, 0, 0, 0};
    }
  }
  // Re-tokenize kXopReach slots wider to the left: a write landing on the
  // second or third slot of a fused token must split the superinstruction
  // whose head lies just before the written range.
  rebuild_xop(s0 > kXopReach ? s0 - kXopReach : 0, e);
}

void Machine::set_predecode(bool enabled) {
  predecode_ = enabled;
  rebuild_predecode();
}

void Machine::set_fusion(bool enabled) {
  fusion_ = enabled;
  if (!predecoded_.empty()) rebuild_xop(0, predecoded_.size());
}

const char* Machine::dispatch_kind() noexcept {
#if GF_VM_THREADED_DISPATCH
  return "threaded";
#else
  return "switch";
#endif
}

std::uint64_t Machine::state_digest() const noexcept {
  // FNV-1a over every architectural observable. Dispatch strategy state
  // (predecode tables, xop tokens, samplers, stats) is deliberately
  // excluded: two machines agree here iff a guest program cannot tell them
  // apart, which is exactly the equivalence the differential fuzzer checks.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  mix(mem_.data(), mem_.size());
  mix(regs_, sizeof regs_);
  mix(&flags_, sizeof flags_);
  mix(&total_cycles_, sizeof total_cycles_);
  return h;
}

std::uint8_t Machine::xop_for_slot(std::size_t s) const noexcept {
  const std::uint8_t f = slot_flags_[s];
  if (!(f & kSlotValid)) return kXBadJump;
  if (f & kSlotArmed) return kXArmed;  // single-step inside the fault window
  const Instr& a = predecoded_[s];
  const auto base = static_cast<std::uint8_t>(a.op);
  // Undecodable slots trap and syscall handlers may rewrite anything
  // (including these tables): neither glues nor fuses.
  if (a.op == Op::kOpCount_ || a.op == Op::kSys || !fusion_) return base;
  // A successor slot is statically safe when it is in-hull, valid and unarmed.
  auto safe = [this](std::size_t t) {
    return t < predecoded_.size() &&
           (slot_flags_[t] & (kSlotValid | kSlotArmed)) == kSlotValid;
  };
  if (!safe(s + 1)) return base;
  // Glue at least, and known pairs/triples collapse into one handler (see
  // the token-table comment for which members may write memory).
  std::uint8_t x = base;
  const Op b = predecoded_[s + 1].op;
  const Op c = safe(s + 2) ? predecoded_[s + 2].op : Op::kOpCount_;
  switch (a.op) {
    case Op::kCmp:
      if (isa::is_branch(b)) x = kXCmpBr;
      break;
    case Op::kCmpI:
      if (isa::is_branch(b)) x = kXCmpIBr;
      break;
    case Op::kLd:
      if (b == Op::kMovI && fusable_alu(c)) x = kXLdMovIAlu;
      else if (b == Op::kLd) x = kXLdLd;
      else if (fusable_alu(b)) x = kXLdAlu;
      else if (b == Op::kPush) x = kXLdPush;
      break;
    case Op::kMovI:
      if (fusable_alu(b)) x = kXMovIAlu;
      break;
    case Op::kMov:
      if (b == Op::kPop) x = fusable_alu(c) ? kXMovPopAlu : kXMovPop;
      break;
    case Op::kPush:
      if (b == Op::kLd && (stack_hi_ <= code_lo_ || stack_lo_ >= code_hi_)) {
        x = kXPushLd;
      }
      break;
    default:
      if (fusable_alu(a.op) && b == Op::kSt) x = kXAluSt;
      break;
  }
  return static_cast<std::uint8_t>(x | kXGlue);
}

std::map<std::string, std::size_t> Machine::fused_token_census() const {
  std::map<std::string, std::size_t> out;
  for (std::uint8_t x = kXCmpBr; x < kXopCount_; ++x) out[kXopNames[x]] = 0;
  for (const std::uint8_t t : xop_) {
    const auto x = static_cast<std::uint8_t>(t & kXopMask);
    if (x >= kXCmpBr && x < kXopCount_) ++out[kXopNames[x]];
  }
  return out;
}

void Machine::rebuild_xop(std::size_t lo_slot, std::size_t hi_slot) noexcept {
  if (xop_.size() != predecoded_.size()) {
    xop_.assign(predecoded_.size(), kXBadJump);
  }
  if (hi_slot > xop_.size()) hi_slot = xop_.size();
  for (std::size_t s = lo_slot; s < hi_slot; ++s) xop_[s] = xop_for_slot(s);
}

void Machine::rebuild_xop_for_range(std::uint64_t lo, std::uint64_t hi) noexcept {
  if (predecoded_.empty() || hi <= lo) return;
  if (lo < code_lo_) lo = code_lo_;
  if (hi > code_hi_) hi = code_hi_;
  if (hi <= lo) return;
  const auto s0 = static_cast<std::size_t>((lo - code_lo_) / kInstrSize);
  const auto s1 = static_cast<std::size_t>(
      (hi - code_lo_ + kInstrSize - 1) / kInstrSize);
  rebuild_xop(s0 > kXopReach ? s0 - kXopReach : 0, s1);
}

void Machine::rebuild_predecode() {
  predecoded_.clear();
  slot_flags_.clear();
  xop_.clear();
  code_lo_ = code_hi_ = 0;
  if (!predecode_ || code_ranges_.empty()) return;
  code_lo_ = code_ranges_.front().lo;
  for (const auto& r : code_ranges_) {
    // The slot grid only works when every image starts on an instruction
    // boundary (always true for compiler/assembler output). A misaligned
    // base falls back to the per-step decode path.
    if (r.lo % kInstrSize != 0) {
      code_lo_ = code_hi_ = 0;
      return;
    }
    code_lo_ = std::min(code_lo_, r.lo);
    code_hi_ = std::max(code_hi_, r.hi);
  }
  const auto slots =
      static_cast<std::size_t>((code_hi_ - code_lo_ + kInstrSize - 1) / kInstrSize);
  predecoded_.assign(slots, Instr{Op::kOpCount_, 0, 0, 0, 0});
  slot_flags_.assign(slots, 0);
  for (const auto& r : code_ranges_) {
    for (std::uint64_t a = r.lo; a + kInstrSize <= r.hi; a += kInstrSize) {
      const auto s = static_cast<std::size_t>((a - code_lo_) / kInstrSize);
      slot_flags_[s] = kSlotValid;
    }
  }
  for (std::size_t s = 0; s < slots; ++s) {
    if (!(slot_flags_[s] & kSlotValid)) continue;
    if (!isa::decode_into(mem_.data() + code_lo_ + s * kInstrSize,
                          predecoded_[s])) {
      predecoded_[s] = Instr{Op::kOpCount_, 0, 0, 0, 0};
    }
  }
  apply_watch_bits();
  rebuild_xop(0, slots);
}

void Machine::apply_watch_bits() noexcept {
  if (watch_hi_ == 0 || slot_flags_.empty()) return;
  for (std::uint64_t a = watch_lo_; a < watch_hi_; a += kInstrSize) {
    if (a < code_lo_ || a + kInstrSize > code_hi_) continue;
    slot_flags_[static_cast<std::size_t>((a - code_lo_) / kInstrSize)] |=
        kSlotArmed;
  }
}

void Machine::arm_watch(std::uint64_t lo, std::uint64_t hi) {
  disarm_watch();
  if (hi <= lo) return;
  watch_lo_ = lo;
  watch_hi_ = hi;
  watch_ = WatchTrace{};
  apply_watch_bits();
  // Armed slots single-step (kXArmed) and their predecessors lose glue/fusion
  // so every entry into the window goes through the full fetch.
  rebuild_xop_for_range(watch_lo_, watch_hi_);
}

void Machine::disarm_watch() {
  const std::uint64_t lo = watch_lo_, hi = watch_hi_;
  if (watch_hi_ != 0 && !slot_flags_.empty()) {
    for (std::uint64_t a = watch_lo_; a < watch_hi_; a += kInstrSize) {
      if (a < code_lo_ || a + kInstrSize > code_hi_) continue;
      slot_flags_[static_cast<std::size_t>((a - code_lo_) / kInstrSize)] &=
          static_cast<std::uint8_t>(~kSlotArmed);
    }
  }
  watch_lo_ = watch_hi_ = 0;
  edge_live_ = false;
  rebuild_xop_for_range(lo, hi);  // window slots re-fuse once disarmed
}

void Machine::note_watch_hit(std::uint64_t cycles) noexcept {
  if (watch_.hits++ == 0) watch_.first_hit_cycle = total_cycles_ + cycles;
  edge_live_ = true;
}

void Machine::note_watch_edge(std::uint64_t from, std::uint64_t to) noexcept {
  watch_.ring[static_cast<std::size_t>(watch_.edge_count % WatchTrace::kEdgeRing)] =
      TraceEdge{from, to};
  ++watch_.edge_count;
}

void Machine::arm_sampler(std::uint64_t stride) {
  samples_.clear();
  sample_stride_ = stride;
  sample_left_ = stride == 0 ? kSamplerIdle : static_cast<std::int64_t>(stride);
}

void Machine::disarm_sampler() {
  sample_stride_ = 0;
  sample_left_ = kSamplerIdle;
}

std::int64_t Machine::note_sample(std::uint64_t pc, std::int64_t left) {
  // Overshoot carries into the next period so the sample cadence stays an
  // exact function of consumed cycles; the loop handles instructions whose
  // cost spans several strides (e.g. SYS at a small stride).
  do {
    ++samples_[pc];
    left += static_cast<std::int64_t>(sample_stride_);
  } while (left <= 0);
  return left;
}

void Machine::set_stack_region(std::uint64_t lo, std::uint64_t hi) {
  stack_lo_ = lo;
  stack_hi_ = hi;
  // PushLd fuses only while the region is disjoint from the code hull.
  if (!predecoded_.empty()) rebuild_xop(0, predecoded_.size());
}

void Machine::write_cold(std::uint64_t addr, std::uint64_t len) noexcept {
  maybe_invalidate(addr, len);
  if (capture_) captured_.push_back({addr, {&mem_[addr], &mem_[addr] + len}});
}

bool Machine::read_u8(std::uint64_t addr, std::uint8_t& out) const noexcept {
  const GuestMem g = guest_mem();
  return load(g, addr, &out, 1, g.lim1);
}

bool Machine::write_u8(std::uint64_t addr, std::uint8_t v) noexcept {
  const GuestMem g = guest_mem();
  return store(g, addr, &v, 1, g.lim1);
}

bool Machine::read_u64(std::uint64_t addr, std::uint64_t& out) const noexcept {
  const GuestMem g = guest_mem();
  return load(g, addr, &out, 8, g.lim8);
}

bool Machine::write_u64(std::uint64_t addr, std::uint64_t v) noexcept {
  const GuestMem g = guest_mem();
  return store(g, addr, &v, 8, g.lim8);
}

bool Machine::read_bytes(std::uint64_t addr, void* out, std::size_t n) const noexcept {
  if (n == 0) return true;
  const GuestMem g = guest_mem();
  return load(g, addr, out, n, access_limit(g.size, n));
}

std::optional<std::span<const std::uint8_t>> Machine::guest_bytes(
    std::uint64_t addr, std::size_t n) const noexcept {
  if (n == 0) return std::span<const std::uint8_t>{};
  if (addr - kNullPageSize >= access_limit(mem_.size(), n)) return std::nullopt;
  return std::span<const std::uint8_t>(mem_.data() + addr, n);
}

bool Machine::write_bytes(std::uint64_t addr, const void* data, std::size_t n) noexcept {
  if (n == 0) return true;
  const GuestMem g = guest_mem();
  return store(g, addr, data, n, access_limit(g.size, n));
}

bool Machine::read_cstr(std::uint64_t addr, std::string& out,
                        std::size_t max_len) const noexcept {
  out.clear();
  if (addr - kNullPageSize >= access_limit(mem_.size(), 1)) return false;
  // One bounds check plus memchr over guest memory instead of a per-byte
  // checked read: this sits on the path of every path-string API call.
  const auto avail = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_len, mem_.size() - addr));
  const auto* base = mem_.data() + addr;
  const auto* nul = static_cast<const std::uint8_t*>(std::memchr(base, 0, avail));
  if (nul == nullptr) return false;  // unterminated within max_len / memory
  out.assign(reinterpret_cast<const char*>(base),
             static_cast<std::size_t>(nul - base));
  return true;
}

bool Machine::in_code(std::uint64_t addr) const noexcept {
  // Straight-line execution almost always stays within one image, so the
  // last-hit range makes the common case O(1) even without the predecode
  // bitmap (which replaces this walk entirely on the fast path).
  // Written as addr - lo so an address within 8 bytes of 2^64 cannot wrap
  // past the end check.
  auto holds = [addr](const CodeRange& r) {
    return addr >= r.lo && r.hi - r.lo >= kInstrSize &&
           addr - r.lo <= r.hi - r.lo - kInstrSize;
  };
  if (last_range_ < code_ranges_.size() && holds(code_ranges_[last_range_])) {
    return true;
  }
  for (std::size_t i = 0; i < code_ranges_.size(); ++i) {
    if (holds(code_ranges_[i])) {
      last_range_ = i;
      return true;
    }
  }
  return false;
}

RunResult Machine::call(std::uint64_t addr, std::span<const std::int64_t> args,
                        std::uint64_t cycle_budget) {
  // Fresh frame at the top of the stack region with the sentinel as the
  // return address; a RET from the callee then ends the run cleanly.
  std::int64_t saved_regs[isa::kNumRegs];
  std::memcpy(saved_regs, regs_, sizeof regs_);

  regs_[isa::kRegSp] = static_cast<std::int64_t>(stack_hi_);
  regs_[isa::kRegFp] = static_cast<std::int64_t>(stack_hi_);
  for (std::size_t i = 0; i < args.size() && i < isa::kNumArgRegs; ++i) {
    regs_[isa::kRegArg0 + i] = args[i];
  }
  // Push sentinel return address.
  regs_[isa::kRegSp] -= 8;
  if (!write_u64(static_cast<std::uint64_t>(regs_[isa::kRegSp]), kReturnSentinel)) {
    std::memcpy(regs_, saved_regs, sizeof regs_);
    return {Trap::kStackFault, 0, addr, 0};
  }

  RunResult res = execute(addr, cycle_budget);
  res.ret = regs_[isa::kRegRet];
  std::memcpy(regs_, saved_regs, sizeof regs_);
  return res;
}

RunResult Machine::run(std::uint64_t pc, std::uint64_t cycle_budget) {
  RunResult res = execute(pc, cycle_budget);
  res.ret = regs_[isa::kRegRet];
  return res;
}

RunResult Machine::execute(std::uint64_t pc, std::uint64_t cycle_budget) {
  // Loop-carried state is kept to two registers on the straight-line path:
  // `cycles` and `slot`. The pc of the instruction in `slot` is
  // VM_PC() (with predecode off the hull base is 0 and slot = pc / 8), and
  // along a glued run retired steps grow in lock-step with the slot, so
  // `steps` is only materialized (as base + slot) where control leaves the
  // run. `pc` holds the target of a full fetch and the pc a stop reports.
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  std::uint64_t base = 0;  // steps == base + slot along a glued run
  std::size_t slot = 0;
  // The sampler's countdown, held as the run cycle of the next sample
  // (kSamplerIdle when disarmed, so it is never reached). `event` is the
  // nearer of that and the budget: one compare per retired instruction
  // guards both, and on_event() sorts out which one fired.
  std::uint64_t sample_at = static_cast<std::uint64_t>(sample_left_);
  std::uint64_t event = std::min(sample_at, cycle_budget);
  // Single exit: every termination path funnels through here (with `pc`
  // and `steps` set) so the lifetime counters and dispatch stats are folded
  // in exactly once per run. `steps` counts architecturally retired
  // instructions; the fetch-failure tokens (kXBadJump / kXBadOp), which
  // flow through dispatch after the increment, give it back. `terminal`
  // cycles (HALT, sentinel RET, failed SYS) are committed without a sampler
  // tick.
  auto stop = [&](Trap t, std::uint64_t terminal = 0) {
    sample_left_ = static_cast<std::int64_t>(sample_at - cycles);
    cycles += terminal;
    total_cycles_ += cycles;
    stats_.instructions += steps;
    ++stats_.runs;
    ++stats_.traps[static_cast<std::size_t>(t)];
    return RunResult{t, cycles, pc, 0};
  };
  // Cold side of the event compare, taken at a retire point of the
  // instruction at `at`: records the sample(s) due, re-arms the compare, and
  // reports whether the budget is exhausted.
  auto on_event = [&](std::uint64_t at) {
    if (cycles >= sample_at) {
      sample_at = cycles + static_cast<std::uint64_t>(note_sample(
                               at, static_cast<std::int64_t>(sample_at - cycles)));
    }
    event = std::min(sample_at, cycle_budget);
    return cycles >= cycle_budget;
  };

  // Run-invariant machine shape, held in locals: a guest store goes through
  // a byte pointer that may alias anything, so state read through `this`
  // would be reloaded after every store. Only a syscall handler can change
  // any of it mid-run (load an image, toggle predecode, restore,
  // start a write capture, move the stack), so the SYS handler reloads.
  GuestMem g{};
  const Instr* pre = nullptr;  // predecoded_ (null: per-step decode)
  const std::uint8_t* xtab = nullptr;
  std::uint64_t hull_lo = 0;
  std::uint64_t hull_span = 0;  // fetch is in-hull iff pc - hull_lo < hull_span
  std::uint64_t stk_lo = 0, stk_hi = 0;
  auto reload = [&] {
    g = guest_mem();
    pre = predecoded_.empty() ? nullptr : predecoded_.data();
    xtab = xop_.data();
    hull_lo = code_lo_;  // 0 without predecode
    // One unsigned compare covers pc < code_lo_, pc + 8 > code_hi_ and an
    // address within 8 bytes of 2^64.
    hull_span = code_hi_ - code_lo_ >= kInstrSize
                    ? code_hi_ - code_lo_ - kInstrSize + 1
                    : 0;
    stk_lo = stack_lo_;
    stk_hi = stack_hi_;
  };
  reload();

  auto& R = regs_;
  // The instruction being dispatched and the next member of a fused token,
  // read in place from the predecode table. A handler reads every field it
  // needs before its own guest store, which may re-decode the slot.
  const Instr* in = nullptr;
  const Instr* b = nullptr;
  Instr decoded{};  // per-step decode target when predecode is off
  std::uint8_t xop = 0;
  std::uint64_t next = 0;  // successor pc of a control-transfer handler

#define VM_PC() (hull_lo + static_cast<std::uint64_t>(slot) * kInstrSize)
  // Leaves the run: materializes the pc and step count a stop reports.
#define VM_TRAP(t)          \
  {                         \
    pc = VM_PC();           \
    steps = base + slot;    \
    return stop(t);         \
  }

#if GF_VM_THREADED_DISPATCH
  // Indexed by (xop & kXopMask); entries past kXopCount_ are unreachable by
  // construction but still land on a defined handler.
  static const void* const kXopLabels[kXopMask + 1] = {
#define GF_VM_LBL(name) &&H_##name,
      GF_VM_XOPS(GF_VM_LBL)
#undef GF_VM_LBL
      &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp,
      &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp,
      &&H_BadOp, &&H_BadOp,
  };
  static_assert(kXopCount_ == 50, "update the kXopLabels padding");
#define VM_CASE(name) H_##name:
#define VM_DISPATCH() goto* kXopLabels[xop & kXopMask]
#else
#define VM_CASE(name) case kX##name:
#define VM_DISPATCH() goto dispatch
#endif

  // Effective address of a load/store member.
#define VM_EA(i) \
  static_cast<std::uint64_t>(R[(i)->rs1] + static_cast<std::int64_t>((i)->imm))

  // Stack push/pop bodies shared by every handler that touches the stack:
  // kStackFault outside the region, kBadMemory when the region leaves memory.
#define VM_PUSH(value)                                               \
  {                                                                  \
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;  \
    if (sp < stk_lo || sp + 8 > stk_hi) VM_TRAP(Trap::kStackFault);  \
    const auto v = static_cast<std::uint64_t>(value);                \
    if (!store(g, sp, &v, 8, g.lim8)) VM_TRAP(Trap::kBadMemory);    \
    R[isa::kRegSp] = static_cast<std::int64_t>(sp);                  \
  }
#define VM_POP(i)                                                    \
  {                                                                  \
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]);      \
    if (sp < stk_lo || sp + 8 > stk_hi) VM_TRAP(Trap::kStackFault);  \
    std::uint64_t v;                                                 \
    if (!load(g, sp, &v, 8, g.lim8)) VM_TRAP(Trap::kBadMemory);      \
    R[(i)->rd] = static_cast<std::int64_t>(v);                       \
    R[isa::kRegSp] = static_cast<std::int64_t>(sp + 8);              \
  }
#define VM_LD(i)                                                     \
  {                                                                  \
    std::uint64_t v;                                                 \
    if (!load(g, VM_EA(i), &v, 8, g.lim8)) VM_TRAP(Trap::kBadMemory); \
    R[(i)->rd] = static_cast<std::int64_t>(v);                       \
  }

  // Retire points. Every instruction's cycle cost is committed at exactly
  // one of them, while `slot` still names it, and the sampler ticks there —
  // so fused and unfused execution (and both dispatch lowerings) see
  // identical (pc, cycles) sequences and produce bit-identical sample
  // streams and budget stops.
  //
  // VM_SEQ: a straight-line instruction retires. With the glue bit (the
  // fall-through slot is statically valid, unarmed and in-hull) the next
  // token dispatches without the full fetch; everything the skipped checks
  // guard is write-immune (validity, armedness) or read fresh
  // here (instruction, token).
#define VM_SEQ(c)                                   \
  cycles += (c);                                    \
  if (cycles >= event) [[unlikely]] {               \
    if (on_event(VM_PC())) goto seq_fetch;          \
  }                                                 \
  if ((xop & kXGlue) == 0) goto seq_fetch;          \
  ++slot;                                           \
  in = pre + slot;                                  \
  xop = xtab[slot];                                 \
  VM_DISPATCH()

  // VM_CTL: a control-transfer instruction retires with its successor in
  // `next` (edge ring, then glue only for a fall-through).
#define VM_CTL(c) \
  cycles += (c);  \
  goto ctl_tail

  // Architectural boundary between two members of a fused token: the member
  // just executed retires exactly as VM_SEQ would retire it, so a budget
  // stop before the next member or a trap inside it is indistinguishable
  // from unfused execution. Members before the last never transfer control,
  // so no edge-ring check is due. Points `b` at the next member (a triple
  // chains this twice).
#define VM_FUSE_NEXT(member_cost)          \
  cycles += (member_cost);                 \
  if (cycles >= event) [[unlikely]] {      \
    if (on_event(VM_PC())) goto seq_fetch; \
  }                                        \
  ++slot;                                  \
  b = pre + slot;                          \
  xop = xtab[slot]

fetch:
  // Full fetch of `pc`; `steps` is materialized on entry.
  if (cycles >= cycle_budget) return stop(Trap::kCycleLimit);
  if (pre != nullptr) {
    // Fast path: one hull compare + token/side-table fetch. Validity,
    // armedness and undecodability are pre-folded into the token, so the
    // only per-fetch branch is the hull check.
    const std::uint64_t rel = pc - hull_lo;
    if (rel >= hull_span || rel % kInstrSize != 0) return stop(Trap::kBadJump);
    slot = static_cast<std::size_t>(rel / kInstrSize);
    in = pre + slot;
    xop = xtab[slot];
  } else {
    if (!in_code(pc) || pc % kInstrSize != 0) return stop(Trap::kBadJump);
    // Fallback decode path: no slot table, so the watch is a range compare.
    if (watch_hi_ != 0 && pc >= watch_lo_ && pc < watch_hi_) [[unlikely]] {
      note_watch_hit(cycles);
    }
    if (!isa::decode_into(g.mem + pc, decoded)) return stop(Trap::kBadOpcode);
    slot = static_cast<std::size_t>(pc / kInstrSize);  // hull_lo is 0 here
    in = &decoded;
    xop = static_cast<std::uint8_t>(decoded.op);
  }
  ++steps;
  base = steps - slot;

dispatch:
#if GF_VM_THREADED_DISPATCH
  goto* kXopLabels[xop & kXopMask];
#else
  switch (xop & kXopMask) {
#endif

  // --- base opcodes (shared by both lowerings; each body ends in a retire) --
  VM_CASE(Nop) { VM_SEQ(1); }
  VM_CASE(Halt) {
    pc = VM_PC();
    steps = base + slot;
    return stop(Trap::kHalt, 1);
  }
  VM_CASE(MovI) {
    R[in->rd] = static_cast<std::int64_t>(in->imm);
    VM_SEQ(1);
  }
  VM_CASE(Mov) {
    R[in->rd] = R[in->rs1];
    VM_SEQ(1);
  }
  VM_CASE(Ld) {
    VM_LD(in);
    VM_SEQ(2);
  }
  VM_CASE(St) {
    const auto v = static_cast<std::uint64_t>(R[in->rs2]);
    if (!store(g, VM_EA(in), &v, 8, g.lim8)) VM_TRAP(Trap::kBadMemory);
    VM_SEQ(2);
  }
  VM_CASE(LdB) {
    std::uint8_t v;
    if (!load(g, VM_EA(in), &v, 1, g.lim1)) VM_TRAP(Trap::kBadMemory);
    R[in->rd] = v;
    VM_SEQ(2);
  }
  VM_CASE(StB) {
    const auto v = static_cast<std::uint8_t>(R[in->rs2]);
    if (!store(g, VM_EA(in), &v, 1, g.lim1)) VM_TRAP(Trap::kBadMemory);
    VM_SEQ(2);
  }
  VM_CASE(Add) {
    R[in->rd] = R[in->rs1] + R[in->rs2];
    VM_SEQ(1);
  }
  VM_CASE(Sub) {
    R[in->rd] = R[in->rs1] - R[in->rs2];
    VM_SEQ(1);
  }
  VM_CASE(Mul) {
    R[in->rd] = R[in->rs1] * R[in->rs2];
    VM_SEQ(3);
  }
  VM_CASE(Div) {
    if (R[in->rs2] == 0) VM_TRAP(Trap::kDivZero);
    R[in->rd] = R[in->rs1] / R[in->rs2];
    VM_SEQ(10);
  }
  VM_CASE(Mod) {
    if (R[in->rs2] == 0) VM_TRAP(Trap::kDivZero);
    R[in->rd] = R[in->rs1] % R[in->rs2];
    VM_SEQ(10);
  }
  VM_CASE(And) {
    R[in->rd] = R[in->rs1] & R[in->rs2];
    VM_SEQ(1);
  }
  VM_CASE(Or) {
    R[in->rd] = R[in->rs1] | R[in->rs2];
    VM_SEQ(1);
  }
  VM_CASE(Xor) {
    R[in->rd] = R[in->rs1] ^ R[in->rs2];
    VM_SEQ(1);
  }
  VM_CASE(Shl) {
    R[in->rd] = static_cast<std::int64_t>(static_cast<std::uint64_t>(R[in->rs1])
                                          << (R[in->rs2] & 63));
    VM_SEQ(1);
  }
  VM_CASE(Shr) {
    R[in->rd] = static_cast<std::int64_t>(static_cast<std::uint64_t>(R[in->rs1]) >>
                                          (R[in->rs2] & 63));
    VM_SEQ(1);
  }
  VM_CASE(AddI) {
    R[in->rd] = R[in->rs1] + static_cast<std::int64_t>(in->imm);
    VM_SEQ(1);
  }
  VM_CASE(Not) {
    R[in->rd] = ~R[in->rs1];
    VM_SEQ(1);
  }
  VM_CASE(Neg) {
    R[in->rd] = -R[in->rs1];
    VM_SEQ(1);
  }
  VM_CASE(Cmp) {
    flags_ = R[in->rs1] < R[in->rs2] ? -1 : (R[in->rs1] > R[in->rs2] ? 1 : 0);
    VM_SEQ(1);
  }
  VM_CASE(CmpI) {
    const auto imm = static_cast<std::int64_t>(in->imm);
    flags_ = R[in->rs1] < imm ? -1 : (R[in->rs1] > imm ? 1 : 0);
    VM_SEQ(1);
  }
#define VM_JCC(cond)                                                        \
  next = (cond) ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in->imm)) \
                : VM_PC() + kInstrSize;                                     \
  VM_CTL(1)
  VM_CASE(Jmp) { VM_JCC(true); }
  VM_CASE(Jz) { VM_JCC(flags_ == 0); }
  VM_CASE(Jnz) { VM_JCC(flags_ != 0); }
  VM_CASE(Jlt) { VM_JCC(flags_ < 0); }
  VM_CASE(Jle) { VM_JCC(flags_ <= 0); }
  VM_CASE(Jgt) { VM_JCC(flags_ > 0); }
  VM_CASE(Jge) { VM_JCC(flags_ >= 0); }
#undef VM_JCC
  VM_CASE(Call) {
    const auto target = static_cast<std::uint64_t>(static_cast<std::int64_t>(in->imm));
    VM_PUSH(VM_PC() + kInstrSize);
    next = target;
    VM_CTL(2);
  }
  VM_CASE(CallR) {
    const auto rs1 = in->rs1;
    VM_PUSH(VM_PC() + kInstrSize);
    next = static_cast<std::uint64_t>(R[rs1]);  // after sp moved: `callr sp`
    VM_CTL(2);
  }
  VM_CASE(Ret) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]);
    if (sp < stk_lo || sp + 8 > stk_hi) VM_TRAP(Trap::kStackFault);
    std::uint64_t ra;
    if (!load(g, sp, &ra, 8, g.lim8)) VM_TRAP(Trap::kBadMemory);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp + 8);
    if (ra == kReturnSentinel) {
      pc = VM_PC();
      steps = base + slot;
      return stop(Trap::kHalt, 1);
    }
    next = ra;
    VM_CTL(2);
  }
  VM_CASE(Push) {
    VM_PUSH(R[in->rs1]);
    VM_SEQ(2);
  }
  VM_CASE(Pop) {
    VM_POP(in);
    VM_SEQ(2);
  }
  VM_CASE(Sys) {
    if (!syscall_) VM_TRAP(Trap::kBadOpcode);
    // The handler may reshape the machine (even the hull VM_PC() is based
    // on), so the run state is pinned to plain values first.
    pc = VM_PC();
    steps = base + slot;
    const Trap t = syscall_(*this, in->imm);
    reload();
    if (t != Trap::kNone) return stop(t, 20);
    cycles += 20;
    if (cycles >= event) [[unlikely]] on_event(pc);
    pc += kInstrSize;  // SYS never glues: always the full fetch next
    goto fetch;
  }
  VM_CASE(BadOp) {
    // Fetch-time failure routed through dispatch: not a retired instruction.
    pc = VM_PC();
    steps = base + slot - 1;
    return stop(Trap::kBadOpcode);
  }

  // --- fetch-failure tokens -------------------------------------------------
  VM_CASE(BadJump) {
    pc = VM_PC();
    steps = base + slot - 1;  // hole between images: nothing retired
    return stop(Trap::kBadJump);
  }
  VM_CASE(Armed) {
    // Single-step fallback inside the fault window: record the hit, then
    // dispatch the base opcode (nothing in the window fuses or glues, and
    // the predecessors' tokens were cleared, so every entry lands here).
    note_watch_hit(cycles);
    xop = static_cast<std::uint8_t>(in->op);
    goto dispatch;
  }

  // --- fused pairs ----------------------------------------------------------
  VM_CASE(CmpBr) {
    flags_ = R[in->rs1] < R[in->rs2] ? -1 : (R[in->rs1] > R[in->rs2] ? 1 : 0);
    VM_FUSE_NEXT(1);
    next = branch_taken(b->op, flags_)
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(b->imm))
               : VM_PC() + kInstrSize;
    VM_CTL(1);
  }
  VM_CASE(CmpIBr) {
    const auto imm = static_cast<std::int64_t>(in->imm);
    flags_ = R[in->rs1] < imm ? -1 : (R[in->rs1] > imm ? 1 : 0);
    VM_FUSE_NEXT(1);
    next = branch_taken(b->op, flags_)
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(b->imm))
               : VM_PC() + kInstrSize;
    VM_CTL(1);
  }
  VM_CASE(LdLd) {
    VM_LD(in);
    VM_FUSE_NEXT(2);
    VM_LD(b);
    VM_SEQ(2);
  }
  VM_CASE(LdAlu) {
    VM_LD(in);
    VM_FUSE_NEXT(2);
    R[b->rd] = alu_eval(b->op, R[b->rs1], R[b->rs2]);
    VM_SEQ(alu_cost(b->op));
  }
  VM_CASE(LdPush) {
    VM_LD(in);
    VM_FUSE_NEXT(2);
    VM_PUSH(R[b->rs1]);
    VM_SEQ(2);
  }
  VM_CASE(MovIAlu) {
    R[in->rd] = static_cast<std::int64_t>(in->imm);
    VM_FUSE_NEXT(1);
    R[b->rd] = alu_eval(b->op, R[b->rs1], R[b->rs2]);
    VM_SEQ(alu_cost(b->op));
  }
  VM_CASE(MovPop) {
    R[in->rd] = R[in->rs1];
    VM_FUSE_NEXT(1);
    VM_POP(b);
    VM_SEQ(2);
  }
  VM_CASE(AluSt) {
    R[in->rd] = alu_eval(in->op, R[in->rs1], R[in->rs2]);
    VM_FUSE_NEXT(alu_cost(in->op));
    {
      const auto v = static_cast<std::uint64_t>(R[b->rs2]);
      if (!store(g, VM_EA(b), &v, 8, g.lim8)) VM_TRAP(Trap::kBadMemory);
    }
    VM_SEQ(2);
  }
  VM_CASE(PushLd) {
    // The push may only head this pair while the stack region is disjoint
    // from the code hull (xop_for_slot), so its store cannot rewrite the ld.
    VM_PUSH(R[in->rs1]);
    VM_FUSE_NEXT(2);
    VM_LD(b);
    VM_SEQ(2);
  }

  // --- fused triples (MiniC's expression idioms) ------------------------------
  VM_CASE(MovPopAlu) {
    // `mov r7, r0; pop r0; OP r0, r0, r7`: the right operand parked, the left
    // one popped, the two combined.
    R[in->rd] = R[in->rs1];
    VM_FUSE_NEXT(1);
    VM_POP(b);
    VM_FUSE_NEXT(2);
    R[b->rd] = alu_eval(b->op, R[b->rs1], R[b->rs2]);
    VM_SEQ(alu_cost(b->op));
  }
  VM_CASE(LdMovIAlu) {
    // `ld r0, [fp-k]; movi r7, K; OP r0, r0, r7`: a local combined with a
    // constant (the index scaling of `a[i*k]`).
    VM_LD(in);
    VM_FUSE_NEXT(2);
    R[b->rd] = static_cast<std::int64_t>(b->imm);
    VM_FUSE_NEXT(1);
    R[b->rd] = alu_eval(b->op, R[b->rs1], R[b->rs2]);
    VM_SEQ(alu_cost(b->op));
  }

#if !GF_VM_THREADED_DISPATCH
  default:
    // Unreachable: every token value has a case above.
    pc = VM_PC();
    steps = base + slot - 1;
    return stop(Trap::kBadOpcode);
  }
#endif

seq_fetch:
  // A straight-line instruction retired without glue (or the budget ran
  // out at a member boundary): the full fetch of its successor.
  pc = VM_PC() + kInstrSize;
  steps = base + slot;
  goto fetch;

ctl_tail:
  // Error-propagation edges: only live between the first watch hit and
  // disarm, i.e. while an injected fault is both armed and activated.
  if (edge_live_) [[unlikely]] {
    if (next != VM_PC() + kInstrSize) note_watch_edge(VM_PC(), next);
  }
  if (cycles >= event) [[unlikely]] {
    if (on_event(VM_PC())) {
      pc = next;
      steps = base + slot;
      goto fetch;
    }
  }
  if ((xop & kXGlue) != 0 && next == VM_PC() + kInstrSize) {
    ++slot;
    in = pre + slot;
    xop = xtab[slot];
    VM_DISPATCH();
  }
  pc = next;
  steps = base + slot;
  goto fetch;

#undef VM_PC
#undef VM_TRAP
#undef VM_CASE
#undef VM_DISPATCH
#undef VM_EA
#undef VM_PUSH
#undef VM_POP
#undef VM_LD
#undef VM_SEQ
#undef VM_CTL
#undef VM_FUSE_NEXT
}

}  // namespace gf::vm
