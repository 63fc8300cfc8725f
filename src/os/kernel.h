// VOS kernel: owns the VM, the disk, and the compiled OS image.
//
// The kernel compiles the MiniC sources of the selected OS version into a
// single image (vntdll+vkernel32), loads it into the VM, installs the
// kernel-intrinsic (SYS) handler, and boots the guest-side data structures
// by calling the MiniC heap_init/vm_init routines.
//
// The *active* image is the mutable copy the fault injector patches;
// sync_code() pushes its bytes into VM memory. The pristine image is kept
// for scanner input and byte-exact restore checks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/image.h"
#include "os/disk.h"
#include "os/layout.h"
#include "os/sources.h"
#include "vm/machine.h"

namespace gf::os {

/// Memory effect of the guest boot path (heap_init/vm_init), recorded during
/// the first cold boot. The boot code is pure deterministic stores — no
/// syscalls, no reads outside the region reboot() just zeroed — so replaying
/// the byte-level last-write-wins spans plus the cycle/flag deltas is
/// *exactly* equivalent to re-executing it, at O(dirty pages + spans) cost.
struct BootReplay {
  struct CodeRange {
    std::uint64_t addr = 0, size = 0;
  };
  std::vector<vm::WriteSpan> writes;  ///< coalesced, byte-exact final values
  std::uint64_t cycles = 0;           ///< machine cycles the boot consumed
  int flags = 0;                      ///< cmp flags left by the boot code
  /// Code spans of the boot symbols: a warm reboot first verifies these
  /// bytes still match the pristine image and falls back to a real cold
  /// boot otherwise (a wild store into heap_init must keep failing loudly).
  std::vector<CodeRange> code;
};

/// Deep-copyable kernel state captured after boot (and, at the depbench
/// layer, after server start): everything needed to reconstruct a Kernel
/// without re-compiling MiniC sources or re-running the boot. Plain data —
/// safe to share read-only across campaign shard threads; per-task copies
/// are cheap because SimDisk content is copy-on-write.
struct KernelSnapshot {
  OsVersion version{};
  isa::Image pristine;
  /// pristine.code_digest(), computed once when the kernel was compiled.
  std::uint64_t pristine_digest = 0;
  isa::Image active;
  vm::Machine::State machine;
  std::shared_ptr<const BootReplay> boot;
  SimDisk disk;
  std::uint64_t ticks = 0;
};

/// Lifetime kernel activity tallies, bumped outside any hot path (reboots,
/// syscalls and code syncs are all µs-scale operations) and harvested as
/// deltas by the campaign controller at run boundaries.
struct KernelCounters {
  std::uint64_t reboots = 0;
  std::uint64_t cold_boots = 0;    ///< full boots (incl. the constructor's)
  std::uint64_t replay_boots = 0;  ///< O(dirty) recorded-boot replays
  std::uint64_t syscalls = 0;      ///< SYS instructions dispatched
  std::uint64_t code_syncs = 0;    ///< sync_code invocations (full + ranged)
};

class Kernel {
 public:
  explicit Kernel(OsVersion version);

  /// Warm construction: rebuilds a kernel from a snapshot in O(memory copy)
  /// — no MiniC compile, no boot execution. The machine resumes at the
  /// snapshot's exact cycle/tick counters, so runs against a warm kernel are
  /// bit-identical to runs against the cold-built kernel it was captured
  /// from.
  explicit Kernel(const KernelSnapshot& snap);

  /// Returns a used warm kernel to the snapshot it was constructed from in
  /// O(dirty): only the machine pages written since the last
  /// construction/reset are copied back (restored code pages re-decode),
  /// plus the whole kernel data region (see restore_from). The active image,
  /// disk (a copy-on-write copy), boot replay and tick counter are reset
  /// too, and any armed watch or sampler is disarmed. Afterwards the kernel
  /// is indistinguishable from a fresh Kernel(snap), except for the lifetime
  /// counters() and the machine's dispatch_stats(), which keep counting
  /// (consumers read deltas), and for settings (set_warm_reboot, the
  /// machine's predecode/fusion switches), which are kept.
  /// The snapshot must still be alive. A cold-built kernel, or one whose
  /// dirty bitmap snapshot() has rebased, has no origin to return to:
  /// reset() throws std::logic_error.
  void reset();

  OsVersion version() const noexcept { return version_; }
  vm::Machine& machine() noexcept { return *machine_; }
  const vm::Machine& machine() const noexcept { return *machine_; }
  SimDisk& disk() noexcept { return disk_; }
  const SimDisk& disk() const noexcept { return disk_; }

  /// Pristine compiled image (scanner input; never mutated).
  const isa::Image& pristine_image() const noexcept { return pristine_; }
  /// pristine_image().code_digest(), computed once per compiled image (the
  /// pristine image never changes after construction).
  std::uint64_t pristine_digest() const noexcept { return pristine_digest_; }
  /// Active image (the injector patches this, then calls sync_code()).
  isa::Image& active_image() noexcept { return active_; }
  const isa::Image& active_image() const noexcept { return active_; }
  /// Copies the active image's bytes into VM memory (and re-decodes the
  /// VM's whole predecode cache — use the ranged overload when only a few
  /// instructions changed).
  void sync_code();
  /// Copies only [addr, addr+len) of the active image into VM memory and
  /// re-decodes just the touched predecode slots. The injector uses this:
  /// its patches span a handful of instructions, so a full-image sync per
  /// fault swap would dominate campaign time.
  void sync_code(std::uint64_t addr, std::uint64_t len);

  /// Address of a public API function (throws std::out_of_range if absent).
  std::uint64_t api_addr(const std::string& name) const;
  /// The same for a compile-time id, from a table resolved once when the
  /// kernel was built (the hot path of every OsApi wrapper).
  std::uint64_t api_addr(ApiFn f) const;

  /// Re-initializes guest OS state (heap free list, handle table, page
  /// table) without touching the disk — the equivalent of an OS reboot
  /// between benchmark slots. After the first boot has been recorded this
  /// redirects to an O(dirty) replay (bit-identical by construction); a real
  /// cold boot still runs when the boot code bytes were corrupted or warm
  /// reboot is disabled.
  void reboot();

  /// Kill-switch for the boot replay (A/B benchmarking and the cold
  /// reference runs of the equivalence tests).
  void set_warm_reboot(bool on) noexcept { warm_reboot_ = on; }
  bool warm_reboot() const noexcept { return warm_reboot_; }

  /// Captures a deep-copyable snapshot of the current kernel state (resets
  /// the machine's dirty baseline as a side effect).
  KernelSnapshot snapshot();

  /// Monotonic tick counter (SYS_TICK).
  std::uint64_t ticks() const noexcept { return tick_; }

  /// Lifetime activity counters (not part of snapshots — they describe the
  /// kernel's history, and consumers read deltas).
  const KernelCounters& counters() const noexcept { return counters_; }

 private:
  vm::Trap handle_syscall(vm::Machine& m, std::int32_t num);
  void install_machine_hooks();
  /// Fills api_addrs_ from the pristine image (mutation never moves symbols).
  void resolve_api();
  /// Full boot: zero the kernel data region, run heap_init/vm_init. Records
  /// the BootReplay on the first successful run.
  void cold_boot();
  /// O(dirty) boot: zero only dirtied region pages, apply recorded spans,
  /// advance cycles/flags to the recorded post-boot values.
  void replay_boot();
  bool boot_code_intact() const noexcept;
  /// The one list of snapshot-restored state, shared by Kernel(snap) and
  /// reset(). `full` copies all of memory (a machine that never saw the
  /// snapshot); otherwise only dirty pages plus the kernel data region.
  ///
  /// Region-recopy invariant: replay_boot() clears the dirty bits of
  /// [kHeapCtl, kScratch) after zeroing it, so after a reboot that region
  /// can differ from the snapshot on pages the bitmap calls clean. The
  /// region is therefore always recopied, and afterwards re-marked dirty
  /// (the snapshot was taken after server start, so the first reboot must
  /// re-zero every region page — exactly what a fresh Kernel(snap) does).
  void restore_from(const KernelSnapshot& snap, bool full);

  OsVersion version_;
  SimDisk disk_;
  isa::Image pristine_;
  std::uint64_t pristine_digest_ = 0;
  isa::Image active_;
  std::unique_ptr<vm::Machine> machine_;
  std::array<std::uint64_t, kNumApiFns> api_addrs_{};  ///< 0 = not in image
  std::shared_ptr<const BootReplay> boot_;  ///< set by the first cold boot
  /// The snapshot the machine's dirty bitmap is relative to (null for a
  /// cold-built kernel and after snapshot()); reset() returns to it.
  const KernelSnapshot* origin_ = nullptr;
  bool warm_reboot_ = true;
  std::uint64_t tick_ = 0;
  KernelCounters counters_;
};

}  // namespace gf::os
