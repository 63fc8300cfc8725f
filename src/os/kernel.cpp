#include "os/kernel.h"

#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "minic/compiler.h"

namespace gf::os {

namespace lay = layout;

namespace {

// Collapses a raw write log into byte-level last-write-wins spans: each byte
// a boot wrote appears once with its final value, and adjacent bytes merge
// into one run. Correct for any overlap pattern, and it turns the boot's
// ~hundred store-sized records (page-table loop, stack slots) into a handful
// of contiguous memcpys for the replay path.
std::vector<vm::WriteSpan> coalesce_spans(const std::vector<vm::WriteSpan>& raw) {
  std::map<std::uint64_t, std::uint8_t> bytes;
  for (const auto& w : raw) {
    for (std::size_t i = 0; i < w.bytes.size(); ++i) bytes[w.addr + i] = w.bytes[i];
  }
  std::vector<vm::WriteSpan> out;
  for (const auto& [addr, b] : bytes) {
    if (!out.empty() && out.back().addr + out.back().bytes.size() == addr) {
      out.back().bytes.push_back(b);
    } else {
      out.push_back({addr, {b}});
    }
  }
  return out;
}

}  // namespace

Kernel::Kernel(OsVersion version)
    : version_(version),
      pristine_(minic::compile(
          {common_source(), ntdll_source(version), kernel32_source(version)},
          std::string("vos-") + os_version_name(version), lay::kCodeBase)),
      pristine_digest_(pristine_.code_digest()),
      active_(pristine_),
      machine_(std::make_unique<vm::Machine>(lay::kMemSize)) {
  machine_->load_image(active_);
  install_machine_hooks();
  resolve_api();
  reboot();
}

Kernel::Kernel(const KernelSnapshot& snap)
    : version_(snap.version),
      pristine_(snap.pristine),
      pristine_digest_(snap.pristine_digest),
      machine_(std::make_unique<vm::Machine>(lay::kMemSize)) {
  machine_->load_image(snap.active);  // registers the executable range
  install_machine_hooks();
  resolve_api();
  restore_from(snap, /*full=*/true);
}

void Kernel::reset() {
  if (origin_ == nullptr) {
    throw std::logic_error("Kernel::reset: no snapshot to return to");
  }
  restore_from(*origin_, /*full=*/false);
}

void Kernel::restore_from(const KernelSnapshot& snap, bool full) {
  static constexpr std::uint64_t kRegion = lay::kScratch - lay::kHeapCtl;
  if (full) {
    machine_->restore_full(snap.machine);
  } else {
    // A run that threw may have left the activation watch or the profiler's
    // sampler armed; a fresh machine has neither.
    machine_->disarm_watch();
    machine_->disarm_sampler();
    machine_->mark_dirty(lay::kHeapCtl, kRegion);  // region-recopy invariant
    machine_->restore(snap.machine);
  }
  // The snapshot was typically taken *after* further guest work (server
  // start), so the kernel data region no longer matches the post-boot
  // baseline the replay's dirty accounting assumes: mark it all dirty so
  // the first warm reboot re-zeroes every page of it.
  machine_->mark_dirty(lay::kHeapCtl, kRegion);
  active_ = snap.active;
  disk_ = snap.disk;
  boot_ = snap.boot;
  tick_ = snap.ticks;
  origin_ = &snap;
}

void Kernel::install_machine_hooks() {
  machine_->set_stack_region(lay::kStackLo, lay::kStackHi);
  machine_->set_syscall_handler(
      [this](vm::Machine& m, std::int32_t num) { return handle_syscall(m, num); });
}

KernelSnapshot Kernel::snapshot() {
  KernelSnapshot s;
  s.version = version_;
  s.pristine = pristine_;
  s.pristine_digest = pristine_digest_;
  s.active = active_;
  s.machine = machine_->snapshot();
  origin_ = nullptr;  // the dirty bitmap is now relative to `s`
  // snapshot() reset the dirty baseline; keep this (still usable) kernel's
  // replay accounting sound by conservatively re-marking the data region.
  machine_->mark_dirty(lay::kHeapCtl, lay::kScratch - lay::kHeapCtl);
  s.boot = boot_;
  s.disk = disk_;
  s.ticks = tick_;
  return s;
}

void Kernel::sync_code() {
  ++counters_.code_syncs;
  machine_->reload_code(active_);
}

void Kernel::sync_code(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return;
  ++counters_.code_syncs;
  if (addr < active_.base() || addr + len > active_.end()) {
    sync_code();  // out-of-image window: fall back to the full copy
    return;
  }
  const auto off = static_cast<std::size_t>(addr - active_.base());
  machine_->patch_code(addr, active_.code().data() + off,
                       static_cast<std::size_t>(len));
}

std::uint64_t Kernel::api_addr(const std::string& name) const {
  const auto* sym = active_.find_symbol(name);
  if (sym == nullptr) throw std::out_of_range("no such API function: " + name);
  return sym->addr;
}

void Kernel::resolve_api() {
  for (std::size_t i = 0; i < kNumApiFns; ++i) {
    const auto* sym = pristine_.find_symbol(api_functions()[i].name);
    api_addrs_[i] = sym != nullptr ? sym->addr : 0;
  }
}

std::uint64_t Kernel::api_addr(ApiFn f) const {
  const std::uint64_t addr = api_addrs_[static_cast<std::size_t>(f)];
  if (addr == 0) {
    throw std::out_of_range("no such API function: " + api_fn_name(f));
  }
  return addr;
}

void Kernel::reboot() {
  ++counters_.reboots;
  if (warm_reboot_ && boot_ != nullptr && boot_code_intact()) {
    replay_boot();
    return;
  }
  cold_boot();
}

void Kernel::cold_boot() {
  ++counters_.cold_boots;
  // Zero the kernel data region (heap control, handle table, page table).
  const std::vector<std::uint8_t> zeros(
      static_cast<std::size_t>(lay::kScratch - lay::kHeapCtl), 0);
  machine_->write_bytes(lay::kHeapCtl, zeros.data(), zeros.size());

  // Guest-side boot code builds the initial heap and page table.
  const auto* heap_init = pristine_.find_symbol("heap_init");
  const auto* vm_init = pristine_.find_symbol("vm_init");
  if (heap_init == nullptr || vm_init == nullptr) {
    throw std::runtime_error("OS image is missing boot symbols");
  }
  // The very first boot additionally records its memory effect: the boot
  // path is pure deterministic stores over the region just zeroed, so the
  // write log (plus cycle/flag deltas) is a complete replacement for
  // re-executing it on every later reboot.
  const bool record = boot_ == nullptr;
  const std::uint64_t cycles0 = machine_->total_cycles();
  if (record) machine_->begin_write_capture();
  // Boot runs against pristine code even when faults are injected: a real
  // reboot reloads the (possibly still faulty) module, but the *boot path*
  // (heap_init/vm_init) is not part of the API fault-injection surface, so
  // running it from the active image is equally fine — keep active to stay
  // faithful to "the fault persists until removed".
  const auto r1 = machine_->call(heap_init->addr, {}, 1u << 20);
  const auto r2 = machine_->call(vm_init->addr, {}, 1u << 20);
  if (!r1.ok() || !r2.ok()) {
    if (record) machine_->end_write_capture();
    throw std::runtime_error("VOS boot failed");
  }
  if (record) {
    auto replay = std::make_shared<BootReplay>();
    replay->writes = coalesce_spans(machine_->end_write_capture());
    replay->cycles = machine_->total_cycles() - cycles0;
    replay->flags = machine_->cmp_flags();
    replay->code = {{heap_init->addr, heap_init->size},
                    {vm_init->addr, vm_init->size}};
    boot_ = std::move(replay);
  }
}

bool Kernel::boot_code_intact() const noexcept {
  // An injected (or wildly-stored) mutation of the boot code itself must
  // keep producing cold-boot semantics, including "VOS boot failed"; replay
  // is only valid while the boot bytes in VM memory match the pristine
  // image.
  for (const auto& r : boot_->code) {
    const auto* live = machine_->raw(r.addr, static_cast<std::size_t>(r.size));
    if (live == nullptr) return false;
    const auto off = static_cast<std::size_t>(r.addr - pristine_.base());
    if (std::memcmp(live, pristine_.code().data() + off,
                    static_cast<std::size_t>(r.size)) != 0) {
      return false;
    }
  }
  return true;
}

void Kernel::replay_boot() {
  ++counters_.replay_boots;
  // Zero only region pages dirtied since the last reboot (the cold path
  // memsets all 192 KiB every time), then clear their dirty bits so the
  // *next* replay only touches what the coming slot actually writes.
  static constexpr std::uint64_t kPage = vm::Machine::kDirtyPageSize;
  static const std::vector<std::uint8_t> zeros(kPage, 0);
  for (std::uint64_t addr = lay::kHeapCtl; addr < lay::kScratch; addr += kPage) {
    if (machine_->page_dirty(addr)) {
      machine_->write_bytes(addr, zeros.data(), zeros.size());
    }
  }
  machine_->clear_dirty(lay::kHeapCtl, lay::kScratch - lay::kHeapCtl);
  for (const auto& w : boot_->writes) {
    machine_->write_bytes(w.addr, w.bytes.data(), w.bytes.size());
  }
  machine_->add_cycles(boot_->cycles);
  machine_->set_cmp_flags(boot_->flags);
}

vm::Trap Kernel::handle_syscall(vm::Machine& m, std::int32_t num) {
  ++counters_.syscalls;
  auto arg = [&m](int i) { return m.reg(isa::kRegArg0 + i); };
  switch (num) {
    case lay::kSysDiskFind: {
      std::string path;
      if (!m.read_cstr(static_cast<std::uint64_t>(arg(0)), path)) {
        return vm::Trap::kBadMemory;
      }
      const auto id = disk_.find(path);
      m.set_reg(0, id ? *id : -1);
      return vm::Trap::kNone;
    }
    case lay::kSysDiskCreate: {
      std::string path;
      if (!m.read_cstr(static_cast<std::uint64_t>(arg(0)), path)) {
        return vm::Trap::kBadMemory;
      }
      m.set_reg(0, disk_.create(path));
      return vm::Trap::kNone;
    }
    case lay::kSysDiskSize: {
      const auto sz = disk_.size(static_cast<int>(arg(0)));
      m.set_reg(0, sz ? *sz : -1);
      return vm::Trap::kNone;
    }
    case lay::kSysDiskRead: {
      const auto id = static_cast<int>(arg(0));
      const auto off = arg(1);
      const auto dst = static_cast<std::uint64_t>(arg(2));
      const auto len = arg(3);
      if (len < 0 || len > static_cast<std::int64_t>(lay::kMemSize)) {
        m.set_reg(0, -1);
        return vm::Trap::kNone;
      }
      const auto bytes = disk_.view(id, off, len);
      if (!bytes) {
        m.set_reg(0, -1);
        return vm::Trap::kNone;
      }
      // Straight from the disk buffer into guest memory. A bad guest buffer
      // (e.g. a mutated pointer) is checked on the bytes actually moved and
      // surfaces as a memory trap.
      if (!m.write_bytes(dst, bytes->data(), bytes->size())) {
        return vm::Trap::kBadMemory;
      }
      m.set_reg(0, static_cast<std::int64_t>(bytes->size()));
      return vm::Trap::kNone;
    }
    case lay::kSysDiskWrite: {
      const auto id = static_cast<int>(arg(0));
      const auto off = arg(1);
      const auto src = static_cast<std::uint64_t>(arg(2));
      const auto len = arg(3);
      if (len < 0 || len > static_cast<std::int64_t>(lay::kMemSize)) {
        m.set_reg(0, -1);
        return vm::Trap::kNone;
      }
      // The guest range is checked before the id/offset, as the disk write
      // reads it in place.
      const auto bytes = m.guest_bytes(src, static_cast<std::size_t>(len));
      if (!bytes) return vm::Trap::kBadMemory;
      const auto n = disk_.write(id, off, bytes->data(), len);
      m.set_reg(0, n ? *n : -1);
      return vm::Trap::kNone;
    }
    case lay::kSysTick:
      m.set_reg(0, static_cast<std::int64_t>(++tick_));
      return vm::Trap::kNone;
    case lay::kSysDebug:
      m.set_reg(0, 0);
      return vm::Trap::kNone;
    default:
      // Unknown intrinsic — this can only happen through a mutated SYS
      // immediate; treat it as an illegal instruction.
      return vm::Trap::kBadOpcode;
  }
}

}  // namespace gf::os
