#include "os/sources.h"

#include <array>
#include <iterator>

namespace gf::os {

// Keep in sync with os/layout.h (asserted by tests/test_os.cpp).
std::string_view common_source() {
  return R"(
// ---- VOS shared definitions (mirror of os/layout.h) ----
const HEAP_CTL     = 0x100000;
const HANDLE_TABLE = 0x110000;
const MAX_HANDLES  = 256;
const PAGE_TABLE   = 0x120000;
const PAGE_SIZE    = 0x10000;
const NUM_PAGES    = 64;
const HEAP_ARENA   = 0x200000;
const HEAP_END     = 0x600000;
const BLOCK_HDR    = 16;
const ALLOC_MAGIC  = 0xA110C;

const STATUS_OK             = 0;
const STATUS_INVALID_HANDLE = -1;
const STATUS_INVALID_PARAM  = -2;
const STATUS_NOT_FOUND      = -3;
const STATUS_NO_MEMORY      = -4;
const STATUS_IO_ERROR       = -5;

const PROT_RW = 3;

// Event-trace control block (ETW-style): disabled unless TRACE_CTL is set
// by debugging tools. The per-function trace hooks below it are compiled
// into every API function but never execute during normal operation.
const TRACE_CTL  = 0x100400;
const TRACE_SEQ  = 0x100408;
const TRACE_RING = 0x100410;
const TRACE_SLOTS = 32;

// Kernel intrinsics.
const SYS_DISK_FIND   = 1;
const SYS_DISK_CREATE = 2;
const SYS_DISK_SIZE   = 3;
const SYS_DISK_READ   = 4;
const SYS_DISK_WRITE  = 5;
const SYS_TICK        = 6;
const SYS_DEBUG       = 7;

// Internal telemetry counters (not part of the public API surface).
// Slot layout: HEAP_CTL+64 .. HEAP_CTL+64+16*8.
fn tally(kind) {
  if (kind < 0 || kind > 15) { return 0; }
  var slot = HEAP_CTL + 64 + kind * 8;
  store(slot, load(slot) + 1);
  return load(slot);
}

// Records the kind of the last I/O operation (diagnostic breadcrumb).
fn note_io(kind) {
  store(HEAP_CTL + 40, kind);
  return kind;
}

// Boot-time heap initialization: one free block spanning the whole arena.
fn heap_init() {
  store(HEAP_ARENA, HEAP_END - HEAP_ARENA - BLOCK_HDR);
  store(HEAP_ARENA + 8, 0);
  store(HEAP_CTL, HEAP_ARENA);
  store(HEAP_CTL + 8, 0);
  store(HEAP_CTL + 16, 0);
  store(HEAP_CTL + 24, 0);
  return 0;
}

// Boot-time page-protection table initialization (all pages read+write).
fn vm_init() {
  var i = 0;
  while (i < NUM_PAGES) {
    store(PAGE_TABLE + i * 8, PROT_RW);
    i = i + 1;
  }
  return 0;
}
)";
}

namespace {
constexpr ApiFunctionInfo kApi[] = {
#define GF_VOS_API_INFO(name, module) {#name, #module},
    GF_VOS_API(GF_VOS_API_INFO)
#undef GF_VOS_API_INFO
};
}  // namespace

std::span<const ApiFunctionInfo> api_functions() { return kApi; }

const std::string& api_fn_name(ApiFn f) {
  static const std::array<std::string, kNumApiFns> kNames = [] {
    std::array<std::string, kNumApiFns> names;
    for (std::size_t i = 0; i < kNumApiFns; ++i) names[i] = kApi[i].name;
    return names;
  }();
  return kNames[static_cast<std::size_t>(f)];
}

}  // namespace gf::os
