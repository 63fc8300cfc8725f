// OsApi — the boundary between the Benchmark Target (native C++ web servers)
// and the Fault Injection Target (VISA code of the VOS API).
//
// Every call executes guest code on the VM and therefore feels the injected
// faults: wrong results, error statuses, memory traps, and cycle-budget
// hangs all surface through ApiResult. The BT can only reach OS state
// through this class, which structurally enforces the paper's rule that the
// benchmark target itself is never modified.
//
// The call hook feeds the profiling phase (Table 2): the profiler counts
// API invocations per function name across different benchmark targets.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "os/kernel.h"

namespace gf::os {

/// Outcome of one API call.
struct ApiResult {
  bool completed = false;      ///< guest function ran to completion
  std::int64_t value = 0;      ///< its return value (status or payload)
  vm::Trap trap = vm::Trap::kHalt;  ///< kHalt when completed
  std::uint64_t cycles = 0;

  /// Completed with a non-negative result (VOS convention: negative =
  /// error status).
  bool ok() const noexcept { return completed && value >= 0; }
  /// The call crashed (memory/opcode/jump/div trap) — the analogue of an
  /// exception escaping an OS API call.
  bool crashed() const noexcept {
    return !completed && trap != vm::Trap::kCycleLimit;
  }
  /// The call exceeded its cycle budget (hung inside the OS).
  bool hung() const noexcept { return trap == vm::Trap::kCycleLimit; }
};

class OsApi {
 public:
  /// `cycle_budget` bounds every API call; mutated infinite loops surface
  /// as ApiResult::hung().
  explicit OsApi(Kernel& kernel, std::uint64_t cycle_budget = 1u << 20);

  // --- ntdll wrappers -------------------------------------------------------
  ApiResult nt_close(std::int64_t h);
  ApiResult nt_create_file(std::uint64_t path_addr);
  ApiResult nt_open_file(std::uint64_t path_addr);
  ApiResult nt_read_file(std::int64_t h, std::uint64_t buf, std::int64_t len);
  ApiResult nt_write_file(std::int64_t h, std::uint64_t buf, std::int64_t len);
  ApiResult nt_protect_vm(std::uint64_t addr, std::int64_t size, std::int64_t prot);
  ApiResult nt_query_vm(std::uint64_t addr, std::uint64_t info);
  ApiResult rtl_alloc(std::int64_t size);
  ApiResult rtl_free(std::uint64_t ptr);
  ApiResult rtl_enter_cs(std::uint64_t cs);
  ApiResult rtl_leave_cs(std::uint64_t cs);
  ApiResult rtl_init_ansi_string(std::uint64_t dst, std::uint64_t src);
  ApiResult rtl_init_unicode_string(std::uint64_t dst, std::uint64_t src);
  ApiResult rtl_unicode_to_multibyte(std::uint64_t dst, std::int64_t dst_max,
                                     std::uint64_t src, std::int64_t src_bytes);
  ApiResult rtl_free_unicode_string(std::uint64_t s);
  ApiResult rtl_dos_path_to_nt(std::uint64_t src, std::uint64_t dst);

  // --- kernel32 wrappers ------------------------------------------------------
  ApiResult close_handle(std::int64_t h);
  ApiResult read_file(std::int64_t h, std::uint64_t buf, std::int64_t len,
                      std::uint64_t out_read);
  ApiResult write_file(std::int64_t h, std::uint64_t buf, std::int64_t len,
                       std::uint64_t out_written);
  ApiResult set_file_pointer(std::int64_t h, std::int64_t pos);
  ApiResult get_long_path_name(std::uint64_t src, std::uint64_t dst,
                               std::int64_t dst_chars);

  // --- guest-memory helpers for the BT ---------------------------------------
  /// Writes a NUL-terminated byte string at `addr`. Returns false on fault.
  bool write_cstr(std::uint64_t addr, const std::string& s);
  /// Writes a NUL-terminated 2-byte-char string ("unicode") at `addr`.
  bool write_wstr(std::uint64_t addr, const std::string& s);
  bool read_bytes(std::uint64_t addr, void* out, std::size_t n) const;
  bool write_bytes(std::uint64_t addr, const void* data, std::size_t n);
  /// vm::Machine::guest_bytes: checked read-only view of guest memory, the
  /// source of every response body (web::append_body).
  std::optional<std::span<const std::uint8_t>> guest_bytes(
      std::uint64_t addr, std::size_t n) const;
  std::uint64_t read_u64_or(std::uint64_t addr, std::uint64_t fallback) const;

  /// Scratch slots the BT may use for marshalling (within layout::kScratch).
  static constexpr std::uint64_t kPathSlot = layout::kScratch;
  static constexpr std::uint64_t kWidePathSlot = layout::kScratch + 0x2000;
  static constexpr std::uint64_t kStructSlot = layout::kScratch + 0x6000;
  static constexpr std::uint64_t kOutSlot = layout::kScratch + 0x7000;

  /// Hook invoked with the function name on every call (profiling).
  void set_call_hook(std::function<void(const std::string&)> hook) {
    hook_ = std::move(hook);
  }

  /// Hook invoked with (name, result) after every call returns — the
  /// error-propagation observation point: the tracing subsystem classifies
  /// crashes/hangs here and can checksum kernel invariants at the exact API
  /// boundary where corruption first becomes observable.
  using PostCallHook = std::function<void(const std::string&, const ApiResult&)>;
  void set_post_call_hook(PostCallHook hook) { post_hook_ = std::move(hook); }

  /// Attaches a per-function metrics sink (call counts + cycle-latency
  /// histograms, the observability counterpart of the Table 2 profile).
  /// Detached (nullptr, the default) this is one never-taken branch per API
  /// call — each of which executes thousands of VM cycles.
  void set_metrics(obs::ApiMetrics* metrics) noexcept { metrics_ = metrics; }
  obs::ApiMetrics* metrics() const noexcept { return metrics_; }

  std::uint64_t cycle_budget() const noexcept { return cycle_budget_; }

  /// Cumulative cycles consumed by API calls through this facade.
  std::uint64_t total_cycles() const noexcept { return total_cycles_; }
  std::uint64_t call_count() const noexcept { return call_count_; }

  Kernel& kernel() noexcept { return kernel_; }

 private:
  /// The one call path under every wrapper: the address comes from the
  /// kernel's resolved table and the name from a table of prebuilt strings,
  /// so a call allocates nothing.
  ApiResult call(ApiFn f, std::initializer_list<std::int64_t> args);

  Kernel& kernel_;
  std::uint64_t cycle_budget_;
  std::function<void(const std::string&)> hook_;
  PostCallHook post_hook_;
  std::uint64_t total_cycles_ = 0;
  std::uint64_t call_count_ = 0;
  obs::ApiMetrics* metrics_ = nullptr;
};

}  // namespace gf::os
