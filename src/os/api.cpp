#include "os/api.h"

namespace gf::os {

OsApi::OsApi(Kernel& kernel, std::uint64_t cycle_budget)
    : kernel_(kernel), cycle_budget_(cycle_budget) {}

ApiResult OsApi::call(ApiFn f, std::initializer_list<std::int64_t> args) {
  const std::string& name = api_fn_name(f);
  if (hook_) hook_(name);
  const auto r = kernel_.machine().call(kernel_.api_addr(f), args, cycle_budget_);
  ++call_count_;
  total_cycles_ += r.cycles;
  ApiResult out;
  out.completed = r.ok();
  out.value = r.ret;
  out.trap = r.trap;
  out.cycles = r.cycles;
  if (metrics_) {
    metrics_->record(name, r.cycles, out.ok(), out.crashed(), out.hung());
  }
  if (post_hook_) post_hook_(name, out);
  return out;
}

ApiResult OsApi::nt_close(std::int64_t h) { return call(ApiFn::kNtClose, {h}); }

ApiResult OsApi::nt_create_file(std::uint64_t path_addr) {
  return call(ApiFn::kNtCreateFile, {static_cast<std::int64_t>(path_addr)});
}

ApiResult OsApi::nt_open_file(std::uint64_t path_addr) {
  return call(ApiFn::kNtOpenFile, {static_cast<std::int64_t>(path_addr)});
}

ApiResult OsApi::nt_read_file(std::int64_t h, std::uint64_t buf, std::int64_t len) {
  return call(ApiFn::kNtReadFile, {h, static_cast<std::int64_t>(buf), len});
}

ApiResult OsApi::nt_write_file(std::int64_t h, std::uint64_t buf, std::int64_t len) {
  return call(ApiFn::kNtWriteFile, {h, static_cast<std::int64_t>(buf), len});
}

ApiResult OsApi::nt_protect_vm(std::uint64_t addr, std::int64_t size,
                               std::int64_t prot) {
  return call(ApiFn::kNtProtectVirtualMemory,
              {static_cast<std::int64_t>(addr), size, prot});
}

ApiResult OsApi::nt_query_vm(std::uint64_t addr, std::uint64_t info) {
  return call(ApiFn::kNtQueryVirtualMemory,
              {static_cast<std::int64_t>(addr), static_cast<std::int64_t>(info)});
}

ApiResult OsApi::rtl_alloc(std::int64_t size) {
  return call(ApiFn::kRtlAllocateHeap, {size});
}

ApiResult OsApi::rtl_free(std::uint64_t ptr) {
  return call(ApiFn::kRtlFreeHeap, {static_cast<std::int64_t>(ptr)});
}

ApiResult OsApi::rtl_enter_cs(std::uint64_t cs) {
  return call(ApiFn::kRtlEnterCriticalSection, {static_cast<std::int64_t>(cs)});
}

ApiResult OsApi::rtl_leave_cs(std::uint64_t cs) {
  return call(ApiFn::kRtlLeaveCriticalSection, {static_cast<std::int64_t>(cs)});
}

ApiResult OsApi::rtl_init_ansi_string(std::uint64_t dst, std::uint64_t src) {
  return call(ApiFn::kRtlInitAnsiString,
              {static_cast<std::int64_t>(dst), static_cast<std::int64_t>(src)});
}

ApiResult OsApi::rtl_init_unicode_string(std::uint64_t dst, std::uint64_t src) {
  return call(ApiFn::kRtlInitUnicodeString,
              {static_cast<std::int64_t>(dst), static_cast<std::int64_t>(src)});
}

ApiResult OsApi::rtl_unicode_to_multibyte(std::uint64_t dst, std::int64_t dst_max,
                                          std::uint64_t src,
                                          std::int64_t src_bytes) {
  return call(ApiFn::kRtlUnicodeToMultiByteN,
              {static_cast<std::int64_t>(dst), dst_max,
               static_cast<std::int64_t>(src), src_bytes});
}

ApiResult OsApi::rtl_free_unicode_string(std::uint64_t s) {
  return call(ApiFn::kRtlFreeUnicodeString, {static_cast<std::int64_t>(s)});
}

ApiResult OsApi::rtl_dos_path_to_nt(std::uint64_t src, std::uint64_t dst) {
  return call(ApiFn::kRtlDosPathNameToNtPathName_U,
              {static_cast<std::int64_t>(src), static_cast<std::int64_t>(dst)});
}

ApiResult OsApi::close_handle(std::int64_t h) { return call(ApiFn::kCloseHandle, {h}); }

ApiResult OsApi::read_file(std::int64_t h, std::uint64_t buf, std::int64_t len,
                           std::uint64_t out_read) {
  return call(ApiFn::kReadFile, {h, static_cast<std::int64_t>(buf), len,
                           static_cast<std::int64_t>(out_read)});
}

ApiResult OsApi::write_file(std::int64_t h, std::uint64_t buf, std::int64_t len,
                            std::uint64_t out_written) {
  return call(ApiFn::kWriteFile, {h, static_cast<std::int64_t>(buf), len,
                            static_cast<std::int64_t>(out_written)});
}

ApiResult OsApi::set_file_pointer(std::int64_t h, std::int64_t pos) {
  return call(ApiFn::kSetFilePointer, {h, pos});
}

ApiResult OsApi::get_long_path_name(std::uint64_t src, std::uint64_t dst,
                                    std::int64_t dst_chars) {
  return call(ApiFn::kGetLongPathNameW,
              {static_cast<std::int64_t>(src), static_cast<std::int64_t>(dst),
               dst_chars});
}

bool OsApi::write_cstr(std::uint64_t addr, const std::string& s) {
  if (!kernel_.machine().write_bytes(addr, s.data(), s.size())) return false;
  return kernel_.machine().write_u8(addr + s.size(), 0);
}

bool OsApi::write_wstr(std::uint64_t addr, const std::string& s) {
  auto& m = kernel_.machine();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!m.write_u8(addr + i * 2, static_cast<std::uint8_t>(s[i]))) return false;
    if (!m.write_u8(addr + i * 2 + 1, 0)) return false;
  }
  return m.write_u8(addr + s.size() * 2, 0) &&
         m.write_u8(addr + s.size() * 2 + 1, 0);
}

bool OsApi::read_bytes(std::uint64_t addr, void* out, std::size_t n) const {
  return kernel_.machine().read_bytes(addr, out, n);
}

bool OsApi::write_bytes(std::uint64_t addr, const void* data, std::size_t n) {
  return kernel_.machine().write_bytes(addr, data, n);
}

std::optional<std::span<const std::uint8_t>> OsApi::guest_bytes(
    std::uint64_t addr, std::size_t n) const {
  return kernel_.machine().guest_bytes(addr, n);
}

std::uint64_t OsApi::read_u64_or(std::uint64_t addr, std::uint64_t fallback) const {
  std::uint64_t v = 0;
  if (!kernel_.machine().read_u64(addr, v)) return fallback;
  return v;
}

}  // namespace gf::os
