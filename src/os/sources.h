// MiniC source code of the VOS API — the Fault Injection Target.
//
// The 21 functions mirror Table 2 of the paper exactly (16 in vntdll, 5 in
// vkernel32). Two source trees exist: VOS-2000 and VOS-XP. The XP tree adds
// parameter validation, telemetry, heap coalescing and path canonicalization
// — more compiled code, therefore more fault locations (the paper's Table 3
// shows the XP faultload is ~1.7x the 2000 one) — while keeping identical
// fault-free semantics on the common surface (asserted by tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace gf::os {

enum class OsVersion { kVos2000, kVosXp };

inline const char* os_version_name(OsVersion v) {
  return v == OsVersion::kVos2000 ? "VOS-2000" : "VOS-XP";
}

/// Shared consts + internal helpers (heap_init, vm_init, tally).
std::string_view common_source();

/// The 16 vntdll API functions for the given OS version.
std::string_view ntdll_source(OsVersion v);

/// The 5 vkernel32 API functions for the given OS version.
std::string_view kernel32_source(OsVersion v);

/// Public API surface: function name + owning module (for Table 2).
struct ApiFunctionInfo {
  const char* name;
  const char* module;
};
std::span<const ApiFunctionInfo> api_functions();

/// The 21 functions as (name, module), in api_functions() order: the single
/// list both api_functions() and ApiFn are generated from.
#define GF_VOS_API(X)                                                      \
  X(NtClose, ntdll) X(NtCreateFile, ntdll) X(NtOpenFile, ntdll)            \
  X(NtProtectVirtualMemory, ntdll) X(NtQueryVirtualMemory, ntdll)          \
  X(NtReadFile, ntdll) X(NtWriteFile, ntdll) X(RtlAllocateHeap, ntdll)     \
  X(RtlDosPathNameToNtPathName_U, ntdll) X(RtlEnterCriticalSection, ntdll) \
  X(RtlFreeHeap, ntdll) X(RtlFreeUnicodeString, ntdll)                     \
  X(RtlInitAnsiString, ntdll) X(RtlInitUnicodeString, ntdll)               \
  X(RtlLeaveCriticalSection, ntdll) X(RtlUnicodeToMultiByteN, ntdll)       \
  X(CloseHandle, kernel32) X(GetLongPathNameW, kernel32)                   \
  X(ReadFile, kernel32) X(SetFilePointer, kernel32) X(WriteFile, kernel32)

/// Compile-time id of an API function (index into api_functions()).
enum class ApiFn : std::uint8_t {
#define GF_VOS_API_ID(name, module) k##name,
  GF_VOS_API(GF_VOS_API_ID)
#undef GF_VOS_API_ID
};
inline constexpr std::size_t kNumApiFns = 0
#define GF_VOS_API_ONE(name, module) +1
    GF_VOS_API(GF_VOS_API_ONE)
#undef GF_VOS_API_ONE
    ;

/// api_functions()[f].name as a std::string built once, so per-call hooks
/// can take a `const std::string&` without allocating.
const std::string& api_fn_name(ApiFn f);

}  // namespace gf::os
