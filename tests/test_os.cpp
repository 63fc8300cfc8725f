// Tests for the VOS kernel and the MiniC implementations of the 21 API
// functions, for both OS versions. These run real guest code on the VM.
#include <gtest/gtest.h>

#include <set>

#include "isa/assembler.h"
#include "os/api.h"
#include "os/filesystem.h"
#include "os/kernel.h"
#include "os/layout.h"

namespace gf::os {
namespace {

namespace lay = layout;

class OsTest : public ::testing::TestWithParam<OsVersion> {
 protected:
  OsTest() : kernel_(GetParam()), api_(kernel_) {}

  /// Writes an ansi path into the path slot and returns its guest address.
  std::uint64_t guest_path(const std::string& s) {
    EXPECT_TRUE(api_.write_cstr(OsApi::kPathSlot, s));
    return OsApi::kPathSlot;
  }

  std::uint64_t guest_wide(const std::string& s) {
    EXPECT_TRUE(api_.write_wstr(OsApi::kWidePathSlot, s));
    return OsApi::kWidePathSlot;
  }

  Kernel kernel_;
  OsApi api_;
};

INSTANTIATE_TEST_SUITE_P(BothVersions, OsTest,
                         ::testing::Values(OsVersion::kVos2000, OsVersion::kVosXp),
                         [](const auto& info) {
                           return info.param == OsVersion::kVos2000 ? "Vos2000"
                                                                    : "VosXp";
                         });

TEST_P(OsTest, ImageContainsAllApiFunctions) {
  for (const auto& fn : api_functions()) {
    EXPECT_NE(kernel_.pristine_image().find_symbol(fn.name), nullptr) << fn.name;
  }
  EXPECT_EQ(api_functions().size(), 21u);  // Table 2 surface
}

TEST_P(OsTest, HeapAllocReturnsDistinctAlignedBlocks) {
  std::set<std::int64_t> ptrs;
  for (int i = 0; i < 50; ++i) {
    const auto r = api_.rtl_alloc(100);
    ASSERT_TRUE(r.ok());
    ASSERT_GT(r.value, 0);
    EXPECT_EQ(r.value % 16, 0);
    EXPECT_TRUE(ptrs.insert(r.value).second) << "duplicate block";
    EXPECT_GE(static_cast<std::uint64_t>(r.value), lay::kHeapArena);
    EXPECT_LT(static_cast<std::uint64_t>(r.value), lay::kHeapArenaEnd);
  }
}

TEST_P(OsTest, HeapBlocksDoNotOverlap) {
  struct Block {
    std::int64_t lo, hi;
  };
  std::vector<Block> blocks;
  for (int i = 1; i <= 30; ++i) {
    const auto r = api_.rtl_alloc(i * 24);
    ASSERT_TRUE(r.ok());
    blocks.push_back({r.value, r.value + i * 24});
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      EXPECT_TRUE(blocks[i].hi <= blocks[j].lo || blocks[j].hi <= blocks[i].lo)
          << i << " vs " << j;
    }
  }
}

TEST_P(OsTest, HeapFreeAndReuse) {
  const auto a = api_.rtl_alloc(256);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(api_.rtl_free(static_cast<std::uint64_t>(a.value)).ok());
  // Freed memory is reusable: allocating again must succeed.
  const auto b = api_.rtl_alloc(256);
  ASSERT_TRUE(b.ok());
  ASSERT_GT(b.value, 0);
}

TEST_P(OsTest, HeapSurvivesManyAllocFreeCycles) {
  // With reuse the arena never exhausts; without it this would run out.
  for (int round = 0; round < 200; ++round) {
    std::vector<std::int64_t> ptrs;
    for (int i = 0; i < 20; ++i) {
      const auto r = api_.rtl_alloc(1024);
      ASSERT_TRUE(r.ok()) << "round " << round;
      ASSERT_GT(r.value, 0) << "round " << round;
      ptrs.push_back(r.value);
    }
    for (const auto p : ptrs) {
      ASSERT_TRUE(api_.rtl_free(static_cast<std::uint64_t>(p)).ok());
    }
  }
}

TEST_P(OsTest, HeapRejectsBadFrees) {
  EXPECT_LT(api_.rtl_free(0).value, 0);
  EXPECT_LT(api_.rtl_free(0x5000).value, 0);  // outside the arena
  const auto a = api_.rtl_alloc(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(api_.rtl_free(static_cast<std::uint64_t>(a.value)).ok());
  // Double free: the magic is gone, must be rejected.
  EXPECT_LT(api_.rtl_free(static_cast<std::uint64_t>(a.value)).value, 0);
}

TEST_P(OsTest, HeapAllocRejectsNonPositiveSizes) {
  EXPECT_EQ(api_.rtl_alloc(0).value, 0);
  EXPECT_EQ(api_.rtl_alloc(-5).value, 0);
}

TEST_P(OsTest, HeapExhaustionReturnsNull) {
  // The arena is 4 MiB; a 16 MiB request cannot be satisfied.
  EXPECT_EQ(api_.rtl_alloc(16 << 20).value, 0);
}

TEST_P(OsTest, CreateWriteReadFileRoundTrip) {
  const auto h = api_.nt_create_file(guest_path("/tmp/x.txt"));
  ASSERT_GT(h.value, 0);
  const std::string payload = "hello fault injection";
  ASSERT_TRUE(api_.write_bytes(0x150000, payload.data(), payload.size()));
  const auto w = api_.nt_write_file(h.value, 0x150000,
                                    static_cast<std::int64_t>(payload.size()));
  EXPECT_EQ(w.value, static_cast<std::int64_t>(payload.size()));
  ASSERT_TRUE(api_.nt_close(h.value).ok());

  const auto h2 = api_.nt_open_file(guest_path("/tmp/x.txt"));
  ASSERT_GT(h2.value, 0);
  const auto r = api_.nt_read_file(h2.value, 0x151000, 100);
  EXPECT_EQ(r.value, static_cast<std::int64_t>(payload.size()));
  std::string back(payload.size(), 0);
  ASSERT_TRUE(api_.read_bytes(0x151000, back.data(), back.size()));
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(api_.nt_close(h2.value).ok());
}

TEST_P(OsTest, SequentialReadsAdvancePosition) {
  kernel_.disk().add_file("/f", {'a', 'b', 'c', 'd', 'e', 'f'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 2).value, 2);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150008, 2).value, 2);
  char c[2];
  api_.read_bytes(0x150008, c, 2);
  EXPECT_EQ(c[0], 'c');
  EXPECT_EQ(c[1], 'd');
  // EOF after consuming the rest.
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150010, 100).value, 2);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150010, 100).value, 0);
}

TEST_P(OsTest, OpenMissingFileFails) {
  EXPECT_EQ(api_.nt_open_file(guest_path("/does/not/exist")).value,
            lay::kStatusNotFound);
}

TEST_P(OsTest, InvalidHandlesRejected) {
  EXPECT_LT(api_.nt_close(0).value, 0);
  EXPECT_LT(api_.nt_close(-3).value, 0);
  EXPECT_LT(api_.nt_close(lay::kMaxHandles + 1).value, 0);
  EXPECT_LT(api_.nt_close(7).value, 0);  // never opened
  EXPECT_LT(api_.nt_read_file(7, 0x150000, 4).value, 0);
  EXPECT_LT(api_.nt_write_file(7, 0x150000, 4).value, 0);
}

TEST_P(OsTest, CloseReleasesHandleSlot) {
  kernel_.disk().add_file("/f", {'x'});
  std::int64_t first = 0;
  // Exhaust then release: handles must be recycled.
  for (int i = 0; i < lay::kMaxHandles; ++i) {
    const auto h = api_.nt_open_file(guest_path("/f"));
    ASSERT_GT(h.value, 0) << i;
    if (i == 0) first = h.value;
  }
  EXPECT_EQ(api_.nt_open_file(guest_path("/f")).value, lay::kStatusNoMemory);
  ASSERT_TRUE(api_.nt_close(first).ok());
  EXPECT_EQ(api_.nt_open_file(guest_path("/f")).value, first);
}

TEST_P(OsTest, ProtectAndQueryVirtualMemory) {
  const auto old = api_.nt_protect_vm(lay::kHeapArena, lay::kPageSize * 2, 1);
  EXPECT_EQ(old.value, 3);  // boot default: read+write
  const auto q = api_.nt_query_vm(lay::kHeapArena + lay::kPageSize,
                                  OsApi::kStructSlot);
  EXPECT_TRUE(q.ok());
  EXPECT_EQ(api_.read_u64_or(OsApi::kStructSlot + 16, 99), 1u);
  // Third page untouched.
  const auto q2 =
      api_.nt_query_vm(lay::kHeapArena + 2 * lay::kPageSize, OsApi::kStructSlot);
  EXPECT_TRUE(q2.ok());
  EXPECT_EQ(api_.read_u64_or(OsApi::kStructSlot + 16, 99), 3u);
}

TEST_P(OsTest, ProtectRejectsBadRanges) {
  EXPECT_LT(api_.nt_protect_vm(0x1000, 100, 1).value, 0);
  EXPECT_LT(api_.nt_protect_vm(lay::kHeapArena, 0, 1).value, 0);
  EXPECT_LT(api_.nt_protect_vm(lay::kHeapArena, -5, 1).value, 0);
  EXPECT_LT(api_.nt_query_vm(lay::kHeapArena, 0).value, 0);
}

TEST_P(OsTest, CriticalSectionEnterLeave) {
  const std::uint64_t cs = OsApi::kStructSlot;
  const std::uint64_t zero[4] = {};
  ASSERT_TRUE(api_.write_bytes(cs, zero, sizeof zero));
  EXPECT_TRUE(api_.rtl_enter_cs(cs).ok());
  EXPECT_EQ(api_.read_u64_or(cs + 8, 0), 1u);   // owner
  EXPECT_EQ(api_.read_u64_or(cs + 16, 0), 1u);  // recursion
  EXPECT_TRUE(api_.rtl_enter_cs(cs).ok());      // recursive acquire
  EXPECT_EQ(api_.read_u64_or(cs + 16, 0), 2u);
  EXPECT_TRUE(api_.rtl_leave_cs(cs).ok());
  EXPECT_TRUE(api_.rtl_leave_cs(cs).ok());
  EXPECT_EQ(api_.read_u64_or(cs + 8, 1), 0u);  // released
  EXPECT_EQ(api_.read_u64_or(cs, 1), 0u);      // lock count balanced
}

TEST_P(OsTest, LeaveWithoutEnterRejected) {
  const std::uint64_t cs = OsApi::kStructSlot;
  const std::uint64_t zero[4] = {};
  ASSERT_TRUE(api_.write_bytes(cs, zero, sizeof zero));
  EXPECT_LT(api_.rtl_leave_cs(cs).value, 0);
  EXPECT_LT(api_.rtl_enter_cs(0).value, 0);
  EXPECT_LT(api_.rtl_leave_cs(0).value, 0);
}

TEST_P(OsTest, InitAnsiString) {
  const auto src = guest_path("abc");
  const std::uint64_t s = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_init_ansi_string(s, src).ok());
  EXPECT_EQ(api_.read_u64_or(s, 99), 3u);        // length
  EXPECT_EQ(api_.read_u64_or(s + 8, 99), 4u);    // max length
  EXPECT_EQ(api_.read_u64_or(s + 16, 99), src);  // buffer aliases source
}

TEST_P(OsTest, InitAnsiStringNullSource) {
  const std::uint64_t s = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_init_ansi_string(s, 0).ok());
  EXPECT_EQ(api_.read_u64_or(s, 99), 0u);
  EXPECT_EQ(api_.read_u64_or(s + 16, 99), 0u);
}

TEST_P(OsTest, InitUnicodeString) {
  const auto src = guest_wide("hello");
  const std::uint64_t s = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_init_unicode_string(s, src).ok());
  EXPECT_EQ(api_.read_u64_or(s, 99), 10u);      // byte length
  EXPECT_EQ(api_.read_u64_or(s + 8, 99), 12u);  // with terminator
}

TEST_P(OsTest, UnicodeToMultiByteConvertsAscii) {
  const auto src = guest_wide("Index.Html");
  const std::uint64_t dst = 0x150000;
  const auto r = api_.rtl_unicode_to_multibyte(dst, 64, src, 20);
  EXPECT_EQ(r.value, 10);
  std::string out(10, 0);
  ASSERT_TRUE(api_.read_bytes(dst, out.data(), out.size()));
  EXPECT_EQ(out, "Index.Html");
}

TEST_P(OsTest, UnicodeToMultiByteReplacesWideChars) {
  auto& m = kernel_.machine();
  // One char with a non-zero high byte.
  ASSERT_TRUE(m.write_u8(0x152000, 0x42));
  ASSERT_TRUE(m.write_u8(0x152001, 0x03));
  const auto r = api_.rtl_unicode_to_multibyte(0x150000, 8, 0x152000, 2);
  EXPECT_EQ(r.value, 1);
  std::uint8_t c = 0;
  ASSERT_TRUE(m.read_u8(0x150000, c));
  EXPECT_EQ(c, '?');
}

TEST_P(OsTest, UnicodeToMultiByteHonorsDstMax) {
  const auto src = guest_wide("abcdefgh");
  EXPECT_EQ(api_.rtl_unicode_to_multibyte(0x150000, 3, src, 16).value, 3);
}

TEST_P(OsTest, UnicodeToMultiByteRejectsBadParams) {
  EXPECT_LT(api_.rtl_unicode_to_multibyte(0, 8, 0x150000, 2).value, 0);
  EXPECT_LT(api_.rtl_unicode_to_multibyte(0x150000, 0, 0x152000, 2).value, 0);
  EXPECT_LT(api_.rtl_unicode_to_multibyte(0x150000, 8, 0x152000, -2).value, 0);
}

TEST_P(OsTest, DosPathToNtPathPrefixesAndConverts) {
  const auto src = guest_wide("www/docs/file.html");
  const std::uint64_t dst = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_dos_path_to_nt(src, dst).ok());
  const auto len = api_.read_u64_or(dst, 0);
  const auto buf = api_.read_u64_or(dst + 16, 0);
  ASSERT_GT(buf, 0u);
  EXPECT_EQ(len, (18u + 4u) * 2u);
  // Expect "\??\www\docs\file.html" as 2-byte chars.
  std::string expect = "\\??\\www\\docs\\file.html";
  for (std::size_t i = 0; i < expect.size(); ++i) {
    std::uint8_t lo = 0, hi = 1;
    ASSERT_TRUE(kernel_.machine().read_u8(buf + i * 2, lo));
    ASSERT_TRUE(kernel_.machine().read_u8(buf + i * 2 + 1, hi));
    EXPECT_EQ(lo, static_cast<std::uint8_t>(expect[i])) << i;
    EXPECT_EQ(hi, 0) << i;
  }
  // The buffer came from the heap; FreeUnicodeString must return it.
  ASSERT_TRUE(api_.rtl_free_unicode_string(dst).ok());
  EXPECT_EQ(api_.read_u64_or(dst + 16, 1), 0u);
}

TEST_P(OsTest, FreeUnicodeStringOnEmptyStructIsOk) {
  const std::uint64_t s = OsApi::kStructSlot;
  const std::uint64_t zero[3] = {};
  ASSERT_TRUE(api_.write_bytes(s, zero, sizeof zero));
  EXPECT_TRUE(api_.rtl_free_unicode_string(s).ok());
}

TEST_P(OsTest, CloseHandleWrapsNtClose) {
  kernel_.disk().add_file("/f", {'x'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  EXPECT_EQ(api_.close_handle(h.value).value, 1);
  EXPECT_EQ(api_.close_handle(h.value).value, 0);  // already closed
  EXPECT_EQ(api_.close_handle(0).value, 0);
}

TEST_P(OsTest, ReadFileWrapperReportsBytes) {
  kernel_.disk().add_file("/f", {'a', 'b', 'c'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  const auto r = api_.read_file(h.value, 0x150000, 10, OsApi::kOutSlot);
  EXPECT_EQ(r.value, 1);  // success BOOL
  EXPECT_EQ(api_.read_u64_or(OsApi::kOutSlot, 0), 3u);
  const auto bad = api_.read_file(999, 0x150000, 10, OsApi::kOutSlot);
  EXPECT_EQ(bad.value, 0);
  EXPECT_EQ(api_.read_u64_or(OsApi::kOutSlot, 7), 0u);
}

TEST_P(OsTest, WriteFileWrapperWritesToDisk) {
  const auto h = api_.nt_create_file(guest_path("/log"));
  ASSERT_GT(h.value, 0);
  ASSERT_TRUE(api_.write_bytes(0x150000, "entry", 5));
  const auto r = api_.write_file(h.value, 0x150000, 5, OsApi::kOutSlot);
  EXPECT_EQ(r.value, 1);
  EXPECT_EQ(api_.read_u64_or(OsApi::kOutSlot, 0), 5u);
  const auto* content = kernel_.disk().content("/log");
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(std::string(content->begin(), content->end()), "entry");
}

TEST_P(OsTest, SetFilePointerSeeks) {
  kernel_.disk().add_file("/f", {'a', 'b', 'c', 'd'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  EXPECT_EQ(api_.set_file_pointer(h.value, 2).value, 2);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 1).value, 1);
  char c = 0;
  api_.read_bytes(0x150000, &c, 1);
  EXPECT_EQ(c, 'c');
  EXPECT_EQ(api_.set_file_pointer(h.value, -1).value, -1);
  EXPECT_EQ(api_.set_file_pointer(999, 0).value, -1);
}

TEST_P(OsTest, GetLongPathNameCopies) {
  const auto src = guest_wide("/www/a.html");
  const auto n = api_.get_long_path_name(src, 0x150000, 64);
  EXPECT_EQ(n.value, 11);
  std::uint8_t lo = 0;
  kernel_.machine().read_u8(0x150000 + 2 * 2, lo);  // third char
  EXPECT_EQ(lo, 'w');
}

TEST_P(OsTest, ApiCallsAreObservable) {
  std::vector<std::string> calls;
  api_.set_call_hook([&](const std::string& n) { calls.push_back(n); });
  api_.rtl_alloc(32);
  api_.nt_close(0);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], "RtlAllocateHeap");
  EXPECT_EQ(calls[1], "NtClose");
  EXPECT_EQ(api_.call_count(), 2u);
  EXPECT_GT(api_.total_cycles(), 0u);
}

TEST_P(OsTest, RebootResetsHeapAndHandles) {
  kernel_.disk().add_file("/f", {'x'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  const auto p = api_.rtl_alloc(128);
  ASSERT_GT(p.value, 0);
  kernel_.reboot();
  // Handle table wiped, heap back to a full arena.
  EXPECT_LT(api_.nt_read_file(h.value, 0x150000, 1).value, 0);
  const auto p2 = api_.rtl_alloc(128);
  EXPECT_EQ(p2.value, p.value);  // identical first block after reset
  // Disk contents survive a reboot.
  EXPECT_NE(kernel_.disk().content("/f"), nullptr);
}

TEST_P(OsTest, UnknownApiNameThrows) {
  EXPECT_THROW(kernel_.api_addr("NtBogus"), std::out_of_range);
}

TEST_P(OsTest, ResolvedApiTableMatchesSymbolLookup) {
  // The wrappers' per-kernel address table and prebuilt names agree with
  // the image's symbol lookup for all 21 functions, in api_functions() order.
  ASSERT_EQ(api_functions().size(), kNumApiFns);
  for (std::size_t i = 0; i < kNumApiFns; ++i) {
    const auto f = static_cast<ApiFn>(i);
    const std::string name = api_functions()[i].name;
    EXPECT_EQ(api_fn_name(f), name);
    EXPECT_EQ(kernel_.api_addr(f), kernel_.api_addr(name)) << name;
  }
  EXPECT_EQ(api_fn_name(ApiFn::kRtlDosPathNameToNtPathName_U),
            "RtlDosPathNameToNtPathName_U");
  EXPECT_EQ(api_fn_name(ApiFn::kWriteFile), "WriteFile");
}

/// Loads a stub `sys num; ret` beside the OS image and returns a caller for
/// it: (id, offset, guest pointer, len) in r1..r4 -> (trap, r0).
auto disk_syscall(Kernel& k, std::int32_t num) {
  constexpr std::uint64_t kStub = 0x00140000;  // free, between scratch and heap
  k.machine().load_image(isa::assemble(
      "f:\n  sys " + std::to_string(num) + "\n  ret\n", "stub", kStub));
  return [&k](std::int64_t id, std::int64_t off, std::uint64_t ptr,
              std::int64_t len) {
    const auto r = k.machine().call(
        kStub, {id, off, static_cast<std::int64_t>(ptr), len}, 1000);
    return std::make_pair(r.trap, r.ret);
  };
}

TEST_P(OsTest, DiskSyscallsKeepTheirResultOrder) {
  const std::uint64_t buf = lay::kScratch;
  const std::uint64_t unmapped = 0x10;  // null page
  const auto ok = [](std::int64_t r0) { return std::make_pair(vm::Trap::kHalt, r0); };
  const auto too_long = static_cast<std::int64_t>(lay::kMemSize) + 1;
  for (const std::int32_t num : {lay::kSysDiskRead, lay::kSysDiskWrite}) {
    Kernel k(GetParam());
    const int fid = k.disk().add_file("/d", {'a', 'b', 'c', 'd', 'e'});
    const auto sys = disk_syscall(k, num);
    // A length outside [0, 8 MiB] is -1 before anything else is looked at.
    EXPECT_EQ(sys(fid, 0, unmapped, -1), ok(-1));
    EXPECT_EQ(sys(fid, 0, unmapped, too_long), ok(-1));
    // Zero-length transfers with a null buffer are legal.
    EXPECT_EQ(sys(fid, 0, 0, 0), ok(0));
    EXPECT_EQ(sys(fid, 0, unmapped, 4).first, vm::Trap::kBadMemory);
    if (num == lay::kSysDiskRead) {
      // Bad id / offset -> -1, even with a bad buffer.
      EXPECT_EQ(sys(99, 0, unmapped, 4), ok(-1));
      EXPECT_EQ(sys(fid, -1, unmapped, 4), ok(-1));
      // Reads stop at EOF, and only the bytes moved need a valid buffer.
      EXPECT_EQ(sys(fid, 3, buf, 100), ok(2));
      std::uint8_t got[2] = {};
      ASSERT_TRUE(k.machine().read_bytes(buf, got, 2));
      EXPECT_EQ(got[0], 'd');
      EXPECT_EQ(got[1], 'e');
      EXPECT_EQ(sys(fid, 5, unmapped, 100), ok(0));
      EXPECT_EQ(sys(fid, 3, lay::kMemSize - 1, 100).first, vm::Trap::kBadMemory);
    } else {
      // The guest range is checked before the id / offset.
      EXPECT_EQ(sys(99, 0, unmapped, 4).first, vm::Trap::kBadMemory);
      EXPECT_EQ(sys(99, 0, buf, 4), ok(-1));
      EXPECT_EQ(sys(fid, -1, buf, 4), ok(-1));
      ASSERT_TRUE(k.machine().write_bytes(buf, "XYZ", 3));
      EXPECT_EQ(sys(fid, 1, buf, 3), ok(3));
      EXPECT_EQ(*k.disk().content("/d"),
                (std::vector<std::uint8_t>{'a', 'X', 'Y', 'Z', 'e'}));
    }
  }
}

// --- host path utilities ----------------------------------------------------

TEST(PathUtils, Normalize) {
  EXPECT_EQ(normalize_path("/a//b/./c"), "/a/b/c");
  EXPECT_EQ(normalize_path("a\\b"), "/a/b");
  EXPECT_EQ(normalize_path("/a/../b"), "/b");
  EXPECT_EQ(normalize_path("/../../x"), "/x");
  EXPECT_EQ(normalize_path(""), "/");
  EXPECT_EQ(normalize_path("/"), "/");
}

TEST(PathUtils, Join) {
  EXPECT_EQ(join_path("/a", "b"), "/a/b");
  EXPECT_EQ(join_path("/a/", "/b"), "/a/b");
  EXPECT_EQ(join_path("/a/", "b"), "/a/b");
  EXPECT_EQ(join_path("", "b"), "b");
}

TEST(PathUtils, Extension) {
  EXPECT_EQ(path_extension("/x/a.HTML"), "html");
  EXPECT_EQ(path_extension("/x/a"), "");
  EXPECT_EQ(path_extension("/x.d/a"), "");
}

TEST(PathUtils, ValidRequestPath) {
  EXPECT_TRUE(is_valid_request_path("/index.html"));
  EXPECT_FALSE(is_valid_request_path("index.html"));
  EXPECT_FALSE(is_valid_request_path(""));
  EXPECT_FALSE(is_valid_request_path(std::string("/a\x01b")));
}

// --- disk --------------------------------------------------------------------

TEST(SimDisk, CreateFindReadWrite) {
  SimDisk d;
  EXPECT_FALSE(d.find("/x").has_value());
  const int id = d.create("/x");
  EXPECT_EQ(d.find("/x"), id);
  const std::uint8_t data[] = {1, 2, 3};
  EXPECT_EQ(d.write(id, 0, data, 3), 3);
  EXPECT_EQ(d.size(id), 3);
  const auto got = d.view(id, 1, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[0], 2);
}

TEST(SimDisk, WriteExtendsWithZeros) {
  SimDisk d;
  const int id = d.create("/x");
  const std::uint8_t b = 9;
  EXPECT_EQ(d.write(id, 5, &b, 1), 1);
  EXPECT_EQ(d.size(id), 6);
  const auto got = d.view(id, 0, 6);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 6u);
  EXPECT_EQ((*got)[0], 0);
  EXPECT_EQ((*got)[5], 9);
}

TEST(SimDisk, ViewReadsInPlace) {
  SimDisk d;
  const int id = d.add_file("/v", {1, 2, 3, 4});
  const auto all = d.view(id, 0, 100);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(all->begin(), all->end()),
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(all->data(), d.content("/v")->data());  // in place
  EXPECT_EQ(d.view(id, 2, 1)->size(), 1u);
  EXPECT_TRUE(d.view(id, 4, 8)->empty());  // EOF
  EXPECT_TRUE(d.view(id, 9, 8)->empty());
  EXPECT_FALSE(d.view(id + 1, 0, 1).has_value());
  EXPECT_FALSE(d.view(id, -1, 1).has_value());
  EXPECT_FALSE(d.view(id, 0, -1).has_value());
}

TEST(SimDisk, BadIdsRejected) {
  SimDisk d;
  std::uint8_t b;
  EXPECT_FALSE(d.view(0, 0, 1).has_value());
  EXPECT_FALSE(d.write(-1, 0, &b, 1).has_value());
  EXPECT_FALSE(d.size(3).has_value());
}

TEST(SimDisk, CreateTruncatesExisting) {
  SimDisk d;
  d.add_file("/x", {1, 2, 3});
  d.create("/x");
  EXPECT_EQ(d.size(*d.find("/x")), 0);
}

}  // namespace
}  // namespace gf::os
