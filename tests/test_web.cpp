// Tests for the HTTP model and the four benchmark-target web servers,
// including their differentiated behaviour under injected OS faults.
#include <gtest/gtest.h>

#include <algorithm>

#include "os/api.h"
#include "os/kernel.h"
#include "spec/client.h"
#include "spec/fileset.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "web/server.h"

namespace gf::web {
namespace {

TEST(Http, PathSeedIsStable) {
  EXPECT_EQ(path_seed("/a"), path_seed("/a"));
  EXPECT_NE(path_seed("/a"), path_seed("/b"));
}

TEST(Http, ExpectedBodyDeterministic) {
  const auto a = expected_body("/x", 64, false);
  const auto b = expected_body("/x", 64, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
}

TEST(Http, DynamicTransformIsInvolution) {
  for (int b = 0; b < 256; ++b) {
    const auto x = static_cast<std::uint8_t>(b);
    EXPECT_EQ(dynamic_transform(dynamic_transform(x)), x);
  }
}

TEST(Http, DynamicBodyDiffersFromStatic) {
  EXPECT_NE(expected_body("/x", 16, true), expected_body("/x", 16, false));
}

// The content kernels are constexpr and header-inline so every per-byte
// loop on the serving path vectorises; these fail to compile if either one
// moves back out of line.
static_assert(expected_content_byte(0, 0) == 0);
static_assert(expected_content_byte(0x100, 1) == 31);
static_assert(expected_content_byte(5, 9) == static_cast<std::uint8_t>(5 + 9 * 31));
static_assert(dynamic_transform(0x00) == 0x5A);
static_assert(dynamic_transform(dynamic_transform(0xC3)) == 0xC3);

TEST(Http, FillExpectedContentMatchesScalarFormula) {
  const std::uint64_t seeds[] = {0, path_seed("/file_set/dir00001/class1_3"),
                                 ~std::uint64_t{0}};
  for (const auto seed : seeds) {
    for (std::size_t len = 0; len <= 300; ++len) {
      // Unaligned destinations: start at each of several byte offsets.
      for (std::size_t skew = 0; skew < 4; ++skew) {
        std::vector<std::uint8_t> buf(len + skew, 0xEE);
        fill_expected_content(seed, std::span(buf).subspan(skew));
        for (std::size_t k = 0; k < skew; ++k) ASSERT_EQ(buf[k], 0xEE);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(buf[skew + i], expected_content_byte(seed, i))
              << "seed " << seed << " len " << len << " skew " << skew
              << " i " << i;
        }
      }
    }
  }
}

TEST(Http, ApplyDynamicTransformMatchesScalarFormula) {
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t skew = 0; skew < 4; ++skew) {
      std::vector<std::uint8_t> buf(len + skew);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::uint8_t>(i * 7 + len);
      }
      const auto before = buf;
      apply_dynamic_transform(std::span(buf).subspan(skew));
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], i < skew ? before[i] : dynamic_transform(before[i]))
            << "len " << len << " skew " << skew << " i " << i;
      }
    }
  }
}

TEST(Http, ExpectedBodyMatchesScalarFormula) {
  const std::string path = "/file_set/dir00002/class2_4";
  const auto seed = path_seed(path);
  const auto stat = expected_body(path, 1000, false);
  const auto dyn = expected_body(path, 1000, true);
  for (std::size_t i = 0; i < stat.size(); ++i) {
    ASSERT_EQ(stat[i], expected_content_byte(seed, i));
    ASSERT_EQ(dyn[i], dynamic_transform(expected_content_byte(seed, i)));
  }
}

class ServerTest : public ::testing::TestWithParam<const char*> {
 protected:
  ServerTest()
      : kernel_(os::OsVersion::kVos2000),
        api_(kernel_),
        fileset_(kernel_.disk()),
        server_(make_server(GetParam(), api_)) {}

  os::Kernel kernel_;
  os::OsApi api_;
  spec::Fileset fileset_;
  std::unique_ptr<WebServer> server_;
};

INSTANTIATE_TEST_SUITE_P(AllServers, ServerTest,
                         ::testing::Values("apex", "abyssal", "sambar",
                                           "savant"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(ServerTest, StartsOnHealthyOs) {
  EXPECT_TRUE(server_->start());
  EXPECT_EQ(server_->state(), ServerState::kRunning);
  server_->stop();
  EXPECT_EQ(server_->state(), ServerState::kStopped);
}

TEST_P(ServerTest, ServesEveryFilesetFileCorrectly) {
  ASSERT_TRUE(server_->start());
  for (const auto& f : fileset_.files()) {
    const Request req{Method::kGet, f.path, false, ""};
    const auto resp = server_->handle(req);
    ASSERT_EQ(resp.status, 200) << f.path;
    EXPECT_EQ(resp.body, expected_body(f.path, f.size, false)) << f.path;
  }
}

TEST_P(ServerTest, ServesDynamicContent) {
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[10];
  const Request req{Method::kGet, f.path, true, ""};
  const auto resp = server_->handle(req);
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, expected_body(f.path, f.size, true));
}

TEST_P(ServerTest, HandlesPosts) {
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[3];
  const Request req{Method::kPost, f.path, false, "user=a&pass=b"};
  const auto resp = server_->handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), 128u);
}

TEST_P(ServerTest, MissingFileIs404) {
  ASSERT_TRUE(server_->start());
  const Request req{Method::kGet, "/no/such/file", false, ""};
  EXPECT_EQ(server_->handle(req).status, 404);
}

TEST_P(ServerTest, RequestsWhileStoppedAre503) {
  const Request req{Method::kGet, "/x", false, ""};
  EXPECT_EQ(server_->handle(req).status, 503);
}

TEST_P(ServerTest, StatsAccumulate) {
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[0];
  server_->handle({Method::kGet, f.path, false, ""});
  server_->handle({Method::kGet, "/missing", false, ""});
  EXPECT_EQ(server_->stats().requests, 2u);
  EXPECT_EQ(server_->stats().ok, 1u);
  EXPECT_EQ(server_->stats().errors, 1u);
}

TEST_P(ServerTest, SurvivesHundredsOfMixedRequests) {
  ASSERT_TRUE(server_->start());
  spec::WorkloadGenerator gen(fileset_, 5);
  for (int i = 0; i < 600; ++i) {
    const auto req = gen.next();
    const auto resp = server_->handle(req);
    ASSERT_EQ(resp.status, 200) << i << " " << req.path;
  }
  EXPECT_EQ(server_->state(), ServerState::kRunning);
}

TEST_P(ServerTest, RestartAfterStopWorks) {
  ASSERT_TRUE(server_->start());
  server_->stop();
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[0];
  EXPECT_EQ(server_->handle({Method::kGet, f.path, false, ""}).status, 200);
}

TEST(ServerFactory, RejectsUnknownNames) {
  os::Kernel k(os::OsVersion::kVos2000);
  os::OsApi api(k);
  EXPECT_THROW(make_server("nginx", api), std::invalid_argument);
}

TEST(ServerTraits, OnlyApexSelfRestarts) {
  os::Kernel k(os::OsVersion::kVos2000);
  os::OsApi api(k);
  EXPECT_TRUE(make_server("apex", api)->has_self_restart());
  EXPECT_FALSE(make_server("abyssal", api)->has_self_restart());
  EXPECT_FALSE(make_server("sambar", api)->has_self_restart());
  EXPECT_FALSE(make_server("savant", api)->has_self_restart());
}

// --- behaviour under faults --------------------------------------------------

struct FaultImpact {
  int errors = 0;
  int deaths = 0;
  int hangs = 0;
  int clean_faults = 0;  ///< faults with no client-visible effect at all
  int faults = 0;
};

FaultImpact run_fault_sweep(const char* server_name, int stride) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  spec::Fileset fileset(kernel.disk());
  auto server = make_server(server_name, api);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  swfit::Injector injector(kernel);
  spec::WorkloadGenerator gen(fileset, 11);

  FaultImpact impact;
  for (std::size_t i = 0; i < fl.faults.size(); i += stride) {
    kernel.reboot();
    if (!server->start()) continue;
    // Steady-state warm-up before the fault (campaign conditions: caches
    // and pools are hot when a fault arrives).
    for (int op = 0; op < 120; ++op) server->handle(gen.next());
    if (server->state() != ServerState::kRunning) continue;
    injector.inject(fl.faults[i]);
    ++impact.faults;
    bool any_effect = false;
    for (int op = 0; op < 25; ++op) {
      const auto req = gen.next();
      const auto resp = server->handle(req);
      if (server->state() == ServerState::kCrashed) {
        ++impact.deaths;
        any_effect = true;
        break;
      }
      if (server->state() == ServerState::kHung ||
          server->state() == ServerState::kSpinning) {
        ++impact.hangs;
        any_effect = true;
        break;
      }
      const bool ok =
          spec::SpecClient::validate(req, resp, gen.size_of(req.path));
      impact.errors += !ok;
      any_effect = any_effect || !ok;
    }
    impact.clean_faults += !any_effect;
    injector.restore();
    server->stop();
  }
  return impact;
}

TEST(FaultDifferentiation, ApexIsMoreRobustThanAbyssal) {
  const auto apex = run_fault_sweep("apex", 7);
  const auto abyssal = run_fault_sweep("abyssal", 7);
  // Per-fault structural property: the trusting server dies at least as
  // often as the one with per-request crash containment. (The ER%/ADMf
  // service-level comparison is a campaign property and lives in
  // test_depbench.ApexOutperformsAbyssalUnderFaults.)
  EXPECT_LE(apex.deaths, abyssal.deaths);
  // Faults must actually bite, and some must be tolerated, on both servers.
  EXPECT_GT(abyssal.errors + abyssal.deaths + abyssal.hangs, 0);
  EXPECT_GT(apex.errors + apex.deaths + apex.hangs, 0);
  EXPECT_GT(apex.clean_faults, 0);
  EXPECT_GT(abyssal.clean_faults, 0);
}

TEST(FaultDifferentiation, HarnessSurvivesFullSweepOnEveryServer) {
  for (const char* name : {"sambar", "savant"}) {
    const auto impact = run_fault_sweep(name, 23);
    (void)impact;  // no crash of the host process is the assertion
  }
}

// --- the response-body cap ---------------------------------------------------
//
// append_body bounds-checks the whole guest range a server read into, then
// keeps at most kMaxBody + 1 bytes of body: a longer body already fails the
// client's size check, so the cap changes no observable result.

class AppendBody : public ::testing::Test {
 protected:
  AppendBody() : kernel_(os::OsVersion::kVos2000), api_(kernel_) {}

  vm::Machine& m() { return kernel_.machine(); }
  /// The `n` guest bytes at `addr`, copied.
  std::vector<std::uint8_t> guest(std::uint64_t addr, std::size_t n) {
    const auto v = api_.guest_bytes(addr, n);
    return v ? std::vector<std::uint8_t>(v->begin(), v->end())
             : std::vector<std::uint8_t>{};
  }

  os::Kernel kernel_;
  os::OsApi api_;
};

TEST_F(AppendBody, ChecksBoundsBeforeAllocating) {
  // A guest-controlled count must never size a host buffer: a huge count
  // and a range straddling the end of memory both fail with `out` intact.
  const std::vector<std::uint8_t> prefix = {1, 2, 3};
  auto out = prefix;
  EXPECT_FALSE(append_body(api_, 0x2000, std::size_t{1} << 62, out));
  EXPECT_EQ(out, prefix);
  EXPECT_FALSE(append_body(api_, m().mem_size() - 8, 16, out));
  EXPECT_EQ(out, prefix);
  EXPECT_FALSE(append_body(api_, static_cast<std::uint64_t>(-8), 8, out));
  EXPECT_EQ(out, prefix);
  // The cap never shortens the checked range: a count that ends past
  // memory fails even when only the first bytes would be kept.
  EXPECT_FALSE(append_body(api_, os::layout::kHeapArena, m().mem_size(), out));
  EXPECT_EQ(out, prefix);
}

TEST_F(AppendBody, EdgeCases) {
  std::vector<std::uint8_t> out;
  // n == 0 succeeds at any address and changes nothing, like read_bytes.
  std::uint8_t scratch = 0;
  for (const std::uint64_t addr :
       {std::uint64_t{0}, std::uint64_t{0x10}, std::uint64_t{m().mem_size()},
        static_cast<std::uint64_t>(-1)}) {
    EXPECT_TRUE(append_body(api_, addr, 0, out));
    EXPECT_TRUE(m().read_bytes(addr, &scratch, 0));
  }
  EXPECT_TRUE(out.empty());
  // The null page is unmapped.
  EXPECT_FALSE(append_body(api_, 0x10, 4, out));
  EXPECT_FALSE(append_body(api_, vm::Machine::kNullPageSize - 1, 2, out));
  EXPECT_TRUE(out.empty());
  // A read ending exactly at the end of memory succeeds and appends.
  const std::uint8_t tail[4] = {9, 8, 7, 6};
  const auto end = m().mem_size();
  ASSERT_TRUE(m().write_bytes(end - 4, tail, 4));
  out = {5};
  EXPECT_TRUE(append_body(api_, end - 4, 4, out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{5, 9, 8, 7, 6}));
  // One byte past it fails and leaves `out` as it was.
  EXPECT_FALSE(append_body(api_, end - 4, 5, out));
  EXPECT_FALSE(append_body(api_, end, 1, out));
  EXPECT_EQ(out.size(), 5u);
  // Successive appends concatenate, as the servers' chunked reads rely on.
  ASSERT_TRUE(m().write_bytes(os::OsApi::kStructSlot, "abcdef", 6));
  out.clear();
  EXPECT_TRUE(append_body(api_, os::OsApi::kStructSlot, 3, out));
  EXPECT_TRUE(append_body(api_, os::OsApi::kStructSlot + 3, 3, out));
  EXPECT_EQ(std::string(out.begin(), out.end()), "abcdef");
}

TEST_F(AppendBody, BodiesUpToMaxBodyAreCopiedWhole) {
  const auto src = os::layout::kHeapArena;
  // One read of exactly kMaxBody bytes.
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(append_body(api_, src, kMaxBody, out));
  EXPECT_EQ(out, guest(src, kMaxBody));
  // The same bytes in 4 KiB chunks, as abyssal and sambar read them.
  std::vector<std::uint8_t> chunked;
  for (std::size_t off = 0; off < kMaxBody; off += 4096) {
    ASSERT_TRUE(append_body(api_, src + off, 4096, chunked));
  }
  EXPECT_EQ(chunked, out);
}

TEST_F(AppendBody, CapsAtMaxBodyPlusOne) {
  const auto src = os::layout::kHeapArena;
  const auto full = guest(src, kMaxBody + 1);
  // A pointer-sized read count, as a mutated NtReadFile reports: the whole
  // 4 MiB range is valid, one byte past kMaxBody is kept.
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(append_body(api_, src, std::size_t{4} << 20, out));
  EXPECT_EQ(out, full);
  // A chunk that overshoots the bound mid-body is cut at it.
  out = guest(src, 60000);
  ASSERT_TRUE(append_body(api_, src + 60000, 8192, out));
  EXPECT_EQ(out, full);
  // A capped body takes no more bytes but still reports valid reads...
  ASSERT_TRUE(append_body(api_, src, 4096, out));
  EXPECT_EQ(out, full);
  // ...and invalid ones.
  EXPECT_FALSE(append_body(api_, m().mem_size() - 8, 16, out));
  EXPECT_EQ(out, full);
}

TEST(ResponseBodyCap, ClientRejectsMaxBodyPlusOneForEveryFile) {
  // The capped body a faulty read leaves behind starts with the right
  // content, so only its size can reject it — for every file and mode.
  os::SimDisk disk;
  spec::Fileset fileset(disk);
  for (const auto& f : fileset.files()) {
    for (const bool dynamic : {false, true}) {
      Request req;
      req.path = f.path;
      req.dynamic = dynamic;
      Response resp{200, expected_body(f.path, kMaxBody + 1, dynamic)};
      EXPECT_FALSE(spec::SpecClient::validate(req, resp, f.size))
          << f.path << " dynamic=" << dynamic;
      resp.body.resize(f.size);
      EXPECT_TRUE(spec::SpecClient::validate(req, resp, f.size))
          << f.path << " dynamic=" << dynamic;
    }
  }
}

/// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

TEST(ResponseBodyCap, OverlongNtReadFileUnderAbyssalIsPinned) {
  // The two VOS-XP NtReadFile MLPC faults that make NtReadFile report a
  // read count far above any file size; abyssal trusts it. The cap must
  // leave every client-visible outcome as it was without the cap: the
  // digest was recorded with uncapped bodies.
  os::Kernel kernel(os::OsVersion::kVosXp);
  os::OsApi api(kernel);
  spec::Fileset fileset(kernel.disk());
  auto server = make_server("abyssal", api);
  const auto fl =
      swfit::Scanner{}.scan(kernel.pristine_image(), {std::string("NtReadFile")});
  swfit::Injector injector(kernel);
  std::int64_t max_read = 0;
  api.set_post_call_hook([&](const std::string& name, const os::ApiResult& r) {
    if (name == "NtReadFile" && r.completed) max_read = std::max(max_read, r.value);
  });

  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const std::uint64_t addr : {0x12ed8u, 0x12fa8u}) {
    const auto fault = std::find_if(
        fl.faults.begin(), fl.faults.end(), [&](const swfit::FaultLocation& f) {
          return f.type == swfit::FaultType::kMLPC && f.addr == addr;
        });
    ASSERT_NE(fault, fl.faults.end()) << std::hex << addr;
    kernel.reboot();
    ASSERT_TRUE(server->start());
    spec::WorkloadGenerator gen(fileset, 11);
    for (int op = 0; op < 40; ++op) server->handle(gen.next());
    ASSERT_EQ(server->state(), ServerState::kRunning);
    ASSERT_TRUE(injector.inject(*fault));
    max_read = 0;
    int overlong = 0;
    for (int op = 0; op < 80; ++op) {
      const auto req = gen.next();
      const auto resp = server->handle(req);
      const bool ok = spec::SpecClient::validate(req, resp, gen.size_of(req.path));
      overlong += resp.body.size() > kMaxBody;
      mix(digest, static_cast<std::uint64_t>(resp.status));
      mix(digest, static_cast<std::uint64_t>(server->state()));
      mix(digest, ok);
      mix(digest, server->last_request_cycles());
    }
    EXPECT_GT(max_read, static_cast<std::int64_t>(kMaxBody)) << std::hex << addr;
    EXPECT_GT(overlong, 0) << std::hex << addr;
    injector.restore();
    server->stop();
  }
  EXPECT_EQ(digest, 0xAA8D14421901CC83ULL);
}

}  // namespace
}  // namespace gf::web
