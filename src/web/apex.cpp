// apex — the Apache-analogue benchmark target.
//
// Robustness mechanisms (the reasons the paper's Apache degrades less):
//   - every API result is checked; a failing request is aborted with 500
//     instead of propagating corrupt values,
//   - crashes inside API calls are contained per request (SEH-style),
//   - pre-allocated buffer pool with canaries + periodic integrity checks,
//   - pool pages are protected/queried via the VM-protection API,
//   - self-restart watchdog (has_self_restart() = true),
//   - a death is declared only after a burst of consecutive failed
//     requests or an unrecoverable pool corruption,
//   - an in-process response cache for static content: hot files are
//     served from the worker's own memory, without touching the OS file
//     API (the paper's Table 2 shows exactly this: Apache's NtReadFile
//     share is 0.2% vs Abyss's 2.9% — Apache barely read files).
#include <array>
#include <map>

#include "web/server.h"

namespace gf::web {

namespace {

constexpr std::int64_t kPoolBufSize = 66 * 1024;  // canary + largest file
constexpr std::uint64_t kCanary = 0xC0FFEE5EED5A11ADULL;
constexpr int kIntegrityPeriod = 32;       // requests between pool checks
constexpr int kAuditPeriod = 64;           // requests between config audits
constexpr int kMaxConsecutiveFailures = 12;
constexpr std::size_t kCacheEntries = 192;

class ApexServer final : public WebServer {
 public:
  explicit ApexServer(os::OsApi& api) : WebServer(api) {}

  const char* name() const override { return "apex"; }
  bool has_self_restart() const override { return true; }
  double arch_overhead_ms() const override { return 4.45; }  // worker pool

 protected:
  bool do_start() override {
    consecutive_failures_ = 0;
    served_since_check_ = 0;
    served_since_audit_ = 0;
    posts_ = 0;
    log_pos_ = 0;
    heap_probe_failures_ = 0;
    cache_.clear();  // a fresh process starts with a cold cache
    // All guest resources come from the (possibly faulty) OS heap.
    cs_ = checked_alloc(64);
    stats_block_ = checked_alloc(64);
    url_buf_ = checked_alloc(2048);
    canon_buf_ = checked_alloc(2048);
    ansi_buf_ = checked_alloc(1024);
    nt_struct_ = checked_alloc(64);
    post_buf_ = checked_alloc(2048);
    if (!cs_ || !stats_block_ || !url_buf_ || !canon_buf_ || !ansi_buf_ ||
        !nt_struct_ || !post_buf_) {
      return false;
    }
    zero_block(cs_, 32);
    zero_block(stats_block_, 32);
    for (auto& buf : pool_) {
      buf = checked_alloc(kPoolBufSize);
      if (!buf) return false;
      if (!api().write_bytes(buf, &kCanary, sizeof kCanary)) return false;
      // Mark the pool pages read+write and verify the kernel agrees.
      const auto prot = api().nt_protect_vm(buf, kPoolBufSize, 3);
      hang_check(prot);
      if (!prot.completed) return false;
    }
    api().write_cstr(os::OsApi::kPathSlot, "/logs/apex.post");
    const auto log = api().nt_create_file(os::OsApi::kPathSlot);
    hang_check(log);
    if (!log.ok() || log.value <= 0) return false;
    log_handle_ = log.value;
    return true;
  }

  void do_stop() override {
    if (log_handle_ > 0) hang_check(api().nt_close(log_handle_));
    for (auto& buf : pool_) {
      if (buf) hang_check(api().rtl_free(buf));
      buf = 0;
    }
    for (auto* p : {&cs_, &stats_block_, &url_buf_, &canon_buf_, &ansi_buf_,
                    &nt_struct_, &post_buf_}) {
      if (*p) hang_check(api().rtl_free(*p));
      *p = 0;
    }
    log_handle_ = 0;
  }

  Response do_handle(const Request& req) override {
    Response resp{500, {}};
    try {
      resp = serve(req);
    } catch (const RequestAbort&) {
      resp = Response{500, {}};
    }
    if (resp.status == 200) {
      consecutive_failures_ = 0;
    } else if (++consecutive_failures_ >= kMaxConsecutiveFailures) {
      // A burst of hard failures: the worker pool is beyond recovery.
      throw ServerDeath{};
    }
    if (++served_since_check_ >= kIntegrityPeriod) {
      served_since_check_ = 0;
      integrity_check();
    }
    if (++served_since_audit_ >= kAuditPeriod) {
      served_since_audit_ = 0;
      try {
        config_audit();
      } catch (const RequestAbort&) {
        // A failed audit is logged and ignored; serving continues.
      }
    }
    return resp;
  }

  void do_save_state(std::vector<std::int64_t>& out) const override {
    for (std::uint64_t v : {cs_, stats_block_, url_buf_, canon_buf_, ansi_buf_,
                            nt_struct_, post_buf_, pool_[0], pool_[1],
                            static_cast<std::uint64_t>(pool_rr_),
                            static_cast<std::uint64_t>(log_handle_),
                            static_cast<std::uint64_t>(log_pos_), posts_,
                            served_total_}) {
      out.push_back(static_cast<std::int64_t>(v));
    }
    for (int v : {consecutive_failures_, served_since_check_,
                  served_since_audit_, heap_probe_failures_}) {
      out.push_back(v);
    }
  }

  void do_save_blobs(Blobs& out) const override {
    // The cache is part of the warmed process: snapshots are captured after
    // the bring-up warm-up serve, and a restored process must hit the cache
    // exactly like the one that was captured. std::map iterates key-sorted,
    // so the image is deterministic.
    for (const auto& [path, body] : cache_) out.emplace_back(path, body);
  }

  void do_restore_state(WordReader& in) override {
    for (auto* p : {&cs_, &stats_block_, &url_buf_, &canon_buf_, &ansi_buf_,
                    &nt_struct_, &post_buf_, &pool_[0], &pool_[1]}) {
      *p = static_cast<std::uint64_t>(in.next());
    }
    pool_rr_ = static_cast<std::size_t>(in.next());
    log_handle_ = in.next();
    log_pos_ = in.next();
    posts_ = static_cast<std::uint64_t>(in.next());
    served_total_ = static_cast<std::uint64_t>(in.next());
    consecutive_failures_ = static_cast<int>(in.next());
    served_since_check_ = static_cast<int>(in.next());
    served_since_audit_ = static_cast<int>(in.next());
    heap_probe_failures_ = static_cast<int>(in.next());
    cache_.clear();
  }

  void do_restore_blobs(const Blobs& in) override {
    cache_.clear();
    for (const auto& [path, body] : in) {
      if (cache_.size() >= kCacheEntries) break;
      cache_[path] = body;
    }
  }

 private:
  /// Request-scoped failure: caught in do_handle, answered with 500.
  struct RequestAbort {};

  /// Checks an API result the apex way: hangs propagate, crashes and error
  /// statuses abort the request (they are contained per request).
  const os::ApiResult& check(const os::ApiResult& r) {
    hang_check(r);
    if (!r.completed || r.value < 0) throw RequestAbort{};
    return r;
  }

  std::uint64_t checked_alloc(std::int64_t size) {
    const auto r = api().rtl_alloc(size);
    hang_check(r);
    if (!r.completed || r.value <= 0) return 0;
    return static_cast<std::uint64_t>(r.value);
  }

  void zero_block(std::uint64_t addr, std::size_t bytes) {
    const std::array<std::uint8_t, 64> zeros{};
    api().write_bytes(addr, zeros.data(), std::min(bytes, zeros.size()));
  }

  Response serve(const Request& req) {
    // 1. Scoreboard update under the OS critical section, batched every
    // few requests (Apache-style: workers do not lock per request).
    if (served_total_++ % 8 == 0) {
      check(api().rtl_enter_cs(cs_));
      const auto served = api().read_u64_or(stats_block_, 0);
      api().write_bytes(stats_block_, &served, sizeof served);
      check(api().rtl_leave_cs(cs_));
    }

    // In-process content cache: hot static files are served straight from
    // worker memory (no OS file API involved).
    if (req.method == Method::kGet) {
      const auto hit = cache_.find(req.path);
      if (hit != cache_.end()) {
        Response resp{200, *hit->second};
        if (req.dynamic) {
          apply_dynamic_transform(resp.body);
        }
        return resp;
      }
    }

    // 2. Marshal the URL as a wide string into server memory.
    if (req.path.size() > 900) throw RequestAbort{};
    if (!api().write_wstr(url_buf_, req.path)) throw RequestAbort{};

    // 3. Canonicalize, then validate the reported length.
    const auto canon =
        check(api().get_long_path_name(url_buf_, canon_buf_, 1000));
    if (canon.value <= 0) throw RequestAbort{};
    const auto canon_chars = canon.value;

    const auto init = check(api().rtl_init_unicode_string(
        os::OsApi::kStructSlot, canon_buf_));
    (void)init;
    const auto reported = api().read_u64_or(os::OsApi::kStructSlot, 0);
    if (reported != static_cast<std::uint64_t>(canon_chars) * 2) {
      throw RequestAbort{};  // the OS string layer is lying
    }

    // 4. NT-path conversion (exercises the heap through the OS).
    check(api().rtl_dos_path_to_nt(canon_buf_, nt_struct_));

    // 5. Down-convert to the byte path used for the open.
    const auto conv = check(api().rtl_unicode_to_multibyte(
        ansi_buf_, 1000, canon_buf_, canon_chars * 2));
    if (conv.value != canon_chars) {
      check(api().rtl_free_unicode_string(nt_struct_));
      throw RequestAbort{};
    }
    const std::uint8_t nul = 0;
    api().write_bytes(ansi_buf_ + static_cast<std::uint64_t>(conv.value), &nul, 1);

    check(api().rtl_free_unicode_string(nt_struct_));

    // Per-request context block from the OS heap (freed below).
    const auto ctx = checked_alloc(256);
    if (ctx == 0) throw RequestAbort{};

    if (req.method == Method::kPost) {
      const auto resp = serve_post(req);
      check(api().rtl_free(ctx));
      return resp;
    }

    // 6. Open + single large read into the pool buffer (memory-mapped-style
    // serving: one big transfer per request, like Apache's sendfile path).
    const auto open = hang_check(api().nt_open_file(ansi_buf_));
    if (!open.completed) {
      api().rtl_free(ctx);
      throw RequestAbort{};
    }
    if (open.value == os::layout::kStatusNotFound) {
      check(api().rtl_free(ctx));
      return Response{404, {}};
    }
    if (open.value <= 0) {
      api().rtl_free(ctx);
      throw RequestAbort{};
    }
    const auto h = open.value;

    Response resp{200, {}};
    const auto data = pool_[pool_rr_++ % pool_.size()] + 16;
    const auto rd = hang_check(
        api().nt_read_file(h, data, static_cast<std::int64_t>(kMaxBody)));
    if (!rd.completed || rd.value < 0) {
      hang_check(api().nt_close(h));
      api().rtl_free(ctx);
      throw RequestAbort{};
    }
    if (!append_body(api(), data, static_cast<std::size_t>(rd.value), resp.body)) {
      hang_check(api().nt_close(h));
      api().rtl_free(ctx);
      throw RequestAbort{};
    }
    check(api().nt_close(h));
    check(api().rtl_free(ctx));

    if (cache_.size() < kCacheEntries) {
      // Cache the *static* content.
      cache_[req.path] =
          std::make_shared<const std::vector<std::uint8_t>>(resp.body);
    }
    if (req.dynamic) {
      apply_dynamic_transform(resp.body);
    }
    return resp;
  }

  Response serve_post(const Request& req) {
    const auto len = std::min<std::size_t>(req.body.size(), 1800);
    if (!api().write_bytes(post_buf_, req.body.data(), len)) throw RequestAbort{};
    // Alternate between the Win32 wrapper and the native write path.
    if (++posts_ % 2 == 0) {
      const auto w = check(api().write_file(
          log_handle_, post_buf_, static_cast<std::int64_t>(len),
          os::OsApi::kOutSlot));
      if (w.value != 1) throw RequestAbort{};
      const auto written = api().read_u64_or(os::OsApi::kOutSlot, 0);
      if (written != len) throw RequestAbort{};
    } else {
      const auto w = check(api().nt_write_file(
          log_handle_, post_buf_, static_cast<std::int64_t>(len)));
      if (w.value != static_cast<std::int64_t>(len)) throw RequestAbort{};
    }
    log_pos_ += static_cast<std::int64_t>(len);
    if (posts_ % 8 == 0) {
      check(api().set_file_pointer(log_handle_, log_pos_));
    }
    return Response{200, expected_body(req.path, 128, false)};
  }

  /// Periodic configuration audit: re-reads the config file through the
  /// Win32 layer and refreshes the ansi view of the server root.
  void config_audit() {
    api().write_cstr(os::OsApi::kPathSlot, "/conf/httpd.conf");
    const auto open = check(api().nt_open_file(os::OsApi::kPathSlot));
    if (open.value <= 0) throw RequestAbort{};
    const auto data = pool_[0] + 16;
    const auto rd = check(api().read_file(open.value, data, 512, os::OsApi::kOutSlot));
    const auto closed = check(api().close_handle(open.value));
    if (rd.value != 1 || closed.value != 1) throw RequestAbort{};
    check(api().rtl_init_ansi_string(os::OsApi::kStructSlot, os::OsApi::kPathSlot));
  }

  /// Pool integrity audit: canaries intact, pages still mapped. On
  /// corruption, attempt a rebuild; a rebuild that cannot make progress
  /// degenerates into the CPU-hogging recovery spin the controller kills
  /// (the paper's KCP).
  void integrity_check() {
    bool corrupt = false;
    for (const auto buf : pool_) {
      std::uint64_t canary = 0;
      if (!api().read_bytes(buf, &canary, sizeof canary) || canary != kCanary) {
        corrupt = true;
      }
    }
    const auto q = api().nt_query_vm(pool_[0], os::OsApi::kStructSlot);
    hang_check(q);
    if (!q.completed || q.value < 0) corrupt = true;
    // Allocator probe: a worker whose process heap no longer allocates is
    // recycled (Apache-style worker lifecycle management).
    const auto probe = api().rtl_alloc(512);
    hang_check(probe);
    if (!probe.completed || probe.value <= 0) {
      if (++heap_probe_failures_ >= 2) throw ServerDeath{};
    } else {
      heap_probe_failures_ = 0;
      const auto freed = api().rtl_free(static_cast<std::uint64_t>(probe.value));
      hang_check(freed);
      if (!freed.completed || freed.value < 0) {
        if (++heap_probe_failures_ >= 2) throw ServerDeath{};
      }
    }
    if (!corrupt) return;

    // Rebuild: try to re-acquire clean pool buffers.
    for (auto& buf : pool_) {
      hang_check(api().rtl_free(buf));  // best effort
      std::uint64_t fresh = 0;
      for (int attempt = 0; attempt < 100; ++attempt) {
        fresh = checked_alloc(kPoolBufSize);
        if (fresh != 0) break;
      }
      if (fresh == 0) throw ServerSpin{};  // allocation storm, no progress
      buf = fresh;
      if (!api().write_bytes(buf, &kCanary, sizeof kCanary)) throw ServerDeath{};
    }
  }

  std::uint64_t cs_ = 0, stats_block_ = 0, url_buf_ = 0, canon_buf_ = 0,
                ansi_buf_ = 0, nt_struct_ = 0, post_buf_ = 0;
  std::array<std::uint64_t, 2> pool_{};
  std::size_t pool_rr_ = 0;
  std::int64_t log_handle_ = 0;
  std::int64_t log_pos_ = 0;
  std::uint64_t posts_ = 0;
  int consecutive_failures_ = 0;
  int served_since_check_ = 0;
  int served_since_audit_ = 0;
  int heap_probe_failures_ = 0;
  std::uint64_t served_total_ = 0;
  std::map<std::string, Blob> cache_;  ///< bodies shared with snapshots
};

}  // namespace

std::unique_ptr<WebServer> make_apex(os::OsApi& api) {
  return std::make_unique<ApexServer>(api);
}

}  // namespace gf::web
