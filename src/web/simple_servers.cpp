// sambar / savant — the two additional web servers the paper uses in the
// profiling phase (faultload fine-tuning requires several BTs of the same
// category; the injected faultload then targets only the API functions used
// by *all* of them). They have distinct API mixes:
//
//   sambar: kernel32-flavored (ReadFile/SetFilePointer/CloseHandle wrappers,
//           canonicalizes paths), moderate checking.
//   savant: minimalist static server — ansi-string based, heavier on string
//           conversion relative to I/O (mirrors its Table 2 column).
#include <stdexcept>

#include "web/server.h"

namespace gf::web {

namespace {

constexpr std::int64_t kChunk = 4096;

class SambarServer final : public WebServer {
 public:
  explicit SambarServer(os::OsApi& api) : WebServer(api) {}
  const char* name() const override { return "sambar"; }

 protected:
  bool do_start() override {
    const auto r = die_on_crash(api().rtl_alloc(8192));
    if (r.value <= 0) return false;
    base_ = static_cast<std::uint64_t>(r.value);
    cs_ = base_;
    url_buf_ = base_ + 64;
    canon_buf_ = base_ + 2112;
    ansi_buf_ = base_ + 4160;
    str_buf_ = base_ + 5200;
    post_buf_ = base_ + 5400;
    data_buf_ = 0;
    const auto buf = die_on_crash(api().rtl_alloc(40 * 1024));
    if (buf.value <= 0) return false;
    data_buf_ = static_cast<std::uint64_t>(buf.value);
    const std::uint8_t zeros[64] = {};
    api().write_bytes(cs_, zeros, sizeof zeros);
    api().write_cstr(os::OsApi::kPathSlot, "/logs/sambar.post");
    const auto log = die_on_crash(api().nt_create_file(os::OsApi::kPathSlot));
    if (log.value <= 0) return false;
    log_handle_ = log.value;
    return true;
  }

  void do_stop() override {
    if (log_handle_ > 0) die_on_crash(api().nt_close(log_handle_));
    if (data_buf_) die_on_crash(api().rtl_free(data_buf_));
    if (base_) die_on_crash(api().rtl_free(base_));
    base_ = data_buf_ = 0;
    log_handle_ = 0;
  }

  Response do_handle(const Request& req) override {
    die_on_crash(api().rtl_enter_cs(cs_));
    die_on_crash(api().rtl_leave_cs(cs_));
    if (!api().write_wstr(url_buf_, req.path)) throw ServerDeath{};

    if (++served_ % 48 == 0) housekeeping();

    const auto canon =
        die_on_crash(api().get_long_path_name(url_buf_, canon_buf_, 1000));
    if (canon.value <= 0) return Response{500, {}};
    die_on_crash(api().rtl_init_unicode_string(str_buf_, canon_buf_));
    die_on_crash(api().rtl_dos_path_to_nt(canon_buf_, str_buf_ + 32));
    const auto conv = die_on_crash(api().rtl_unicode_to_multibyte(
        ansi_buf_, 1000, canon_buf_, canon.value * 2));
    die_on_crash(api().rtl_free_unicode_string(str_buf_ + 32));
    if (conv.value <= 0) return Response{500, {}};
    const std::uint8_t nul = 0;
    api().write_bytes(ansi_buf_ + static_cast<std::uint64_t>(conv.value), &nul, 1);

    if (req.method == Method::kPost) {
      const auto len = std::min<std::size_t>(req.body.size(), 700);
      api().write_bytes(post_buf_, req.body.data(), len);
      const auto w = die_on_crash(api().write_file(
          log_handle_, post_buf_, static_cast<std::int64_t>(len),
          os::OsApi::kOutSlot));
      if (w.value != 1) return Response{500, {}};
      return Response{200, expected_body(req.path, 128, false)};
    }

    const auto open = die_on_crash(api().nt_open_file(ansi_buf_));
    if (open.value == os::layout::kStatusNotFound) return Response{404, {}};
    if (open.value <= 0) return Response{500, {}};
    const auto h = open.value;

    // kernel32-flavored read loop with an explicit rewind first.
    die_on_crash(api().set_file_pointer(h, 0));
    Response resp{200, {}};
    while (resp.body.size() < kMaxBody) {
      const auto rd = die_on_crash(
          api().read_file(h, data_buf_, kChunk, os::OsApi::kOutSlot));
      if (rd.value != 1) {
        die_on_crash(api().close_handle(h));
        return Response{500, {}};
      }
      const auto n = api().read_u64_or(os::OsApi::kOutSlot, 0);
      if (n == 0) break;
      if (!append_body(api(), data_buf_, n, resp.body)) {
        throw ServerDeath{};
      }
      if (n < static_cast<std::uint64_t>(kChunk)) break;
    }
    die_on_crash(api().close_handle(h));
    if (req.dynamic) {
      apply_dynamic_transform(resp.body);
    }
    return resp;
  }

  void do_save_state(std::vector<std::int64_t>& out) const override {
    for (std::uint64_t v : {base_, cs_, url_buf_, canon_buf_, ansi_buf_,
                            str_buf_, post_buf_, data_buf_,
                            static_cast<std::uint64_t>(log_handle_), served_}) {
      out.push_back(static_cast<std::int64_t>(v));
    }
  }

  void do_restore_state(WordReader& in) override {
    for (auto* p : {&base_, &cs_, &url_buf_, &canon_buf_, &ansi_buf_,
                    &str_buf_, &post_buf_, &data_buf_}) {
      *p = static_cast<std::uint64_t>(in.next());
    }
    log_handle_ = in.next();
    served_ = static_cast<std::uint64_t>(in.next());
  }

 private:
  /// Periodic maintenance: page-table audit of the data buffer, native
  /// re-open of the config file, log position reset.
  void housekeeping() {
    die_on_crash(api().nt_protect_vm(data_buf_, 4096, 3));
    die_on_crash(api().nt_query_vm(data_buf_, os::OsApi::kStructSlot));
    die_on_crash(api().rtl_init_ansi_string(os::OsApi::kStructSlot, ansi_buf_));
    api().write_cstr(os::OsApi::kPathSlot, "/conf/httpd.conf");
    const auto conf = die_on_crash(api().nt_open_file(os::OsApi::kPathSlot));
    if (conf.value > 0) {
      die_on_crash(api().nt_read_file(conf.value, data_buf_, 256));
      die_on_crash(api().nt_close(conf.value));
    }
    api().write_cstr(os::OsApi::kPathSlot + 64, "/tmp/sambar.tmp");
    const auto tmp = die_on_crash(api().nt_create_file(os::OsApi::kPathSlot + 64));
    if (tmp.value > 0) {
      die_on_crash(api().nt_write_file(tmp.value, ansi_buf_, 16));
      die_on_crash(api().nt_close(tmp.value));
    }
  }

  std::uint64_t base_ = 0, cs_ = 0, url_buf_ = 0, canon_buf_ = 0, ansi_buf_ = 0,
                str_buf_ = 0, post_buf_ = 0, data_buf_ = 0;
  std::int64_t log_handle_ = 0;
  std::uint64_t served_ = 0;
};

class SavantServer final : public WebServer {
 public:
  explicit SavantServer(os::OsApi& api) : WebServer(api) {}
  const char* name() const override { return "savant"; }

 protected:
  bool do_start() override {
    const auto r = die_on_crash(api().rtl_alloc(8192));
    if (r.value <= 0) return false;
    base_ = static_cast<std::uint64_t>(r.value);
    cs_ = base_;
    url_buf_ = base_ + 64;
    ansi_buf_ = base_ + 2112;
    str_a_ = base_ + 3200;
    str_b_ = base_ + 3264;
    nt_struct_ = base_ + 3328;
    data_buf_ = base_ + 3400;  // small: savant reads in 2 KiB bites
    post_buf_ = base_ + 5600;
    const std::uint8_t zeros[64] = {};
    api().write_bytes(cs_, zeros, sizeof zeros);
    api().write_cstr(os::OsApi::kPathSlot, "/logs/savant.post");
    const auto log = die_on_crash(api().nt_create_file(os::OsApi::kPathSlot));
    if (log.value <= 0) return false;
    log_handle_ = log.value;
    return true;
  }

  void do_stop() override {
    if (log_handle_ > 0) die_on_crash(api().nt_close(log_handle_));
    if (base_) die_on_crash(api().rtl_free(base_));
    base_ = 0;
    log_handle_ = 0;
  }

  Response do_handle(const Request& req) override {
    die_on_crash(api().rtl_enter_cs(cs_));
    die_on_crash(api().rtl_leave_cs(cs_));
    if (!api().write_wstr(url_buf_, req.path)) throw ServerDeath{};

    if (++served_ % 40 == 0) housekeeping();

    // String-layer heavy: length probe, NT conversion, double conversion,
    // ansi re-probe — savant's Table 2 column leans on the string API.
    die_on_crash(api().rtl_init_unicode_string(str_a_, url_buf_));
    die_on_crash(api().rtl_dos_path_to_nt(url_buf_, nt_struct_));
    const auto conv = die_on_crash(api().rtl_unicode_to_multibyte(
        ansi_buf_, 1000, url_buf_, static_cast<std::int64_t>(req.path.size()) * 2));
    die_on_crash(api().rtl_free_unicode_string(nt_struct_));
    if (conv.value <= 0) return Response{500, {}};
    const std::uint8_t nul = 0;
    api().write_bytes(ansi_buf_ + static_cast<std::uint64_t>(conv.value), &nul, 1);
    die_on_crash(api().rtl_init_ansi_string(str_b_, ansi_buf_));
    const auto alen = api().read_u64_or(str_b_, 0);
    if (alen != static_cast<std::uint64_t>(conv.value)) return Response{500, {}};

    // Per-request session record from the OS heap.
    const auto session = die_on_crash(api().rtl_alloc(192));
    if (session.value <= 0) return Response{500, {}};

    Response resp = req.method == Method::kPost ? serve_post(req) : serve_get();
    die_on_crash(api().rtl_free(static_cast<std::uint64_t>(session.value)));
    if (resp.status == 200 && req.dynamic && req.method == Method::kGet) {
      apply_dynamic_transform(resp.body);
    }
    return resp;
  }

  void do_save_state(std::vector<std::int64_t>& out) const override {
    for (std::uint64_t v : {base_, cs_, url_buf_, ansi_buf_, str_a_, str_b_,
                            nt_struct_, data_buf_, post_buf_,
                            static_cast<std::uint64_t>(log_handle_), served_}) {
      out.push_back(static_cast<std::int64_t>(v));
    }
  }

  void do_restore_state(WordReader& in) override {
    for (auto* p : {&base_, &cs_, &url_buf_, &ansi_buf_, &str_a_, &str_b_,
                    &nt_struct_, &data_buf_, &post_buf_}) {
      *p = static_cast<std::uint64_t>(in.next());
    }
    log_handle_ = in.next();
    served_ = static_cast<std::uint64_t>(in.next());
  }

 private:
  Response serve_get() {
    const auto open = die_on_crash(api().nt_open_file(ansi_buf_));
    if (open.value == os::layout::kStatusNotFound) return Response{404, {}};
    if (open.value <= 0) return Response{500, {}};
    const auto h = open.value;

    Response resp{200, {}};
    while (resp.body.size() < kMaxBody) {
      const auto rd = die_on_crash(api().nt_read_file(h, data_buf_, 2048));
      if (rd.value < 0) {
        die_on_crash(api().nt_close(h));
        return Response{500, {}};
      }
      if (rd.value == 0) break;
      if (!append_body(api(), data_buf_, static_cast<std::size_t>(rd.value),
                       resp.body)) {
        throw ServerDeath{};
      }
      if (rd.value < 2048) break;
    }
    die_on_crash(api().nt_close(h));
    return resp;
  }

  Response serve_post(const web::Request& req) {
    const auto len = std::min<std::size_t>(req.body.size(), 700);
    api().write_bytes(post_buf_, req.body.data(), len);
    const auto w = die_on_crash(api().nt_write_file(
        log_handle_, post_buf_, static_cast<std::int64_t>(len)));
    if (w.value != static_cast<std::int64_t>(len)) return Response{500, {}};
    return Response{200, expected_body(req.path, 128, false)};
  }

  void housekeeping() {
    die_on_crash(api().get_long_path_name(url_buf_, data_buf_, 400));
    die_on_crash(api().nt_protect_vm(base_, 4096, 3));
    die_on_crash(api().nt_query_vm(base_, os::OsApi::kStructSlot));
    die_on_crash(api().set_file_pointer(log_handle_, 0));
    api().write_cstr(os::OsApi::kPathSlot + 64, "/conf/httpd.conf");
    const auto conf = die_on_crash(api().nt_open_file(os::OsApi::kPathSlot + 64));
    if (conf.value > 0) {
      die_on_crash(api().read_file(conf.value, data_buf_, 128, os::OsApi::kOutSlot));
      die_on_crash(api().close_handle(conf.value));
    }
    api().write_cstr(os::OsApi::kPathSlot + 64, "/tmp/savant.tmp");
    const auto tmp = die_on_crash(api().nt_create_file(os::OsApi::kPathSlot + 64));
    if (tmp.value > 0) {
      die_on_crash(api().write_file(tmp.value, post_buf_, 8, os::OsApi::kOutSlot));
      die_on_crash(api().nt_close(tmp.value));
    }
  }

  std::uint64_t base_ = 0, cs_ = 0, url_buf_ = 0, ansi_buf_ = 0, str_a_ = 0,
                str_b_ = 0, nt_struct_ = 0, data_buf_ = 0, post_buf_ = 0;
  std::int64_t log_handle_ = 0;
  std::uint64_t served_ = 0;
};

}  // namespace

std::unique_ptr<WebServer> make_apex(os::OsApi& api);
std::unique_ptr<WebServer> make_abyssal(os::OsApi& api);

std::unique_ptr<WebServer> make_server(const std::string& name, os::OsApi& api) {
  if (name == "apex") return make_apex(api);
  if (name == "abyssal") return make_abyssal(api);
  if (name == "sambar") return std::make_unique<SambarServer>(api);
  if (name == "savant") return std::make_unique<SavantServer>(api);
  throw std::invalid_argument("unknown server: " + name);
}

}  // namespace gf::web
