// WebServer — the Benchmark Target abstraction.
//
// Servers are native C++ (the BT is never mutated) but obtain every OS
// resource through os::OsApi, i.e. through VISA code that may carry an
// injected fault. The base class contains the failure model:
//
//   - an API call that hangs (cycle budget) leaves the serving process
//     stuck -> ServerState::kHung (the paper's KNS kill reason),
//   - an unhandled crash escaping request handling kills the process ->
//     kCrashed (MIS if the server cannot self-restart),
//   - a recovery loop that burns CPU without serving -> kSpinning (KCP).
//
// Four servers mirror the paper's case study: apex (Apache-like, robust,
// self-restarting), abyssal (Abyss-like, trusting, no self-restart), and
// sambar/savant which participate only in the profiling phase.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "os/api.h"
#include "web/http.h"

namespace gf::web {

enum class ServerState : std::uint8_t {
  kStopped,
  kRunning,
  kCrashed,   ///< process died
  kHung,      ///< stuck, not responding
  kSpinning,  ///< hogging CPU without providing service
};

const char* server_state_name(ServerState s) noexcept;

/// Cumulative per-server counters (reset on start()).
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;       ///< non-200 responses
  std::uint64_t crashes = 0;      ///< deaths observed
  std::uint64_t self_restarts = 0;
};

/// Immutable variable-size server state (e.g. one cached response body).
/// Shared, never copied: restoring a process image hands the same buffers
/// back, so a restore costs O(entries), not O(bytes).
using Blob = std::shared_ptr<const std::vector<std::uint8_t>>;
using Blobs = std::vector<std::pair<std::string, Blob>>;

/// Snapshot of a server's C++-side process state (warm-boot snapshots).
/// Servers are native code, so unlike guest memory their state cannot be
/// captured from the VM: each server flattens its members to plain integers
/// via do_save_state/do_restore_state (the analogue of ZOFI cloning the
/// warmed process image instead of re-launching).
struct ProcessImage {
  ServerState state = ServerState::kStopped;
  ServerStats stats;
  std::uint64_t last_cycles = 0;
  std::vector<std::int64_t> words;  ///< per-server scalars, declaration order
  /// Variable-size state that does not flatten to scalars (e.g. apex's
  /// response cache, one entry per cached path). Key-sorted so the image
  /// is a deterministic function of the server state.
  Blobs blobs;
};

class WebServer {
 public:
  explicit WebServer(os::OsApi& api) : api_(api) {}
  virtual ~WebServer() = default;

  WebServer(const WebServer&) = delete;
  WebServer& operator=(const WebServer&) = delete;

  virtual const char* name() const = 0;
  /// Apache-like built-in self-restart capability (paper §3.4).
  virtual bool has_self_restart() const { return false; }
  /// Architectural CPU cost per request (ms) *outside* the OS API — the
  /// BT's own processing model (worker pool vs thread-per-connection). Used
  /// by the client's service-time model on top of the measured VM cycles.
  virtual double arch_overhead_ms() const { return 3.0; }

  /// Boots the server: allocates guest-side resources. Returns false when
  /// the OS is too broken to start (allocation failures etc.).
  bool start();
  void stop();

  /// Serves one request. Never throws; failures are reflected in the
  /// response status and in state().
  Response handle(const Request& req);

  /// Attempts a self-restart after a death (only meaningful when
  /// has_self_restart()). Returns true when serving again.
  bool try_self_restart();

  ServerState state() const noexcept { return state_; }
  const ServerStats& stats() const noexcept { return stats_; }

  /// VM cycles consumed by the last handle() call (performance model input).
  std::uint64_t last_request_cycles() const noexcept { return last_cycles_; }

  /// Captures / restores the full C++-side process state. A restored server
  /// object behaves exactly like the one save_process() was called on —
  /// guest-side resources it refers to (handles, heap blocks) must be
  /// restored separately via the kernel snapshot taken at the same point.
  ProcessImage save_process() const;
  void restore_process(const ProcessImage& img);

 protected:
  /// Sequential reader for ProcessImage::words (restore side).
  class WordReader {
   public:
    explicit WordReader(const std::vector<std::int64_t>& w) : w_(w) {}
    std::int64_t next() { return w_.at(i_++); }

   private:
    const std::vector<std::int64_t>& w_;
    std::size_t i_ = 0;
  };
  /// Thrown by request handling when an API call hangs.
  struct ApiHang {};
  /// Thrown when the process dies (unhandled fault consequence).
  struct ServerDeath {};
  /// Thrown when recovery degenerates into a busy loop.
  struct ServerSpin {};

  virtual bool do_start() = 0;
  virtual void do_stop() {}
  virtual Response do_handle(const Request& req) = 0;
  /// Appends / re-reads every member that affects behaviour, in declaration
  /// order. The base class covers state/stats/last-cycles.
  virtual void do_save_state(std::vector<std::int64_t>& out) const = 0;
  virtual void do_restore_state(WordReader& in) = 0;
  /// Variable-size state (ProcessImage::blobs). Runs after the word pass on
  /// restore; default: the server has none.
  virtual void do_save_blobs(Blobs&) const {}
  virtual void do_restore_blobs(const Blobs&) {}

  os::OsApi& api() noexcept { return api_; }

  /// Propagates a hung API call as ApiHang; returns the result otherwise.
  const os::ApiResult& hang_check(const os::ApiResult& r) {
    if (r.hung()) throw ApiHang{};
    return r;
  }

  /// For servers without structured exception handling: any crash in an API
  /// call escapes and kills the process.
  const os::ApiResult& die_on_crash(const os::ApiResult& r) {
    hang_check(r);
    if (r.crashed()) throw ServerDeath{};
    return r;
  }

 private:
  os::OsApi& api_;
  ServerState state_ = ServerState::kStopped;
  ServerStats stats_;
  std::uint64_t last_cycles_ = 0;
};

/// Appends the response-body bytes at guest [addr, addr + n) to `body`, the
/// one guest-to-body copy of every server's read loop. The whole range is
/// bounds-checked: false, with `body` untouched, when any byte is unmapped
/// (each server's bad-read path). A valid range is appended only up to
/// kMaxBody + 1 bytes of body, so a faulty OS that reports a huge read
/// count costs at most one over-long body, which the client rejects on its
/// size alone. n == 0 is always true.
bool append_body(const os::OsApi& api, std::uint64_t addr, std::size_t n,
                 std::vector<std::uint8_t>& body);

/// Factory for the four case-study servers by name ("apex", "abyssal",
/// "sambar", "savant"); throws std::invalid_argument for unknown names.
std::unique_ptr<WebServer> make_server(const std::string& name, os::OsApi& api);

}  // namespace gf::web
