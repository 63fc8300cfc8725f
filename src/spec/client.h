// The SPECWeb99-like client: drives N concurrent connections against a
// WebServer under a discrete-event clock and computes the SPEC measures.
//
// Timing model (all simulated milliseconds):
//   - the server is a single service station: an operation waits while the
//     server is busy, then consumes service time derived from the VM cycles
//     the request actually burned in OS code (plus a base overhead),
//   - the response body streams to the client at the per-connection link
//     rate; SPECWeb99 conformance compares the achieved rate to 320 kbps,
//   - a request a dead server refuses fails fast; a request a *hung* server
//     swallows costs the full client timeout — this is what collapses
//     conforming connections under injected faults, exactly as in Table 5.
//
// The tick callback runs between operations; the experiment controller uses
// it to swap faults on the 10 s schedule and to detect/repair server
// failures (MIS/KNS/KCP accounting).
#pragma once

#include <cstdint>
#include <functional>

#include "spec/metrics.h"
#include "spec/workload.h"
#include "web/server.h"

namespace gf::spec {

struct ClientConfig {
  int connections = 40;
  double conn_bandwidth_kbps = 400;  ///< per-connection transfer rate
  double conforming_kbps = 320;      ///< SPECWeb99 conformance threshold
  double max_error_pct = 1.0;        ///< SPECWeb99 conformance threshold
  double base_latency_ms = 3;        ///< connection/header overhead per op
  double cycles_per_ms = 12000;      ///< VM cycles per simulated CPU ms
  double op_timeout_ms = 1500;       ///< client timeout on an unresponsive server
  double error_latency_ms = 300;     ///< error page (near-normal service)
  /// SPECWeb99 measures conformance per batch; SPC of a window is the mean
  /// conforming-connection count over batches of this length. 0 = assess
  /// the window as a single batch.
  double spc_batch_ms = 0;
};

class SpecClient {
 public:
  explicit SpecClient(ClientConfig cfg = {}) : cfg_(cfg) {}

  using Tick = std::function<void(double now_ms)>;

  /// Runs one measurement window of `duration_ms` starting at `start_ms`
  /// sim time, drawing operations from `gen`.
  WindowMetrics run_window(web::WebServer& server, WorkloadGenerator& gen,
                           double start_ms, double duration_ms,
                           const Tick& tick = {});

  const ClientConfig& config() const noexcept { return cfg_; }

  /// Validates a response against the deterministic content expectation.
  static bool validate(const web::Request& req, const web::Response& resp,
                       std::size_t expected_size);

 private:
  ClientConfig cfg_;
};

/// Deterministic server warm-up — part of SUB bring-up.
///
/// Serves every static file of the set once, in file-set order, so the
/// server reaches its steady serving state (apex's response cache full,
/// log/heap paths exercised) before any measurement or fault exposure.
/// Without this, a server that has just started is structurally more
/// fragile than one under sustained load: every request misses the cache
/// and walks the full OS API path, so injected faults activate far more
/// often than the paper's warmed-SUB procedure would show. The sequence is
/// a pure function of the file set — cold bring-up and warm-boot snapshot
/// capture replay it identically, preserving bit-identity.
void warm_server(web::WebServer& server, const Fileset& fs);

}  // namespace gf::spec
