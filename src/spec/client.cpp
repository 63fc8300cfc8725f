#include "spec/client.h"

#include <algorithm>
#include <cmath>

namespace gf::spec {

bool SpecClient::validate(const web::Request& req, const web::Response& resp,
                          std::size_t expected_size) {
  if (resp.status != 200) return false;
  const auto expect_bytes =
      req.method == web::Method::kPost ? std::size_t{128} : expected_size;
  if (resp.body.size() != expect_bytes) return false;
  // Sampled content check: first/last bytes plus a stride through the body.
  // Heap corruption produces densely wrong bytes, so sampling catches it at
  // a fraction of the cost of a full compare.
  const auto seed = web::path_seed(req.path);
  const bool dynamic = req.method == web::Method::kGet && req.dynamic;
  auto expected_at = [&](std::size_t i) {
    auto b = web::expected_content_byte(seed, i);
    return dynamic ? web::dynamic_transform(b) : b;
  };
  if (resp.body.empty()) return true;
  if (resp.body.front() != expected_at(0)) return false;
  if (resp.body.back() != expected_at(resp.body.size() - 1)) return false;
  for (std::size_t i = 0; i < resp.body.size(); i += 17) {
    if (resp.body[i] != expected_at(i)) return false;
  }
  return true;
}

WindowMetrics SpecClient::run_window(web::WebServer& server,
                                     WorkloadGenerator& gen, double start_ms,
                                     double duration_ms, const Tick& tick) {
  struct Conn {
    double next_free = 0;
    ConnStats stats;                   // whole-window totals
    std::vector<ConnStats> per_batch;  // per-batch stats for SPC
  };
  const double batch_ms =
      cfg_.spc_batch_ms > 0 ? cfg_.spc_batch_ms : duration_ms;
  const auto n_batches = static_cast<std::size_t>(
      std::max(1.0, std::ceil(duration_ms / batch_ms)));
  std::vector<Conn> conns(static_cast<std::size_t>(cfg_.connections));
  for (auto& c : conns) c.per_batch.resize(n_batches);
  // Stagger connection starts slightly so ops do not fire in lockstep.
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].next_free = start_ms + static_cast<double>(i) * 2.0;
  }

  const double end_ms = start_ms + duration_ms;
  double server_free = start_ms;
  double total_latency = 0;
  WindowMetrics m;
  m.duration_ms = duration_ms;

  for (;;) {
    // Next connection ready to issue an operation.
    auto* conn = &conns[0];
    for (auto& c : conns) {
      if (c.next_free < conn->next_free) conn = &c;
    }
    const double now = conn->next_free;
    if (now >= end_ms) break;

    if (tick) tick(now);

    const auto req = gen.next();
    const auto resp = server.handle(req);
    const auto state = server.state();

    double completion;
    bool ok = false;
    if (resp.status == 0 || state == web::ServerState::kHung ||
        state == web::ServerState::kSpinning) {
      // No answer: the client burns its full timeout.
      completion = now + cfg_.op_timeout_ms;
    } else if (resp.status == 503 || state != web::ServerState::kRunning) {
      // Connection refused (server down / dying).
      completion = now + cfg_.error_latency_ms;
    } else {
      const double service_ms =
          static_cast<double>(server.last_request_cycles()) / cfg_.cycles_per_ms +
          server.arch_overhead_ms() + cfg_.base_latency_ms;
      const double begin = std::max(now, server_free);
      server_free = begin + service_ms;
      ok = validate(req, resp, gen.size_of(req.path));
      const double transfer_ms =
          ok ? static_cast<double>(resp.body.size()) * 8.0 / cfg_.conn_bandwidth_kbps
             : cfg_.error_latency_ms;
      completion = server_free + transfer_ms;
    }

    const double latency = completion - now;
    const auto batch = std::min(
        n_batches - 1, static_cast<std::size_t>((now - start_ms) / batch_ms));
    auto& bstats = conn->per_batch[batch];
    ++m.ops;
    ++conn->stats.ops;
    ++bstats.ops;
    if (ok) {
      total_latency += latency;  // RTM is over successful operations
      m.bytes += resp.body.size();
      conn->stats.bytes += resp.body.size();
      bstats.bytes += resp.body.size();
    } else {
      ++m.errors;
      ++conn->stats.errors;
      ++bstats.errors;
    }
    conn->next_free = completion;
  }

  std::vector<ConnStats> stats;
  stats.reserve(conns.size());
  for (const auto& c : conns) stats.push_back(c.stats);
  finalize_metrics(m, stats, total_latency, cfg_.conforming_kbps,
                   cfg_.max_error_pct);

  // Batch-based SPC/CC%: mean conforming-connection count across batches.
  double spc_sum = 0;
  for (std::size_t b = 0; b < n_batches; ++b) {
    int conforming = 0;
    for (const auto& c : conns) {
      conforming += is_conforming(c.per_batch[b], batch_ms,
                                  cfg_.conforming_kbps, cfg_.max_error_pct);
    }
    spc_sum += conforming;
  }
  m.spc = static_cast<int>(spc_sum / static_cast<double>(n_batches) + 0.5);
  m.cc_pct = conns.empty() ? 0.0
                           : 100.0 * static_cast<double>(m.spc) /
                                 static_cast<double>(conns.size());
  return m;
}

void warm_server(web::WebServer& server, const Fileset& fs) {
  for (const auto& f : fs.files()) {
    web::Request req;
    req.path = f.path;
    server.handle(req);
  }
}

}  // namespace gf::spec
