// Minimal HTTP-like request/response model for the simulated web servers.
//
// The SPECWeb99-style client validates responses by *content*: every file in
// the workload file set has deterministic content derived from its path
// (expected_content_byte), so a served body can be checked against it
// without keeping copies — corrupted OS state (e.g. a trashed heap) shows up
// as content errors, exactly the error channel ER% measures in the paper.
// The client samples the body (first and last bytes plus every 17th byte;
// see spec::SpecClient::validate).
//
// The content kernels below are header-inline on purpose: every per-byte
// loop on the serving path (the servers' dynamic-GET transform, Fileset's
// populate loop, expected_body, the client's checks) must compile to a
// vectorisable loop, not one call per byte.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gf::web {

enum class Method : std::uint8_t { kGet, kPost };

struct Request {
  Method method = Method::kGet;
  std::string path;     ///< request target, e.g. "/file_set/dir00001/class1_3"
  bool dynamic = false; ///< dynamic GET (CGI-style transform)
  std::string body;     ///< POST payload
};

struct Response {
  int status = 0;  ///< 200, 404, 500
  std::vector<std::uint8_t> body;
};

/// Largest file a server serves (spec::Fileset's largest class). Servers
/// read until the body reaches it; append_body (web/server.h) caps a body
/// one byte past it.
inline constexpr std::size_t kMaxBody = 64 * 1024;

/// Deterministic content function for workload files: byte i of the file at
/// `path` is expected_content_byte(path_seed(path), i).
std::uint64_t path_seed(const std::string& path);

constexpr std::uint8_t expected_content_byte(std::uint64_t seed,
                                             std::size_t i) noexcept {
  return static_cast<std::uint8_t>(seed + i * 31);
}

/// The dynamic-GET transform applied by servers (and re-applied by the
/// client for validation).
constexpr std::uint8_t dynamic_transform(std::uint8_t b) noexcept {
  return static_cast<std::uint8_t>(b ^ 0x5A);
}

/// Fills `out` with the first out.size() content bytes of the file whose
/// seed is `seed`. Byte arithmetic is mod 256, so stepping a byte by 31 is
/// expected_content_byte's formula, in a form the compiler vectorises.
inline void fill_expected_content(std::uint64_t seed,
                                  std::span<std::uint8_t> out) noexcept {
  auto v = expected_content_byte(seed, 0);
  for (auto& b : out) {
    b = v;
    v = static_cast<std::uint8_t>(v + 31);
  }
}

/// Applies dynamic_transform to every byte of `bytes` in place.
inline void apply_dynamic_transform(std::span<std::uint8_t> bytes) noexcept {
  for (auto& b : bytes) b = dynamic_transform(b);
}

/// Builds the full expected body for a file of `size` bytes.
std::vector<std::uint8_t> expected_body(const std::string& path, std::size_t size,
                                        bool dynamic);

const char* method_name(Method m) noexcept;

}  // namespace gf::web
