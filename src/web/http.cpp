#include "web/http.h"

namespace gf::web {

std::uint64_t path_seed(const std::string& path) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : path) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::vector<std::uint8_t> expected_body(const std::string& path, std::size_t size,
                                        bool dynamic) {
  std::vector<std::uint8_t> out(size);
  fill_expected_content(path_seed(path), out);
  if (dynamic) apply_dynamic_transform(out);
  return out;
}

const char* method_name(Method m) noexcept {
  return m == Method::kGet ? "GET" : "POST";
}

}  // namespace gf::web
