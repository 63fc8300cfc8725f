#include "spec/workload.h"

#include <map>

namespace gf::spec {

namespace {
int count_dirs(const Fileset& fs) {
  int max_dir = 0;
  for (const auto& f : fs.files()) {
    // Paths look like /file_set/dirNNNNN/classC_J.
    const auto pos = f.path.find("/dir");
    if (pos == std::string::npos) continue;
    max_dir = std::max(max_dir, std::stoi(f.path.substr(pos + 4, 5)));
  }
  return max_dir + 1;
}
}  // namespace

WorkloadGenerator::WorkloadGenerator(const Fileset& fs, std::uint64_t seed,
                                     WorkloadMix mix)
    : fs_(fs),
      rng_(seed),
      mix_(mix),
      dir_zipf_(static_cast<std::size_t>(count_dirs(fs)), 1.0) {
  for (const auto& f : fs.files()) sizes_[f.path] = f.size;
}

web::Request WorkloadGenerator::next() {
  web::Request req;
  const auto kind = rng_.weighted({mix_.static_get, mix_.dynamic_get, mix_.post});
  req.method = kind == 2 ? web::Method::kPost : web::Method::kGet;
  req.dynamic = kind == 1;

  // Pick a directory (Zipf), then a class (SPECWeb99 mix), then a file.
  const auto dir = dir_zipf_.sample(rng_);
  const auto size_class = static_cast<int>(rng_.weighted(Fileset::class_weights()));
  const auto& members = fs_.class_members(size_class);
  // Files are laid out dir-major: dir * files_per_class consecutive entries
  // per class. Index into this directory's slice of the class.
  const auto per_dir = members.size() / dir_zipf_.size();
  const auto j = rng_.bounded(per_dir);
  const auto file_index = members[dir * per_dir + j];
  req.path = fs_.files()[file_index].path;

  if (req.method == web::Method::kPost) {
    // On-line registration style payload.
    const auto len = 200 + rng_.bounded(400);
    req.body.assign(len, 0);
    for (auto& c : req.body) {
      c = static_cast<char>('a' + rng_.bounded(26));
    }
    req.dynamic = false;
  }
  return req;
}

std::size_t WorkloadGenerator::size_of(const std::string& path) const {
  const auto it = sizes_.find(path);
  return it == sizes_.end() ? 0 : it->second;
}

}  // namespace gf::spec
