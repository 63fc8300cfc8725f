#include "spec/fileset.h"

#include <cstdio>
#include <stdexcept>

#include "web/http.h"

namespace gf::spec {

std::size_t Fileset::file_size(int size_class, int j) {
  switch (size_class) {
    case 0: return static_cast<std::size_t>(256 * (j + 1));        // ~1 KiB
    case 1: return static_cast<std::size_t>(3584 * (j + 1));       // ~17.5 KiB
    case 2: return static_cast<std::size_t>(6 * 1024 * (j + 1));   // ~30 KiB
    default: return web::kMaxBody;                                  // capped
  }
}

const std::vector<double>& Fileset::class_weights() {
  static const std::vector<double> kWeights = {35.0, 50.0, 14.0, 1.0};
  return kWeights;
}

Fileset::Fileset(os::SimDisk& disk, const FilesetConfig& cfg, bool populate) {
  by_class_.resize(4);
  for (int d = 0; d < cfg.num_dirs; ++d) {
    for (int c = 0; c < 4; ++c) {
      for (int j = 0; j < cfg.files_per_class; ++j) {
        char path[64];
        std::snprintf(path, sizeof path, "/file_set/dir%05d/class%d_%d", d, c, j);
        const auto size = file_size(c, j);
        // Servers serve at most kMaxBody bytes (web::append_body).
        if (size > web::kMaxBody) {
          throw std::invalid_argument(std::string("fileset file larger than "
                                                  "web::kMaxBody: ") + path);
        }
        if (populate) {
          std::vector<std::uint8_t> content(size);
          web::fill_expected_content(web::path_seed(path), content);
          disk.add_file(path, std::move(content));
        }
        by_class_[static_cast<std::size_t>(c)].push_back(files_.size());
        files_.push_back({path, size, c});
      }
    }
  }
  if (!populate) return;  // content already on the snapshot's disk
  // Server support files.
  disk.add_file("/conf/httpd.conf", std::vector<std::uint8_t>(512, 0x23));
  disk.create("/logs/apex.post");
  disk.create("/logs/abyssal.post");
  disk.create("/logs/sambar.post");
  disk.create("/logs/savant.post");
}

double Fileset::mean_file_size() const {
  // Expected transfer size under the class access mix with uniform choice
  // within a class.
  const auto& w = class_weights();
  double total_w = 0.0, mean = 0.0;
  for (int c = 0; c < 4; ++c) {
    const auto& members = by_class_[static_cast<std::size_t>(c)];
    if (members.empty()) continue;
    double class_mean = 0.0;
    for (const auto idx : members) class_mean += static_cast<double>(files_[idx].size);
    class_mean /= static_cast<double>(members.size());
    mean += w[static_cast<std::size_t>(c)] * class_mean;
    total_w += w[static_cast<std::size_t>(c)];
  }
  return total_w > 0 ? mean / total_w : 0.0;
}

}  // namespace gf::spec
