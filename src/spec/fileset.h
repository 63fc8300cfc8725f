// SPECWeb99-style file set.
//
// SPECWeb99 organizes its document tree into directories of files in four
// size classes with a fixed access mix (class popularity 35/50/14/1). We
// keep that structure but scale absolute sizes down (largest class 64 KiB
// instead of ~1 MB) so a full dependability campaign stays laptop-sized;
// the DESIGN.md substitution table documents this.
//
// Every file's content is the deterministic function of its path defined in
// web/http.h, which is what lets the client check served bytes (a sample:
// first, last and every 17th byte) without keeping a copy of the file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "os/disk.h"

namespace gf::spec {

struct FilesetConfig {
  int num_dirs = 4;
  int files_per_class = 9;  // SPECWeb99 layout
};

struct FileInfo {
  std::string path;
  std::size_t size = 0;
  int size_class = 0;  // 0..3
};

class Fileset {
 public:
  /// Populates `disk` with the document tree (and the /logs, /conf files
  /// the servers expect). With populate == false only the metadata
  /// (files()/class_members()) is rebuilt and the disk is untouched — used
  /// when the disk content already comes from a warm-boot snapshot.
  /// Throws std::invalid_argument when `cfg` lays out a file larger than
  /// web::kMaxBody, which no server could serve whole.
  Fileset(os::SimDisk& disk, const FilesetConfig& cfg = {}, bool populate = true);

  const std::vector<FileInfo>& files() const noexcept { return files_; }
  /// Files of one size class.
  const std::vector<std::size_t>& class_members(int size_class) const {
    return by_class_[static_cast<std::size_t>(size_class)];
  }

  /// SPECWeb99 class access weights (35/50/14/1).
  static const std::vector<double>& class_weights();

  /// Size of a class-`c`, index-`j` file (deterministic layout rule).
  static std::size_t file_size(int size_class, int j);

  double mean_file_size() const;

 private:
  std::vector<FileInfo> files_;
  std::vector<std::vector<std::size_t>> by_class_;
};

}  // namespace gf::spec
