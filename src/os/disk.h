// SimDisk — the in-memory block device behind the VOS filesystem calls.
//
// All *policy* (handle validation, positions, buffer copies) lives in the
// MiniC OS code where it can be fault-injected; SimDisk is the raw device
// the kernel intrinsics expose. It deliberately has no notion of handles.
//
// File content is copy-on-write: copying a SimDisk (one copy per campaign
// task, cloned from the shared warm-boot snapshot) shares the content
// buffers, and a writer detaches only the file it mutates. Workload filesets
// are hundreds of KiB that iterations mostly read, so task startup stays
// O(files) instead of O(bytes).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gf::os {

class SimDisk {
 public:
  /// Returns the file id, or nullopt if the path does not exist.
  std::optional<int> find(const std::string& path) const;

  /// Creates (or truncates) a file; returns its id.
  int create(const std::string& path);

  /// Adds a file with content (population helper for workload filesets).
  int add_file(const std::string& path, std::vector<std::uint8_t> content);

  std::optional<std::int64_t> size(int id) const;

  /// Reads up to `len` bytes at `offset`, in place (empty at EOF), or
  /// nullopt for a bad id/offset or a negative length. Valid until the file
  /// is next written or truncated.
  std::optional<std::span<const std::uint8_t>> view(int id, std::int64_t offset,
                                                    std::int64_t len) const;

  /// Writes, extending the file as needed; returns bytes written.
  std::optional<std::int64_t> write(int id, std::int64_t offset,
                                    const std::uint8_t* src, std::int64_t len);

  /// Content access for test assertions.
  const std::vector<std::uint8_t>* content(const std::string& path) const;

  /// Same files (paths, ids) with the same bytes — shared buffers compare
  /// without a byte walk.
  bool operator==(const SimDisk& other) const;

 private:
  /// Returns a uniquely-owned buffer for `id`, cloning first when the
  /// content is still shared with other disks (the copy-on-write fault).
  std::vector<std::uint8_t>& detach(std::size_t id);

  std::vector<std::shared_ptr<std::vector<std::uint8_t>>> files_;
  std::map<std::string, int> index_;
  std::vector<std::string> names_;
};

}  // namespace gf::os
