#include "os/disk.h"

#include <algorithm>
#include <cstring>

namespace gf::os {

std::optional<int> SimDisk::find(const std::string& path) const {
  const auto it = index_.find(path);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint8_t>& SimDisk::detach(std::size_t id) {
  auto& slot = files_[id];
  // use_count == 1 means no other disk shares this buffer; mutate in place.
  if (slot.use_count() != 1) slot = std::make_shared<std::vector<std::uint8_t>>(*slot);
  return *slot;
}

int SimDisk::create(const std::string& path) {
  const auto it = index_.find(path);
  if (it != index_.end()) {
    // Truncation must not clear a buffer other disks still read.
    files_[static_cast<std::size_t>(it->second)] =
        std::make_shared<std::vector<std::uint8_t>>();
    return it->second;
  }
  const int id = static_cast<int>(files_.size());
  files_.push_back(std::make_shared<std::vector<std::uint8_t>>());
  names_.push_back(path);
  index_[path] = id;
  return id;
}

int SimDisk::add_file(const std::string& path, std::vector<std::uint8_t> content) {
  const int id = create(path);
  files_[static_cast<std::size_t>(id)] =
      std::make_shared<std::vector<std::uint8_t>>(std::move(content));
  return id;
}

std::optional<std::int64_t> SimDisk::size(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= files_.size()) return std::nullopt;
  return static_cast<std::int64_t>(files_[static_cast<std::size_t>(id)]->size());
}

std::optional<std::span<const std::uint8_t>> SimDisk::view(
    int id, std::int64_t offset, std::int64_t len) const {
  if (id < 0 || static_cast<std::size_t>(id) >= files_.size()) return std::nullopt;
  if (offset < 0 || len < 0) return std::nullopt;
  const auto& f = *files_[static_cast<std::size_t>(id)];
  if (static_cast<std::size_t>(offset) >= f.size()) {
    return std::span<const std::uint8_t>{};
  }
  const auto n = std::min<std::int64_t>(len, static_cast<std::int64_t>(f.size()) - offset);
  return std::span<const std::uint8_t>(f.data() + offset, static_cast<std::size_t>(n));
}

std::optional<std::int64_t> SimDisk::write(int id, std::int64_t offset,
                                           const std::uint8_t* src, std::int64_t len) {
  if (id < 0 || static_cast<std::size_t>(id) >= files_.size()) return std::nullopt;
  if (offset < 0 || len < 0) return std::nullopt;
  auto& f = detach(static_cast<std::size_t>(id));
  const auto end = static_cast<std::size_t>(offset + len);
  if (end > f.size()) f.resize(end, 0);
  if (len > 0) std::memcpy(f.data() + offset, src, static_cast<std::size_t>(len));
  return len;
}

const std::vector<std::uint8_t>* SimDisk::content(const std::string& path) const {
  const auto id = find(path);
  if (!id) return nullptr;
  return files_[static_cast<std::size_t>(*id)].get();
}

bool SimDisk::operator==(const SimDisk& other) const {
  if (names_ != other.names_) return false;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i] != other.files_[i] && *files_[i] != *other.files_[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace gf::os
