// Faultload representation and serialization.
//
// A faultload is the paper's deliverable: a repeatable, portable set of
// fault locations for one exact target module version. Serialization embeds
// the target's code digest so a faultload can never be applied to a
// different build of the module (the paper's faultloads are OS-version
// specific for the same reason).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/image.h"
#include "swfit/fault_types.h"

namespace gf::swfit {

/// One injectable fault: a contiguous instruction window and its mutated
/// form. original.size() == mutated.size() always (in-place patching).
struct FaultLocation {
  FaultType type = FaultType::kMVI;
  std::string function;     ///< symbol the window belongs to
  std::uint64_t addr = 0;   ///< absolute address of the first instruction
  std::vector<isa::Instr> original;
  std::vector<isa::Instr> mutated;

  std::size_t window() const noexcept { return original.size(); }
};

class FaultloadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Faultload {
  std::string target;        ///< image name (e.g. "vos-VOS-XP")
  std::uint64_t digest = 0;  ///< pristine code digest of the target
  std::vector<FaultLocation> faults;

  /// Faults per fault type, Table 1 order (the paper's Table 3 row).
  std::array<int, kNumFaultTypes> counts_by_type() const;

  /// Line-oriented text format (stable, diff-friendly).
  std::string serialize() const;
  static Faultload parse(const std::string& text);

  /// True when this faultload was generated from exactly this image build.
  bool matches(const isa::Image& img) const;
  /// Same check against a precomputed code digest (Kernel::pristine_digest)
  /// — avoids re-hashing an image that never changes.
  bool matches(std::uint64_t code_digest, const std::string& image_name) const;
};

}  // namespace gf::swfit
