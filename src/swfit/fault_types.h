// The software fault model: the 12 representative fault types of the
// paper's Table 1, with their ODC classes and field-data coverage.
//
// The classification follows the paper's extension of Orthogonal Defect
// Classification: a fault is a programming-language construct that is
// Missing, Wrong, or Extraneous; each is further typed by the ODC class of
// the construct. Extraneous faults are excluded (negligible field share).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace gf::swfit {

enum class FaultType : std::uint8_t {
  kMVI,   ///< Missing variable initialization
  kMVAV,  ///< Missing variable assignment using a value
  kMVAE,  ///< Missing variable assignment using an expression
  kMIA,   ///< Missing "if (cond)" surrounding statement(s)
  kMLAC,  ///< Missing "AND EXPR" in branch condition
  kMFC,   ///< Missing function call
  kMIFS,  ///< Missing "if (cond) { statement(s) }"
  kMLPC,  ///< Missing small and localized part of the algorithm
  kWVAV,  ///< Wrong value assigned to a variable
  kWLEC,  ///< Wrong logical expression used as branch condition
  kWAEP,  ///< Wrong arithmetic expression in function call parameter
  kWPFV,  ///< Wrong variable used in function call parameter
};

inline constexpr int kNumFaultTypes = 12;

enum class OdcClass : std::uint8_t {
  kAssignment,
  kChecking,
  kAlgorithm,
  kInterface,
  kFunction,  ///< only used by the synthetic field study's "other" records
};

enum class ConstructNature : std::uint8_t { kMissing, kWrong, kExtraneous };

/// Static description of one fault type (one row of Table 1).
struct FaultTypeInfo {
  FaultType type;
  const char* name;         ///< acronym, e.g. "MIFS"
  const char* description;  ///< Table 1 wording
  OdcClass odc;
  ConstructNature nature;
  double field_coverage;  ///< % of all field faults (Table 1)
};

/// All 12 fault types in Table 1 order.
std::span<const FaultTypeInfo> fault_type_table();

const FaultTypeInfo& fault_type_info(FaultType t);

const char* fault_type_name(FaultType t);
const char* odc_class_name(OdcClass c);

/// Parses an acronym ("MIFS"); nullopt for unknown strings.
std::optional<FaultType> parse_fault_type(const std::string& name);

/// Sum of field_coverage over all 12 types (the paper's 50.69%).
double total_field_coverage();

}  // namespace gf::swfit
