#include "swfit/fault_types.h"

#include <stdexcept>

namespace gf::swfit {

namespace {
// Table 1 of the paper (coverage numbers from the field study of
// Durães & Madeira, DSN 2003).
constexpr FaultTypeInfo kTable[] = {
    {FaultType::kMVI, "MVI", "Missing variable initialization",
     OdcClass::kAssignment, ConstructNature::kMissing, 2.25},
    {FaultType::kMVAV, "MVAV", "Missing variable assignment using a value",
     OdcClass::kAssignment, ConstructNature::kMissing, 2.25},
    {FaultType::kMVAE, "MVAE", "Missing variable assignment using an expression",
     OdcClass::kAssignment, ConstructNature::kMissing, 3.0},
    {FaultType::kMIA, "MIA", "Missing \"if (cond)\" surrounding statement(s)",
     OdcClass::kChecking, ConstructNature::kMissing, 4.32},
    {FaultType::kMLAC, "MLAC",
     "Missing \"AND EXPR\" in expression used as branch condition",
     OdcClass::kChecking, ConstructNature::kMissing, 7.89},
    {FaultType::kMFC, "MFC", "Missing function call", OdcClass::kAlgorithm,
     ConstructNature::kMissing, 8.64},
    {FaultType::kMIFS, "MIFS", "Missing \"If (cond) { statement(s) }\"",
     OdcClass::kAlgorithm, ConstructNature::kMissing, 9.96},
    {FaultType::kMLPC, "MLPC", "Missing small and localized part of the algorithm",
     OdcClass::kAlgorithm, ConstructNature::kMissing, 3.19},
    {FaultType::kWVAV, "WVAV", "Wrong value assigned to a value",
     OdcClass::kAssignment, ConstructNature::kWrong, 2.44},
    {FaultType::kWLEC, "WLEC",
     "Wrong logical expression used as branch condition", OdcClass::kChecking,
     ConstructNature::kWrong, 3.0},
    {FaultType::kWAEP, "WAEP",
     "Wrong arithmetic expression used in parameter of function call",
     OdcClass::kInterface, ConstructNature::kWrong, 2.25},
    {FaultType::kWPFV, "WPFV",
     "Wrong variable used in parameter of function call", OdcClass::kInterface,
     ConstructNature::kWrong, 1.5},
};
static_assert(sizeof(kTable) / sizeof(kTable[0]) == kNumFaultTypes);
}  // namespace

std::span<const FaultTypeInfo> fault_type_table() { return kTable; }

const FaultTypeInfo& fault_type_info(FaultType t) {
  for (const auto& info : kTable) {
    if (info.type == t) return info;
  }
  throw std::out_of_range("unknown fault type");
}

const char* fault_type_name(FaultType t) { return fault_type_info(t).name; }

const char* odc_class_name(OdcClass c) {
  switch (c) {
    case OdcClass::kAssignment: return "Assignment";
    case OdcClass::kChecking: return "Checking";
    case OdcClass::kAlgorithm: return "Algorithm";
    case OdcClass::kInterface: return "Interface";
    case OdcClass::kFunction: return "Function";
  }
  return "?";
}

std::optional<FaultType> parse_fault_type(const std::string& name) {
  for (const auto& info : kTable) {
    if (name == info.name) return info.type;
  }
  return std::nullopt;
}

double total_field_coverage() {
  double sum = 0.0;
  for (const auto& info : kTable) sum += info.field_coverage;
  return sum;
}

}  // namespace gf::swfit
