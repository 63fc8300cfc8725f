// Disassembler: renders instructions and whole images back to assembler
// syntax. Used by faultload reports ("original vs mutated code") and by the
// debugging examples.
#pragma once

#include <string>

#include "isa/image.h"
#include "isa/isa.h"

namespace gf::isa {

/// One instruction in assembler syntax (round-trips through assemble()).
std::string disassemble(const Instr& in);

/// Whole image: "addr: <symbol?>  text" per line.
std::string disassemble(const Image& img);

}  // namespace gf::isa
