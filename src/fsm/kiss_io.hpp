// KISS2 FSM format writer (the format used by the classic LGSynth / MCNC FSM
// benchmark suites).
//
//   .i <inputs>   .o <outputs>   .p <terms>   .s <states>   .r <reset>
//   <input-cube> <from> <to> <output-bits>
//   .e
#pragma once

#include <string>

#include "fsm/stg.hpp"

namespace cl::fsm {

std::string write_kiss_string(const Stg& stg);

}  // namespace cl::fsm
