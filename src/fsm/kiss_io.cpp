#include "fsm/kiss_io.hpp"

#include <sstream>

namespace cl::fsm {

std::string write_kiss_string(const Stg& stg) {
  std::ostringstream out;
  out << ".i " << stg.num_inputs() << '\n';
  out << ".o " << stg.num_outputs() << '\n';
  out << ".p " << stg.num_transitions() << '\n';
  out << ".s " << stg.num_states() << '\n';
  out << ".r " << stg.state_name(stg.initial()) << '\n';
  for (int s = 0; s < stg.num_states(); ++s) {
    for (const Transition& t : stg.transitions_from(s)) {
      out << t.when.to_string(stg.num_inputs()) << ' ' << stg.state_name(t.from)
          << ' ' << stg.state_name(t.to) << ' ';
      for (int o = 0; o < stg.num_outputs(); ++o) {
        out << (((t.output >> o) & 1ULL) ? '1' : '0');
      }
      out << '\n';
    }
  }
  out << ".e\n";
  return out.str();
}

}  // namespace cl::fsm
