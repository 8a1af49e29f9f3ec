// Core SAT types shared by the solver and the clause arena: variables,
// literals, solver results, tri-state values. Split out of solver.hpp so
// sat/arena.hpp can be included without pulling in the whole solver.
#pragma once

#include <cstdint>

namespace cl::sat {

/// 0-based variable index.
using Var = std::int32_t;

/// Literal: encodes (variable, sign) as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {}

  static Lit from_code(std::int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  Var var() const { return code_ >> 1; }
  bool negated() const { return code_ & 1; }
  Lit operator~() const { return from_code(code_ ^ 1); }
  std::int32_t code() const { return code_; }

  bool operator==(const Lit& o) const = default;
  bool operator<(const Lit& o) const { return code_ < o.code_; }

 private:
  std::int32_t code_;
};

inline Lit pos(Var v) { return Lit(v, false); }
inline Lit neg(Var v) { return Lit(v, true); }

enum class Result : std::uint8_t { Sat, Unsat, Unknown };

/// Tri-state assignment value.
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

}  // namespace cl::sat
