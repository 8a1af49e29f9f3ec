// Structurally hashed, constant-folding Tseitin encoder.
//
// Signals are literals of an and-xor graph: every netlist gate becomes
// two-input AND and XOR nodes with complemented edges (NOT and BUF cost
// nothing). Before a node gets a SAT variable, constants fold through it,
// trivial identities collapse (x&x, x&~x, x^x, ...) and its canonical
// operand pair is looked up in a structural hash. Logic encoded twice over
// the same source literals — in one frame, across frames, or across two
// circuits sharing inputs — therefore lands on one literal, and cones whose
// sources are constants vanish.
//
// Nodes get their variables and clauses eagerly, in encounter order, so the
// clause stream depends only on the order of calls.
//
// This is the library's one netlist-to-CNF path: the DIP miter, the oracle
// facts and the key-verification miter (cnf/miter.hpp) all build on it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace cl::cnf {

class HashedEncoder {
 public:
  /// Allocates the constant variable (one unit clause).
  explicit HashedEncoder(sat::Solver& solver);

  sat::Lit constant(bool value) const { return value ? true_ : ~true_; }

  /// Fresh unconstrained literal (a source of the graph).
  sat::Lit fresh();

  sat::Lit and2(sat::Lit a, sat::Lit b);
  sat::Lit or2(sat::Lit a, sat::Lit b) { return ~and2(~a, ~b); }
  sat::Lit xor2(sat::Lit a, sat::Lit b);
  /// sel ? b : a (the netlist's MUX fanin order).
  sat::Lit mux(sat::Lit sel, sat::Lit a, sat::Lit b);

  /// One combinational frame of `nl` over `order` (netlist::topo_order):
  /// returns a literal per signal. `inputs`, `keys` and `states` give the
  /// source literals, parallel to nl.inputs(), nl.key_inputs() and
  /// nl.dffs().
  std::vector<sat::Lit> encode_frame(const netlist::Netlist& nl,
                                     const std::vector<netlist::SignalId>& order,
                                     const std::vector<sat::Lit>& inputs,
                                     const std::vector<sat::Lit>& keys,
                                     const std::vector<sat::Lit>& states);

  /// The DFFs' power-up state, parallel to nl.dffs(): a constant per 0/1
  /// power-up value and a fresh literal per X.
  std::vector<sat::Lit> power_up_state(const netlist::Netlist& nl);

  /// One time frame of an unrolling: encode_frame over `state`, then advance
  /// `state` to the frame's next-state literals (the DFF D pins).
  std::vector<sat::Lit> unroll_frame(const netlist::Netlist& nl,
                                     const std::vector<netlist::SignalId>& order,
                                     const std::vector<sat::Lit>& inputs,
                                     const std::vector<sat::Lit>& keys,
                                     std::vector<sat::Lit>& state);

 private:
  bool is_constant(sat::Lit l) const { return l.var() == true_.var(); }
  static std::uint64_t pair_key(sat::Lit a, sat::Lit b);

  sat::Solver& solver_;
  sat::Lit true_;
  std::unordered_map<std::uint64_t, sat::Lit> and_nodes_;
  std::unordered_map<std::uint64_t, sat::Lit> xor_nodes_;
};

}  // namespace cl::cnf
