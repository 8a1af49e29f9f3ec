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
// The structural hash is one flat open-addressing table (power-of-two slots,
// linear probing) keyed by the canonical operand pair, with AND and XOR keys
// tagged apart; frames walk a sim::CompiledNetlist's gates in levelize
// order. Encoding a node therefore allocates nothing beyond the occasional
// table doubling and the solver's own clause storage.
//
// An oracle fact's frames have constant inputs, so most of their gates read
// constants only. A Buf, Not, two-input or Mux gate whose operands are all
// constants takes its output from its opcode's truth table: the constant
// the primitives below would return, with no variable, clause, opcode
// switch or hash probe. Other gates, N-ary ones included, go through the
// primitives. The walk order, and with it the variable numbering and the
// clause stream, is the same either way.
//
// This is the library's one netlist-to-CNF path: the DIP miter, the oracle
// facts and the key-verification miter (cnf/miter.hpp) all build on it.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/solver.hpp"
#include "sim/compiled.hpp"

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

  /// One combinational frame of `prog`'s netlist, gates in the program's
  /// levelize order (all-constant gates through the truth tables, see the
  /// file comment): returns a literal per slot (signal s's literal is at
  /// prog.slot(s)). `inputs`, `keys` and `states` give the source literals,
  /// parallel to prog.inputs(), prog.key_inputs() and prog.dff_qs().
  std::vector<sat::Lit> encode_frame(const sim::CompiledNetlist& prog,
                                     const std::vector<sat::Lit>& inputs,
                                     const std::vector<sat::Lit>& keys,
                                     const std::vector<sat::Lit>& states);

  /// The DFFs' power-up state, parallel to prog.dff_qs(): a constant per 0/1
  /// power-up value and a fresh literal per X.
  std::vector<sat::Lit> power_up_state(const sim::CompiledNetlist& prog);

  /// One time frame of an unrolling: encode_frame over `state`, then advance
  /// `state` to the frame's next-state literals (the DFF D pins).
  std::vector<sat::Lit> unroll_frame(const sim::CompiledNetlist& prog,
                                     const std::vector<sat::Lit>& inputs,
                                     const std::vector<sat::Lit>& keys,
                                     std::vector<sat::Lit>& state);

 private:
  /// One structural-hash slot; key 0 marks it empty (no AND key is 0, since
  /// its operands differ, and every XOR key carries the tag bit).
  struct Slot {
    std::uint64_t key = 0;
    sat::Lit node;
  };

  bool is_constant(sat::Lit l) const { return l.var() == true_.var(); }
  /// The slot holding `key`, claimed (and `inserted` set) when absent. The
  /// reference stays valid until the next call.
  sat::Lit& node_slot(std::uint64_t key, bool& inserted);
  void grow();

  sat::Solver& solver_;
  sat::Lit true_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t used_ = 0;
  int shift_ = 0;            // 64 - log2(slots_.size())
};

}  // namespace cl::cnf
