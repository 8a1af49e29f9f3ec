// Miter constructions for oracle-guided attacks.
//
// SequentialMiter: two unrolled copies of a locked circuit with independent
// static key vectors KA/KB but shared per-frame inputs, plus per-depth
// "outputs differ within d frames" indicator variables. Solving with the
// indicator assumed true yields a discriminating input sequence (DIS).
//
// constrain_key_on_sequence: the oracle-consistency constraint — one fresh
// unrolled copy with inputs fixed to a concrete sequence and outputs fixed to
// the oracle's response, evaluated under a given key vector.
#pragma once

#include <vector>

#include "cnf/hashed_encoder.hpp"
#include "cnf/unroller.hpp"
#include "sim/sequence.hpp"

namespace cl::cnf {

class SequentialMiter {
 public:
  /// `symbolic_initial_state`: model the reset state as unknown-but-shared
  /// between the two copies (the RANE threat model) instead of fixing it to
  /// the DFF power-up values.
  SequentialMiter(sat::Solver& solver, const netlist::Netlist& locked,
                  bool symbolic_initial_state = false);

  /// Unroll both copies to `depth` frames.
  void extend_to(std::size_t depth);

  std::size_t depth() const { return frames_a_.size(); }

  /// Literal that is true iff some output differs in frames [0, depth).
  /// Valid after extend_to(depth).
  sat::Lit diff_within(std::size_t depth) const;

  const std::vector<sat::Var>& keys_a() const { return keys_a_; }
  const std::vector<sat::Var>& keys_b() const { return keys_b_; }

  /// Shared input variables of frame t.
  const std::vector<sat::Var>& inputs(std::size_t t) const { return inputs_.at(t); }

  /// After a Sat solve: the concrete input sequence of the first `depth`
  /// frames from the model.
  std::vector<sim::BitVec> extract_inputs(std::size_t depth) const;

  /// After a Sat solve: concrete key vector from the model (copy A or B).
  sim::BitVec extract_key_a() const;
  sim::BitVec extract_key_b() const;

  /// Shared symbolic reset-state variables (empty unless enabled).
  const std::vector<sat::Var>& initial_state_vars() const { return init_state_; }

 private:
  sat::Solver& solver_;
  const netlist::Netlist& nl_;
  std::vector<netlist::SignalId> order_;  // levelized once, reused per frame
  bool symbolic_init_;
  std::vector<sat::Var> keys_a_;
  std::vector<sat::Var> keys_b_;
  std::vector<sat::Var> init_state_;            // shared when symbolic
  std::vector<std::vector<sat::Var>> inputs_;   // per frame
  std::vector<FrameVars> frames_a_;
  std::vector<FrameVars> frames_b_;
  std::vector<sat::Var> frame_diff_;            // per frame
  std::vector<sat::Var> cumulative_diff_;       // per depth (index d-1)
};

/// Cross-circuit bounded equivalence miter: circuit A under a fixed
/// candidate key against circuit B (the reference; must be key-free), with
/// shared per-frame primary inputs matched positionally. Used to verify
/// candidate keys exactly up to a bound.
///
/// Both circuits are encoded into one HashedEncoder with the key folded in
/// as constants, so logic A shares with B lands on the same literals: with a
/// correct key, a lock that only adds key-controlled logic to a copy of B
/// folds back onto B frame after frame, and diff_within() is the constant
/// false literal without any solving. DFFs with an X power-up value get a
/// fresh variable per circuit.
class EquivalenceMiter {
 public:
  EquivalenceMiter(sat::Solver& solver, const netlist::Netlist& a,
                   const sim::BitVec& key, const netlist::Netlist& b);

  void extend_to(std::size_t depth);
  std::size_t depth() const { return cumulative_diff_.size(); }

  /// Literal: some output differs within [0, depth).
  sat::Lit diff_within(std::size_t depth) const;

  /// The encoder's constant literals (diff_within() may fold to either).
  sat::Lit constant(bool value) const { return encoder_.constant(value); }

  /// After Sat: the distinguishing input sequence.
  std::vector<sim::BitVec> extract_inputs(std::size_t depth) const;

 private:
  std::vector<sat::Lit> initial_state(const netlist::Netlist& nl);

  sat::Solver& solver_;
  const netlist::Netlist& a_;
  const netlist::Netlist& b_;
  HashedEncoder encoder_;
  std::vector<netlist::SignalId> order_a_;  // levelized once per circuit
  std::vector<netlist::SignalId> order_b_;
  std::vector<sat::Lit> keys_a_;             // constants
  std::vector<sat::Lit> state_a_;            // next frame's state literals
  std::vector<sat::Lit> state_b_;
  std::vector<std::vector<sat::Var>> inputs_;  // per frame
  std::vector<sat::Lit> cumulative_diff_;      // per depth (index d-1)
};

/// Add the constraint: running `nl` for inputs.size() cycles from the reset
/// state with key variables `key_vars` (held static) and the given concrete
/// input sequence produces exactly `outputs`. This is the DIP-consistency
/// clause set of the oracle-guided attack loop. When `init_vars` is given,
/// the run starts from those shared symbolic state variables instead of the
/// power-up constants (RANE threat model).
void constrain_key_on_sequence(sat::Solver& solver, const netlist::Netlist& nl,
                               const std::vector<sat::Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<sat::Var>* init_vars = nullptr);

/// Extract the model values of `vars` as a BitVec.
sim::BitVec extract_bits(const sat::Solver& solver,
                         const std::vector<sat::Var>& vars);

}  // namespace cl::cnf
