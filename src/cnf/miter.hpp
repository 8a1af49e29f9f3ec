// Miter constructions for oracle-guided attacks and key verification, all
// on one HashedEncoder per formula.
//
// SequentialMiter: two unrolled copies of a locked circuit with independent
// static key vectors KA/KB but shared per-frame inputs, plus per-depth
// "outputs differ within d frames" indicator literals. Solving with the
// indicator assumed true yields a discriminating input sequence (DIS).
//
// EquivalenceMiter: a locked circuit under a fixed candidate key against the
// reference circuit, for bounded key verification.
//
// constrain_key_on_sequence: the oracle-consistency constraint — one
// unrolled copy with inputs fixed to a concrete sequence and outputs fixed to
// the oracle's response, evaluated under a given key vector or schedule.
#pragma once

#include <optional>
#include <vector>

#include "cnf/hashed_encoder.hpp"
#include "sim/compiled.hpp"
#include "sim/sequence.hpp"

namespace cl::cnf {

/// Two circuits unrolled side by side on one HashedEncoder over shared
/// per-frame primary inputs (matched positionally), with a per-depth "some
/// output differs within d frames" literal: the body both miters share.
/// Logic the copies compute alike lands on the same literals, so an output
/// both copies compute alike folds out of the diff. Each circuit is compiled
/// once, in the constructor (one program when both copies are the same
/// netlist), and every frame walks that program's gates in levelize order.
class MiterBase {
 public:
  /// Unroll both copies to `depth` frames.
  void extend_to(std::size_t depth);

  std::size_t depth() const { return cumulative_diff_.size(); }

  /// Literal that is true iff some output differs in frames [0, depth).
  /// Valid after extend_to(depth); may be either constant literal.
  sat::Lit diff_within(std::size_t depth) const;

  /// The encoder's constant literals.
  sat::Lit constant(bool value) const { return encoder_.constant(value); }

  /// Shared input variables of frame t.
  const std::vector<sat::Var>& inputs(std::size_t t) const { return inputs_.at(t); }

  /// After a Sat solve: the concrete input sequence of the first `depth`
  /// frames from the model.
  std::vector<sim::BitVec> extract_inputs(std::size_t depth) const;

 protected:
  /// One unrolled circuit: its program, key literals and the next frame's
  /// state.
  struct Copy {
    const sim::CompiledNetlist& prog;
    std::vector<sat::Lit> keys;
    std::vector<sat::Lit> state;
  };

  /// Throws std::invalid_argument when the circuits' input or output counts
  /// differ. The derived miter fills in both copies' keys and state.
  MiterBase(sat::Solver& solver, const netlist::Netlist& a,
            const netlist::Netlist& b);

  sat::Solver& solver_;
  HashedEncoder encoder_;
  sim::CompiledNetlist prog_a_;
  std::optional<sim::CompiledNetlist> prog_b_;  // empty when b is a
  Copy a_;
  Copy b_;

 private:
  std::vector<std::vector<sat::Var>> inputs_;  // per frame
  std::vector<sat::Lit> cumulative_diff_;      // per depth (index d-1)
};

class SequentialMiter : public MiterBase {
 public:
  /// `symbolic_initial_state`: model the reset state as unknown-but-shared
  /// between the two copies (the RANE threat model) instead of fixing it to
  /// the DFF power-up values.
  SequentialMiter(sat::Solver& solver, const netlist::Netlist& locked,
                  bool symbolic_initial_state = false);

  const std::vector<sat::Var>& keys_a() const { return keys_a_; }
  const std::vector<sat::Var>& keys_b() const { return keys_b_; }

  /// After a Sat solve: concrete key vector from the model (copy A or B).
  sim::BitVec extract_key_a() const;
  sim::BitVec extract_key_b() const;

  /// Shared symbolic reset-state variables (empty unless enabled).
  const std::vector<sat::Var>& initial_state_vars() const { return init_state_; }

 private:
  std::vector<sat::Var> keys_a_;
  std::vector<sat::Var> keys_b_;
  std::vector<sat::Var> init_state_;  // shared when symbolic
};

/// Cross-circuit bounded equivalence miter: circuit A under a fixed
/// candidate key against circuit B (the reference; must be key-free), with
/// shared per-frame primary inputs matched positionally. Used to verify
/// candidate keys exactly up to a bound.
///
/// The key is folded in as constants, so with a correct key a lock that only
/// adds key-controlled logic to a copy of B folds back onto B frame after
/// frame, and diff_within() is the constant false literal without any
/// solving. DFFs with an X power-up value get a fresh variable per circuit.
class EquivalenceMiter : public MiterBase {
 public:
  EquivalenceMiter(sat::Solver& solver, const netlist::Netlist& a,
                   const sim::BitVec& key, const netlist::Netlist& b);
};

/// Add the constraint: running `prog`'s netlist for inputs.size() cycles
/// from the reset state with key variables `key_vars` (held static) and the
/// given concrete input sequence produces exactly `outputs`. This is the
/// DIP-consistency clause set of the oracle-guided attack loop. When
/// `init_vars` is given, the run starts from those shared symbolic state
/// variables instead of the power-up values (RANE threat model).
///
/// The fact is encoded on its own HashedEncoder with the inputs as
/// constants, so only logic that depends on the key (or the symbolic reset
/// state) produces clauses; the response becomes unit clauses on the output
/// literals. Sources the solver has already fixed at decision level 0
/// (Solver::root_value) enter as constants too: the key and reset-state
/// literals when the fact starts, and each frame's next-state literals once
/// that frame's output units have propagated. The solver's clauses already
/// imply those values, so no verdict changes; the clause stream does, so a
/// search may return another of several consistent keys.
///
/// Throws std::invalid_argument, before adding anything, when the input and
/// output sequences differ in length or a frame's width differs from the
/// circuit's inputs or outputs.
///
/// The attacks compile the locked netlist once and pass the program for
/// every fact (OgEngine::compiled()).
void constrain_key_on_sequence(sat::Solver& solver,
                               const sim::CompiledNetlist& prog,
                               const std::vector<sat::Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<sat::Var>* init_vars = nullptr);

/// Same, with a periodic key schedule: cycle t runs under key variables
/// key_schedule[t % key_schedule.size()] (the static form is a schedule of
/// period 1).
void constrain_key_on_sequence(
    sat::Solver& solver, const sim::CompiledNetlist& prog,
    const std::vector<std::vector<sat::Var>>& key_schedule,
    const std::vector<sim::BitVec>& inputs,
    const std::vector<sim::BitVec>& outputs,
    const std::vector<sat::Var>* init_vars = nullptr);

/// The same two constraints on an uncompiled netlist: compile `nl`, then
/// forward. Each call pays the compile; callers adding many facts on one
/// circuit should compile once and use the overloads above.
void constrain_key_on_sequence(sat::Solver& solver, const netlist::Netlist& nl,
                               const std::vector<sat::Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<sat::Var>* init_vars = nullptr);
void constrain_key_on_sequence(
    sat::Solver& solver, const netlist::Netlist& nl,
    const std::vector<std::vector<sat::Var>>& key_schedule,
    const std::vector<sim::BitVec>& inputs,
    const std::vector<sim::BitVec>& outputs,
    const std::vector<sat::Var>* init_vars = nullptr);

/// Extract the model values of `vars` as a BitVec.
sim::BitVec extract_bits(const sat::Solver& solver,
                         const std::vector<sat::Var>& vars);

}  // namespace cl::cnf
