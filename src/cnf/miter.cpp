#include "cnf/miter.hpp"

#include <stdexcept>

namespace cl::cnf {

using netlist::Netlist;
using sat::Lit;
using sat::Solver;
using sat::Var;

namespace {

std::vector<Lit> positive(const std::vector<Var>& vars) {
  std::vector<Lit> lits;
  lits.reserve(vars.size());
  for (const Var v : vars) lits.push_back(sat::pos(v));
  return lits;
}

}  // namespace

MiterBase::MiterBase(Solver& solver, const Netlist& a, const Netlist& b)
    : solver_(solver),
      encoder_(solver),
      prog_a_(a),
      prog_b_(&a == &b ? std::nullopt
                       : std::make_optional<sim::CompiledNetlist>(b)),
      a_{prog_a_, {}, {}},
      b_{prog_b_ ? *prog_b_ : prog_a_, {}, {}} {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("miter: interface mismatch");
  }
}

void MiterBase::extend_to(std::size_t depth) {
  const std::size_t num_inputs = a_.prog.inputs().size();
  while (cumulative_diff_.size() < depth) {
    std::vector<Var> ins;
    std::vector<Lit> in_lits;
    ins.reserve(num_inputs);
    in_lits.reserve(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      in_lits.push_back(encoder_.fresh());
      ins.push_back(in_lits.back().var());
    }
    inputs_.push_back(std::move(ins));

    const std::vector<Lit> fa =
        encoder_.unroll_frame(a_.prog, in_lits, a_.keys, a_.state);
    const std::vector<Lit> fb =
        encoder_.unroll_frame(b_.prog, in_lits, b_.keys, b_.state);
    Lit diff = encoder_.constant(false);
    for (std::size_t o = 0; o < a_.prog.outputs().size(); ++o) {
      diff = encoder_.or2(diff, encoder_.xor2(fa[a_.prog.outputs()[o]],
                                               fb[b_.prog.outputs()[o]]));
    }
    cumulative_diff_.push_back(cumulative_diff_.empty()
                                   ? diff
                                   : encoder_.or2(cumulative_diff_.back(), diff));
  }
}

Lit MiterBase::diff_within(std::size_t depth) const {
  if (depth == 0 || depth > cumulative_diff_.size()) {
    throw std::out_of_range("diff_within: depth not unrolled");
  }
  return cumulative_diff_[depth - 1];
}

std::vector<sim::BitVec> MiterBase::extract_inputs(std::size_t depth) const {
  std::vector<sim::BitVec> out;
  out.reserve(depth);
  for (std::size_t t = 0; t < depth; ++t) {
    out.push_back(extract_bits(solver_, inputs_[t]));
  }
  return out;
}

SequentialMiter::SequentialMiter(Solver& solver, const Netlist& locked,
                                 bool symbolic_initial_state)
    : MiterBase(solver, locked, locked) {
  keys_a_.reserve(locked.key_inputs().size());
  keys_b_.reserve(locked.key_inputs().size());
  for (std::size_t i = 0; i < locked.key_inputs().size(); ++i) {
    keys_a_.push_back(encoder_.fresh().var());
    keys_b_.push_back(encoder_.fresh().var());
  }
  a_.keys = positive(keys_a_);
  b_.keys = positive(keys_b_);
  if (symbolic_initial_state) {
    init_state_.reserve(locked.dffs().size());
    for (std::size_t i = 0; i < locked.dffs().size(); ++i) {
      init_state_.push_back(encoder_.fresh().var());
    }
    a_.state = positive(init_state_);
    b_.state = a_.state;
  } else {
    a_.state = encoder_.power_up_state(a_.prog);
    b_.state = encoder_.power_up_state(b_.prog);
  }
}

sim::BitVec SequentialMiter::extract_key_a() const {
  return extract_bits(solver_, keys_a_);
}

sim::BitVec SequentialMiter::extract_key_b() const {
  return extract_bits(solver_, keys_b_);
}

EquivalenceMiter::EquivalenceMiter(Solver& solver, const Netlist& a,
                                   const sim::BitVec& key, const Netlist& b)
    : MiterBase(solver, a, b) {
  if (!b.key_inputs().empty()) {
    throw std::invalid_argument("EquivalenceMiter: reference must be key-free");
  }
  if (key.size() != a.key_inputs().size()) {
    throw std::invalid_argument("EquivalenceMiter: key width mismatch");
  }
  a_.keys.reserve(key.size());
  for (const auto bit : key) a_.keys.push_back(encoder_.constant(bit != 0));
  a_.state = encoder_.power_up_state(a_.prog);
  b_.state = encoder_.power_up_state(b_.prog);
}

void constrain_key_on_sequence(Solver& solver, const sim::CompiledNetlist& prog,
                               const std::vector<Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<Var>* init_vars) {
  constrain_key_on_sequence(solver, prog,
                            std::vector<std::vector<Var>>{key_vars}, inputs,
                            outputs, init_vars);
}

void constrain_key_on_sequence(Solver& solver, const sim::CompiledNetlist& prog,
                               const std::vector<std::vector<Var>>& key_schedule,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<Var>* init_vars) {
  if (inputs.size() != outputs.size()) {
    throw std::invalid_argument("constrain_key_on_sequence: length mismatch");
  }
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    if (inputs[t].size() != prog.inputs().size() ||
        outputs[t].size() != prog.outputs().size()) {
      throw std::invalid_argument(
          "constrain_key_on_sequence: frame width mismatch");
    }
  }
  if (key_schedule.empty()) {
    throw std::invalid_argument("constrain_key_on_sequence: empty key schedule");
  }
  for (const std::vector<Var>& keys : key_schedule) {
    if (keys.size() != prog.key_inputs().size()) {
      throw std::invalid_argument(
          "constrain_key_on_sequence: key width mismatch");
    }
  }
  if (init_vars != nullptr && init_vars->size() != prog.dff_qs().size()) {
    throw std::invalid_argument(
        "constrain_key_on_sequence: init state width mismatch");
  }

  HashedEncoder encoder(solver);
  // A source the solver has already fixed at the root enters as the
  // encoder's constant, so every gate it decides folds away. Only at fact
  // start and frame boundaries: a lookup per gate operand folds no more and
  // taxes every gate of a mostly-constant walk.
  const auto fold_root_fixed = [&](std::vector<Lit>& lits) {
    for (Lit& l : lits) {
      const sat::LBool v = solver.root_value(l);
      if (v != sat::LBool::Undef) l = encoder.constant(v == sat::LBool::True);
    }
  };
  std::vector<std::vector<Lit>> keys;
  keys.reserve(key_schedule.size());
  for (const std::vector<Var>& slot : key_schedule) {
    keys.push_back(positive(slot));
    fold_root_fixed(keys.back());
  }
  std::vector<Lit> state = init_vars != nullptr ? positive(*init_vars)
                                                : encoder.power_up_state(prog);
  fold_root_fixed(state);
  std::vector<Lit> in_lits(prog.inputs().size());
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    for (std::size_t i = 0; i < in_lits.size(); ++i) {
      in_lits[i] = encoder.constant(inputs[t][i] != 0);
    }
    const std::vector<Lit> frame =
        encoder.unroll_frame(prog, in_lits, keys[t % keys.size()], state);
    for (std::size_t o = 0; o < prog.outputs().size(); ++o) {
      const Lit y = frame[prog.outputs()[o]];
      solver.add_unit(outputs[t][o] != 0 ? y : ~y);
    }
    // The output units just propagated at the root: the next frame starts
    // from what they left undecided.
    fold_root_fixed(state);
  }
}

void constrain_key_on_sequence(Solver& solver, const Netlist& nl,
                               const std::vector<Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<Var>* init_vars) {
  constrain_key_on_sequence(solver, sim::CompiledNetlist(nl), key_vars, inputs,
                            outputs, init_vars);
}

void constrain_key_on_sequence(Solver& solver, const Netlist& nl,
                               const std::vector<std::vector<Var>>& key_schedule,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<Var>* init_vars) {
  constrain_key_on_sequence(solver, sim::CompiledNetlist(nl), key_schedule,
                            inputs, outputs, init_vars);
}

sim::BitVec extract_bits(const Solver& solver, const std::vector<Var>& vars) {
  sim::BitVec out(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    out[i] = solver.model_value(vars[i]) ? 1 : 0;
  }
  return out;
}

}  // namespace cl::cnf
