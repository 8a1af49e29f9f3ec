#include "cnf/miter.hpp"

#include <stdexcept>

#include "netlist/topo.hpp"

namespace cl::cnf {

using netlist::DffInit;
using netlist::Netlist;
using netlist::SignalId;
using sat::Lit;
using sat::Solver;
using sat::Var;

SequentialMiter::SequentialMiter(Solver& solver, const Netlist& locked,
                                 bool symbolic_initial_state)
    : solver_(solver),
      nl_(locked),
      order_(netlist::topo_order(locked)),
      symbolic_init_(symbolic_initial_state) {
  keys_a_.reserve(nl_.key_inputs().size());
  keys_b_.reserve(nl_.key_inputs().size());
  for (std::size_t i = 0; i < nl_.key_inputs().size(); ++i) {
    keys_a_.push_back(solver_.new_var());
    keys_b_.push_back(solver_.new_var());
  }
  if (symbolic_init_) {
    init_state_.reserve(nl_.dffs().size());
    for (std::size_t i = 0; i < nl_.dffs().size(); ++i) {
      init_state_.push_back(solver_.new_var());
    }
  }
}

void SequentialMiter::extend_to(std::size_t depth) {
  while (frames_a_.size() < depth) {
    const std::size_t t = frames_a_.size();
    // Shared inputs for this frame.
    std::vector<Var> ins;
    ins.reserve(nl_.inputs().size());
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
      ins.push_back(solver_.new_var());
    }
    inputs_.push_back(ins);

    const auto make_frame = [&](std::vector<FrameVars>& frames,
                                const std::vector<Var>& keys) {
      FrameSources src;
      src.inputs = ins;
      src.keys = keys;
      if (t == 0) {
        if (symbolic_init_) {
          src.states = init_state_;
        } else {
          src.states.reserve(nl_.dffs().size());
          for (SignalId d : nl_.dffs()) {
            const Var v = solver_.new_var();
            if (nl_.dff_init(d) == DffInit::Zero) encode_const(solver_, v, false);
            else if (nl_.dff_init(d) == DffInit::One) encode_const(solver_, v, true);
            src.states.push_back(v);
          }
        }
      } else {
        const FrameVars& prev = frames[t - 1];
        src.states.reserve(nl_.dffs().size());
        for (SignalId d : nl_.dffs()) {
          src.states.push_back(prev.var[nl_.dff_input(d)]);
        }
      }
      frames.push_back(encode_frame(solver_, nl_, std::move(src), order_));
    };
    make_frame(frames_a_, keys_a_);
    make_frame(frames_b_, keys_b_);

    // diff_t <-> OR over outputs of (a_o XOR b_o)
    std::vector<Var> xors;
    xors.reserve(nl_.outputs().size());
    for (SignalId o : nl_.outputs()) {
      const Var x = solver_.new_var();
      encode_xor2(solver_, x, frames_a_[t].var[o], frames_b_[t].var[o]);
      xors.push_back(x);
    }
    const Var diff = solver_.new_var();
    if (xors.empty()) {
      encode_const(solver_, diff, false);
    } else {
      encode_or(solver_, diff, xors);
    }
    frame_diff_.push_back(diff);

    // cumulative_diff up to and including this frame.
    const Var cum = solver_.new_var();
    if (t == 0) {
      encode_eq(solver_, cum, diff);
    } else {
      encode_or(solver_, cum, {cumulative_diff_[t - 1], diff});
    }
    cumulative_diff_.push_back(cum);
  }
}

Lit SequentialMiter::diff_within(std::size_t depth) const {
  if (depth == 0 || depth > cumulative_diff_.size()) {
    throw std::out_of_range("diff_within: depth not unrolled");
  }
  return sat::pos(cumulative_diff_[depth - 1]);
}

std::vector<sim::BitVec> SequentialMiter::extract_inputs(std::size_t depth) const {
  std::vector<sim::BitVec> out;
  out.reserve(depth);
  for (std::size_t t = 0; t < depth; ++t) {
    out.push_back(extract_bits(solver_, inputs_[t]));
  }
  return out;
}

sim::BitVec SequentialMiter::extract_key_a() const {
  return extract_bits(solver_, keys_a_);
}

sim::BitVec SequentialMiter::extract_key_b() const {
  return extract_bits(solver_, keys_b_);
}

void constrain_key_on_sequence(Solver& solver, const Netlist& nl,
                               const std::vector<Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<Var>* init_vars) {
  if (inputs.size() != outputs.size()) {
    throw std::invalid_argument("constrain_key_on_sequence: length mismatch");
  }
  std::vector<Var> state;
  const std::vector<SignalId> order = netlist::topo_order(nl);
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    FrameSources src;
    src.keys = key_vars;
    if (t == 0) {
      if (init_vars != nullptr) {
        if (init_vars->size() != nl.dffs().size()) {
          throw std::invalid_argument(
              "constrain_key_on_sequence: init state width mismatch");
        }
        state = *init_vars;
      } else {
        state.reserve(nl.dffs().size());
        for (SignalId d : nl.dffs()) {
          const Var v = solver.new_var();
          if (nl.dff_init(d) == DffInit::Zero) encode_const(solver, v, false);
          else if (nl.dff_init(d) == DffInit::One) encode_const(solver, v, true);
          state.push_back(v);
        }
      }
    }
    src.states = state;
    const FrameVars fv = encode_frame(solver, nl, std::move(src), order);
    // Fix inputs.
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      solver.add_unit(Lit(fv.var[nl.inputs()[i]], inputs[t][i] == 0));
    }
    // Fix outputs to the oracle response.
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      solver.add_unit(Lit(fv.var[nl.outputs()[o]], outputs[t][o] == 0));
    }
    // Chain state.
    std::vector<Var> next;
    next.reserve(nl.dffs().size());
    for (SignalId d : nl.dffs()) next.push_back(fv.var[nl.dff_input(d)]);
    state = std::move(next);
  }
}

EquivalenceMiter::EquivalenceMiter(Solver& solver, const Netlist& a,
                                   const sim::BitVec& key, const Netlist& b)
    : solver_(solver),
      a_(a),
      b_(b),
      encoder_(solver),
      order_a_(netlist::topo_order(a)),
      order_b_(netlist::topo_order(b)) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("EquivalenceMiter: interface mismatch");
  }
  if (!b.key_inputs().empty()) {
    throw std::invalid_argument("EquivalenceMiter: reference must be key-free");
  }
  if (key.size() != a.key_inputs().size()) {
    throw std::invalid_argument("EquivalenceMiter: key width mismatch");
  }
  keys_a_.reserve(key.size());
  for (const auto bit : key) keys_a_.push_back(encoder_.constant(bit != 0));
  state_a_ = initial_state(a);
  state_b_ = initial_state(b);
}

std::vector<Lit> EquivalenceMiter::initial_state(const Netlist& nl) {
  std::vector<Lit> state;
  state.reserve(nl.dffs().size());
  for (SignalId d : nl.dffs()) {
    const DffInit init = nl.dff_init(d);
    state.push_back(init == DffInit::X ? encoder_.fresh()
                                       : encoder_.constant(init == DffInit::One));
  }
  return state;
}

void EquivalenceMiter::extend_to(std::size_t depth) {
  while (cumulative_diff_.size() < depth) {
    std::vector<Var> ins;
    std::vector<Lit> in_lits;
    ins.reserve(a_.inputs().size());
    in_lits.reserve(a_.inputs().size());
    for (std::size_t i = 0; i < a_.inputs().size(); ++i) {
      in_lits.push_back(encoder_.fresh());
      ins.push_back(in_lits.back().var());
    }
    inputs_.push_back(std::move(ins));

    const std::vector<Lit> fa =
        encoder_.encode_frame(a_, order_a_, in_lits, keys_a_, state_a_);
    const std::vector<Lit> fb =
        encoder_.encode_frame(b_, order_b_, in_lits, {}, state_b_);
    Lit diff = encoder_.constant(false);
    for (std::size_t o = 0; o < a_.outputs().size(); ++o) {
      diff = encoder_.or2(diff, encoder_.xor2(fa[a_.outputs()[o]],
                                               fb[b_.outputs()[o]]));
    }
    cumulative_diff_.push_back(cumulative_diff_.empty()
                                   ? diff
                                   : encoder_.or2(cumulative_diff_.back(), diff));
    for (std::size_t i = 0; i < a_.dffs().size(); ++i) {
      state_a_[i] = fa[a_.dff_input(a_.dffs()[i])];
    }
    for (std::size_t i = 0; i < b_.dffs().size(); ++i) {
      state_b_[i] = fb[b_.dff_input(b_.dffs()[i])];
    }
  }
}

Lit EquivalenceMiter::diff_within(std::size_t depth) const {
  if (depth == 0 || depth > cumulative_diff_.size()) {
    throw std::out_of_range("diff_within: depth not unrolled");
  }
  return cumulative_diff_[depth - 1];
}

std::vector<sim::BitVec> EquivalenceMiter::extract_inputs(
    std::size_t depth) const {
  std::vector<sim::BitVec> out;
  out.reserve(depth);
  for (std::size_t t = 0; t < depth; ++t) {
    out.push_back(extract_bits(solver_, inputs_[t]));
  }
  return out;
}

sim::BitVec extract_bits(const Solver& solver, const std::vector<Var>& vars) {
  sim::BitVec out(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    out[i] = solver.model_value(vars[i]) ? 1 : 0;
  }
  return out;
}

}  // namespace cl::cnf
