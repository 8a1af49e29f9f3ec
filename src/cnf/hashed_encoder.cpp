#include "cnf/hashed_encoder.hpp"

#include <stdexcept>
#include <utility>

namespace cl::cnf {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;
using sat::Lit;

HashedEncoder::HashedEncoder(sat::Solver& solver)
    : solver_(solver), true_(sat::pos(solver.new_var())) {
  solver_.add_unit(true_);
}

Lit HashedEncoder::fresh() { return sat::pos(solver_.new_var()); }

std::uint64_t HashedEncoder::pair_key(Lit a, Lit b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.code()))
          << 32) |
         static_cast<std::uint32_t>(b.code());
}

Lit HashedEncoder::and2(Lit a, Lit b) {
  if (b < a) std::swap(a, b);
  if (is_constant(a)) return a == true_ ? b : a;
  if (is_constant(b)) return b == true_ ? a : b;
  if (a == b) return a;
  if (a == ~b) return constant(false);
  const auto [it, inserted] = and_nodes_.try_emplace(pair_key(a, b));
  if (inserted) {
    const Lit y = fresh();
    solver_.add_binary(~y, a);
    solver_.add_binary(~y, b);
    solver_.add_ternary(y, ~a, ~b);
    it->second = y;
  }
  return it->second;
}

Lit HashedEncoder::xor2(Lit a, Lit b) {
  // Complements move to the output, so x^y, ~x^~y and ~(~x^y) share a node.
  const bool flip = a.negated() != b.negated();
  a = sat::pos(a.var());
  b = sat::pos(b.var());
  if (b < a) std::swap(a, b);
  Lit y;
  if (a == b) {
    y = constant(false);
  } else if (is_constant(a)) {
    y = ~b;
  } else if (is_constant(b)) {
    y = ~a;
  } else {
    const auto [it, inserted] = xor_nodes_.try_emplace(pair_key(a, b));
    if (inserted) {
      it->second = fresh();
      const Lit x = it->second;
      solver_.add_ternary(~x, a, b);
      solver_.add_ternary(~x, ~a, ~b);
      solver_.add_ternary(x, ~a, b);
      solver_.add_ternary(x, a, ~b);
    }
    y = it->second;
  }
  return flip ? ~y : y;
}

Lit HashedEncoder::mux(Lit sel, Lit a, Lit b) {
  if (is_constant(sel)) return sel == true_ ? b : a;
  if (a == b) return a;
  if (a == ~b) return xor2(sel, a);
  return or2(and2(sel, b), and2(~sel, a));
}

std::vector<Lit> HashedEncoder::encode_frame(const Netlist& nl,
                                             const std::vector<SignalId>& order,
                                             const std::vector<Lit>& inputs,
                                             const std::vector<Lit>& keys,
                                             const std::vector<Lit>& states) {
  if (inputs.size() != nl.inputs().size() ||
      keys.size() != nl.key_inputs().size() ||
      states.size() != nl.dffs().size()) {
    throw std::invalid_argument("HashedEncoder: source arity mismatch");
  }
  std::vector<Lit> lit(nl.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) lit[nl.inputs()[i]] = inputs[i];
  for (std::size_t i = 0; i < keys.size(); ++i) lit[nl.key_inputs()[i]] = keys[i];
  for (std::size_t i = 0; i < states.size(); ++i) lit[nl.dffs()[i]] = states[i];

  for (SignalId id : order) {
    const netlist::Node& n = nl.node(id);
    const auto in = [&](std::size_t k) { return lit[n.fanins[k]]; };
    Lit y;
    switch (n.type) {
      case GateType::Input:
      case GateType::KeyInput:
      case GateType::Dff:
        continue;
      case GateType::Const0:
      case GateType::Const1:
        y = constant(n.type == GateType::Const1);
        break;
      case GateType::Buf:
        y = in(0);
        break;
      case GateType::Not:
        y = ~in(0);
        break;
      case GateType::And:
      case GateType::Nand:
        y = in(0);
        for (std::size_t k = 1; k < n.fanins.size(); ++k) y = and2(y, in(k));
        if (n.type == GateType::Nand) y = ~y;
        break;
      case GateType::Or:
      case GateType::Nor:
        y = in(0);
        for (std::size_t k = 1; k < n.fanins.size(); ++k) y = or2(y, in(k));
        if (n.type == GateType::Nor) y = ~y;
        break;
      case GateType::Xor:
      case GateType::Xnor:
        y = in(0);
        for (std::size_t k = 1; k < n.fanins.size(); ++k) y = xor2(y, in(k));
        if (n.type == GateType::Xnor) y = ~y;
        break;
      case GateType::Mux:
        y = mux(in(0), in(1), in(2));
        break;
    }
    lit[id] = y;
  }
  return lit;
}

std::vector<Lit> HashedEncoder::power_up_state(const Netlist& nl) {
  std::vector<Lit> state;
  state.reserve(nl.dffs().size());
  for (SignalId d : nl.dffs()) {
    const netlist::DffInit init = nl.dff_init(d);
    state.push_back(init == netlist::DffInit::X
                        ? fresh()
                        : constant(init == netlist::DffInit::One));
  }
  return state;
}

std::vector<Lit> HashedEncoder::unroll_frame(const Netlist& nl,
                                             const std::vector<SignalId>& order,
                                             const std::vector<Lit>& inputs,
                                             const std::vector<Lit>& keys,
                                             std::vector<Lit>& state) {
  std::vector<Lit> lit = encode_frame(nl, order, inputs, keys, state);
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = lit[nl.dff_input(nl.dffs()[i])];
  }
  return lit;
}

}  // namespace cl::cnf
