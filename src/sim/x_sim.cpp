#include "sim/x_sim.hpp"

#include <stdexcept>

namespace cl::sim {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

char trit_char(Trit t) {
  switch (t) {
    case Trit::Zero: return '0';
    case Trit::One: return '1';
    case Trit::X: return 'x';
  }
  return '?';
}

Trit trit_not(Trit a) {
  if (a == Trit::X) return Trit::X;
  return a == Trit::Zero ? Trit::One : Trit::Zero;
}

Trit trit_and(Trit a, Trit b) {
  if (a == Trit::Zero || b == Trit::Zero) return Trit::Zero;
  if (a == Trit::X || b == Trit::X) return Trit::X;
  return Trit::One;
}

Trit trit_or(Trit a, Trit b) {
  if (a == Trit::One || b == Trit::One) return Trit::One;
  if (a == Trit::X || b == Trit::X) return Trit::X;
  return Trit::Zero;
}

Trit trit_xor(Trit a, Trit b) {
  if (a == Trit::X || b == Trit::X) return Trit::X;
  return (a == b) ? Trit::Zero : Trit::One;
}

Trit trit_mux(Trit sel, Trit a, Trit b) {
  if (sel == Trit::Zero) return a;
  if (sel == Trit::One) return b;
  // Unknown select: defined only if both data inputs agree.
  return (a == b) ? a : Trit::X;
}

XSim::XSim(const Netlist& nl)
    : XSim(std::make_shared<const CompiledNetlist>(nl)) {}

XSim::XSim(std::shared_ptr<const CompiledNetlist> compiled)
    : compiled_(std::move(compiled)),
      values_(compiled_->num_signals(), Trit::X) {
  reset();
}

void XSim::reset() {
  for (Trit& v : values_) v = Trit::X;
  const auto& qs = compiled_->dff_qs();
  const auto& inits = compiled_->dff_inits();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    switch (inits[i]) {
      case netlist::DffInit::Zero: values_[qs[i]] = Trit::Zero; break;
      case netlist::DffInit::One: values_[qs[i]] = Trit::One; break;
      case netlist::DffInit::X: values_[qs[i]] = Trit::X; break;
    }
  }
  for (const std::uint32_t s : compiled_->const_zeros()) {
    values_[s] = Trit::Zero;
  }
  for (const std::uint32_t s : compiled_->const_ones()) values_[s] = Trit::One;
}

void XSim::set(SignalId s, Trit value) {
  if (!compiled_->settable(s)) {
    throw std::invalid_argument("XSim::set: not an input: " +
                                compiled_->source().signal_name(s));
  }
  values_[compiled_->slot(s)] = value;
}

void XSim::eval() {
  const std::uint32_t* pool = compiled_->fanin_pool().data();
  for (const std::uint32_t g : compiled_->levelized()) {
    const Instr in = compiled_->instr(g);
    Trit v = Trit::X;
    switch (in.op) {
      case Op::Buf: v = values_[in.a]; break;
      case Op::Not: v = trit_not(values_[in.a]); break;
      case Op::And2: v = trit_and(values_[in.a], values_[in.b]); break;
      case Op::Nand2:
        v = trit_not(trit_and(values_[in.a], values_[in.b]));
        break;
      case Op::Or2: v = trit_or(values_[in.a], values_[in.b]); break;
      case Op::Nor2:
        v = trit_not(trit_or(values_[in.a], values_[in.b]));
        break;
      case Op::Xor2: v = trit_xor(values_[in.a], values_[in.b]); break;
      case Op::Xnor2:
        v = trit_not(trit_xor(values_[in.a], values_[in.b]));
        break;
      case Op::Mux:
        v = trit_mux(values_[in.a], values_[in.b], values_[in.c]);
        break;
      case Op::AndN:
      case Op::NandN: {
        v = Trit::One;
        for (std::uint32_t f = 0; f < in.b; ++f) {
          v = trit_and(v, values_[pool[in.a + f]]);
        }
        if (in.op == Op::NandN) v = trit_not(v);
        break;
      }
      case Op::OrN:
      case Op::NorN: {
        v = Trit::Zero;
        for (std::uint32_t f = 0; f < in.b; ++f) {
          v = trit_or(v, values_[pool[in.a + f]]);
        }
        if (in.op == Op::NorN) v = trit_not(v);
        break;
      }
      case Op::XorN:
      case Op::XnorN: {
        v = Trit::Zero;
        for (std::uint32_t f = 0; f < in.b; ++f) {
          v = trit_xor(v, values_[pool[in.a + f]]);
        }
        if (in.op == Op::XnorN) v = trit_not(v);
        break;
      }
    }
    values_[in.out] = v;
  }
}

void XSim::step() {
  const auto& qs = compiled_->dff_qs();
  const auto& ds = compiled_->dff_ds();
  std::vector<Trit> next;
  next.reserve(qs.size());
  for (const std::uint32_t d : ds) next.push_back(values_[d]);
  for (std::size_t i = 0; i < qs.size(); ++i) values_[qs[i]] = next[i];
}

std::vector<Trit> XSim::outputs() const {
  std::vector<Trit> out;
  out.reserve(compiled_->outputs().size());
  for (const std::uint32_t o : compiled_->outputs()) out.push_back(values_[o]);
  return out;
}

}  // namespace cl::sim
