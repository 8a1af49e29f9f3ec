#include "sim/reference_sim.hpp"

#include <stdexcept>

#include "netlist/topo.hpp"

namespace cl::sim {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

ReferenceSim::ReferenceSim(const Netlist& nl)
    : nl_(nl), order_(netlist::topo_order(nl)), values_(nl.size(), 0) {
  reset();
}

void ReferenceSim::reset() {
  for (SignalId s = 0; s < nl_.size(); ++s) values_[s] = 0;
  for (SignalId d : nl_.dffs()) {
    values_[d] = (nl_.dff_init(d) == netlist::DffInit::One) ? ~0ULL : 0ULL;
  }
}

void ReferenceSim::set(SignalId s, std::uint64_t word) {
  const GateType t = nl_.type(s);
  if (t != GateType::Input && t != GateType::KeyInput) {
    throw std::invalid_argument("ReferenceSim::set: not an input: " +
                                nl_.signal_name(s));
  }
  values_[s] = word;
}

void ReferenceSim::eval() {
  for (SignalId s : order_) {
    const netlist::Node n = nl_.node(s);
    switch (n.type) {
      case GateType::Input:
      case GateType::KeyInput:
      case GateType::Dff:
        break;  // sources: already set
      case GateType::Const0: values_[s] = 0; break;
      case GateType::Const1: values_[s] = ~0ULL; break;
      case GateType::Buf: values_[s] = values_[n.fanins[0]]; break;
      case GateType::Not: values_[s] = ~values_[n.fanins[0]]; break;
      case GateType::And: {
        std::uint64_t v = ~0ULL;
        for (SignalId f : n.fanins) v &= values_[f];
        values_[s] = v;
        break;
      }
      case GateType::Nand: {
        std::uint64_t v = ~0ULL;
        for (SignalId f : n.fanins) v &= values_[f];
        values_[s] = ~v;
        break;
      }
      case GateType::Or: {
        std::uint64_t v = 0;
        for (SignalId f : n.fanins) v |= values_[f];
        values_[s] = v;
        break;
      }
      case GateType::Nor: {
        std::uint64_t v = 0;
        for (SignalId f : n.fanins) v |= values_[f];
        values_[s] = ~v;
        break;
      }
      case GateType::Xor: {
        std::uint64_t v = 0;
        for (SignalId f : n.fanins) v ^= values_[f];
        values_[s] = v;
        break;
      }
      case GateType::Xnor: {
        std::uint64_t v = 0;
        for (SignalId f : n.fanins) v ^= values_[f];
        values_[s] = ~v;
        break;
      }
      case GateType::Mux: {
        const std::uint64_t sel = values_[n.fanins[0]];
        const std::uint64_t a = values_[n.fanins[1]];
        const std::uint64_t b = values_[n.fanins[2]];
        values_[s] = (sel & b) | (~sel & a);
        break;
      }
    }
  }
}

void ReferenceSim::step() {
  std::vector<std::uint64_t> next;
  next.reserve(nl_.dffs().size());
  for (SignalId d : nl_.dffs()) next.push_back(values_[nl_.dff_input(d)]);
  std::size_t i = 0;
  for (SignalId d : nl_.dffs()) values_[d] = next[i++];
}

}  // namespace cl::sim
