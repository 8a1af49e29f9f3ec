#include "tech/mapper.hpp"

#include <stdexcept>

#include "netlist/topo.hpp"

namespace cl::tech {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

CellType cell_for_gate(GateType g) {
  switch (g) {
    case GateType::Not: return CellType::Inv;
    case GateType::Buf: return CellType::Buf;
    case GateType::And: return CellType::And2;
    case GateType::Nand: return CellType::Nand2;
    case GateType::Or: return CellType::Or2;
    case GateType::Nor: return CellType::Nor2;
    case GateType::Xor: return CellType::Xor2;
    case GateType::Xnor: return CellType::Xnor2;
    case GateType::Mux: return CellType::Mux2;
    case GateType::Dff: return CellType::Dff;
    case GateType::Const0:
    case GateType::Const1: return CellType::Tie;
    default: throw std::invalid_argument("cell_for_gate: not a cell gate");
  }
}

namespace {

/// Balanced tree of 2-input `op` gates over `terms`.
SignalId build_tree(Netlist& nl, GateType op, std::vector<SignalId> terms,
                    const std::string& hint) {
  while (terms.size() > 1) {
    std::vector<SignalId> next;
    next.reserve((terms.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(
          nl.add_gate(op, {terms[i], terms[i + 1]}, nl.fresh_name(hint)));
    }
    if (terms.size() % 2 != 0) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms[0];
}

}  // namespace

MappedDesign map_to_cells(const Netlist& nl) {
  MappedDesign out{Netlist(nl.name() + "_mapped"), {}};
  Netlist& dst = out.netlist;
  std::vector<SignalId> remap(nl.size(), netlist::k_no_signal);

  for (SignalId id = 0; id < nl.size(); ++id) {
    const netlist::Node n = nl.node(id);
    if (n.type == GateType::Input) remap[id] = dst.add_input(n.name);
    else if (n.type == GateType::KeyInput) remap[id] = dst.add_key_input(n.name);
    else if (n.type == GateType::Const0 || n.type == GateType::Const1)
      remap[id] = dst.add_const(n.type == GateType::Const1, n.name);
  }
  std::vector<SignalId> src_dffs;
  for (SignalId id : nl.dffs()) {
    remap[id] = dst.add_dff(netlist::k_no_signal, nl.dff_init(id),
                            nl.signal_name(id));
    src_dffs.push_back(id);
  }

  std::vector<SignalId> fanins;
  for (SignalId id : netlist::topo_order(nl)) {
    if (!netlist::is_comb_gate(nl.type(id))) continue;
    const netlist::Node n = nl.node(id);
    fanins.clear();
    for (SignalId f : n.fanins) fanins.push_back(remap[f]);

    switch (n.type) {
      case GateType::Buf:
      case GateType::Not:
      case GateType::Mux:
        remap[id] = dst.add_gate(n.type, fanins, n.name);
        break;
      case GateType::And:
      case GateType::Or:
      case GateType::Xor:
        if (fanins.size() == 2) {
          remap[id] = dst.add_gate(n.type, fanins, n.name);
        } else {
          const SignalId tree =
              build_tree(dst, n.type, fanins, n.name + "_t");
          remap[id] = dst.add_gate(GateType::Buf, {tree}, n.name);
        }
        break;
      case GateType::Nand:
      case GateType::Nor:
      case GateType::Xnor: {
        if (fanins.size() == 2) {
          remap[id] = dst.add_gate(n.type, fanins, n.name);
        } else {
          const GateType base = (n.type == GateType::Nand)  ? GateType::And
                                : (n.type == GateType::Nor) ? GateType::Or
                                                            : GateType::Xor;
          const SignalId tree = build_tree(dst, base, fanins, n.name + "_t");
          remap[id] = dst.add_not(tree, n.name);
        }
        break;
      }
      default:
        throw std::logic_error("map_to_cells: unexpected gate");
    }
  }
  for (SignalId id : src_dffs) dst.set_dff_input(remap[id], remap[nl.dff_input(id)]);
  for (SignalId o : nl.outputs()) dst.add_output(remap[o]);
  dst.check();

  for (SignalId id = 0; id < dst.size(); ++id) {
    const GateType t = dst.type(id);
    if (t == GateType::Input || t == GateType::KeyInput) continue;
    ++out.cell_counts[cell_for_gate(t)];
  }
  return out;
}

std::size_t MappedDesign::total_cells() const {
  std::size_t n = 0;
  for (const auto& [type, count] : cell_counts) n += count;
  return n;
}

double MappedDesign::total_area(const CellLibrary& lib) const {
  double a = 0;
  for (const auto& [type, count] : cell_counts) {
    a += lib.cell(type).area_um2 * static_cast<double>(count);
  }
  return a;
}

double MappedDesign::total_leakage_nw(const CellLibrary& lib) const {
  double p = 0;
  for (const auto& [type, count] : cell_counts) {
    p += lib.cell(type).leakage_nw * static_cast<double>(count);
  }
  return p;
}

}  // namespace cl::tech
