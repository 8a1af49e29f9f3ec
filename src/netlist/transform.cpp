#include "netlist/transform.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "netlist/topo.hpp"

namespace cl::netlist {

Netlist remove_dangling(const Netlist& nl) {
  // Reachability from outputs and all DFF D-pins (a DFF is live if reachable
  // from an output through any sequential path).
  // Iterate: start from outputs; when a DFF becomes live its D-cone becomes
  // live too.
  std::vector<bool> live(nl.size(), false);
  std::vector<SignalId> stack;
  for (SignalId o : nl.outputs()) stack.push_back(o);
  while (!stack.empty()) {
    const SignalId id = stack.back();
    stack.pop_back();
    if (live[id]) continue;
    live[id] = true;
    const Node n = nl.node(id);
    for (SignalId f : n.fanins) {
      if (!live[f]) stack.push_back(f);
    }
  }
  // Ports always survive (the interface must not change under cleanup).
  for (SignalId i : nl.inputs()) live[i] = true;
  for (SignalId k : nl.key_inputs()) live[k] = true;

  Netlist dst(nl.name());
  std::vector<SignalId> remap(nl.size(), k_no_signal);
  std::vector<SignalId> live_dffs;
  // Pass 1: sources and live DFFs (Q pins are sequential sources).
  for (SignalId id = 0; id < nl.size(); ++id) {
    if (!live[id]) continue;
    const Node n = nl.node(id);
    if (n.type == GateType::Input) remap[id] = dst.add_input(n.name);
    else if (n.type == GateType::KeyInput) remap[id] = dst.add_key_input(n.name);
    else if (n.type == GateType::Const0 || n.type == GateType::Const1)
      remap[id] = dst.add_const(n.type == GateType::Const1, n.name);
  }
  for (SignalId id : nl.dffs()) {
    if (!live[id]) continue;
    remap[id] = dst.add_dff(k_no_signal, nl.dff_init(id), nl.signal_name(id));
    live_dffs.push_back(id);
  }
  // Pass 2: combinational gates in topological order.
  std::vector<SignalId> fanins;
  for (SignalId id : topo_order(nl)) {
    if (!live[id] || !is_comb_gate(nl.type(id))) continue;
    const Node n = nl.node(id);
    fanins.clear();
    for (SignalId f : n.fanins) fanins.push_back(remap[f]);
    remap[id] = dst.add_gate(n.type, fanins, n.name);
  }
  // Pass 3: wire D-pins and outputs.
  for (SignalId id : live_dffs) {
    dst.set_dff_input(remap[id], remap[nl.dff_input(id)]);
  }
  for (SignalId o : nl.outputs()) dst.add_output(remap[o]);
  dst.check();
  return dst;
}

Netlist decompose_muxes(const Netlist& nl) {
  Netlist dst(nl.name());
  std::vector<SignalId> remap(nl.size(), k_no_signal);
  std::vector<SignalId> dffs_src;
  for (SignalId id = 0; id < nl.size(); ++id) {
    const Node n = nl.node(id);
    if (n.type == GateType::Input) remap[id] = dst.add_input(n.name);
    else if (n.type == GateType::KeyInput) remap[id] = dst.add_key_input(n.name);
    else if (n.type == GateType::Const0 || n.type == GateType::Const1)
      remap[id] = dst.add_const(n.type == GateType::Const1, n.name);
  }
  for (SignalId id : nl.dffs()) {
    remap[id] = dst.add_dff(k_no_signal, nl.dff_init(id), nl.signal_name(id));
    dffs_src.push_back(id);
  }
  std::vector<SignalId> fanins;
  for (SignalId id : topo_order(nl)) {
    if (!is_comb_gate(nl.type(id))) continue;
    const Node n = nl.node(id);
    if (n.type == GateType::Mux) {
      const SignalId sel = remap[n.fanins[0]];
      const SignalId a = remap[n.fanins[1]];
      const SignalId b = remap[n.fanins[2]];
      const SignalId nsel = dst.add_not(sel, dst.fresh_name(n.name + "_ns"));
      const SignalId ta = dst.add_and(nsel, a, dst.fresh_name(n.name + "_a"));
      const SignalId tb = dst.add_and(sel, b, dst.fresh_name(n.name + "_b"));
      remap[id] = dst.add_or(ta, tb, n.name);
    } else {
      fanins.clear();
      for (SignalId f : n.fanins) fanins.push_back(remap[f]);
      remap[id] = dst.add_gate(n.type, fanins, n.name);
    }
  }
  for (SignalId id : dffs_src) dst.set_dff_input(remap[id], remap[nl.dff_input(id)]);
  for (SignalId o : nl.outputs()) dst.add_output(remap[o]);
  return remove_dangling(dst);
}

Netlist strash(const Netlist& nl) {
  Netlist dst(nl.name());
  std::vector<SignalId> remap(nl.size(), k_no_signal);
  std::vector<SignalId> dffs_src;
  for (SignalId id = 0; id < nl.size(); ++id) {
    const Node n = nl.node(id);
    if (n.type == GateType::Input) remap[id] = dst.add_input(n.name);
    else if (n.type == GateType::KeyInput) remap[id] = dst.add_key_input(n.name);
    else if (n.type == GateType::Const0 || n.type == GateType::Const1)
      remap[id] = dst.add_const(n.type == GateType::Const1, n.name);
  }
  for (SignalId id : nl.dffs()) {
    remap[id] = dst.add_dff(k_no_signal, nl.dff_init(id), nl.signal_name(id));
    dffs_src.push_back(id);
  }

  const auto commutative = [](GateType t) {
    return t == GateType::And || t == GateType::Nand || t == GateType::Or ||
           t == GateType::Nor || t == GateType::Xor || t == GateType::Xnor;
  };
  std::map<std::pair<GateType, std::vector<SignalId>>, SignalId> seen;
  std::vector<SignalId> fanins;
  for (SignalId id : topo_order(nl)) {
    if (!is_comb_gate(nl.type(id))) continue;
    const Node n = nl.node(id);
    fanins.clear();
    for (SignalId f : n.fanins) fanins.push_back(remap[f]);
    if (n.type == GateType::Buf) {
      remap[id] = fanins[0];  // collapse; name is lost unless it is a port-like use
      continue;
    }
    std::vector<SignalId> key_fanins = fanins;
    if (commutative(n.type)) std::sort(key_fanins.begin(), key_fanins.end());
    const auto key = std::make_pair(n.type, key_fanins);
    const auto it = seen.find(key);
    if (it != seen.end()) {
      remap[id] = it->second;
    } else {
      remap[id] = dst.add_gate(n.type, fanins, n.name);
      seen.emplace(key, remap[id]);
    }
  }
  for (SignalId id : dffs_src) dst.set_dff_input(remap[id], remap[nl.dff_input(id)]);
  for (SignalId o : nl.outputs()) dst.add_output(remap[o]);
  return remove_dangling(dst);
}

Netlist scan_expose(const Netlist& nl) {
  Netlist dst(nl.name() + "_scan");
  std::vector<SignalId> remap(nl.size(), k_no_signal);
  for (SignalId id = 0; id < nl.size(); ++id) {
    const Node n = nl.node(id);
    if (n.type == GateType::Input) remap[id] = dst.add_input(n.name);
    else if (n.type == GateType::KeyInput) remap[id] = dst.add_key_input(n.name);
    else if (n.type == GateType::Const0 || n.type == GateType::Const1)
      remap[id] = dst.add_const(n.type == GateType::Const1, n.name);
  }
  // Q pins become controllable primary inputs, keeping the original names so
  // cones stay recognizable.
  for (SignalId id : nl.dffs()) {
    remap[id] = dst.add_input(nl.signal_name(id));
  }
  std::vector<SignalId> fanins;
  for (SignalId id : topo_order(nl)) {
    if (!is_comb_gate(nl.type(id))) continue;
    const Node n = nl.node(id);
    fanins.clear();
    for (SignalId f : n.fanins) fanins.push_back(remap[f]);
    remap[id] = dst.add_gate(n.type, fanins, n.name);
  }
  for (SignalId o : nl.outputs()) dst.add_output(remap[o]);
  // D pins become observable primary outputs.
  for (SignalId id : nl.dffs()) dst.add_output(remap[nl.dff_input(id)]);
  dst.check();
  return dst;
}

Netlist pin_signal(const Netlist& nl, SignalId source, bool value) {
  const GateType src_type = nl.type(source);
  if (src_type != GateType::Input && src_type != GateType::KeyInput) {
    throw std::invalid_argument("pin_signal: '" + nl.signal_name(source) +
                                "' is not an input or key input");
  }
  Netlist dst(nl.name());
  std::vector<SignalId> remap(nl.size(), k_no_signal);
  std::vector<SignalId> dffs_src;
  for (SignalId id = 0; id < nl.size(); ++id) {
    const Node n = nl.node(id);
    if (id == source) remap[id] = dst.add_const(value, n.name);
    else if (n.type == GateType::Input) remap[id] = dst.add_input(n.name);
    else if (n.type == GateType::KeyInput) remap[id] = dst.add_key_input(n.name);
    else if (n.type == GateType::Const0 || n.type == GateType::Const1)
      remap[id] = dst.add_const(n.type == GateType::Const1, n.name);
  }
  for (SignalId id : nl.dffs()) {
    remap[id] = dst.add_dff(k_no_signal, nl.dff_init(id), nl.signal_name(id));
    dffs_src.push_back(id);
  }
  std::vector<SignalId> fanins;
  for (SignalId id : topo_order(nl)) {
    if (!is_comb_gate(nl.type(id))) continue;
    const Node n = nl.node(id);
    fanins.clear();
    for (SignalId f : n.fanins) fanins.push_back(remap[f]);
    remap[id] = dst.add_gate(n.type, fanins, n.name);
  }
  for (SignalId id : dffs_src) dst.set_dff_input(remap[id], remap[nl.dff_input(id)]);
  for (SignalId o : nl.outputs()) dst.add_output(remap[o]);
  dst.check();
  return dst;
}

}  // namespace cl::netlist
