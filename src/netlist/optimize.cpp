#include "netlist/optimize.hpp"

#include <algorithm>
#include <map>

#include "netlist/topo.hpp"
#include "netlist/transform.hpp"

namespace cl::netlist {

namespace {

/// Tri-state constant lattice per signal.
enum class CVal : std::uint8_t { Zero, One, Unknown };

/// One rewriting sweep. Returns the rewritten netlist and sets `changed`.
/// `consts_propagated` is incremented once per gate output folded to 0/1.
Netlist sweep(const Netlist& nl, bool& changed, std::size_t& consts_propagated) {
  changed = false;
  Netlist dst(nl.name());
  std::vector<SignalId> remap(nl.size(), k_no_signal);
  std::vector<CVal> cval(nl.size(), CVal::Unknown);
  // Lazily-created shared constants.
  SignalId const0 = k_no_signal, const1 = k_no_signal;
  const auto c0 = [&]() {
    if (const0 == k_no_signal) const0 = dst.add_const(false, dst.fresh_name("opt_c0"));
    return const0;
  };
  const auto c1 = [&]() {
    if (const1 == k_no_signal) const1 = dst.add_const(true, dst.fresh_name("opt_c1"));
    return const1;
  };
  // NOT cache for inverter sharing and double-inverter removal.
  std::map<SignalId, SignalId> not_of;  // dst signal -> dst NOT(signal)

  for (SignalId id = 0; id < nl.size(); ++id) {
    const Node n = nl.node(id);
    if (n.type == GateType::Input) remap[id] = dst.add_input(n.name);
    else if (n.type == GateType::KeyInput) remap[id] = dst.add_key_input(n.name);
    // Merging a constant into the shared one is no change: merging two
    // shrinks the netlist, and optimize() stops only when nothing shrank.
    else if (n.type == GateType::Const0) {
      remap[id] = c0();
      cval[id] = CVal::Zero;
    } else if (n.type == GateType::Const1) {
      remap[id] = c1();
      cval[id] = CVal::One;
    }
  }
  std::vector<SignalId> src_dffs = nl.dffs();
  for (SignalId id : src_dffs) {
    remap[id] = dst.add_dff(k_no_signal, nl.dff_init(id), nl.signal_name(id));
  }

  const auto mk_not = [&](SignalId s) {
    // NOT(NOT(x)) == x.
    for (const auto& [input, inverted] : not_of) {
      if (inverted == s) return input;
    }
    const auto it = not_of.find(s);
    if (it != not_of.end()) return it->second;
    const SignalId inv = dst.add_not(s, dst.fresh_name("opt_n"));
    not_of.emplace(s, inv);
    return inv;
  };

  std::vector<SignalId> ins;
  std::vector<CVal> vals;
  for (SignalId id : topo_order(nl)) {
    if (!is_comb_gate(nl.type(id))) continue;
    const Node n = nl.node(id);

    // Gather fanins with constants resolved.
    ins.clear();
    vals.clear();
    for (SignalId f : n.fanins) {
      ins.push_back(remap[f]);
      vals.push_back(cval[f]);
    }
    const auto set_const = [&](bool one) {
      remap[id] = one ? c1() : c0();
      cval[id] = one ? CVal::One : CVal::Zero;
      changed = true;
      ++consts_propagated;
    };
    const auto forward = [&](std::size_t i) {
      remap[id] = ins[i];
      cval[id] = vals[i];
      changed = true;
    };

    switch (n.type) {
      case GateType::Buf:
        forward(0);
        break;
      case GateType::Not:
        if (vals[0] == CVal::Zero) set_const(true);
        else if (vals[0] == CVal::One) set_const(false);
        else {
          const SignalId inv = mk_not(ins[0]);
          remap[id] = inv;
          cval[id] = CVal::Unknown;
        }
        break;
      case GateType::And:
      case GateType::Nand: {
        std::vector<SignalId> live;
        bool any_zero = false;
        for (std::size_t i = 0; i < ins.size(); ++i) {
          if (vals[i] == CVal::Zero) any_zero = true;
          else if (vals[i] != CVal::One) live.push_back(ins[i]);
        }
        std::sort(live.begin(), live.end());
        live.erase(std::unique(live.begin(), live.end()), live.end());
        const bool invert = (n.type == GateType::Nand);
        if (any_zero) {
          set_const(invert);
        } else if (live.empty()) {
          set_const(!invert);
        } else if (live.size() == 1) {
          if (invert) {
            remap[id] = mk_not(live[0]);
            changed = true;
          } else {
            remap[id] = live[0];
            changed = true;
          }
        } else {
          if (live.size() != ins.size()) changed = true;
          remap[id] = dst.add_gate(n.type, live, n.name);
        }
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        std::vector<SignalId> live;
        bool any_one = false;
        for (std::size_t i = 0; i < ins.size(); ++i) {
          if (vals[i] == CVal::One) any_one = true;
          else if (vals[i] != CVal::Zero) live.push_back(ins[i]);
        }
        std::sort(live.begin(), live.end());
        live.erase(std::unique(live.begin(), live.end()), live.end());
        const bool invert = (n.type == GateType::Nor);
        if (any_one) {
          set_const(invert);
        } else if (live.empty()) {
          set_const(invert);
          // OR() of nothing is 0; NOR -> 1.
          if (invert) cval[id] = CVal::One;
        } else if (live.size() == 1) {
          if (invert) {
            remap[id] = mk_not(live[0]);
            changed = true;
          } else {
            remap[id] = live[0];
            changed = true;
          }
        } else {
          if (live.size() != ins.size()) changed = true;
          remap[id] = dst.add_gate(n.type, live, n.name);
        }
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        std::vector<SignalId> live;
        bool parity = (n.type == GateType::Xnor);
        for (std::size_t i = 0; i < ins.size(); ++i) {
          if (vals[i] == CVal::One) parity = !parity;
          else if (vals[i] != CVal::Zero) live.push_back(ins[i]);
        }
        // x ^ x == 0: cancel pairs.
        std::sort(live.begin(), live.end());
        std::vector<SignalId> reduced;
        for (std::size_t i = 0; i < live.size();) {
          if (i + 1 < live.size() && live[i] == live[i + 1]) {
            i += 2;
          } else {
            reduced.push_back(live[i]);
            ++i;
          }
        }
        if (reduced.empty()) {
          set_const(parity);
        } else if (reduced.size() == 1) {
          if (parity) remap[id] = mk_not(reduced[0]);
          else remap[id] = reduced[0];
          changed = true;
        } else {
          if (reduced.size() != ins.size() ||
              parity != (n.type == GateType::Xnor)) {
            changed = true;
          }
          remap[id] = dst.add_gate(parity ? GateType::Xnor : GateType::Xor,
                                   reduced, n.name);
        }
        break;
      }
      case GateType::Mux: {
        const SignalId sel = ins[0], a = ins[1], b = ins[2];
        if (vals[0] == CVal::Zero) forward(1);
        else if (vals[0] == CVal::One) forward(2);
        else if (a == b) forward(1);
        else if (vals[1] == CVal::Zero && vals[2] == CVal::One) {
          remap[id] = sel;  // mux(s,0,1) = s
          changed = true;
        } else if (vals[1] == CVal::One && vals[2] == CVal::Zero) {
          remap[id] = mk_not(sel);
          changed = true;
        } else {
          remap[id] = dst.add_mux(sel, a, b, n.name);
        }
        break;
      }
      default:
        break;
    }
  }

  for (SignalId id : src_dffs) dst.set_dff_input(remap[id], remap[nl.dff_input(id)]);
  for (SignalId o : nl.outputs()) dst.add_output(remap[o]);
  return remove_dangling(dst);
}

}  // namespace

Netlist optimize(const Netlist& nl) {
  OptimizeStats stats;
  return optimize(nl, stats);
}

Netlist optimize(const Netlist& nl, OptimizeStats& stats) {
  stats = OptimizeStats{};
  const NetlistStats before = nl.stats();
  Netlist current = strash(nl);
  for (int round = 0; round < 8; ++round) {
    ++stats.rounds;
    bool changed = false;
    Netlist next = sweep(current, changed, stats.constants_propagated);
    next = strash(next);
    const bool shrunk = next.size() < current.size();
    current = std::move(next);
    if (!changed && !shrunk) break;
  }
  current.check();
  const NetlistStats after = current.stats();
  stats.gates_removed = before.gates > after.gates ? before.gates - after.gates : 0;
  stats.ffs_swept = before.dffs > after.dffs ? before.dffs - after.dffs : 0;
  return current;
}

}  // namespace cl::netlist
