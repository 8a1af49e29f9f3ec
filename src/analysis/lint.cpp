#include "analysis/lint.hpp"

#include <algorithm>

#include "netlist/topo.hpp"
#include "util/fnv.hpp"

namespace cl::analysis {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

namespace {

void add(LintReport& rep, Severity sev, std::string code, std::string signal,
         std::string message) {
  rep.diagnostics.push_back(
      {sev, std::move(code), std::move(signal), std::move(message)});
}

bool is_output(const Netlist& nl, SignalId s) {
  return std::find(nl.outputs().begin(), nl.outputs().end(), s) !=
         nl.outputs().end();
}

/// Merge `sub`'s diagnostics into `rep`, prefixing signals with which
/// netlist of the submission they came from.
void merge(LintReport& rep, const LintReport& sub, const std::string& which) {
  for (Diagnostic d : sub.diagnostics) {
    d.signal = d.signal.empty() ? which : which + "/" + d.signal;
    rep.diagnostics.push_back(std::move(d));
  }
}

}  // namespace

LintReport lint(const Netlist& nl) {
  LintReport rep;

  if (nl.outputs().empty()) {
    add(rep, Severity::Error, "no-outputs", "",
        "netlist has no primary outputs; nothing is observable");
  }

  // Floating DFFs make the fanin graph unwalkable, so find them first and
  // skip the graph-based checks when any exist.
  bool floating = false;
  for (SignalId d : nl.dffs()) {
    if (nl.dff_input(d) == netlist::k_no_signal) {
      floating = true;
      add(rep, Severity::Error, "floating-dff", nl.signal_name(d),
          "flip-flop D pin was never wired");
    } else if (nl.dff_input(d) == d) {
      add(rep, Severity::Warning, "self-loop-dff", nl.signal_name(d),
          "flip-flop D pin is wired straight back to its own Q");
    }
  }
  if (floating) return rep;

  try {
    (void)netlist::levelize(nl);
  } catch (const std::exception& e) {
    add(rep, Severity::Error, "comb-loop", "", e.what());
    return rep;
  }
  const netlist::Fanouts fanout = netlist::fanouts(nl);
  const std::span<const GateType> types = nl.types();

  for (SignalId i : nl.inputs()) {
    if (fanout[i].empty() && !is_output(nl, i)) {
      add(rep, Severity::Warning, "unused-input", nl.signal_name(i),
          "primary input has no readers");
    }
  }
  for (SignalId k : nl.key_inputs()) {
    if (fanout[k].empty() && !is_output(nl, k)) {
      add(rep, Severity::Warning, "unused-input", nl.signal_name(k),
          "key input has no readers; it cannot affect the function");
    }
  }

  // Dead logic: gates/FFs unreachable from every output (remove_dangling's
  // liveness rule). Decoy-latch cones are carved out first: a key input
  // whose entire fanout cone is unobservable but holds a flip-flop is the
  // programmable-decoy shape of latch-based locking (lock/latch_lock.hpp),
  // deliberate structure rather than forgotten logic — report it as an
  // info-level `latch-only-key` finding and exempt its cone from the
  // `dead-logic` count.
  {
    std::vector<bool> live(nl.size(), false);
    std::vector<SignalId> stack(nl.outputs().begin(), nl.outputs().end());
    while (!stack.empty()) {
      const SignalId s = stack.back();
      stack.pop_back();
      if (live[s]) continue;
      live[s] = true;
      for (SignalId f : nl.fanins(s)) {
        if (!live[f]) stack.push_back(f);
      }
    }
    // A key is a decoy only when no node of its fanout cone is live, so
    // each walk ends at the first live node it meets: an observable key
    // costs a step or two, and only a real decoy cone is walked in full.
    // walked_by[s] is 1 + the index of the last key whose walk reached s.
    std::vector<bool> decoy_cone(nl.size(), false);
    std::vector<std::uint32_t> walked_by(nl.size(), 0);
    std::vector<SignalId> cone;
    std::vector<SignalId> work;
    const std::vector<SignalId>& keys = nl.key_inputs();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const SignalId k = keys[i];
      if (fanout[k].empty()) continue;  // reported as unused-input above
      const auto stamp = static_cast<std::uint32_t>(i + 1);
      cone.clear();
      work.assign(1, k);
      walked_by[k] = stamp;
      bool observable = false, has_dff = false;
      while (!work.empty()) {
        const SignalId s = work.back();
        work.pop_back();
        if (live[s]) {
          observable = true;
          break;
        }
        cone.push_back(s);
        if (types[s] == GateType::Dff) has_dff = true;
        for (SignalId reader : fanout[s]) {
          if (walked_by[reader] != stamp) {
            walked_by[reader] = stamp;
            work.push_back(reader);
          }
        }
      }
      if (!observable && has_dff) {
        add(rep, Severity::Info, "latch-only-key", nl.signal_name(k),
            "key input drives only unobservable sequential logic (a "
            "latch-style decoy cone of " +
                std::to_string(cone.size() - 1) + " node(s))");
        for (SignalId s : cone) decoy_cone[s] = true;
      }
    }
    std::size_t dead = 0;
    for (SignalId s = 0; s < nl.size(); ++s) {
      const GateType t = types[s];
      if ((netlist::is_comb_gate(t) || t == GateType::Dff) && !live[s] &&
          !decoy_cone[s]) {
        ++dead;
      }
    }
    if (dead > 0) {
      add(rep, Severity::Warning, "dead-logic", "",
          std::to_string(dead) +
              " gate(s)/flip-flop(s) are unreachable from every output");
    }
  }

  // Duplicate gates: same type + same (canonicalized) fanin list. The
  // first gate of each distinct key keeps its canonical list in one flat
  // pool; an open-addressing table (linear probing, at most half full)
  // maps a key's hash to it. A gate costs one hash and, expected, one list
  // comparison, however many gates share its key, and no allocation of its
  // own.
  {
    const auto commutative = [](GateType t) {
      return t == GateType::And || t == GateType::Nand || t == GateType::Or ||
             t == GateType::Nor || t == GateType::Xor || t == GateType::Xnor;
    };
    struct Key {
      std::uint32_t offset;  // canonical fanins: pool[offset, offset + size)
      std::uint32_t size;
      GateType type;
    };
    std::vector<Key> distinct;
    std::vector<SignalId> pool;
    pool.reserve(nl.fanin_refs());
    std::size_t bits = 1;
    while ((std::size_t{1} << bits) < 2 * nl.size()) ++bits;
    std::vector<std::uint32_t> table(std::size_t{1} << bits, 0);  // 1 + index
    const std::size_t mask = table.size() - 1;
    std::size_t duplicates = 0;
    for (SignalId s = 0; s < nl.size(); ++s) {
      const GateType t = types[s];
      if (!netlist::is_comb_gate(t) || t == GateType::Buf) continue;
      const std::span<const SignalId> fanins = nl.fanins(s);
      const auto offset = static_cast<std::uint32_t>(pool.size());
      pool.insert(pool.end(), fanins.begin(), fanins.end());
      const auto first = pool.begin() + offset;
      if (commutative(t)) std::sort(first, pool.end());
      std::uint64_t h = util::k_fnv_offset;
      util::fnv1a_mix(h, static_cast<std::uint64_t>(t));
      for (auto it = first; it != pool.end(); ++it) util::fnv1a_mix(h, *it);
      std::size_t i = (h * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
      for (;; i = (i + 1) & mask) {
        if (table[i] == 0) {
          distinct.push_back(
              {offset, static_cast<std::uint32_t>(fanins.size()), t});
          table[i] = static_cast<std::uint32_t>(distinct.size());
          break;
        }
        const Key& k = distinct[table[i] - 1];
        if (k.type == t && k.size == fanins.size() &&
            std::equal(first, pool.end(), pool.begin() + k.offset)) {
          ++duplicates;
          pool.resize(offset);  // the first gate of the key holds the list
          break;
        }
      }
    }
    if (duplicates > 0) {
      add(rep, Severity::Warning, "duplicate-gates", "",
          std::to_string(duplicates) +
              " gate(s) duplicate another gate's function (strash would "
              "merge them)");
    }
  }

  for (SignalId o : nl.outputs()) {
    const GateType t = nl.type(o);
    if (t == GateType::Const0 || t == GateType::Const1) {
      add(rep, Severity::Warning, "constant-output", nl.signal_name(o),
          "primary output is pinned to a constant");
    }
  }

  return rep;
}

LintReport lint_attack_inputs(const Netlist& locked, const Netlist& oracle) {
  LintReport rep;
  merge(rep, lint(locked), "locked");
  merge(rep, lint(oracle), "oracle");

  if (locked.key_inputs().empty()) {
    add(rep, Severity::Error, "no-key-inputs", "locked",
        "locked netlist has no key inputs; there is nothing to attack");
  }
  if (!oracle.key_inputs().empty()) {
    add(rep, Severity::Error, "keyed-oracle", "oracle",
        "oracle netlist has key inputs; the reference must be the unlocked "
        "design");
  }
  if (locked.inputs().size() != oracle.inputs().size() ||
      locked.outputs().size() != oracle.outputs().size()) {
    add(rep, Severity::Error, "interface-mismatch", "",
        "locked is " + std::to_string(locked.inputs().size()) + " in / " +
            std::to_string(locked.outputs().size()) + " out but oracle is " +
            std::to_string(oracle.inputs().size()) + " in / " +
            std::to_string(oracle.outputs().size()) + " out");
  }
  return rep;
}

std::size_t LintReport::errors() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Error) ++n;
  }
  return n;
}

std::size_t LintReport::warnings() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Warning) ++n;
  }
  return n;
}

std::size_t LintReport::infos() const {
  return diagnostics.size() - errors() - warnings();
}

std::string format_diagnostics(const LintReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += d.severity == Severity::Error
               ? "error["
               : (d.severity == Severity::Warning ? "warning[" : "info[");
    out += d.code;
    out += "]";
    if (!d.signal.empty()) {
      out += " ";
      out += d.signal;
    }
    out += ": ";
    out += d.message;
    out += "\n";
  }
  return out;
}

}  // namespace cl::analysis
