#include "analysis/key_infer.hpp"

#include <algorithm>

#include "netlist/optimize.hpp"
#include "netlist/topo.hpp"
#include "netlist/transform.hpp"
#include "sim/sequence.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cl::analysis {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

namespace {

/// The one node reading `s` (through any number of its pins), or
/// k_no_signal when `s` has no reader or several. Fanout lists ascend, so
/// one reader means equal ends.
SignalId sole_reader(const netlist::Fanouts& fanout, SignalId s) {
  const std::span<const SignalId> readers = fanout[s];
  return !readers.empty() && readers.front() == readers.back()
             ? readers.front()
             : netlist::k_no_signal;
}

/// Reader-shape classification. Only the two shapes with a provable
/// synthesis differential get a decidable role; everything else — multiple
/// readers (Cute-Lock-Str's per-slot comparators), key-vs-key comparators,
/// dead bits — is Complex and will stay Unknown.
KeyRole classify(const Netlist& nl, SignalId key,
                 const netlist::Fanouts& fanout) {
  const SignalId reader = sole_reader(fanout, key);
  if (reader == netlist::k_no_signal) return KeyRole::Complex;
  const netlist::Node n = nl.node(reader);
  if ((n.type == GateType::Xor || n.type == GateType::Xnor) &&
      n.fanins.size() == 2) {
    if (std::count(n.fanins.begin(), n.fanins.end(), key) != 1) {
      return KeyRole::Complex;
    }
    const SignalId other = n.fanins[0] == key ? n.fanins[1] : n.fanins[0];
    // XOR against another key bit is a comparator fragment, not a key gate.
    if (nl.type(other) == GateType::KeyInput) return KeyRole::Complex;
    return KeyRole::XorGate;
  }
  if (n.type == GateType::Mux && n.fanins[0] == key && n.fanins[1] != key &&
      n.fanins[2] != key) {
    return KeyRole::MuxSelect;
  }
  return KeyRole::Complex;
}

/// The XOR-gate degeneracy signature inverts when the key gate was inserted
/// on an inverter's output and is that inverter's only (non-output) reader:
/// the WRONG pin then rewrites the gate to NOT(NOT(x)), which synthesis
/// collapses to a wire AND sweeps the now-dangling inverter — two removals
/// against the correct side's one. Detect that shape so the vote direction
/// can be flipped instead of trusting the raw differential.
bool xor_vote_flipped(const Netlist& nl, SignalId key,
                      const netlist::Fanouts& fanout) {
  const SignalId reader = fanout[key].front();
  const netlist::Node gate = nl.node(reader);
  const SignalId other = gate.fanins[0] == key ? gate.fanins[1]
                                               : gate.fanins[0];
  if (nl.type(other) != GateType::Not) return false;
  const auto& outs = nl.outputs();
  if (std::find(outs.begin(), outs.end(), other) != outs.end()) return false;
  return sole_reader(fanout, other) == reader;
}

/// The SCOPE vote: optimize both pinned variants and compare how degenerate
/// synthesis found them (OptimizeStats: removals + propagated constants).
/// XOR key gate — the correct value folds the gate to a wire, the wrong one
/// leaves an inverter, so the correct side is MORE degenerate (unless the
/// gate sits on a lone inverter's output — see xor_vote_flipped). MUX select
/// — the correct value forwards the true cone while the wrong one forwards
/// the decoy and lets remove_dangling sweep the (now unread) true cone, so
/// the correct side is LESS degenerate. A zero margin stays Unknown.
void decide(const Netlist& nl, BitHint& h, bool flip_xor_vote) {
  if (h.role == KeyRole::Complex) return;
  netlist::OptimizeStats st0, st1;
  netlist::optimize(netlist::pin_signal(nl, h.signal, false), st0);
  netlist::optimize(netlist::pin_signal(nl, h.signal, true), st1);
  const std::size_t degen0 =
      st0.gates_removed + st0.ffs_swept + st0.constants_propagated;
  const std::size_t degen1 =
      st1.gates_removed + st1.ffs_swept + st1.constants_propagated;
  if (degen0 == degen1) return;
  const bool zero_more_degenerate = degen0 > degen1;
  bool value = h.role == KeyRole::XorGate ? !zero_more_degenerate
                                          : zero_more_degenerate;
  if (h.role == KeyRole::XorGate && flip_xor_vote) value = !value;
  h.verdict = value ? BitVerdict::One : BitVerdict::Zero;
  const std::size_t margin = zero_more_degenerate ? degen0 - degen1
                                                  : degen1 - degen0;
  h.confidence = std::min(1.0, 0.7 + 0.1 * static_cast<double>(margin));
}

}  // namespace

KeyHintReport infer_key_hints(const Netlist& locked,
                              const InferOptions& options) {
  util::Timer timer;
  KeyHintReport rep;
  rep.circuit = locked.name();
  const std::vector<SignalId>& keys = locked.key_inputs();
  rep.key_bits = keys.size();
  rep.bits.resize(keys.size());

  const auto fanout = netlist::fanouts(locked);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    BitHint& h = rep.bits[i];
    h.signal = keys[i];
    h.name = locked.signal_name(keys[i]);
    h.role = classify(locked, keys[i], fanout);
  }

  // FALL-style sampled unateness: the directions the outputs moved when the
  // bit flipped against random stimuli and random settings of the others.
  if (options.profile_unateness) {
    util::Rng rng(0x5c03eULL);
    const auto flips =
        sim::sample_key_flips(sim::CompiledNetlist(locked), rng);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const sim::KeyFlip& f = flips[i];
      rep.bits[i].unate = f.rose && f.fell ? Unateness::Binate
                          : f.rose         ? Unateness::Positive
                          : f.fell         ? Unateness::Negative
                                           : Unateness::Insensitive;
    }
  }

  for (BitHint& h : rep.bits) {
    if (options.time_limit_s > 0 && timer.seconds() > options.time_limit_s) {
      rep.budget_exhausted = true;
      break;
    }
    decide(locked, h,
           h.role == KeyRole::XorGate &&
               xor_vote_flipped(locked, h.signal, fanout));
    // A structurally decided bit the sampler never saw move is suspicious
    // (decorative key gate or unreachable cone): keep the verdict but drop
    // it below the hint-injection confidence bar.
    if (h.verdict != BitVerdict::Unknown && h.unate == Unateness::Insensitive) {
      h.confidence *= 0.5;
    }
  }
  return rep;
}

std::size_t KeyHintReport::decided(double min_confidence) const {
  std::size_t n = 0;
  for (const BitHint& h : bits) {
    if (h.verdict != BitVerdict::Unknown && h.confidence >= min_confidence) ++n;
  }
  return n;
}

std::vector<std::pair<std::size_t, bool>> KeyHintReport::decided_bits(
    double min_confidence) const {
  std::vector<std::pair<std::size_t, bool>> out;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const BitHint& h = bits[i];
    if (h.verdict == BitVerdict::Unknown || h.confidence < min_confidence) {
      continue;
    }
    out.emplace_back(i, h.verdict == BitVerdict::One);
  }
  return out;
}

std::string KeyHintReport::verdict_string() const {
  std::string s;
  s.reserve(bits.size());
  for (const BitHint& h : bits) s.push_back(verdict_char(h.verdict));
  return s;
}

std::string KeyHintReport::summary() const {
  return std::to_string(decided()) + "/" + std::to_string(bits.size()) +
         " bits decided: " + verdict_string() +
         (budget_exhausted ? " (budget exhausted)" : "");
}

const char* role_name(KeyRole role) {
  switch (role) {
    case KeyRole::XorGate: return "xor-gate";
    case KeyRole::MuxSelect: return "mux-select";
    case KeyRole::Complex: return "complex";
  }
  return "?";
}

const char* unate_name(Unateness u) {
  switch (u) {
    case Unateness::NotProfiled: return "not-profiled";
    case Unateness::Insensitive: return "insensitive";
    case Unateness::Positive: return "positive";
    case Unateness::Negative: return "negative";
    case Unateness::Binate: return "binate";
  }
  return "?";
}

char verdict_char(BitVerdict v) {
  switch (v) {
    case BitVerdict::Zero: return '0';
    case BitVerdict::One: return '1';
    case BitVerdict::Unknown: return 'x';
  }
  return '?';
}

}  // namespace cl::analysis
