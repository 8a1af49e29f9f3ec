#include "attack/fall.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "attack/verify.hpp"
#include "netlist/topo.hpp"
#include "sim/sequence.hpp"
#include "util/timer.hpp"

namespace cl::attack {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

namespace {

/// A conjunction of primary-input literals: input index -> polarity.
using InputPattern = std::map<std::size_t, bool>;

/// Flatten the AND-tree rooted at `root` into primary-input literals.
/// Returns nullopt when the tree contains anything other than AND gates,
/// primary inputs, and inverted primary inputs (i.e., it is not a pure
/// input-pattern comparator).
std::optional<InputPattern> flatten_comparator(
    const Netlist& nl, SignalId root,
    const std::map<SignalId, std::size_t>& input_index) {
  InputPattern pattern;
  std::vector<SignalId> stack{root};
  while (!stack.empty()) {
    const SignalId s = stack.back();
    stack.pop_back();
    const netlist::Node n = nl.node(s);
    switch (n.type) {
      case GateType::And:
        for (SignalId f : n.fanins) stack.push_back(f);
        break;
      case GateType::Buf:
        stack.push_back(n.fanins[0]);
        break;
      case GateType::Input: {
        const auto it = input_index.find(s);
        if (it == input_index.end()) return std::nullopt;
        const auto [pos, inserted] = pattern.emplace(it->second, true);
        if (!inserted && !pos->second) return std::nullopt;  // x & ~x
        break;
      }
      case GateType::Not: {
        SignalId in = n.fanins[0];
        while (nl.type(in) == GateType::Buf) in = nl.node(in).fanins[0];
        if (nl.type(in) != GateType::Input) return std::nullopt;
        const auto it = input_index.find(in);
        if (it == input_index.end()) return std::nullopt;
        const auto [pos, inserted] = pattern.emplace(it->second, false);
        if (!inserted && pos->second) return std::nullopt;
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return pattern;
}

}  // namespace

FallResult fall_attack(const Netlist& locked, const SequentialOracle& oracle,
                       const FallOptions& options) {
  util::Timer timer;
  FallResult out;
  util::Rng rng(0xfa11);

  std::map<SignalId, std::size_t> input_index;
  for (std::size_t i = 0; i < locked.inputs().size(); ++i) {
    input_index.emplace(locked.inputs()[i], i);
  }

  // Step 1+2: comparator extraction over all AND-rooted cones. Only
  // patterns wide enough to be the key comparator count as candidate keys
  // (narrower pattern fragments are sub-trees of the same comparator).
  const std::size_t ki = locked.key_inputs().size();
  std::vector<InputPattern> patterns;
  for (SignalId s = 0; s < locked.size(); ++s) {
    if (locked.type(s) != GateType::And) continue;
    const auto p = flatten_comparator(locked, s, input_index);
    if (!p || p->size() < options.min_pattern_bits) continue;
    if (p->size() != ki) continue;
    if (std::find(patterns.begin(), patterns.end(), *p) == patterns.end()) {
      patterns.push_back(*p);
    }
    if (options.budget.cancelled() ||
        timer.seconds() > options.budget.time_limit_s) {
      break;
    }
  }
  out.candidates = patterns.size();

  // Functional profile: a key bit is sensitive when flipping it moves some
  // output in the sample (sim::sample_key_flips). A comparator-driven flip
  // structure makes outputs move; purely decorative keys never do.
  std::size_t sensitive = 0;
  for (const sim::KeyFlip& f :
       sim::sample_key_flips(sim::CompiledNetlist(locked), rng)) {
    if (f.rose || f.fell) ++sensitive;
  }

  // Step 3+4: candidate keys from pattern polarities, verified on the
  // oracle. The pattern over inputs {i0 < i1 < ...} maps positionally onto
  // the key inputs (the TTLock/SFLL construction compares key bit j against
  // the j-th protected input). A candidate whose proof ran out of budget
  // may be the key, so it turns a final FAIL into N/A.
  std::size_t unproven = 0;
  const auto stopped = [&] {
    out.result.outcome = Outcome::Timeout;
    out.result.seconds = timer.seconds();
    return out;
  };
  // Checked before the loop too: with no candidates it never runs.
  if (options.budget.cancelled()) return stopped();
  for (const InputPattern& p : patterns) {
    if (options.budget.cancelled() ||
        timer.seconds() > options.budget.time_limit_s) {
      return stopped();
    }
    sim::BitVec key(ki, 0);
    std::size_t j = 0;
    for (const auto& [input, polarity] : p) key[j++] = polarity ? 1 : 0;
    ++out.result.iterations;
    const VerifyResult v = verify_static_key(
        locked, key, oracle.reference(), verify_options_for(options.budget));
    if (v.verdict == Verdict::Unknown) ++unproven;
    if (v.verdict == Verdict::Equivalent) {
      ++out.confirmed;
      out.result.outcome = Outcome::Equal;
      out.result.key = key;
      out.result.seconds = timer.seconds();
      out.result.detail = std::to_string(out.candidates) + " candidates, " +
                          std::to_string(sensitive) + " sensitive keys";
      return out;
    }
  }

  out.result.outcome = unproven > 0 ? Outcome::Timeout : Outcome::Fail;
  out.result.seconds = timer.seconds();
  out.result.detail = std::to_string(out.candidates) + " candidates, none confirmed; " +
                      (unproven > 0 ? std::to_string(unproven) + " unproven; "
                                    : std::string()) +
                      std::to_string(sensitive) + " sensitive keys";
  return out;
}

}  // namespace cl::attack
