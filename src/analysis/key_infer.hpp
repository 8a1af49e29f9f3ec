// SCOPE-style oracle-free key inference (after Alrahis et al.'s SCOPE:
// synthesis-based constant propagation attack). For every key bit, build two
// variants of the locked netlist — the bit pinned to 0 and to 1, all other
// keys left free — run netlist::optimize on both, and compare what synthesis
// did to them. An inline XOR/XNOR key gate folds to a wire under the correct
// value but leaves an inverter under the wrong one; a locking MUX select
// forwards the true cone under the correct value but sweeps it as dead logic
// under the wrong one. Bits whose readers match neither shape (comparator
// trees, multi-reader keys — Cute-Lock-Str's time-base slot comparators are
// the canonical case) are reported `unknown` rather than guessed, so the
// pass never votes wrong on locks it cannot read.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace cl::analysis {

/// Structural role of a key bit, from its reader shape.
enum class KeyRole : std::uint8_t {
  XorGate,    ///< single reader, 2-fanin XOR/XNOR inline key gate
  MuxSelect,  ///< single reader, select pin of a locking MUX
  Complex,    ///< anything else: comparators, multi-reader, dead bits
};

/// Sampled unateness of the outputs in one key bit (FALL's functional
/// profiling): an inline key gate makes outputs binate; a decorative or
/// deeply buried bit shows no sensitivity within the sample budget.
enum class Unateness : std::uint8_t {
  NotProfiled,
  Insensitive,
  Positive,
  Negative,
  Binate,
};

enum class BitVerdict : std::uint8_t { Zero, One, Unknown };

struct BitHint {
  netlist::SignalId signal = netlist::k_no_signal;
  std::string name;
  KeyRole role = KeyRole::Complex;
  BitVerdict verdict = BitVerdict::Unknown;
  double confidence = 0.0;  ///< 0 (unknown) .. 1 (decisive synthesis margin)
  Unateness unate = Unateness::NotProfiled;
};

struct KeyHintReport {
  std::string circuit;
  std::size_t key_bits = 0;
  std::vector<BitHint> bits;
  /// True when the time budget ran out mid-sweep; the remaining bits are
  /// reported Unknown with zero confidence.
  bool budget_exhausted = false;

  /// Bits with a definite verdict at >= min_confidence.
  std::size_t decided(double min_confidence = 0.0) const;
  /// (key-bit index, value) for every decided bit at >= min_confidence.
  std::vector<std::pair<std::size_t, bool>> decided_bits(
      double min_confidence = 0.0) const;
  /// Verdicts as a string, index 0 leftmost: '0', '1', or 'x' per bit.
  std::string verdict_string() const;
  /// One-line human summary ("5/8 bits decided: 01x1x0xx").
  std::string summary() const;
};

struct InferOptions {
  /// Run the sampled unateness profiling pass (sim::sample_key_flips from a
  /// fixed seed: 16 draws of 8 cycles per key bit).
  bool profile_unateness = true;
  /// Wall budget for the whole sweep; 0 = unlimited. On exhaustion the
  /// remaining bits stay Unknown and budget_exhausted is set.
  double time_limit_s = 0.0;
};

/// Run the full inference: role classification, the per-bit optimize
/// differential (decidable roles only; a Complex bit stays Unknown without
/// optimizing), and (optionally) unateness sampling.
KeyHintReport infer_key_hints(const netlist::Netlist& locked,
                              const InferOptions& options = {});

const char* role_name(KeyRole role);
const char* unate_name(Unateness u);
char verdict_char(BitVerdict v);

}  // namespace cl::analysis
