// SCOPE — oracle-free structural key inference as a Table V attack row
// (after Alrahis et al., "UNSAIL/SCOPE" line of synthesis-based constant
// propagation attacks). Thin attack-shaped wrapper over
// analysis::infer_key_hints: the inference decides bits from the synthesis
// differential alone; the oracle, when one is supplied at all, is used only
// to confirm a fully decided key (matching FALL's confirmation step). With
// no oracle the result is the per-bit verdict vector itself — the honest
// oracle-free reading, where partially decided keys report Fail with the
// decided fraction in the detail string.
#pragma once

#include "analysis/key_infer.hpp"
#include "attack/oracle.hpp"
#include "attack/result.hpp"

namespace cl::attack {

struct ScopeOptions {
  AttackBudget budget;
  analysis::InferOptions infer;
};

struct ScopeResult {
  AttackResult result;
  analysis::KeyHintReport report;
  std::size_t decided = 0;  ///< bits with a definite verdict
};

/// Run the inference. `oracle` may be null (pure oracle-free mode).
/// Outcomes: Equal — every bit decided and the key verified against the
/// oracle; WrongKey — every bit decided but verification failed; Fail —
/// some bits stayed unknown (detail says how many) or no oracle was given
/// to confirm a complete key; Timeout — the budget died mid-sweep, or
/// `options.budget.cancel` was set before the sweep (0 iterations) or
/// before the verification.
ScopeResult scope_attack(const netlist::Netlist& locked,
                         const SequentialOracle* oracle = nullptr,
                         const ScopeOptions& options = {});

}  // namespace cl::attack
