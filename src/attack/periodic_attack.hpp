// Adaptive periodic-key attack — the ablation the paper's threat model
// invites (and its implicit future-work attacker).
//
// Every attack in Tables III/IV models a static key and therefore fails
// against time-base keys. An attacker who *hypothesizes the construction* —
// keys repeating with period p — can instead unroll with per-frame key
// variables tied as key(t) == key(t mod p) and search periods p = 1, 2, ...
// This harness quantifies how much harder that is: the key-search space
// grows from 2^ki to 2^(ki*p), and the attacker must also guess p.
//
// This attack is NOT part of the paper's evaluation; it exists to
// characterize the defense margin (see bench/ablation_periodic_attack).
#pragma once

#include "attack/oracle.hpp"
#include "attack/result.hpp"

namespace cl::attack {

struct PeriodicAttackOptions {
  AttackBudget budget;
  std::size_t max_period = 8;  // largest hypothesized schedule period; >= 1
};

struct PeriodicAttackResult {
  AttackResult result;
  std::size_t recovered_period = 0;            // when successful
  std::vector<sim::BitVec> recovered_schedule; // key per slot, when successful
};

/// Throws std::invalid_argument, before any oracle query, when max_period
/// is 0: that bound tests no hypothesis, so it could prove nothing.
PeriodicAttackResult periodic_key_attack(const netlist::Netlist& locked,
                                         const SequentialOracle& oracle,
                                         const PeriodicAttackOptions& options = {});

}  // namespace cl::attack
