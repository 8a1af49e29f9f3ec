// Oracle-guided sequential (scan-free) attacks by time-frame unrolling:
//
//  * bmc_attack  — the unrolling attack of El Massad et al. (ICCAD'17), the
//    algorithm behind NEOS's "int" mode: find discriminating input
//    *sequences* (DISes) on an unrolling, query the oracle from reset,
//    constrain, feed back the counterexample of every refuted candidate,
//    and conclude when the key space is discriminated.
//  * kc2_attack  — Shamsi et al. (DATE'19): the same decision problem on one
//    persistent solver (learned clauses and key conditions are "crunched"
//    instead of rebuilt), plus wrong-candidate blocking clauses.
//  * rane_attack — Roshanisefat et al. (GLSVLSI'21): formal-verification
//    style formulation where the reset state is itself a symbolic secret
//    shared by all copies.
//
// All three model one *static* key vector — exactly what the original tools
// do, and exactly the assumption Cute-Lock's time-based keys break: after
// responses from two different counter phases are constrained, the key space
// becomes empty and the attacks report CNS.
#pragma once

#include "attack/oracle.hpp"
#include "attack/result.hpp"

namespace cl::attack {

struct SeqAttackOptions {
  AttackBudget budget;
  bool incremental = false;    // KC2: block every refuted candidate key
  bool symbolic_init = false;  // RANE: reset state as symbolic secret
  std::size_t start_depth = 2;  // unroll depth of the DIS search
  /// Simulation-guided preprocessing: constrain this many random oracle
  /// traces before the DIS loop (prunes the bulk of the hypothesis space;
  /// essential when the reset state is symbolic).
  std::size_t warmup_sequences = 2;
  std::size_t warmup_cycles = 12;
  std::uint64_t seed = 0x5e9a77;
};

AttackResult seq_attack(const netlist::Netlist& locked,
                        const SequentialOracle& oracle,
                        const SeqAttackOptions& options);

/// Named configurations used by the benchmark tables.
AttackResult bmc_attack(const netlist::Netlist& locked,
                        const SequentialOracle& oracle,
                        const AttackBudget& budget = {});
AttackResult kc2_attack(const netlist::Netlist& locked,
                        const SequentialOracle& oracle,
                        const AttackBudget& budget = {});
AttackResult rane_attack(const netlist::Netlist& locked,
                         const SequentialOracle& oracle,
                         const AttackBudget& budget = {});

}  // namespace cl::attack
