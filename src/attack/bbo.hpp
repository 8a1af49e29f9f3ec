// Black-box oracle attack (NEOS "bbo" mode): no structural insight, only
// oracle queries and locked-netlist simulation. Candidate static keys are
// screened 512 per simulation pass (8 batches of 64, one per lane word)
// on a sim::StaticKeyScreen, built once per attack over random input
// sequences and the oracle's responses to them; a pass stops at the first
// cycle where every candidate has diverged from the oracle. Survivors are
// verified exactly, each within the attack's remaining time. Small key
// spaces are enumerated exhaustively — if the whole space dies, the attack
// has *proved* no static key works (CNS). A survivor whose verification
// runs out of budget is neither the key nor refuted: if no survivor
// verifies, the attack ends N/A (Timeout) and counts the unproven
// survivors in `detail`.
//
// Each batch's key lane words are built once per batch: an exhaustive
// batch is 64 consecutive keys and takes fixed lane patterns
// (sim::pack_consecutive_key_lanes, no key list drawn), a random batch
// goes through one bit-matrix transpose (sim::pack_key_lanes).
//
// Screening parallelizes across `jobs` worker threads, one pass each (the
// locked netlist is compiled once and shared; pass p of a round builds its
// lane words and screens in buffers of its own). The default of one
// thread suits callers that already run attacks in parallel; the CLI
// passes CUTELOCK_JOBS. Candidate batches are drawn serially from the RNG
// and examined in draw order, so the outcome, key, and iteration counts
// are identical for any job count at a fixed seed.
#pragma once

#include "attack/oracle.hpp"
#include "attack/result.hpp"

namespace cl::attack {

struct BboOptions {
  AttackBudget budget;
  std::size_t screen_sequences = 8;   // random sequences per screening pool
  std::size_t screen_cycles = 32;     // cycles per sequence
  std::size_t exhaustive_limit = 22;  // enumerate up to 2^limit keys; <= 63
  std::size_t jobs = 1;               // screening threads; >= 1
  std::uint64_t seed = 0xbb0;
};

/// Throws std::invalid_argument when `locked` has no key inputs or more than
/// 64, when exhaustive_limit exceeds 63, or when jobs is 0.
AttackResult bbo_attack(const netlist::Netlist& locked,
                        const SequentialOracle& oracle,
                        const BboOptions& options = {});

}  // namespace cl::attack
