// Cross-attack oracle observation bank.
//
// An oracle I/O fact — "applied from reset, input sequence X produces output
// sequence Y" — is a property of the *chip*, independent of any attack's
// model of the key. Table harnesses run five or more attack modes against
// the same locked instance, and without sharing, every one of them re-pays
// the same oracle queries and re-derives the same key constraints from
// scratch. The ObservationBank stores those facts per locked instance so a
// later attack can replay them as constraints (each attack encodes the fact
// under its own threat model: concrete vs symbolic reset, static key vs
// periodic schedule) before issuing any fresh oracle query.
//
// Identity: banks are keyed by a structural content hash of the locked
// netlist and the oracle's reference circuit (bank_key), so independently
// rebuilt but identical (lock, oracle) pairs — the bench Runner's jobs each
// synthesize their own copies — land in the same bank, while different
// circuits, parameters, seeds, or oracles never mix. Scan-exposed and
// sequential views of the same lock hash differently, which is exactly
// right: their I/O interfaces differ.
//
// Off by default: replay changes the solver's path, and bank content at
// each attack's start depends on job completion order. One process switch,
// set_observation_bank_forced, turns it on: the serve daemon and
// `cutelock attack` always, bench::Runner under CUTELOCK_OBS_BANK=1 (whose
// deterministic table output additionally needs CUTELOCK_JOBS=1).
// AttackResult records how many constraints were replayed from the bank vs
// queried fresh; bench::Runner surfaces both in BENCH_*.json.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/sequence.hpp"

namespace cl::attack {

/// One oracle fact: inputs applied from reset, observed outputs.
struct Observation {
  std::vector<sim::BitVec> inputs;
  std::vector<sim::BitVec> outputs;
};

class ObservationBank {
 public:
  /// Record a fresh oracle fact. Exact-duplicate input sequences, records
  /// beyond the per-bank cap, and ill-formed facts (input and output frame
  /// counts differ, or the input or output width varies between frames) are
  /// dropped (replay stays linear in distinct facts and memory stays
  /// bounded). Thread-safe.
  void record(const std::vector<sim::BitVec>& inputs,
              const std::vector<sim::BitVec>& outputs);

  /// Stable copy of the current contents, in recording order. Thread-safe.
  std::vector<Observation> snapshot() const;

  /// The recorded response for exactly this input sequence, if any — an
  /// attack about to pay an oracle query answers it from the bank instead
  /// (the warmup traces and counterexamples attacks share are the common
  /// hits). Thread-safe.
  std::optional<std::vector<sim::BitVec>> lookup(
      const std::vector<sim::BitVec>& inputs) const;

  std::size_t size() const;

  /// Append this bank's facts to `out` in the versioned binary persistence
  /// format (see docs/service.md). Thread-safe.
  void serialize(std::ostream& out) const;

  /// Merge facts from a stream previously written by serialize() into this
  /// bank (dedup and the per-bank cap apply, exactly like record()). Returns
  /// false — leaving the bank with whatever facts were merged before the
  /// damage — on truncated or corrupt input, which includes an ill-formed
  /// fact. Thread-safe.
  bool deserialize(std::istream& in);

  /// Observations a single bank retains at most.
  static constexpr std::size_t k_max_observations = 4096;

 private:
  struct Entry {
    std::uint64_t hash;
    std::size_t index;  // into observations_
  };

  mutable std::mutex mu_;
  std::vector<Observation> observations_;
  std::vector<Entry> seen_;  // sorted by input-sequence hash
};

/// Structural content hash of a netlist (names, node types, fanins, DFF
/// init values, output designations).
std::uint64_t lock_instance_key(const netlist::Netlist& nl);

/// Bank identity for an attack: the locked netlist *and* the oracle's
/// reference circuit. Hashing both closes a replay hazard — facts recorded
/// against one oracle must never constrain an attack on the same locked
/// structure that queries a different chip.
std::uint64_t bank_key(const netlist::Netlist& locked,
                       const netlist::Netlist& reference);

/// Process-wide bank for the (locked, reference) pair, or nullptr while the
/// process switch is off. Banks live for the process lifetime (a table
/// harness is one process); the registry is thread-safe.
ObservationBank* observation_bank_for(const netlist::Netlist& locked,
                                      const netlist::Netlist& reference);

/// Registry lookup bypassing the switch (tests and explicit wiring).
ObservationBank& observation_bank_for_key(std::uint64_t key);

/// The process switch observation_bank_for reads: the serve daemon's (cross-
/// run caching is its whole point), `cutelock attack`'s and, under
/// CUTELOCK_OBS_BANK=1, bench::Runner's.
void set_observation_bank_forced(bool on);

/// Keys of every bank currently in the registry (facts or not), sorted.
std::vector<std::uint64_t> observation_bank_keys();

/// Persist every registry bank to `path` (versioned binary, written to a
/// temp file and renamed so readers never see a half-written bank). Returns
/// false with a diagnostic in *error on I/O failure.
bool save_observation_banks(const std::string& path, std::string* error = nullptr);

/// Merge banks from a file written by save_observation_banks into the
/// registry, creating banks as needed. Corrupt or truncated files are
/// rejected (false + *error) without clearing facts already loaded; a
/// mid-file failure keeps the banks merged before the damage.
bool load_observation_banks(const std::string& path, std::string* error = nullptr);

}  // namespace cl::attack
