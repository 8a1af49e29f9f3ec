// The benchmark's workloads: seeded lock x attack cells built through the
// library's public API, the attack each cell runs, and the check of its
// verdict against the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/result.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/lock_result.hpp"

namespace perfbench {

enum class Family { Int, Kc2, Rane, Bbo };

/// "INT" | "KC2" | "RANE" | "BBO", as in the paper's tables.
const char* family_name(Family family);

struct CellSpec {
  cl::benchgen::CircuitSpec circuit;
  /// `locked_ffs` is an upper bound, clamped to the circuit's DFF count.
  cl::core::StrOptions lock;
  Family attack = Family::Int;
  cl::attack::AttackBudget budget;
};

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  std::size_t workers = 1;  // bench::Runner threads for the attack phase
};

/// Every workload name, in the order README.md describes them.
const std::vector<std::string>& workload_names();

/// The cells of instance set `set` of a run at workload seed `seed`. The
/// pair derives every lock seed and nothing else, so each set holds its own
/// locked instances; seed 0, set 0 reproduces the seeds of the harness the
/// workload mirrors. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t set);

/// Wall time of each set-up call, summed over cells (traced runs only).
struct SetupSpans {
  double make_circuit_s = 0.0;
  double lock_s = 0.0;
  double lint_s = 0.0;
  double compile_s = 0.0;
};

/// One cell's attack instance: circuit, lock, lint gate and oracle. The
/// oracle keeps a reference to `circuit.netlist`, so an Instance never
/// moves once built. Throws when the lint gate reports an error.
struct Instance {
  Instance(const CellSpec& spec, SetupSpans* spans);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  cl::benchgen::SyntheticCircuit circuit;
  cl::lock::LockResult locked;
  std::optional<cl::attack::SequentialOracle> oracle;
};

cl::attack::AttackResult run_attack(const CellSpec& spec,
                                    const Instance& instance);

/// Empty when the verdict class agrees with the paper and an Equal key
/// reproduces the reference circuit on `seed`-derived random sequences
/// (plain simulation, not the attack's verifier); otherwise the reason.
/// The paper's classes: single-key reductions are broken (§IV-A), every
/// multi-key Cute-Lock cell holds (any verdict but Equal).
std::string check_verdict(const CellSpec& spec, const Instance& instance,
                          const cl::attack::AttackResult& result,
                          std::uint64_t seed);

}  // namespace perfbench
