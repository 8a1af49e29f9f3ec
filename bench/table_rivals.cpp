// TABLE RIVALS — lock x attack success matrix under rival acceptance
// criteria.
//
// Every registered defense (lock::lock_registry: XOR, K-Gate, CAC 2.0,
// latch-based, Cute-Lock-Str) is attacked with the sequential engines
// (INT/KC2/RANE), the scan-model SAT attack and BBO on small ISCAS'89
// circuits, and every reported key is judged twice (attack/accept.hpp):
//
//   exact — the one-key premise: key equals the ground-truth bit vector
//   any   — the key is functionally passing, decoy bits free
//
// The point of the table (Hu et al., "On the One-Key Premise") is the gap
// column: cells where `any` accepts and `exact` denies are defenses the
// classic scoreboard would call unbroken when the attacker in fact holds a
// working key. The harness exits nonzero when NO such cell exists — the gap
// is a property of multi-key locks this repo must reproduce, not a fluke.
//
// Scan-model cells for locks that add their own state (latch, Cute-Lock-Str)
// are structurally inapplicable (scan exposure widens the interface past the
// oracle's) and rendered as "n/a (scan)".
#include <cstdio>
#include <vector>

#include "attack/accept.hpp"
#include "attack/registry.hpp"
#include "bench_common.hpp"
#include "benchgen/catalog.hpp"
#include "lock/lock_registry.hpp"
#include "runner.hpp"
#include "util/table.hpp"

namespace {

using namespace cl;

/// The attacks of every row, by attack-registry mode name.
const char* const k_modes[] = {"bmc", "kc2", "rane", "sat", "bbo"};

struct Cell {
  std::string circuit;
  const lock::RegisteredLock* entry;
  const attack::AttackMode* mode;
  bool applicable;
  attack::AttackResult result;
};

/// Deterministic per-(circuit, lock) lock seed so every attack in a row
/// faces the same instance and the table is reproducible.
std::uint64_t lock_seed(const std::string& circuit, const std::string& lock) {
  std::uint64_t h = 0x21a17ULL;
  for (const char c : circuit + "/" + lock) h = h * 131 + c;
  return h;
}

attack::AttackResult run_cell(const Cell& cell,
                              const attack::ModeOptions& options) {
  const auto circuit = benchgen::make_circuit(cell.circuit);
  util::Rng rng(lock_seed(cell.circuit, cell.entry->name));
  const lock::LockResult lr = cell.entry->build(circuit.netlist, rng);
  attack::AttackResult r =
      attack::run_attack_mode(*cell.mode, lr.locked, circuit.netlist, options)
          .result;
  // Judge the reported key under both criteria in one evaluation. Dynamic
  // locks have no static ground truth, so their acceptance fields stay -1.
  if (!cell.entry->dynamic_key && !r.key.empty()) {
    const attack::AcceptReport rep = attack::verify_any_key(
        lr.locked, r.key, circuit.netlist, &lr.correct_key);
    attack::apply_acceptance(rep, &r);
  }
  return r;
}

std::string tri(int v) { return v < 0 ? "-" : (v == 1 ? "yes" : "no"); }

}  // namespace

int main() {
  using namespace cl;
  const double seconds = bench::attack_seconds(2.0);
  std::printf("TABLE RIVALS: registered locks vs attacks under exact-key / "
              "any-passing-key acceptance (per-attack budget %.1fs)\n\n",
              seconds);

  const std::vector<std::string> circuits =
      bench::small_run() ? std::vector<std::string>{"s27", "s298"}
                         : std::vector<std::string>{"s27", "s298", "s349"};

  std::vector<Cell> cells;
  for (const std::string& circuit : circuits) {
    for (const lock::RegisteredLock& entry : lock::lock_registry()) {
      for (const char* name : k_modes) {
        const attack::AttackMode& mode = attack::find_attack_mode(name);
        cells.push_back(Cell{circuit, &entry, &mode,
                             !(mode.scan_model && entry.adds_state), {}});
      }
    }
  }

  bench::Runner runner("table_rivals");
  attack::ModeOptions options;
  options.budget = bench::table_budget(seconds);
  for (Cell& cell : cells) {
    if (!cell.applicable) continue;
    const Cell snapshot = cell;
    runner.add_attack(
        bench::JobMeta{cell.entry->name, cell.circuit, cell.mode->label, -1,
                       -1},
        &cell.result,
        [snapshot, options]() { return run_cell(snapshot, options); });
  }
  runner.run();

  util::Table table({"circuit", "lock", "attack", "outcome", "exact", "any",
                     "corruption"});
  std::size_t broken_exact = 0, broken_any = 0, gap_cells = 0, run = 0;
  for (const Cell& cell : cells) {
    if (!cell.applicable) {
      table.add_row({cell.circuit, cell.entry->name, cell.mode->label,
                     "n/a (scan)", "-", "-", "-"});
      continue;
    }
    ++run;
    const attack::AttackResult& r = cell.result;
    if (r.key_exact == 1) ++broken_exact;
    if (r.any_key_pass == 1) ++broken_any;
    if (r.any_key_pass == 1 && r.key_exact == 0) ++gap_cells;
    char corr[32] = "-";
    if (r.corruption_rate >= 0) {
      std::snprintf(corr, sizeof corr, "%.4f", r.corruption_rate);
    }
    table.add_row({cell.circuit, cell.entry->name, cell.mode->label,
                   bench::attack_cell(r), tri(r.key_exact),
                   tri(r.any_key_pass), corr});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("%zu cells run: %zu broken under exact-key, %zu under "
              "any-passing-key, %zu one-key-premise gap cell(s)\n",
              run, broken_exact, broken_any, gap_cells);
  if (gap_cells == 0) {
    std::printf("FAIL: expected at least one cell where the criteria "
                "disagree (a passing key that is not the secret)\n");
    return 1;
  }
  return 0;
}
