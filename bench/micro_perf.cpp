// Micro-benchmarks (google-benchmark): throughput of the substrates the
// attack tables stand on — the CDCL solver, the bit-parallel simulator,
// key verification, fact encoding, BBO key screening, locking transforms,
// synthesis, and technology mapping.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attack/bbo.hpp"
#include "attack/verify.hpp"
#include "bench_common.hpp"
#include "benchgen/catalog.hpp"
#include "cnf/miter.hpp"
#include "benchgen/fsm_suite.hpp"
#include "core/cute_lock_beh.hpp"
#include "core/cute_lock_str.hpp"
#include "fsm/synth.hpp"
#include "lock/comb_locks.hpp"
#include "logic/minimize.hpp"
#include "netlist/transform.hpp"
#include "sat/solver.hpp"
#include "sim/compiled.hpp"
#include "sim/kernels.hpp"
#include "sim/reference_sim.hpp"
#include "tech/mapper.hpp"
#include "util/cpu.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cl;

// ---- SAT solver axis -------------------------------------------------------
//
// Fixed CNF families; every benchmark exports the sat::Solver::Stats
// counters (conflicts/s, propagations/s, restarts, learnts deleted) into
// BENCH_micro_perf.json so solver PRs have a reference axis next to the
// sim-throughput one. items == conflicts, so items_per_second is the
// conflict throughput and real_time is the time-to-solve trajectory.

/// Accumulator for per-iteration solver stats; report once after the loop
/// (assigning counters inside the loop would clobber their rate flags).
void accumulate_stats(sat::Solver::Stats& into, const sat::Solver::Stats& s) {
  into.conflicts += s.conflicts;
  into.propagations += s.propagations;
  into.restarts += s.restarts;
  into.learnts_deleted += s.learnts_deleted;
  into.minimized_literals += s.minimized_literals;
  into.arena_gc_bytes += s.arena_gc_bytes;
}

void report_solver_stats(benchmark::State& state,
                         const sat::Solver::Stats& total) {
  using benchmark::Counter;
  state.counters["conflicts_per_s"] =
      Counter(static_cast<double>(total.conflicts), Counter::kIsRate);
  state.counters["propagations_per_s"] =
      Counter(static_cast<double>(total.propagations), Counter::kIsRate);
  state.counters["restarts"] =
      Counter(static_cast<double>(total.restarts), Counter::kAvgIterations);
  state.counters["learnts_deleted"] = Counter(
      static_cast<double>(total.learnts_deleted), Counter::kAvgIterations);
  state.counters["minimized_lits"] = Counter(
      static_cast<double>(total.minimized_literals), Counter::kAvgIterations);
  // Deterministic per-iteration trajectory counters: the CI baseline diff
  // hard-fails on any drift in these (tools/check_bench_baseline.py).
  state.counters["conflicts"] =
      Counter(static_cast<double>(total.conflicts), Counter::kAvgIterations);
  state.counters["arena_gc_bytes"] = Counter(
      static_cast<double>(total.arena_gc_bytes), Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<std::int64_t>(total.conflicts));
}

void add_pigeon_hole(sat::Solver& solver, int n) {
  std::vector<std::vector<sat::Var>> p(
      static_cast<std::size_t>(n),
      std::vector<sat::Var>(static_cast<std::size_t>(n - 1)));
  for (auto& row : p) {
    for (sat::Var& v : row) v = solver.new_var();
  }
  for (int i = 0; i < n; ++i) {
    std::vector<sat::Lit> clause;
    for (int j = 0; j < n - 1; ++j) {
      clause.push_back(sat::pos(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]));
    }
    solver.add_clause(clause);
  }
  for (int j = 0; j < n - 1; ++j) {
    for (int i1 = 0; i1 < n; ++i1) {
      for (int i2 = i1 + 1; i2 < n; ++i2) {
        solver.add_binary(
            sat::neg(p[static_cast<std::size_t>(i1)][static_cast<std::size_t>(j)]),
            sat::neg(p[static_cast<std::size_t>(i2)][static_cast<std::size_t>(j)]));
      }
    }
  }
}

std::vector<sat::Var> add_random_3sat(sat::Solver& solver, util::Rng& rng,
                                      int nv, int nc) {
  std::vector<sat::Var> vars;
  for (int i = 0; i < nv; ++i) vars.push_back(solver.new_var());
  for (int c = 0; c < nc; ++c) {
    std::vector<sat::Lit> clause;
    for (int l = 0; l < 3; ++l) {
      const std::size_t v = rng.next_below(static_cast<std::uint64_t>(nv));
      clause.push_back(sat::Lit(vars[v], rng.chance(1, 2)));
    }
    solver.add_clause(clause);
  }
  return vars;
}

void BM_SolverPlantedSat(benchmark::State& state) {
  const int nv = static_cast<int>(state.range(0));
  sat::Solver::Stats total;
  for (auto _ : state) {
    util::Rng rng(42);
    sat::Solver solver;
    std::vector<sat::Var> vars;
    std::vector<bool> planted;
    for (int i = 0; i < nv; ++i) {
      vars.push_back(solver.new_var());
      planted.push_back(rng.chance(1, 2));
    }
    for (int c = 0; c < 4 * nv; ++c) {
      std::vector<sat::Lit> clause;
      const std::size_t sat_pos = rng.next_below(3);
      for (std::size_t l = 0; l < 3; ++l) {
        const std::size_t v = rng.next_below(static_cast<std::uint64_t>(nv));
        bool neg = rng.chance(1, 2);
        if (l == sat_pos) neg = !planted[v];
        clause.push_back(sat::Lit(vars[v], neg));
      }
      solver.add_clause(clause);
    }
    benchmark::DoNotOptimize(solver.solve());
    accumulate_stats(total, solver.stats());
  }
  report_solver_stats(state, total);
}
BENCHMARK(BM_SolverPlantedSat)->Arg(200)->Arg(800);

void BM_SolverHardUnsatPigeonHole(benchmark::State& state) {
  // PHP(n, n-1): exponentially hard UNSAT for resolution — the
  // learnt-clause machinery (reduction, restarts, minimization) dominates.
  const int n = static_cast<int>(state.range(0));
  sat::Solver::Stats total;
  for (auto _ : state) {
    sat::Solver solver;
    add_pigeon_hole(solver, n);
    benchmark::DoNotOptimize(solver.solve());
    accumulate_stats(total, solver.stats());
  }
  report_solver_stats(state, total);
}
BENCHMARK(BM_SolverHardUnsatPigeonHole)->Arg(8);

void BM_SolverRandom3SatPhaseTransition(benchmark::State& state) {
  // A fixed mix of 6 seeds at the SAT/UNSAT phase transition (ratio 4.26).
  const int nv = static_cast<int>(state.range(0));
  const int nc = static_cast<int>(nv * 4.26);
  sat::Solver::Stats total;
  for (auto _ : state) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng rng(seed);
      sat::Solver solver;
      add_random_3sat(solver, rng, nv, nc);
      benchmark::DoNotOptimize(solver.solve());
      accumulate_stats(total, solver.stats());
    }
  }
  report_solver_stats(state, total);
}
BENCHMARK(BM_SolverRandom3SatPhaseTransition)->Arg(150);

void BM_SolverIncrementalAssumptions(benchmark::State& state) {
  // The KC2/sat_attack pattern: one growing clause database, repeated
  // solve({assumption}) calls with blocking clauses added between calls.
  const int nv = 120;
  sat::Solver::Stats total;
  for (auto _ : state) {
    util::Rng rng(2026);
    sat::Solver solver;
    const auto vars = add_random_3sat(solver, rng, nv, 4 * nv);
    const sat::Lit assumption = sat::pos(vars[0]);
    for (int round = 0; round < 24; ++round) {
      if (solver.solve({assumption}) != sat::Result::Sat) break;
      std::vector<sat::Lit> block;
      for (int b = 1; b <= 12; ++b) {
        const sat::Var v = vars[static_cast<std::size_t>(b)];
        block.push_back(sat::Lit(v, solver.model_value(v)));
      }
      solver.add_clause(block);
    }
    accumulate_stats(total, solver.stats());
  }
  report_solver_stats(state, total);
}
BENCHMARK(BM_SolverIncrementalAssumptions);

// ---- Key verification axis -------------------------------------------------
//
// attack::verify_static_key on a correct key, default options except for an
// unlimited wall cap (so the counters cannot depend on the host). "folded": a
// Cute-Lock-Str single-key lock of b03, whose equivalence miter folds to
// constant false at every depth (no solver call). "solver": b03 with its XORs
// spelled as AND/OR, then XOR-locked; the hashed miter cannot fold the
// respelled cones, so every depth is a CDCL proof. cnf_vars, cnf_clauses and
// conflicts are deterministic; the baseline diff pins them.

/// `nl` with every two-input XOR/XNOR rewritten as AND/OR/NOT: the same
/// function in a structure the miter's hashing does not recognize.
netlist::Netlist expand_xors(const netlist::Netlist& nl) {
  using netlist::GateType;
  netlist::Netlist out = nl.clone(nl.name());
  for (netlist::SignalId s = 0; s < nl.size(); ++s) {
    const netlist::Node& n = nl.node(s);
    const bool is_xor = n.type == GateType::Xor;
    if ((!is_xor && n.type != GateType::Xnor) || n.fanins.size() != 2) continue;
    const netlist::SignalId a = n.fanins[0];
    const netlist::SignalId b = n.fanins[1];
    const netlist::SignalId na = out.add_not(a);
    const netlist::SignalId nb = out.add_not(b);
    const netlist::SignalId hi = out.add_and(a, is_xor ? nb : b);
    const netlist::SignalId lo = out.add_and(na, is_xor ? b : nb);
    out.replace_all_readers(s, out.add_or(hi, lo));
  }
  return netlist::remove_dangling(out);
}

struct VerifyCase {
  netlist::Netlist locked;
  sim::BitVec key;
  netlist::Netlist original;
};

VerifyCase folded_verify_case() {
  const auto circuit = benchgen::make_circuit("b03");
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 3;
  options.locked_ffs = 2;
  options.seed = 5;
  options.single_key_reduction = true;
  auto lr = core::cute_lock_str(circuit.netlist, options);
  return {std::move(lr.locked), lr.key_schedule[0], circuit.netlist};
}

VerifyCase solver_verify_case() {
  const auto circuit = benchgen::make_circuit("b03");
  util::Rng rng(5);
  auto lr = lock::xor_lock(expand_xors(circuit.netlist), 8, rng);
  return {std::move(lr.locked), lr.correct_key, circuit.netlist};
}

void BM_VerifyStaticKey(benchmark::State& state, VerifyCase (*make)()) {
  const VerifyCase c = make();
  attack::VerifyOptions options;
  options.time_limit_s = -1.0;
  attack::VerifyResult result;
  for (auto _ : state) {
    result = attack::verify_static_key(c.locked, c.key, c.original, options);
    benchmark::DoNotOptimize(result.verdict);
  }
  if (result.verdict != attack::Verdict::Equivalent) {
    state.SkipWithError("correct key not verified equivalent");
  }
  state.counters["cnf_vars"] = static_cast<double>(result.cnf_vars);
  state.counters["cnf_clauses"] = static_cast<double>(result.cnf_clauses);
  state.counters["conflicts"] = static_cast<double>(result.conflicts);
}
BENCHMARK_CAPTURE(BM_VerifyStaticKey, folded, folded_verify_case);
BENCHMARK_CAPTURE(BM_VerifyStaticKey, solver, solver_verify_case);

// ---- Fact-encoding axis ----------------------------------------------------
//
// One oracle fact, a seeded 12-cycle trace of b03 and the original's
// response, constrained on both key copies of a DIP miter over a multi-key
// Cute-Lock-Str lock of b03: what OgEngine adds per oracle query. `static`
// starts from the power-up state, `symbolic` from RANE's shared symbolic
// reset state. cnf_vars/cnf_clauses count what the fact adds to the miter.

void BM_EncodeFactConstraint(benchmark::State& state, bool symbolic) {
  const auto circuit = benchgen::make_circuit("b03");
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 3;
  options.locked_ffs = 2;
  options.seed = 5;
  const auto lr = core::cute_lock_str(circuit.netlist, options);
  util::Rng rng(12);
  const auto inputs =
      sim::random_stimulus(rng, 12, circuit.netlist.inputs().size());
  const auto outputs = sim::run_sequence(circuit.netlist, inputs);
  std::size_t vars = 0;
  std::size_t clauses = 0;
  for (auto _ : state) {
    sat::Solver solver;
    const cnf::SequentialMiter miter(solver, lr.locked, symbolic);
    const int miter_vars = solver.num_vars();
    const std::size_t miter_clauses = solver.num_clauses();
    const auto* init = symbolic ? &miter.initial_state_vars() : nullptr;
    cnf::constrain_key_on_sequence(solver, lr.locked, miter.keys_a(), inputs,
                                   outputs, init);
    cnf::constrain_key_on_sequence(solver, lr.locked, miter.keys_b(), inputs,
                                   outputs, init);
    vars = static_cast<std::size_t>(solver.num_vars() - miter_vars);
    clauses = solver.num_clauses() - miter_clauses;
    benchmark::DoNotOptimize(clauses);
  }
  state.counters["cnf_vars"] = static_cast<double>(vars);
  state.counters["cnf_clauses"] = static_cast<double>(clauses);
}
BENCHMARK_CAPTURE(BM_EncodeFactConstraint, static, false);
BENCHMARK_CAPTURE(BM_EncodeFactConstraint, symbolic, true);

// An attack's whole warmup on a table-scale lock, encoded the way OgEngine
// does it: from a program compiled once, outside the timed loop, onto both
// key copies of a fresh DIP miter (built untimed). `rane`: bench_table4's
// s641 lock (the paper's (k, ki), min(4, DFFs) locked FFs, seed 0x57a +
// gates) with RANE's warmup, 8 seeded 16-cycle facts from the symbolic
// reset. `mega`: bench_table_mega's syn64k k = 2 lock (ki = 4, seed
// 0x3e6a + gates + k) with INT's warmup, 2 seeded 12-cycle facts from
// power-up. cnf_vars/cnf_clauses count what the facts add to the miter.

struct WarmupCase {
  lock::LockResult lock;
  bool symbolic = false;
  std::vector<std::vector<sim::BitVec>> inputs;
  std::vector<std::vector<sim::BitVec>> outputs;
};

WarmupCase warmup_case(const netlist::Netlist& reference,
                       lock::LockResult lock, bool symbolic,
                       std::size_t sequences, std::size_t cycles) {
  WarmupCase c{std::move(lock), symbolic, {}, {}};
  util::Rng rng(0x5eed);
  for (std::size_t s = 0; s < sequences; ++s) {
    c.inputs.push_back(
        sim::random_stimulus(rng, cycles, reference.inputs().size()));
    c.outputs.push_back(sim::run_sequence(reference, c.inputs.back()));
  }
  return c;
}

WarmupCase rane_warmup_case() {
  const benchgen::CircuitSpec& spec = benchgen::find_spec("s641");
  const auto circuit = benchgen::make_circuit(spec);
  core::StrOptions options;
  options.num_keys = spec.lock_keys;
  options.key_bits = spec.lock_bits;
  options.locked_ffs = std::min<std::size_t>(4, circuit.netlist.dffs().size());
  options.seed = 0x57a + spec.gates;
  return warmup_case(circuit.netlist,
                     core::cute_lock_str(circuit.netlist, options), true, 8, 16);
}

WarmupCase mega_warmup_case() {
  const benchgen::CircuitSpec& spec = benchgen::find_spec("syn64k");
  const auto circuit = benchgen::make_circuit(spec);
  const std::size_t k = 2;
  core::StrOptions options;
  options.num_keys = k;
  options.key_bits = 4;
  options.locked_ffs = std::min<std::size_t>(4, circuit.netlist.dffs().size());
  options.seed = 0x3e6a + spec.gates + k;
  return warmup_case(circuit.netlist,
                     core::cute_lock_str(circuit.netlist, options), false, 2,
                     12);
}

void BM_EncodeFactConstraint(benchmark::State& state, WarmupCase (*make)()) {
  const WarmupCase c = make();
  const sim::CompiledNetlist prog(c.lock.locked);
  std::size_t vars = 0;
  std::size_t clauses = 0;
  for (auto _ : state) {
    state.PauseTiming();  // the miter compiles the circuit: not timed here
    sat::Solver solver;
    const cnf::SequentialMiter miter(solver, c.lock.locked, c.symbolic);
    const int miter_vars = solver.num_vars();
    const std::size_t miter_clauses = solver.num_clauses();
    state.ResumeTiming();
    const auto* init = c.symbolic ? &miter.initial_state_vars() : nullptr;
    for (std::size_t f = 0; f < c.inputs.size(); ++f) {
      cnf::constrain_key_on_sequence(solver, prog, miter.keys_a(), c.inputs[f],
                                     c.outputs[f], init);
      cnf::constrain_key_on_sequence(solver, prog, miter.keys_b(), c.inputs[f],
                                     c.outputs[f], init);
    }
    vars = static_cast<std::size_t>(solver.num_vars() - miter_vars);
    clauses = solver.num_clauses() - miter_clauses;
    benchmark::DoNotOptimize(clauses);
  }
  state.counters["cnf_vars"] = static_cast<double>(vars);
  state.counters["cnf_clauses"] = static_cast<double>(clauses);
}
BENCHMARK_CAPTURE(BM_EncodeFactConstraint, rane, rane_warmup_case);
BENCHMARK_CAPTURE(BM_EncodeFactConstraint, mega, mega_warmup_case);

// ---- BBO screening axis ----------------------------------------------------
//
// attack::bbo_attack at one job on bench_table4_str_logic_attacks' s832
// lock: Cute-Lock-Str at the paper's (k, ki) = (8, 18), min(4, DFFs) locked
// flip-flops, lock seed 0x57a + gates. Every one of the 2^18 static keys
// dies in screening, so the row times the screening loop alone and ends CNS.
// Wall caps are lifted so the outcome cannot depend on the host.
// bbo_batches (AttackResult::iterations, 4096 batches of 64 keys) is
// deterministic; the baseline diff pins it.

void BM_BboScreen(benchmark::State& state) {
  const benchgen::CircuitSpec& spec = benchgen::find_spec("s832");
  const auto circuit = benchgen::make_circuit(spec);
  core::StrOptions lock_options;
  lock_options.num_keys = spec.lock_keys;
  lock_options.key_bits = spec.lock_bits;
  lock_options.locked_ffs =
      std::min<std::size_t>(4, circuit.netlist.dffs().size());
  lock_options.seed = 0x57a + spec.gates;
  const auto lr = core::cute_lock_str(circuit.netlist, lock_options);
  const attack::SequentialOracle oracle(circuit.netlist);
  attack::BboOptions options;
  options.budget.time_limit_s = 1e9;
  options.budget.verify_time_limit_s = 1e9;
  options.jobs = 1;
  attack::AttackResult result;
  for (auto _ : state) {
    result = attack::bbo_attack(lr.locked, oracle, options);
    benchmark::DoNotOptimize(result.iterations);
  }
  if (result.outcome != attack::Outcome::Cns) {
    state.SkipWithError("multi-key lock not proved CNS");
  }
  state.counters["bbo_batches"] = static_cast<double>(result.iterations);
}
BENCHMARK(BM_BboScreen);

// ---- Simulation throughput axis -------------------------------------------
//
// items == pattern·gates, so items_per_second in BENCH_micro_perf.json is
// the sim-throughput trajectory (divide by 1e6 for million pattern·gates/s).
// ReferenceSim is the frozen pre-compilation evaluator: the compiled
// engine's speedup target (>= 5x single-thread on the largest catalog
// circuit) is measured against BM_ReferenceSimEval on the same b19.

constexpr const char* k_large_circuit = "b19";  // largest catalog circuit

/// Generated once per process: b19 is 231k gates and several benchmarks
/// share it.
const benchgen::SyntheticCircuit& large_circuit() {
  static const benchgen::SyntheticCircuit c =
      benchgen::make_circuit(k_large_circuit);
  return c;
}

void BM_ReferenceSimEval(benchmark::State& state) {
  const auto& circuit = large_circuit();
  const std::size_t gates = circuit.netlist.stats().gates;
  sim::ReferenceSim simulator(circuit.netlist);
  util::Rng rng(7);
  for (auto _ : state) {
    for (auto i : circuit.netlist.inputs()) simulator.set(i, rng.next_u64());
    simulator.eval();
    simulator.step();
    benchmark::DoNotOptimize(simulator.get(circuit.netlist.outputs()[0]));
  }
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(gates));
}
BENCHMARK(BM_ReferenceSimEval);

void BM_CompiledSimWide(benchmark::State& state) {
  const std::size_t lane_words = static_cast<std::size_t>(state.range(0));
  const auto& circuit = large_circuit();
  const std::size_t gates = circuit.netlist.stats().gates;
  // b19 is below sim::k_shard_threshold, so this stays single-threaded:
  // the honest 5x comparison.
  sim::WideSim simulator(circuit.netlist, lane_words);
  util::Rng rng(7);
  for (auto _ : state) {
    for (auto i : circuit.netlist.inputs()) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        simulator.set_word(i, w, rng.next_u64());
      }
    }
    simulator.eval();
    simulator.step();
    benchmark::DoNotOptimize(
        simulator.get_word(circuit.netlist.outputs()[0], 0));
  }
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(lane_words) *
                          static_cast<std::int64_t>(gates));
}
BENCHMARK(BM_CompiledSimWide)->Arg(1)->Arg(4)->Arg(16);

// ---- sim-ISA axis ----------------------------------------------------------
//
// One row per (kernel tier, lane width) available on this host, registered
// dynamically in main(): BM_CompiledSimIsa/<isa>/<lane_words>. The circuit is
// b14 (cache-resident buffers even at 16 lane words), so the rows compare
// kernel throughput rather than memory bandwidth. Only the generic rows live
// in the checked-in baseline — AVX rows exist only on hosts that report the
// extension, and tools/check_bench_baseline.py hard-fails on baseline rows
// missing from a fresh run. sim_gates / sim_lane_words are deterministic
// counters the baseline diff pins, like the SAT trajectory counters.

const benchgen::SyntheticCircuit& isa_circuit() {
  static const benchgen::SyntheticCircuit c = benchgen::make_circuit("b14");
  return c;
}

void BM_CompiledSimIsa(benchmark::State& state, util::SimIsa isa,
                       std::size_t lane_words) {
  const auto& circuit = isa_circuit();
  const std::size_t gates = circuit.netlist.stats().gates;
  const util::SimIsa previous = sim::kernels::active_isa();
  sim::kernels::set_active_isa(isa);
  sim::WideSim simulator(circuit.netlist, lane_words);
  util::Rng rng(7);
  for (auto _ : state) {
    for (auto i : circuit.netlist.inputs()) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        simulator.set_word(i, w, rng.next_u64());
      }
    }
    simulator.eval();
    simulator.step();
    benchmark::DoNotOptimize(
        simulator.get_word(circuit.netlist.outputs()[0], 0));
  }
  sim::kernels::set_active_isa(previous);
  state.counters["sim_gates"] = static_cast<double>(gates);
  state.counters["sim_lane_words"] = static_cast<double>(lane_words);
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(lane_words) *
                          static_cast<std::int64_t>(gates));
}

void register_sim_isa_benchmarks() {
  using util::SimIsa;
  for (SimIsa isa : {SimIsa::Generic, SimIsa::Avx2, SimIsa::Avx512}) {
    if (!sim::kernels::available(isa)) continue;
    for (std::size_t lane_words : {std::size_t{4}, std::size_t{16}}) {
      const std::string name = std::string("BM_CompiledSimIsa/") +
                               util::sim_isa_name(isa) + "/" +
                               std::to_string(lane_words);
      benchmark::RegisterBenchmark(
          name.c_str(), [isa, lane_words](benchmark::State& s) {
            BM_CompiledSimIsa(s, isa, lane_words);
          });
    }
  }
}

/// Generated + compiled once per process: Google Benchmark re-invokes the
/// benchmark function while calibrating iteration counts, and regenerating
/// a million-gate netlist per re-entry would swamp the run.
const sim::CompiledNetlist& sharded_circuit() {
  static const benchgen::SyntheticCircuit circuit =
      benchgen::make_circuit(bench::small_run() ? "syn64k" : "syn1m");
  static const sim::CompiledNetlist compiled(circuit.netlist);
  return compiled;
}

void BM_CompiledSimSharded(benchmark::State& state) {
  // The million-gate suite through the level-parallel path; worker count
  // from CUTELOCK_JOBS.
  const sim::CompiledNetlist& compiled = sharded_circuit();
  const std::size_t gates = compiled.num_gates();
  static util::ThreadPool pool(util::jobs_from_env());
  constexpr std::size_t k_lanes = 4;
  std::vector<std::uint64_t> values(compiled.buffer_words(k_lanes), 0);
  std::vector<std::uint64_t> scratch;
  compiled.reset_words(values.data(), k_lanes);
  util::Rng rng(7);
  for (auto _ : state) {
    for (auto i : compiled.inputs()) {
      for (std::size_t w = 0; w < k_lanes; ++w) {
        values[i * k_lanes + w] = rng.next_u64();
      }
    }
    compiled.eval_sharded(values.data(), k_lanes, pool);
    compiled.step_words(values.data(), k_lanes, scratch);
    benchmark::DoNotOptimize(values[compiled.outputs()[0] * k_lanes]);
  }
  state.counters["jobs"] = static_cast<double>(pool.size());
  state.SetItemsProcessed(state.iterations() * 64 * k_lanes *
                          static_cast<std::int64_t>(gates));
}
// Wall time: the work happens on pool workers, so main-thread CPU time
// would overstate throughput.
BENCHMARK(BM_CompiledSimSharded)->UseRealTime();

void BM_CuteLockStr(benchmark::State& state) {
  const auto circuit = benchgen::make_circuit("b12");
  for (auto _ : state) {
    core::StrOptions options;
    options.num_keys = 8;
    options.key_bits = 8;
    options.locked_ffs = 4;
    options.seed = 5;
    benchmark::DoNotOptimize(core::cute_lock_str(circuit.netlist, options));
  }
}
BENCHMARK(BM_CuteLockStr);

void BM_CuteLockBehSynth(benchmark::State& state) {
  const fsm::Stg stg = benchgen::make_fsm(benchgen::find_fsm_spec("cpu"));
  for (auto _ : state) {
    core::BehOptions options;
    options.num_keys = 4;
    options.key_bits = 14;
    options.seed = 3;
    const core::BehLock lock(stg, options);
    benchmark::DoNotOptimize(
        lock.synthesize(fsm::SynthStyle::DirectTransitions, "cpu_locked"));
  }
}
BENCHMARK(BM_CuteLockBehSynth);

void BM_QuineMcCluskey(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<std::uint64_t> onset;
  for (std::uint64_t m = 0; m < 1024; ++m) {
    if (rng.chance(1, 3)) onset.push_back(m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::minimize(onset, {}, 10));
  }
}
BENCHMARK(BM_QuineMcCluskey);

void BM_TechMap(benchmark::State& state) {
  const auto circuit = benchgen::make_circuit("b14");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tech::map_to_cells(circuit.netlist));
  }
}
BENCHMARK(BM_TechMap);

}  // namespace

// BENCHMARK_MAIN(), plus the CUTELOCK_BENCH_SMALL=1 contract the other
// harnesses honour: smoke runs cap per-benchmark measurement time. The flag
// is inserted before user arguments so an explicit --benchmark_min_time
// still wins. Like the Runner-based harnesses, a BENCH_micro_perf.json
// baseline is emitted (Google Benchmark's own JSON reporter) unless
// CUTELOCK_BENCH_JSON=0; CUTELOCK_BENCH_JSON_DIR selects the directory.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string small_min_time = "--benchmark_min_time=0.01";
  if (bench::small_run()) args.insert(args.begin() + 1, small_min_time.data());
  std::string json_out, json_fmt = "--benchmark_out_format=json";
  bool user_out = false;
  for (char* a : args) {
    if (std::string(a).rfind("--benchmark_out=", 0) == 0) user_out = true;
  }
  if (!user_out && bench::json_enabled()) {
    json_out = "--benchmark_out=" + bench::json_dir() + "/BENCH_micro_perf.json";
    args.insert(args.begin() + 1, json_out.data());
    args.insert(args.begin() + 2, json_fmt.data());
  }
  int n = static_cast<int>(args.size());
  register_sim_isa_benchmarks();
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
