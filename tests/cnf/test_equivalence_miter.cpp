#include <gtest/gtest.h>

#include "benchgen/catalog.hpp"
#include "cnf/miter.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/lock_registry.hpp"
#include "netlist/bench_io.hpp"
#include "sim/compiled.hpp"

namespace cl::cnf {
namespace {

using netlist::Netlist;
using sat::Lit;
using sat::Result;
using sat::Solver;

const char* k_ref = R"(
INPUT(a)
OUTPUT(y)
q = DFF(d)
d = XOR(q, a)
y = BUF(q)
)";

// Same circuit with an XNOR key gate on the D path; key=1 is correct.
const char* k_locked = R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
q = DFF(d)
t = XOR(q, a)
d = XNOR(t, keyinput0)
y = BUF(q)
)";

TEST(EquivalenceMiter, CorrectKeyIsUnsatAtEveryDepth) {
  const Netlist locked = netlist::read_bench_string(k_locked, "l");
  const Netlist ref = netlist::read_bench_string(k_ref, "r");
  Solver solver;
  EquivalenceMiter miter(solver, locked, sim::BitVec{1}, ref);  // key = 1
  for (std::size_t depth = 1; depth <= 8; ++depth) {
    miter.extend_to(depth);
    EXPECT_EQ(solver.solve({miter.diff_within(depth)}), Result::Unsat)
        << "depth " << depth;
  }
}

TEST(EquivalenceMiter, WrongKeyYieldsCounterexample) {
  const Netlist locked = netlist::read_bench_string(k_locked, "l");
  const Netlist ref = netlist::read_bench_string(k_ref, "r");
  Solver solver;
  EquivalenceMiter miter(solver, locked, sim::BitVec{0}, ref);  // key = 0 (wrong)
  miter.extend_to(4);
  ASSERT_EQ(solver.solve({miter.diff_within(4)}), Result::Sat);
  const auto ce = miter.extract_inputs(4);
  ASSERT_EQ(ce.size(), 4u);
  // Replay: the counterexample must genuinely distinguish.
  const auto want = sim::run_sequence(ref, ce);
  const auto got = sim::run_sequence(locked, ce, {sim::BitVec{0}});
  EXPECT_NE(sim::first_divergence(want, got), -1);
}

TEST(EquivalenceMiter, InterfaceMismatchRejected) {
  const Netlist locked = netlist::read_bench_string(k_locked, "l");
  const Netlist two_in = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  Solver solver;
  EXPECT_THROW(EquivalenceMiter(solver, locked, sim::BitVec{1}, two_in),
               std::invalid_argument);
}

TEST(EquivalenceMiter, KeyedReferenceRejected) {
  const Netlist locked = netlist::read_bench_string(k_locked, "l");
  Solver solver;
  EXPECT_THROW(EquivalenceMiter(solver, locked, sim::BitVec{1}, locked),
               std::invalid_argument);
}

TEST(EquivalenceMiter, DiffWithinBoundsChecked) {
  const Netlist locked = netlist::read_bench_string(k_locked, "l");
  const Netlist ref = netlist::read_bench_string(k_ref, "r");
  Solver solver;
  EquivalenceMiter miter(solver, locked, sim::BitVec{1}, ref);
  miter.extend_to(2);
  EXPECT_THROW(miter.diff_within(3), std::out_of_range);
  EXPECT_THROW(miter.diff_within(0), std::out_of_range);
}

/// Ground truth by exhaustion: does some input sequence of `depth` cycles
/// make `locked` under the static `key` diverge from `ref`?
bool diverges_within(const Netlist& locked, const sim::BitVec& key,
                     const Netlist& ref, std::size_t depth) {
  const std::size_t width = ref.inputs().size();
  const std::size_t bits = width * depth;
  std::vector<std::vector<sim::BitVec>> all;
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << bits); ++code) {
    std::vector<sim::BitVec> seq(depth, sim::BitVec(width));
    for (std::size_t b = 0; b < bits; ++b) {
      seq[b / width][b % width] = static_cast<std::uint8_t>((code >> b) & 1);
    }
    all.push_back(std::move(seq));
  }
  const auto got =
      sim::run_sequences_batched(sim::CompiledNetlist(locked), all, {key});
  const auto want = sim::run_sequences_batched(sim::CompiledNetlist(ref), all);
  for (std::size_t j = 0; j < all.size(); ++j) {
    if (sim::first_divergence(want[j], got[j]) != -1) return true;
  }
  return false;
}

TEST(EquivalenceMiter, MatchesExhaustiveSimulationOnS27) {
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  ASSERT_EQ(ref.inputs().size(), 4u);
  std::vector<std::pair<std::string, lock::LockResult>> locks;
  for (const lock::RegisteredLock& entry : lock::lock_registry()) {
    util::Rng rng(7);
    locks.emplace_back(entry.name, entry.build(ref, rng));
  }
  for (const bool single : {true, false}) {
    core::StrOptions options;
    options.seed = 11;
    options.single_key_reduction = single;
    locks.emplace_back(single ? "cl-str single-key" : "cl-str multi-key",
                       core::cute_lock_str(ref, options));
  }
  for (const auto& [name, lr] : locks) {
    // The correct key (a static lock's secret, or the first schedule entry)
    // and three wrong ones.
    const sim::BitVec correct =
        lr.is_dynamic() ? lr.key_schedule[0] : lr.correct_key;
    ASSERT_GE(correct.size(), 3u) << name;
    std::vector<sim::BitVec> keys(4, correct);
    keys[1][0] ^= 1;
    keys[2][1] ^= 1;
    for (auto& bit : keys[3]) bit ^= 1;
    for (const sim::BitVec& key : keys) {
      Solver solver;
      EquivalenceMiter miter(solver, lr.locked, key, ref);
      for (std::size_t depth = 1; depth <= 3; ++depth) {
        miter.extend_to(depth);
        const Lit diff = miter.diff_within(depth);
        const bool sat = diff != miter.constant(false) &&
                         solver.solve({diff}) == Result::Sat;
        const std::string where = name + " key " + sim::bits_to_string(key) +
                                  " depth " + std::to_string(depth);
        EXPECT_EQ(sat, diverges_within(lr.locked, key, ref, depth)) << where;
        if (sat) {
          const auto ce = miter.extract_inputs(depth);
          EXPECT_NE(sim::first_divergence(sim::run_sequence(ref, ce),
                                          sim::run_sequence(lr.locked, ce, {key})),
                    -1)
              << where;
        }
      }
    }
  }
}

TEST(EquivalenceMiter, CuteLockStrSingleKeyFoldsWithoutSolving) {
  for (const char* circuit : {"s27", "b03"}) {
    const Netlist ref = benchgen::make_circuit(circuit).netlist;
    core::StrOptions options;
    options.locked_ffs = 2;
    options.seed = 3;
    options.single_key_reduction = true;
    const auto lr = core::cute_lock_str(ref, options);
    Solver solver;
    EquivalenceMiter miter(solver, lr.locked, lr.key_schedule[0], ref);
    miter.extend_to(8);
    for (std::size_t depth = 1; depth <= 8; ++depth) {
      EXPECT_EQ(miter.diff_within(depth), miter.constant(false))
          << circuit << " depth " << depth;
    }
    EXPECT_EQ(solver.solve({miter.diff_within(8)}), Result::Unsat) << circuit;
    EXPECT_EQ(solver.stats().conflicts, 0u) << circuit;
  }
}

TEST(EquivalenceMiter, ConstantOutputsFold) {
  // y is constant 0 in both circuits, spelled differently; z = a under key 0
  // and ~a under key 1.
  const Netlist locked = netlist::read_bench_string(R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
OUTPUT(z)
na = NOT(a)
y = AND(a, na)
z = XOR(a, keyinput0)
)", "l");
  const Netlist ref = netlist::read_bench_string(R"(
INPUT(a)
OUTPUT(y)
OUTPUT(z)
y = CONST0()
z = BUF(a)
)", "r");
  {
    Solver solver;
    EquivalenceMiter miter(solver, locked, sim::BitVec{0}, ref);
    miter.extend_to(2);
    EXPECT_EQ(miter.diff_within(2), miter.constant(false));
  }
  Solver solver;
  EquivalenceMiter miter(solver, locked, sim::BitVec{1}, ref);
  miter.extend_to(1);
  ASSERT_EQ(miter.diff_within(1), miter.constant(true));
  ASSERT_EQ(solver.solve({miter.diff_within(1)}), Result::Sat);
  const auto ce = miter.extract_inputs(1);
  EXPECT_NE(sim::first_divergence(sim::run_sequence(ref, ce),
                                  sim::run_sequence(locked, ce, {sim::BitVec{1}})),
            -1);
}

TEST(EquivalenceMiter, UnknownPowerUpValueIsFreePerCircuit) {
  const auto make = [](const char* init) {
    return netlist::read_bench_string(std::string("INPUT(a)\nOUTPUT(y)\n# init q ") +
                                      init + "\nq = DFF(a)\ny = BUF(q)\n");
  };
  const Netlist zero = make("0");
  Solver folded_solver;
  EquivalenceMiter folded(folded_solver, zero, {}, zero);
  folded.extend_to(1);
  EXPECT_EQ(folded.diff_within(1), folded.constant(false));

  // Each copy's X flip-flop is its own free variable: the copies may power
  // up differently, so the outputs can differ on cycle 0.
  const Netlist x = make("x");
  Solver solver;
  EquivalenceMiter miter(solver, x, {}, x);
  miter.extend_to(1);
  ASSERT_NE(miter.diff_within(1), miter.constant(false));
  EXPECT_EQ(solver.solve({miter.diff_within(1)}), Result::Sat);
}

}  // namespace
}  // namespace cl::cnf
