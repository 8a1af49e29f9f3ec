// constrain_key_on_sequence against exhaustive simulation: a fact (inputs
// applied from reset produce outputs) under a pinned key is satisfiable
// exactly when simulating the circuit under that key reproduces the outputs.
#include <gtest/gtest.h>

#include <algorithm>

#include "benchgen/catalog.hpp"
#include "cnf/hashed_encoder.hpp"
#include "cnf/miter.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/lock_registry.hpp"
#include "util/fnv.hpp"

namespace cl::cnf {
namespace {

using netlist::DffInit;
using netlist::Netlist;
using netlist::SignalId;
using sat::Result;
using sat::Solver;
using sat::Var;
using Sequence = std::vector<sim::BitVec>;

struct NamedLock {
  std::string name;
  lock::LockResult lock;
};

/// Every registry lock and Cute-Lock-Str single-key and multi-key, on `ref`.
std::vector<NamedLock> s27_locks(const Netlist& ref) {
  std::vector<NamedLock> locks;
  for (const lock::RegisteredLock& entry : lock::lock_registry()) {
    util::Rng rng(7);
    locks.push_back({entry.name, entry.build(ref, rng)});
  }
  for (const bool single : {true, false}) {
    core::StrOptions options;
    options.seed = 11;
    options.single_key_reduction = single;
    locks.push_back({single ? "cl-str single-key" : "cl-str multi-key",
                     core::cute_lock_str(ref, options)});
  }
  return locks;
}

std::vector<sim::BitVec> all_keys(std::size_t width) {
  std::vector<sim::BitVec> keys;
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << width); ++code) {
    keys.push_back(sim::u64_to_bits(code, width));
  }
  return keys;
}

std::vector<SignalId> dffs_with_init(const Netlist& nl, DffInit init) {
  std::vector<SignalId> out;
  for (const SignalId d : nl.dffs()) {
    if (nl.dff_init(d) == init) out.push_back(d);
  }
  return out;
}

/// An input sequence applied from reset and the response to hold it to.
struct Fact {
  Sequence inputs;
  Sequence outputs;
};

/// Ground truth: does `nl` under `keys` (the run_sequence contract) turn
/// every fact's inputs into its outputs from one power-up state? The DFFs in
/// `free` try every value combination; every other DFF keeps its power-up
/// value.
bool some_reset_reproduces(const Netlist& nl, const std::vector<SignalId>& free,
                           const std::vector<Fact>& facts,
                           const std::vector<sim::BitVec>& keys) {
  Netlist copy = nl.clone(nl.name());
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << free.size()); ++code) {
    for (std::size_t i = 0; i < free.size(); ++i) {
      copy.set_dff_init(free[i], (code >> i) & 1 ? DffInit::One : DffInit::Zero);
    }
    if (std::all_of(facts.begin(), facts.end(), [&](const Fact& fact) {
          return sim::run_sequence(copy, fact.inputs, keys) == fact.outputs;
        })) {
      return true;
    }
  }
  return false;
}

std::vector<Var> new_vars(Solver& solver, std::size_t n) {
  std::vector<Var> vars;
  for (std::size_t i = 0; i < n; ++i) vars.push_back(solver.new_var());
  return vars;
}

void pin(Solver& solver, const std::vector<Var>& vars, const sim::BitVec& bits) {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    solver.add_unit(bits[i] != 0 ? sat::pos(vars[i]) : sat::neg(vars[i]));
  }
}

/// When the key's unit clauses reach the solver: after the facts are
/// encoded, or before, so that every key literal is already fixed at the
/// root when constrain_key_on_sequence reads it.
enum class PinOrder { After, Before };
constexpr PinOrder k_pin_orders[] = {PinOrder::After, PinOrder::Before};

std::ostream& operator<<(std::ostream& os, PinOrder order) {
  return os << (order == PinOrder::Before ? " (pinned before encoding)"
                                          : " (pinned after encoding)");
}

/// The facts on one fresh solver with the key schedule pinned by unit
/// clauses (one entry: a static key). With `symbolic_reset` every fact starts
/// from one shared vector of reset-state variables. Sat iff some reset state
/// is consistent.
bool fact_holds(const Netlist& nl, const std::vector<sim::BitVec>& schedule,
                const std::vector<Fact>& facts, bool symbolic_reset,
                PinOrder order) {
  Solver solver;
  std::vector<std::vector<Var>> slots;
  for (const sim::BitVec& key : schedule) {
    slots.push_back(new_vars(solver, key.size()));
  }
  const std::vector<Var> init = new_vars(solver, symbolic_reset ? nl.dffs().size() : 0);
  const auto pin_schedule = [&] {
    for (std::size_t s = 0; s < schedule.size(); ++s) pin(solver, slots[s], schedule[s]);
  };
  if (order == PinOrder::Before) pin_schedule();
  for (const Fact& fact : facts) {
    if (slots.size() == 1) {
      constrain_key_on_sequence(solver, nl, slots[0], fact.inputs, fact.outputs,
                                symbolic_reset ? &init : nullptr);
    } else {
      constrain_key_on_sequence(solver, nl, slots, fact.inputs, fact.outputs,
                                symbolic_reset ? &init : nullptr);
    }
  }
  if (order == PinOrder::After) pin_schedule();
  return solver.solve() == Result::Sat;
}

/// A few seeded stimuli and, for each, the responses worth checking: the
/// reference's and the locked circuit's under a random key (so some keys
/// are consistent even for a lock no static key unlocks).
std::vector<Fact> seeded_facts(const Netlist& ref, const Netlist& locked,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Fact> facts;
  for (int s = 0; s < 3; ++s) {
    Sequence inputs = sim::random_stimulus(rng, 5, ref.inputs().size());
    const sim::BitVec key = sim::random_bits(rng, locked.key_inputs().size());
    facts.push_back({inputs, sim::run_sequence(ref, inputs)});
    facts.push_back({inputs, sim::run_sequence(locked, inputs, {key})});
  }
  return facts;
}

TEST(FactEncoding, StaticKeyMatchesSimulationOnS27) {
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  for (const auto& [name, lr] : s27_locks(ref)) {
    const std::vector<SignalId> x_dffs = dffs_with_init(lr.locked, DffInit::X);
    int consistent = 0;
    for (const Fact& fact : seeded_facts(ref, lr.locked, 3)) {
      for (const sim::BitVec& key : all_keys(lr.locked.key_inputs().size())) {
        const bool want = some_reset_reproduces(lr.locked, x_dffs, {fact}, {key});
        for (const PinOrder order : k_pin_orders) {
          EXPECT_EQ(fact_holds(lr.locked, {key}, {fact}, false, order), want)
              << name << " key " << sim::bits_to_string(key) << order;
        }
        consistent += want ? 1 : 0;
      }
    }
    EXPECT_GT(consistent, 0) << name;
  }
}

TEST(FactEncoding, SymbolicResetMatchesSimulationOnS27) {
  // Locks that add no state keep s27's three flip-flops: Sat iff one of the
  // 8 reset states reproduces the response.
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  ASSERT_EQ(ref.dffs().size(), 3u);
  for (const lock::RegisteredLock& entry : lock::lock_registry()) {
    if (entry.adds_state) continue;
    util::Rng rng(7);
    const lock::LockResult lr = entry.build(ref, rng);
    ASSERT_EQ(lr.locked.dffs().size(), 3u) << entry.name;
    std::vector<Fact> facts = seeded_facts(ref, lr.locked, 5);
    // And a response from the all-ones reset state.
    Netlist other = lr.locked.clone("other");
    for (const SignalId d : other.dffs()) other.set_dff_init(d, DffInit::One);
    facts.push_back({facts[0].inputs,
                     sim::run_sequence(other, facts[0].inputs, {lr.correct_key})});
    int consistent = 0;
    for (const Fact& fact : facts) {
      for (const sim::BitVec& key : all_keys(lr.locked.key_inputs().size())) {
        const bool want =
            some_reset_reproduces(lr.locked, lr.locked.dffs(), {fact}, {key});
        for (const PinOrder order : k_pin_orders) {
          EXPECT_EQ(fact_holds(lr.locked, {key}, {fact}, true, order), want)
              << entry.name << " key " << sim::bits_to_string(key) << order;
        }
        consistent += want ? 1 : 0;
      }
    }
    EXPECT_GT(consistent, 0) << entry.name;
  }
}

TEST(FactEncoding, UnknownPowerUpValueIsFreePerFact) {
  // An X flip-flop may power up either way, independently in every fact.
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  util::Rng rng(7);
  lock::LockResult lr = lock::find_lock("xor")->build(ref, rng);
  const SignalId x = lr.locked.dffs()[0];
  lr.locked.set_dff_init(x, DffInit::X);
  Netlist one = lr.locked.clone("one");
  one.set_dff_init(x, DffInit::One);
  std::vector<Fact> facts = seeded_facts(ref, lr.locked, 9);
  for (std::size_t f = 0; f < 2; ++f) {
    facts.push_back({facts[f].inputs,
                     sim::run_sequence(one, facts[f].inputs, {lr.correct_key})});
  }
  for (const Fact& fact : facts) {
    for (const sim::BitVec& key : all_keys(lr.locked.key_inputs().size())) {
      EXPECT_EQ(fact_holds(lr.locked, {key}, {fact}, false, PinOrder::After),
                some_reset_reproduces(lr.locked, {x}, {fact}, {key}))
          << "key " << sim::bits_to_string(key);
      // Powering up to 1 instead pins that value.
      EXPECT_EQ(fact_holds(one, {key}, {fact}, false, PinOrder::After),
                sim::run_sequence(one, fact.inputs, {key}) == fact.outputs)
          << "key " << sim::bits_to_string(key);
    }
  }
  // Two facts whose responses need different power-up values hold together:
  // each fact runs from its own reset.
  util::Rng stim_rng(21);
  for (int trial = 0; trial < 64; ++trial) {
    const Sequence inputs = sim::random_stimulus(stim_rng, 4, ref.inputs().size());
    Netlist zero = lr.locked.clone("zero");
    zero.set_dff_init(x, DffInit::Zero);
    const Sequence from_zero = sim::run_sequence(zero, inputs, {lr.correct_key});
    const Sequence from_one = sim::run_sequence(one, inputs, {lr.correct_key});
    if (from_zero == from_one) continue;
    Solver solver;
    const std::vector<Var> key = new_vars(solver, lr.correct_key.size());
    constrain_key_on_sequence(solver, lr.locked, key, inputs, from_zero);
    constrain_key_on_sequence(solver, lr.locked, key, inputs, from_one);
    pin(solver, key, lr.correct_key);
    EXPECT_EQ(solver.solve(), Result::Sat);
    return;
  }
  FAIL() << "no stimulus separates the two power-up values";
}

TEST(FactEncoding, KeyScheduleMatchesSimulationOnS27) {
  // Cycle t runs under slot t mod period: every period-2 schedule, and the
  // lock's own period-4 schedule with each single-bit mutation of it.
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  core::StrOptions options;
  options.seed = 11;
  const lock::LockResult lr = core::cute_lock_str(ref, options);
  const std::size_t width = lr.locked.key_inputs().size();
  ASSERT_EQ(lr.key_schedule.size(), 4u);
  std::vector<std::vector<sim::BitVec>> schedules;
  for (const sim::BitVec& k0 : all_keys(width)) {
    for (const sim::BitVec& k1 : all_keys(width)) schedules.push_back({k0, k1});
  }
  schedules.push_back(lr.key_schedule);
  for (std::size_t s = 0; s < lr.key_schedule.size(); ++s) {
    for (std::size_t b = 0; b < width; ++b) {
      std::vector<sim::BitVec> mutated = lr.key_schedule;
      mutated[s][b] ^= 1;
      schedules.push_back(std::move(mutated));
    }
  }
  util::Rng rng(13);
  for (int f = 0; f < 2; ++f) {
    const Sequence inputs = sim::random_stimulus(rng, 9, ref.inputs().size());
    const Sequence want = sim::run_sequence(ref, inputs);
    int consistent = 0;
    for (const std::vector<sim::BitVec>& schedule : schedules) {
      std::vector<sim::BitVec> per_cycle;
      for (std::size_t t = 0; t < inputs.size(); ++t) {
        per_cycle.push_back(schedule[t % schedule.size()]);
      }
      const bool reproduces = sim::run_sequence(lr.locked, inputs, per_cycle) == want;
      for (const PinOrder order : k_pin_orders) {
        EXPECT_EQ(fact_holds(lr.locked, schedule, {{inputs, want}}, false, order),
                  reproduces)
            << "period " << schedule.size() << order;
      }
      consistent += reproduces ? 1 : 0;
    }
    EXPECT_GT(consistent, 0);
  }
}

TEST(FactEncoding, SharedResetFactsMatchSimulation) {
  // Three facts share one symbolic reset state, as RANE's warmup does: the
  // reset bits the first facts fix at the root enter the later ones as
  // constants. Each of s27's 8 reset states in turn answers the stimuli
  // under the correct key; a key is consistent iff one reset state
  // reproduces all three responses under it.
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  const std::size_t num_dffs = ref.dffs().size();
  int cases = 0;
  int consistent = 0;
  for (const lock::RegisteredLock& entry : lock::lock_registry()) {
    if (entry.adds_state) continue;
    util::Rng rng(7);
    const lock::LockResult lr = entry.build(ref, rng);
    ASSERT_EQ(lr.locked.dffs().size(), num_dffs) << entry.name;
    std::vector<Sequence> stimuli;
    for (int f = 0; f < 3; ++f) {
      stimuli.push_back(sim::random_stimulus(rng, 4, ref.inputs().size()));
    }
    for (std::uint64_t code = 0; code < (std::uint64_t{1} << num_dffs); ++code) {
      Netlist answer = lr.locked.clone("answer");
      for (std::size_t i = 0; i < num_dffs; ++i) {
        answer.set_dff_init(answer.dffs()[i],
                            (code >> i) & 1 ? DffInit::One : DffInit::Zero);
      }
      std::vector<Fact> facts;
      for (const Sequence& inputs : stimuli) {
        facts.push_back({inputs, sim::run_sequence(answer, inputs, {lr.correct_key})});
      }
      for (const sim::BitVec& key : all_keys(lr.locked.key_inputs().size())) {
        const bool want =
            some_reset_reproduces(lr.locked, lr.locked.dffs(), facts, {key});
        for (const PinOrder order : k_pin_orders) {
          EXPECT_EQ(fact_holds(lr.locked, {key}, facts, true, order), want)
              << entry.name << " key " << sim::bits_to_string(key) << order;
          ++cases;
          consistent += want ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(consistent, 0);
  EXPECT_LT(consistent, cases);
}

TEST(FactEncoding, PinnedKeyFactAddsOnlyItsConstant) {
  // With the key fixed at the root and the run starting from constant
  // power-up values, every source of the fact is a constant: the whole
  // unrolling folds, and the fact costs its encoder's constant variable and
  // nothing else. The response lands as units on constants, so the solver's
  // verdict is simulation's. Locks whose correct key is a schedule (no
  // static key of the key inputs' width) are left out.
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  for (const lock::RegisteredLock& entry : lock::lock_registry()) {
    util::Rng rng(7);
    const lock::LockResult lr = entry.build(ref, rng);
    if (lr.correct_key.size() != lr.locked.key_inputs().size()) continue;
    const std::string& name = entry.name;
    ASSERT_TRUE(dffs_with_init(lr.locked, DffInit::X).empty()) << name;
    for (const Fact& fact : seeded_facts(ref, lr.locked, 19)) {
      for (const sim::BitVec& key :
           {lr.correct_key, sim::random_bits(rng, lr.correct_key.size())}) {
        Solver solver;
        const std::vector<Var> key_vars = new_vars(solver, key.size());
        pin(solver, key_vars, key);
        const int vars = solver.num_vars();
        const std::size_t clauses = solver.num_clauses();
        constrain_key_on_sequence(solver, lr.locked, key_vars, fact.inputs,
                                  fact.outputs);
        EXPECT_EQ(solver.num_vars(), vars + 1) << name;
        EXPECT_EQ(solver.num_clauses(), clauses) << name;
        EXPECT_EQ(solver.solve() == Result::Sat,
                  sim::run_sequence(lr.locked, fact.inputs, {key}) == fact.outputs)
            << name << " key " << sim::bits_to_string(key);
      }
    }
  }
}

TEST(FactEncoding, FrameWidthMismatchRejectedBeforeEncoding) {
  const Netlist ref = benchgen::make_circuit("s27").netlist;
  util::Rng rng(7);
  const lock::LockResult lr = lock::find_lock("xor")->build(ref, rng);
  const Sequence inputs = sim::random_stimulus(rng, 3, ref.inputs().size());
  const Sequence outputs = sim::run_sequence(ref, inputs);
  Solver solver;
  const std::vector<Var> key = new_vars(solver, lr.correct_key.size());
  const int vars = solver.num_vars();

  Sequence short_input = inputs;
  short_input[2].pop_back();
  Sequence short_output = outputs;
  short_output[1].clear();
  Sequence long_output = outputs;
  long_output[0].push_back(0);
  for (const auto& [in, out] : {std::pair{short_input, outputs},
                                std::pair{inputs, short_output},
                                std::pair{inputs, long_output}}) {
    EXPECT_THROW(constrain_key_on_sequence(solver, lr.locked, key, in, out),
                 std::invalid_argument);
  }
  EXPECT_EQ(solver.num_vars(), vars);
  const std::vector<Var> wide_key = new_vars(solver, key.size() + 1);
  const int with_wide_key = solver.num_vars();
  EXPECT_THROW(constrain_key_on_sequence(solver, lr.locked,
                                         std::vector<std::vector<Var>>{key, wide_key},
                                         inputs, outputs),
               std::invalid_argument);
  EXPECT_EQ(solver.num_vars(), with_wide_key);
  EXPECT_EQ(solver.num_clauses(), 0u);
}

/// What one attack-shaped clause stream leaves behind: formula size, the
/// verdict of the depth-2 diff solve, and the solver's search trajectory.
struct StreamPin {
  int vars = 0;
  std::size_t clauses = 0;
  Result result = Result::Unknown;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
};

/// Cute-Lock-Str on `ref` at `keys` keys of `bits` bits, min(4, DFFs)
/// locked FFs and lock seed `seed`.
lock::LockResult str_lock(const Netlist& ref, std::size_t keys,
                          std::size_t bits, std::uint64_t seed) {
  core::StrOptions options;
  options.num_keys = keys;
  options.key_bits = bits;
  options.locked_ffs = std::min<std::size_t>(4, ref.dffs().size());
  options.seed = seed;
  return core::cute_lock_str(ref, options);
}

/// A Cute-Lock-Str lock of catalog circuit `circuit` at `keys` keys of `bits`
/// bits, min(4, DFFs) locked FFs and lock seed `seed`, under a depth-2 DIP
/// miter plus `facts` seeded `cycles`-cycle warmup facts on both key copies,
/// answered by the reference. `rane` starts the miter and every fact from
/// the shared symbolic reset state, as RANE does; otherwise from power-up,
/// as INT does.
StreamPin warmup_stream(const char* circuit, std::size_t keys,
                        std::size_t bits, std::uint64_t seed, bool rane,
                        std::size_t facts, std::size_t cycles) {
  const Netlist ref = benchgen::make_circuit(circuit).netlist;
  const lock::LockResult lr = str_lock(ref, keys, bits, seed);

  Solver solver;
  SequentialMiter miter(solver, lr.locked, rane);
  miter.extend_to(2);
  const std::vector<Var>* init = rane ? &miter.initial_state_vars() : nullptr;
  util::Rng rng(0x5eed);
  for (std::size_t f = 0; f < facts; ++f) {
    const Sequence inputs = sim::random_stimulus(rng, cycles, ref.inputs().size());
    const Sequence outputs = sim::run_sequence(ref, inputs);
    constrain_key_on_sequence(solver, lr.locked, miter.keys_a(), inputs, outputs,
                              init);
    constrain_key_on_sequence(solver, lr.locked, miter.keys_b(), inputs, outputs,
                              init);
  }
  StreamPin pin;
  pin.vars = solver.num_vars();
  pin.clauses = solver.num_clauses();
  pin.result = solver.solve({miter.diff_within(2)});
  pin.conflicts = solver.stats().conflicts;
  pin.decisions = solver.stats().decisions;
  pin.propagations = solver.stats().propagations;
  return pin;
}

/// warmup_stream on a Table IV lock: the paper's (k, ki) and lock seed
/// 0x57a + gates, as table4-cns builds it.
StreamPin table4_warmup_stream(const char* circuit, bool rane,
                               std::size_t facts, std::size_t cycles) {
  const benchgen::CircuitSpec& spec = benchgen::find_spec(circuit);
  return warmup_stream(circuit, spec.lock_keys, spec.lock_bits,
                       0x57a + spec.gates, rane, facts, cycles);
}

/// table4-cns's s298 lock under table4_warmup_stream.
StreamPin s298_warmup_stream(bool rane, std::size_t facts, std::size_t cycles) {
  return table4_warmup_stream("s298", rane, facts, cycles);
}

// The pins below hold the clause stream the attacks build: a variable or
// clause added or dropped changes the counts, and a stream in another order
// (the encoder walking gates in another order, say) usually changes the
// search trajectory.

TEST(FactEncoding, RaneWarmupClauseStreamIsPinned) {
  const StreamPin pin = s298_warmup_stream(true, 8, 16);
  EXPECT_EQ(pin.vars, 14635);
  EXPECT_EQ(pin.clauses, 44626u);
  EXPECT_EQ(pin.result, Result::Unsat);
  EXPECT_EQ(pin.conflicts, 3u);
  EXPECT_EQ(pin.decisions, 3u);
  EXPECT_EQ(pin.propagations, 7969u);
}

TEST(FactEncoding, IntWarmupClauseStreamIsPinned) {
  const StreamPin pin = s298_warmup_stream(false, 2, 12);
  EXPECT_EQ(pin.vars, 1758);
  EXPECT_EQ(pin.clauses, 2081u);
  EXPECT_EQ(pin.result, Result::Unsat);
  EXPECT_EQ(pin.conflicts, 0u);
  EXPECT_EQ(pin.decisions, 0u);
  EXPECT_EQ(pin.propagations, 245u);
}

TEST(FactEncoding, B14RaneWarmupClauseStreamIsPinned) {
  const StreamPin pin = table4_warmup_stream("b14", true, 8, 16);
  EXPECT_EQ(pin.vars, 128570);
  EXPECT_EQ(pin.clauses, 413757u);
  EXPECT_EQ(pin.result, Result::Unsat);
  EXPECT_EQ(pin.conflicts, 18u);
  EXPECT_EQ(pin.decisions, 26u);
  EXPECT_EQ(pin.propagations, 108968u);
}

TEST(FactEncoding, B14IntWarmupClauseStreamIsPinned) {
  const StreamPin pin = table4_warmup_stream("b14", false, 2, 12);
  EXPECT_EQ(pin.vars, 7121);
  EXPECT_EQ(pin.clauses, 18543u);
  EXPECT_EQ(pin.result, Result::Unsat);
  EXPECT_EQ(pin.conflicts, 0u);
  EXPECT_EQ(pin.decisions, 0u);
  EXPECT_EQ(pin.propagations, 617u);
}

TEST(FactEncoding, MegaIntWarmupClauseStreamIsPinned) {
  // perfbench mega-encode's syn64k lock: k = 2, ki = 4, 4 locked FFs, lock
  // seed 0x3e6a + gates + k.
  const StreamPin pin =
      warmup_stream("syn64k", 2, 4, 0x3e6a + 65536 + 2, false, 2, 12);
  EXPECT_EQ(pin.vars, 31289);
  EXPECT_EQ(pin.clauses, 99569u);
  EXPECT_EQ(pin.result, Result::Unsat);
  EXPECT_EQ(pin.conflicts, 0u);
  EXPECT_EQ(pin.decisions, 0u);
  EXPECT_EQ(pin.propagations, 29u);
}

TEST(FactEncoding, FrameVariableNumberingIsPinned) {
  // One frame over fresh source literals: the FNV-1a of every signal's
  // literal, in SignalId order, pins the variable each gate gets, which
  // follows the encoder's walk order. The clause-stream pins above can
  // hold when only that order moves.
  const benchgen::CircuitSpec& s298 = benchgen::find_spec("s298");
  const benchgen::CircuitSpec& b14 = benchgen::find_spec("b14");
  const struct {
    const char* circuit;
    std::size_t keys;
    std::size_t bits;
    std::uint64_t seed;
    int vars;
    std::size_t clauses;
    std::uint64_t hash;
  } cases[] = {
      {"s298", s298.lock_keys, s298.lock_bits, 0x57a + s298.gates, 196, 555,
       0x730172beb6aac2b6ULL},
      {"b14", b14.lock_keys, b14.lock_bits, 0x57a + b14.gates, 10530, 33924,
       0x202e71d2a06358a5ULL},
      {"syn64k", 2, 4, 0x3e6a + 65536 + 2, 66580, 218469,
       0xa6e46c3cc9b4a025ULL},
  };
  for (const auto& c : cases) {
    const Netlist ref = benchgen::make_circuit(c.circuit).netlist;
    const lock::LockResult lr = str_lock(ref, c.keys, c.bits, c.seed);
    const sim::CompiledNetlist prog(lr.locked);
    Solver solver;
    HashedEncoder enc(solver);
    const auto fresh = [&enc](std::size_t n) {
      std::vector<sat::Lit> lits;
      for (std::size_t i = 0; i < n; ++i) lits.push_back(enc.fresh());
      return lits;
    };
    const std::vector<sat::Lit> inputs = fresh(prog.inputs().size());
    const std::vector<sat::Lit> keys = fresh(prog.key_inputs().size());
    const std::vector<sat::Lit> states = fresh(prog.dff_qs().size());
    const std::vector<sat::Lit> frame =
        enc.encode_frame(prog, inputs, keys, states);
    std::uint64_t hash = 1469598103934665603ULL;
    for (SignalId s = 0; s < lr.locked.size(); ++s) {
      hash ^= static_cast<std::uint32_t>(frame[prog.slot(s)].code());
      hash *= 1099511628211ULL;
    }
    EXPECT_EQ(solver.num_vars(), c.vars) << c.circuit;
    EXPECT_EQ(solver.num_clauses(), c.clauses) << c.circuit;
    EXPECT_EQ(hash, c.hash) << c.circuit;
  }
}

TEST(FactEncoding, ConstantFrameLiteralsArePinned) {
  // Fact-shaped unrollings, one encoder per fact as constrain_key_on_sequence
  // builds them: constant inputs from seeded stimuli, fresh keys, and each
  // fact from power-up (INT) or from one shared vector of fresh reset
  // literals (RANE). Most gates then read constants only. The FNV-1a of
  // every slot's literal in every frame pins what those gates fold to and
  // the variable every other gate gets; the pin above never reaches a
  // constant operand.
  const benchgen::CircuitSpec& s298 = benchgen::find_spec("s298");
  const benchgen::CircuitSpec& b14 = benchgen::find_spec("b14");
  const struct {
    const char* circuit;
    std::size_t keys;
    std::size_t bits;
    std::uint64_t seed;
    bool rane;
    std::size_t facts;
    std::size_t cycles;
    int vars;
    std::size_t clauses;
    std::uint64_t hash;
  } cases[] = {
      {"syn64k", 2, 4, 0x3e6a + 65536 + 2, false, 2, 12, 1038, 3266,
       0x4f1321cbf261c4bdULL},
      {"s298", s298.lock_keys, s298.lock_bits, 0x57a + s298.gates, false, 2,
       12, 1072, 3290, 0x94de80bf58062f28ULL},
      {"s298", s298.lock_keys, s298.lock_bits, 0x57a + s298.gates, true, 8,
       16, 14520, 45598, 0x0a68ec78b09585bbULL},
      {"b14", b14.lock_keys, b14.lock_bits, 0x57a + b14.gates, false, 2, 12,
       1221, 3664, 0x36445fd0afb9c2a4ULL},
      {"b14", b14.lock_keys, b14.lock_bits, 0x57a + b14.gates, true, 8, 16,
       593708, 1966782, 0xca094c8ca3e7ed2dULL},
  };
  for (const auto& c : cases) {
    const Netlist ref = benchgen::make_circuit(c.circuit).netlist;
    const lock::LockResult lr = str_lock(ref, c.keys, c.bits, c.seed);
    const sim::CompiledNetlist prog(lr.locked);
    Solver solver;
    const auto fresh_lits = [&solver](std::size_t n) {
      std::vector<sat::Lit> lits;
      for (std::size_t i = 0; i < n; ++i) lits.push_back(sat::pos(solver.new_var()));
      return lits;
    };
    const std::vector<sat::Lit> keys = fresh_lits(prog.key_inputs().size());
    const std::vector<sat::Lit> reset = fresh_lits(c.rane ? prog.dff_qs().size() : 0);
    util::Rng rng(0x5eed);
    std::uint64_t hash = util::k_fnv_offset;
    for (std::size_t f = 0; f < c.facts; ++f) {
      HashedEncoder enc(solver);
      std::vector<sat::Lit> state = c.rane ? reset : enc.power_up_state(prog);
      for (const sim::BitVec& bits :
           sim::random_stimulus(rng, c.cycles, prog.inputs().size())) {
        std::vector<sat::Lit> inputs;
        for (const auto bit : bits) inputs.push_back(enc.constant(bit != 0));
        for (const sat::Lit l : enc.unroll_frame(prog, inputs, keys, state)) {
          util::fnv1a_mix(hash, static_cast<std::uint32_t>(l.code()));
        }
      }
    }
    const std::string label = std::string(c.circuit) + (c.rane ? " rane" : " int");
    EXPECT_EQ(solver.num_vars(), c.vars) << label;
    EXPECT_EQ(solver.num_clauses(), c.clauses) << label;
    EXPECT_EQ(hash, c.hash) << label;
  }
}

}  // namespace
}  // namespace cl::cnf
