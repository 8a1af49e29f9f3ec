#include "attack/accept.hpp"

#include <gtest/gtest.h>

#include "lock/cac_lock.hpp"
#include "lock/comb_locks.hpp"
#include "lock/latch_lock.hpp"
#include "netlist/bench_io.hpp"
#include "sim/compiled.hpp"
#include "sim/sequence.hpp"
#include "util/rng.hpp"

namespace cl::attack {
namespace {

using netlist::Netlist;

const char* k_s27 = R"(
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
)";

// AND-masked so that inverting an internal net corrupts only the input
// words where the other operand enables it — wrong keys with corruption
// rates strictly between 0 and 1 exist, which the ε tests below need.
const char* k_comb = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
t1 = AND(a, b)
t2 = OR(c, d)
y = AND(t1, t2)
)";

Netlist s27() { return netlist::read_bench_string(k_s27, "s27"); }

/// The correct key with the decoy positions overwritten by `word`'s bits.
/// Every such assignment is a functionally correct key by construction.
sim::BitVec decoy_variant(const lock::LockResult& lr, std::uint64_t word) {
  sim::BitVec key = lr.correct_key;
  for (std::size_t b = 0; b < lr.decoy_key_bits.size(); ++b) {
    key[lr.decoy_key_bits[b]] = (word >> b) & 1;
  }
  return key;
}

// The multi-key satellite: every enumerated correct key of a CAC 2.0
// instance is accepted under AnyPassingKey, while the one-key (ExactKey)
// criterion accepts only the ground-truth assignment — the gap Hu et al.
// identify between "recovered the secret" and "broke the lock".
TEST(Accept, CacAcceptsEveryEnumeratedCorrectKey) {
  const Netlist nl = s27();
  util::Rng rng(11);
  const lock::LockResult lr = lock::cac_lock(nl, 4, 3, rng);
  ASSERT_EQ(lr.decoy_key_bits.size(), 3u);
  std::size_t exact_hits = 0, inexact_passes = 0;
  for (std::uint64_t word = 0; word < 8; ++word) {
    const sim::BitVec key = decoy_variant(lr, word);
    const AcceptReport rep =
        verify_any_key(lr.locked, key, nl, &lr.correct_key);
    EXPECT_TRUE(rep.accepted) << "decoy word " << word;
    EXPECT_EQ(rep.any_key_pass, 1) << "decoy word " << word;
    EXPECT_EQ(rep.corruption_rate, 0.0) << "decoy word " << word;
    if (rep.key_exact == 1) ++exact_hits;
    if (rep.key_exact == 0 && rep.any_key_pass == 1) ++inexact_passes;
  }
  // Exactly one assignment matches the stored secret; the other seven are
  // the one-key-premise gap cells (passing keys the exact criterion denies).
  EXPECT_EQ(exact_hits, 1u);
  EXPECT_EQ(inexact_passes, 7u);
}

TEST(Accept, LatchDecoyBitsAreDontCares) {
  const Netlist nl = s27();
  util::Rng rng(5);
  const lock::LockResult lr = lock::latch_lock(nl, 3, 2, rng);
  ASSERT_EQ(lr.decoy_key_bits.size(), 2u);
  for (std::uint64_t word = 0; word < 4; ++word) {
    const AcceptReport rep = verify_any_key(
        lr.locked, decoy_variant(lr, word), nl, &lr.correct_key);
    EXPECT_TRUE(rep.accepted) << "decoy word " << word;
  }
}

TEST(Accept, RejectsCorruptingKeys) {
  const Netlist nl = s27();
  util::Rng rng(13);
  const lock::LockResult lr = lock::cac_lock(nl, 4, 3, rng);
  std::vector<bool> is_decoy(lr.correct_key.size(), false);
  for (std::size_t pos : lr.decoy_key_bits) is_decoy[pos] = true;
  for (std::size_t pos = 0; pos < lr.correct_key.size(); ++pos) {
    if (is_decoy[pos]) continue;
    sim::BitVec key = lr.correct_key;
    key[pos] ^= 1;
    const AcceptReport rep = verify_any_key(lr.locked, key, nl, nullptr);
    EXPECT_FALSE(rep.accepted) << "real bit " << pos;
    EXPECT_EQ(rep.any_key_pass, 0) << "real bit " << pos;
    // No ground truth supplied, so exactness must stay unevaluated.
    EXPECT_EQ(rep.key_exact, -1);
  }
}

TEST(Accept, UnprovenPassingKeyLeavesAnyKeyPassUnknown) {
  // y = a ^ b spelled as AND/OR behind a key gate: key 0 passes, but only a
  // solver proof can show it, and the proof gets no conflicts.
  const Netlist ref = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "ref");
  const Netlist locked = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(keyinput0)
OUTPUT(y)
na = NOT(a)
nb = NOT(b)
t0 = AND(a, nb)
t1 = AND(na, b)
x = OR(t0, t1)
y = XOR(x, keyinput0)
)", "locked");
  AcceptOptions options;
  options.verify.conflict_budget = 0;
  const AcceptReport rep =
      verify_any_key(locked, sim::BitVec{0}, ref, nullptr, options);
  EXPECT_EQ(rep.corruption_rate, 0.0);
  EXPECT_EQ(rep.any_key_pass, -1);
  EXPECT_FALSE(rep.accepted);
}

TEST(Accept, ExactCriterionNeedsGroundTruth) {
  const Netlist nl = s27();
  util::Rng rng(3);
  const lock::LockResult lr = lock::cac_lock(nl, 4, 2, rng);
  AcceptOptions opt;
  opt.criterion = AcceptCriterion::ExactKey;
  const AcceptReport rep =
      verify_any_key(lr.locked, lr.correct_key, nl, nullptr, opt);
  EXPECT_FALSE(rep.accepted);
  EXPECT_EQ(rep.key_exact, -1);
  EXPECT_NE(rep.detail.find("ground truth unknown"), std::string::npos);
  const AcceptReport with_truth =
      verify_any_key(lr.locked, lr.correct_key, nl, &lr.correct_key, opt);
  EXPECT_TRUE(with_truth.accepted);
  EXPECT_EQ(with_truth.key_exact, 1);
}

TEST(Accept, WidthMismatchIsRejectedUnderEveryCriterion) {
  const Netlist nl = s27();
  util::Rng rng(9);
  const lock::LockResult lr = lock::cac_lock(nl, 4, 2, rng);
  const sim::BitVec narrow(lr.correct_key.size() - 1, 1);
  for (const AcceptCriterion c :
       {AcceptCriterion::ExactKey, AcceptCriterion::AnyPassingKey,
        AcceptCriterion::Approximate}) {
    AcceptOptions opt;
    opt.criterion = c;
    const AcceptReport rep =
        verify_any_key(lr.locked, narrow, nl, &lr.correct_key, opt);
    EXPECT_FALSE(rep.accepted) << criterion_name(c);
    EXPECT_EQ(rep.corruption_rate, -1.0) << criterion_name(c);
    EXPECT_NE(rep.detail.find("width"), std::string::npos);
  }
}

// ε-acceptance cross-checked against an independent brute-force corruption
// count: on a 4-input combinational circuit the exhaustive evaluator must
// report exactly the enumerated corrupted-word fraction, and acceptance must
// be monotone in ε with the threshold sitting at that rate.
TEST(Accept, EpsilonAcceptanceMatchesBruteForceAndIsMonotone) {
  const Netlist nl = netlist::read_bench_string(k_comb, "c");
  util::Rng rng(17);
  const lock::LockResult lr = lock::xor_lock(nl, 3, rng);

  // Independent brute force: every input word, one cycle, plain interpreter.
  const std::size_t words = 1u << nl.inputs().size();
  const auto brute_rate = [&](const sim::BitVec& key) {
    std::size_t corrupted = 0;
    for (std::uint64_t word = 0; word < words; ++word) {
      const std::vector<sim::BitVec> stim{
          sim::u64_to_bits(word, nl.inputs().size())};
      const auto want = sim::run_sequence(nl, stim);
      const auto got = sim::run_sequence(lr.locked, stim, {key});
      if (want != got) ++corrupted;
    }
    return static_cast<double>(corrupted) / words;
  };

  // Find a single-bit flip whose corruption is partial (an XOR on t1 or t2
  // is masked by the AND output; one on y itself corrupts everywhere).
  sim::BitVec wrong;
  double rate = 0.0;
  for (std::size_t pos = 0; pos < lr.correct_key.size(); ++pos) {
    sim::BitVec candidate = lr.correct_key;
    candidate[pos] ^= 1;
    const double r = brute_rate(candidate);
    if (r > 0.0 && r < 1.0) {
      wrong = candidate;
      rate = r;
      break;
    }
  }
  ASSERT_FALSE(wrong.empty()) << "no wrong key with partial corruption";

  AcceptOptions opt;
  opt.criterion = AcceptCriterion::Approximate;
  opt.exhaustive = true;
  opt.sample_cycles = 1;
  const auto judge = [&](double eps) {
    opt.epsilon = eps;
    return verify_any_key(lr.locked, wrong, nl, &lr.correct_key, opt);
  };

  EXPECT_EQ(judge(0.0).corruption_rate, rate);
  bool prev = false;
  for (const double eps : {0.0, rate / 2, rate - 1e-9, rate, rate + 1e-9,
                           0.999, 1.0}) {
    const bool now = judge(eps).accepted;
    EXPECT_EQ(now, eps >= rate) << "eps " << eps;
    EXPECT_TRUE(now || !prev) << "acceptance not monotone at eps " << eps;
    prev = now;
  }
  // The correct key trivially meets every ε, including zero.
  opt.epsilon = 0.0;
  EXPECT_TRUE(
      verify_any_key(lr.locked, lr.correct_key, nl, &lr.correct_key, opt)
          .accepted);
}

TEST(Accept, ApplyAcceptanceCopiesVerdictIntoAttackResult) {
  AcceptReport rep;
  rep.key_exact = 0;
  rep.any_key_pass = 1;
  rep.corruption_rate = 0.25;
  AttackResult result;
  EXPECT_EQ(result.key_exact, -1);
  EXPECT_EQ(result.any_key_pass, -1);
  apply_acceptance(rep, &result);
  EXPECT_EQ(result.key_exact, 0);
  EXPECT_EQ(result.any_key_pass, 1);
  EXPECT_EQ(result.corruption_rate, 0.25);
}

TEST(Accept, CriterionNamesRoundTrip) {
  for (const char* name : {"exact", "any", "approx"}) {
    const auto parsed = parse_criterion(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_STREQ(criterion_name(*parsed), name);
  }
  EXPECT_FALSE(parse_criterion("strict").has_value());
  EXPECT_FALSE(parse_criterion("").has_value());
}

}  // namespace
}  // namespace cl::attack
