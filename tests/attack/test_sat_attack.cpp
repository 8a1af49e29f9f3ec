#include "attack/sat_attack.hpp"

#include <gtest/gtest.h>

#include "attack/verify.hpp"
#include "lock/comb_locks.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/transform.hpp"

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

/// Scan-model attack fixture: lock sequential s27, then expose scan chains
/// on both the locked circuit and the oracle's reference.
struct ScanFixture {
  Netlist original;
  Netlist original_scan;
  Netlist locked_scan;
  sim::BitVec correct_key;

  ScanFixture(const lock::LockResult& lr, const Netlist& orig)
      : original(orig.clone(orig.name())),
        original_scan(netlist::scan_expose(orig)),
        locked_scan(netlist::scan_expose(lr.locked)),
        correct_key(lr.correct_key) {}
};

TEST(SatAttack, UnprovenVerificationEndsTimeoutNotWrongKey) {
  // y = a ^ b spelled as AND/OR in the locked copy: the recovered key is
  // correct, but proving it needs the solver, and the verification budget
  // is zero.
  const Netlist ref = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
y = XOR(a, b)
z = AND(b, c)
)", "ref");
  const Netlist locked = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(keyinput0)
INPUT(keyinput1)
OUTPUT(y)
OUTPUT(z)
na = NOT(a)
nb = NOT(b)
t0 = AND(a, nb)
t1 = AND(na, b)
x = OR(t0, t1)
y = XOR(x, keyinput0)
w = AND(b, c)
z = XNOR(w, keyinput1)
)", "locked");
  SequentialOracle oracle(ref);
  SatAttackOptions options;
  options.budget.verify_time_limit_s = 0;
  const AttackResult r = sat_attack(locked, oracle, options);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_EQ(r.key, (sim::BitVec{0, 1}));
  EXPECT_EQ(sat_attack(locked, oracle).outcome, Outcome::Equal);
}

TEST(SatAttack, BreaksXorLockOnScanModel) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    const auto lr = lock::xor_lock(nl, 6, rng);
    const ScanFixture fx(lr, nl);
    SequentialOracle oracle(fx.original_scan);
    const AttackResult r = sat_attack(fx.locked_scan, oracle);
    EXPECT_EQ(r.outcome, Outcome::Equal) << "seed " << seed << ": " << r.summary();
    EXPECT_EQ(r.key, fx.correct_key) << "seed " << seed;
  }
}

TEST(SatAttack, BreaksMuxLockOnScanModel) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(7);
  const auto lr = lock::mux_lock(nl, 5, rng);
  const ScanFixture fx(lr, nl);
  SequentialOracle oracle(fx.original_scan);
  const AttackResult r = sat_attack(fx.locked_scan, oracle);
  // MUX locks can have multiple functionally correct keys (decoy == true
  // net); Equal is what matters, not bit-exactness.
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
}

TEST(SatAttack, BreaksAntiSatEventually) {
  // Anti-SAT on a tiny input space: the DIP count is bounded by 2^|X| and
  // the attack must still converge to a working key (K1 == K2).
  const char* comb = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(9);
  const auto lr = lock::anti_sat(nl, 4, rng);
  SequentialOracle oracle(nl);
  const AttackResult r = sat_attack(lr.locked, oracle);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
}

TEST(SatAttack, SarLockForcesManyDips) {
  // The SARLock property: one DIP eliminates one key, so breaking a k-bit
  // SARLock needs on the order of 2^k iterations.
  const char* comb = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = AND(a, b, c, d)
)";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(11);
  const auto lr = lock::sar_lock(nl, 4, rng);
  SequentialOracle oracle(nl);
  const AttackResult r = sat_attack(lr.locked, oracle);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
  EXPECT_GE(r.iterations, 8u);  // ~2^4 minus corner effects
}

TEST(SatAttack, TimeoutOnTinyBudget) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(13);
  const auto lr = lock::xor_lock(nl, 6, rng);
  const ScanFixture fx(lr, nl);
  SequentialOracle oracle(fx.original_scan);
  SatAttackOptions opts;
  opts.budget.max_iterations = 0;
  const AttackResult r = sat_attack(fx.locked_scan, oracle, opts);
  EXPECT_EQ(r.outcome, Outcome::Timeout);
}

TEST(SatAttack, RejectsSequentialInput) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 2, rng);
  SequentialOracle oracle(nl);
  EXPECT_THROW(sat_attack(lr.locked, oracle), std::invalid_argument);
}

TEST(SatAttack, DoubleDipBreaksXorLockWithFewerRounds) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(17);
  const auto lr = lock::xor_lock(nl, 6, rng);
  const ScanFixture fx(lr, nl);
  SequentialOracle oracle(fx.original_scan);
  SatAttackOptions opts;
  opts.mode = SatAttackOptions::Mode::DoubleDip;
  const AttackResult r = sat_attack(fx.locked_scan, oracle, opts);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
}

TEST(SatAttack, AppSatSettlesOnLowCorruptionLock) {
  // Anti-SAT has single-minterm corruption per wrong key: AppSAT's random
  // sampling sees (near-)zero error and settles early.
  const char* comb = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(y)
t1 = XOR(a, b)
t2 = AND(c, d)
t3 = OR(e, f)
t4 = XOR(t1, t2)
y = AND(t4, t3)
)";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(19);
  const auto lr = lock::anti_sat(nl, 8, rng);
  SequentialOracle oracle(nl);
  SatAttackOptions opts;
  opts.mode = SatAttackOptions::Mode::AppSat;
  opts.appsat_sample_every = 2;
  const AttackResult r = sat_attack(lr.locked, oracle, opts);
  // Either it settles (approximate key verified exactly Equal/WrongKey) or
  // converges classically; it must not time out on this tiny circuit.
  EXPECT_NE(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_NE(r.outcome, Outcome::Fail) << r.summary();
}

}  // namespace
}  // namespace cl::attack
