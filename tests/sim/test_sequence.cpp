#include "sim/sequence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <utility>

#include "benchgen/catalog.hpp"
#include "benchgen/s27.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"
#include "netlist/bench_io.hpp"
#include "sim/compiled.hpp"

namespace cl::sim {
namespace {

using netlist::Netlist;

// 2-bit counter with enable; output = (count == 3).
const char* k_counter = R"(
INPUT(en)
OUTPUT(hit)
q0 = DFF(d0)
q1 = DFF(d1)
nq0 = NOT(q0)
d0 = XOR(q0, en)
carry = AND(q0, en)
d1 = XOR(q1, carry)
hit = AND(q0, q1)
)";

TEST(Sequence, CounterCountsWhenEnabled) {
  const Netlist nl = netlist::read_bench_string(k_counter, "cnt");
  std::vector<BitVec> inputs(6, BitVec{1});
  const auto out = run_sequence(nl, inputs);
  ASSERT_EQ(out.size(), 6u);
  // count: 0,1,2,3,0,1 -> hit at cycle 3 only.
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_EQ(out[c][0], c == 3 ? 1 : 0) << "cycle " << c;
  }
}

TEST(Sequence, DisabledCounterHolds) {
  const Netlist nl = netlist::read_bench_string(k_counter, "cnt");
  std::vector<BitVec> inputs(4, BitVec{0});
  const auto out = run_sequence(nl, inputs);
  for (const auto& cycle : out) EXPECT_EQ(cycle[0], 0);
}

TEST(Sequence, WidthValidation) {
  const Netlist nl = netlist::read_bench_string(k_counter, "cnt");
  EXPECT_THROW(run_sequence(nl, {BitVec{1, 0}}), std::invalid_argument);
}

TEST(Sequence, KeyedCircuitRequiresKeys) {
  const char* locked = R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = XOR(a, keyinput0)
)";
  const Netlist nl = netlist::read_bench_string(locked, "l");
  EXPECT_THROW(run_sequence(nl, {BitVec{1}}), std::invalid_argument);
  // Static key (single entry) is broadcast.
  const auto out = run_sequence(nl, {BitVec{1}, BitVec{1}}, {BitVec{1}});
  EXPECT_EQ(out[0][0], 0);
  EXPECT_EQ(out[1][0], 0);
  // Per-cycle keys flip the output.
  const auto out2 = run_sequence(nl, {BitVec{1}, BitVec{1}}, {BitVec{1}, BitVec{0}});
  EXPECT_EQ(out2[0][0], 0);
  EXPECT_EQ(out2[1][0], 1);
}

/// One screen of `candidates` keys on fresh buffers.
std::vector<std::uint64_t> screen_keys(
    const CompiledNetlist& compiled,
    const std::vector<std::vector<BitVec>>& stimuli,
    const std::vector<std::vector<BitVec>>& responses,
    const std::vector<std::uint64_t>& key_words, std::size_t candidates) {
  ScreenBuffers buffers;
  return StaticKeyScreen(compiled, stimuli, responses)
      .screen(key_words, candidates, buffers);
}

TEST(Sequence, KeyedLanesMatchScalarRuns) {
  const char* locked = R"(
INPUT(a)
INPUT(keyinput0)
INPUT(keyinput1)
OUTPUT(y)
q = DFF(d)
d = XOR(a, keyinput0)
t = XOR(q, keyinput1)
y = NOT(t)
)";
  const Netlist nl = netlist::read_bench_string(locked, "l2");
  const CompiledNetlist compiled(nl);
  util::Rng rng(5);
  const std::vector<std::vector<BitVec>> stimuli{random_stimulus(rng, 5, 1)};
  // 4 candidate keys in lanes 0..3.
  const std::vector<BitVec> keys{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  std::vector<std::uint64_t> key_words(2, 0);
  for (std::size_t lane = 0; lane < keys.size(); ++lane) {
    if (keys[lane][0]) key_words[0] |= 1ULL << lane;
    if (keys[lane][1]) key_words[1] |= 1ULL << lane;
  }
  // Screen against each candidate's own trace: exactly the lanes whose
  // scalar run reproduces it survive.
  for (const BitVec& truth : keys) {
    const std::vector<std::vector<BitVec>> responses{
        run_sequence(nl, stimuli[0], {truth})};
    const auto alive = screen_keys(compiled, stimuli, responses, key_words, 4);
    ASSERT_EQ(alive.size(), 1u);
    for (std::size_t lane = 0; lane < keys.size(); ++lane) {
      const bool reproduces =
          run_sequence(nl, stimuli[0], {keys[lane]}) == responses[0];
      EXPECT_EQ((alive[0] >> lane) & 1ULL, reproduces ? 1u : 0u)
          << "lane " << lane << " truth " << bits_to_string(truth);
    }
    EXPECT_EQ(alive[0] >> 4, 0u);
  }
}

// Five key bits steer a 3-flip-flop machine whose two outputs see each bit
// under different conditions, so wrong keys die on many different cycles.
// Both outputs are 0 on cycle 0 whatever the key.
const char* k_keyed_fsm = R"(
INPUT(a)
INPUT(b)
INPUT(keyinput0)
INPUT(keyinput1)
INPUT(keyinput2)
INPUT(keyinput3)
INPUT(keyinput4)
OUTPUT(y)
OUTPUT(z)
q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)
d0 = XOR(a, keyinput0)
d1 = MUX(keyinput1, q0, b)
t = AND(q1, keyinput2)
d2 = XOR(q2, t)
g = AND(a, b, q1, keyinput4)
y = XOR(q0, q2, g)
m = XNOR(b, keyinput3)
z = AND(q2, m)
)";

/// The screen's key layout: word w of key bit k at key_words[k * W + w].
std::vector<std::uint64_t> pack_keys(const std::vector<BitVec>& keys,
                                     std::size_t key_bits) {
  const std::size_t lanes = (keys.size() + 63) / 64;
  std::vector<std::uint64_t> words(key_bits * lanes, 0);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    for (std::size_t k = 0; k < key_bits; ++k) {
      if (keys[j][k]) words[k * lanes + j / 64] |= 1ULL << (j % 64);
    }
  }
  return words;
}

/// Per-key reference: does `key` reproduce every response?
bool reproduces(const CompiledNetlist& compiled,
                const std::vector<std::vector<BitVec>>& stimuli,
                const std::vector<std::vector<BitVec>>& responses,
                const BitVec& key) {
  for (std::size_t s = 0; s < stimuli.size(); ++s) {
    if (run_sequence(compiled, stimuli[s], {key}) != responses[s]) return false;
  }
  return true;
}

/// Screens `keys` and checks every lane of every returned word, including
/// the lanes past the last candidate, against the per-key reference.
/// Returns the number of survivors.
std::size_t expect_screen_matches_per_key(
    const CompiledNetlist& compiled,
    const std::vector<std::vector<BitVec>>& stimuli,
    const std::vector<std::vector<BitVec>>& responses,
    const std::vector<BitVec>& keys) {
  const std::size_t key_bits = compiled.key_inputs().size();
  const auto alive = screen_keys(compiled, stimuli, responses,
                                 pack_keys(keys, key_bits), keys.size());
  EXPECT_EQ(alive.size(), (keys.size() + 63) / 64);
  std::size_t survivors = 0;
  for (std::size_t j = 0; j < 64 * alive.size(); ++j) {
    const bool got = (alive[j / 64] >> (j % 64)) & 1ULL;
    const bool want =
        j < keys.size() && reproduces(compiled, stimuli, responses, keys[j]);
    EXPECT_EQ(got, want) << "candidate " << j << " of " << keys.size();
    if (got) ++survivors;
  }
  return survivors;
}

TEST(Sequence, ScreenStaticKeysMatchesPerKeySimulation) {
  const Netlist nl = netlist::read_bench_string(k_keyed_fsm, "fsm");
  const CompiledNetlist compiled(nl);
  ASSERT_EQ(compiled.key_inputs().size(), 5u);
  util::Rng rng(11);
  std::size_t survivors = 0;
  std::size_t dead = 0;
  // W = 1, 3 and 8 lane words, and a partial last word (W = 5).
  for (const std::size_t candidates : {64, 192, 512, 300}) {
    for (int trial = 0; trial < 3; ++trial) {
      const BitVec truth = random_bits(rng, 5);
      std::vector<std::vector<BitVec>> stimuli;
      std::vector<std::vector<BitVec>> responses;
      for (int s = 0; s < 3; ++s) {
        stimuli.push_back(random_stimulus(rng, 10, 2));
        responses.push_back(run_sequence(compiled, stimuli.back(), {truth}));
      }
      std::vector<BitVec> keys;
      for (std::size_t j = 0; j < candidates; ++j) {
        keys.push_back(random_bits(rng, 5));
      }
      keys.back() = truth;  // the last lane of the last word survives
      const std::size_t alive =
          expect_screen_matches_per_key(compiled, stimuli, responses, keys);
      survivors += alive;
      dead += candidates - alive;
    }
  }
  EXPECT_GT(survivors, 0u);
  EXPECT_GT(dead, 0u);
}

TEST(Sequence, ScreenStaticKeysEmptyLanesNeverSurvive) {
  // Responses of the all-zero key: the unused lanes of a partial word hold
  // key 0 too, yet must neither survive nor keep the screen running.
  const Netlist nl = netlist::read_bench_string(k_keyed_fsm, "fsm");
  const CompiledNetlist compiled(nl);
  util::Rng rng(12);
  const BitVec zero(5, 0);
  const std::vector<std::vector<BitVec>> stimuli{random_stimulus(rng, 12, 2)};
  const std::vector<std::vector<BitVec>> responses{
      run_sequence(compiled, stimuli[0], {zero})};
  std::vector<BitVec> keys;
  for (std::size_t j = 0; j < 100; ++j) {
    BitVec key = random_bits(rng, 5);
    key[0] = 1;  // never the all-zero key
    keys.push_back(key);
  }
  EXPECT_EQ(expect_screen_matches_per_key(compiled, stimuli, responses, keys),
            0u);
}

TEST(Sequence, ScreenStaticKeysAllDeadOnFirstCycle) {
  const Netlist nl = netlist::read_bench_string(k_keyed_fsm, "fsm");
  const CompiledNetlist compiled(nl);
  util::Rng rng(13);
  std::vector<std::vector<BitVec>> stimuli;
  std::vector<std::vector<BitVec>> responses;
  for (int s = 0; s < 2; ++s) {
    stimuli.push_back(random_stimulus(rng, 8, 2));
    responses.push_back(run_sequence(compiled, stimuli.back(), {BitVec(5, 0)}));
  }
  // Output y is 0 on cycle 0 under every key: claiming 1 kills every lane.
  responses[0][0][0] = 1;
  std::vector<BitVec> keys;
  for (std::size_t j = 0; j < 512; ++j) keys.push_back(random_bits(rng, 5));
  EXPECT_EQ(expect_screen_matches_per_key(compiled, stimuli, responses, keys),
            0u);
}

TEST(Sequence, ScreenStaticKeysChecksTheLastCycleOfTheLastStimulus) {
  const Netlist nl = netlist::read_bench_string(k_keyed_fsm, "fsm");
  const CompiledNetlist compiled(nl);
  util::Rng rng(14);
  const BitVec victim{1, 0, 1, 1, 0};
  std::vector<std::vector<BitVec>> stimuli;
  std::vector<std::vector<BitVec>> responses;
  for (int s = 0; s < 3; ++s) {
    stimuli.push_back(random_stimulus(rng, 9, 2));
    responses.push_back(run_sequence(compiled, stimuli.back(), {victim}));
  }
  // The victim key reproduces everything but the very last output bit, so
  // its 256 lanes stay alive until then and must die there.
  responses.back().back().back() ^= 1;
  std::vector<BitVec> keys(256, victim);
  for (std::size_t j = 0; j < 256; ++j) keys.push_back(random_bits(rng, 5));
  expect_screen_matches_per_key(compiled, stimuli, responses, keys);
}

TEST(Sequence, ScreenStaticKeysRejectsMismatchedShapes) {
  const Netlist nl = netlist::read_bench_string(k_keyed_fsm, "fsm");
  const CompiledNetlist compiled(nl);
  util::Rng rng(15);
  const std::vector<std::vector<BitVec>> stimuli{random_stimulus(rng, 4, 2),
                                                 random_stimulus(rng, 4, 2)};
  std::vector<std::vector<BitVec>> responses;
  for (const auto& stimulus : stimuli) {
    responses.push_back(run_sequence(compiled, stimulus, {BitVec(5, 0)}));
  }
  const std::vector<std::uint64_t> words(5 * 2, 0);  // W = 2
  EXPECT_NO_THROW(screen_keys(compiled, stimuli, responses, words, 100));
  // key_words must hold W words per key bit.
  EXPECT_THROW(screen_keys(compiled, stimuli, responses, words, 64),
               std::invalid_argument);
  EXPECT_THROW(screen_keys(compiled, stimuli, responses, words, 129),
               std::invalid_argument);
  // One response per stimulus: the pool is checked when the screen is built.
  EXPECT_THROW(StaticKeyScreen(compiled, stimuli, {responses[0]}),
               std::invalid_argument);
  // Equal lengths.
  auto short_response = responses;
  short_response[1].pop_back();
  EXPECT_THROW(StaticKeyScreen(compiled, stimuli, short_response),
               std::invalid_argument);
  // Input and output widths.
  auto wide_stimuli = stimuli;
  wide_stimuli[1][3].push_back(0);
  EXPECT_THROW(StaticKeyScreen(compiled, wide_stimuli, responses),
               std::invalid_argument);
  auto narrow_response = responses;
  narrow_response[1][2].pop_back();
  EXPECT_THROW(StaticKeyScreen(compiled, stimuli, narrow_response),
               std::invalid_argument);
}

/// Per-bit reference of the key lane packers: word `w` of key bit b gets
/// bit b of keys[j] on lane j; every other word keeps its sentinel.
void expect_lanes_match_per_bit(const std::vector<std::uint64_t>& got,
                                const std::vector<std::uint64_t>& keys,
                                std::size_t key_bits, std::size_t lanes,
                                std::size_t w, std::uint64_t sentinel) {
  ASSERT_EQ(got.size(), 64 * lanes);
  for (std::size_t b = 0; b < 64; ++b) {
    for (std::size_t x = 0; x < lanes; ++x) {
      std::uint64_t want = sentinel;
      if (b < key_bits && x == w) {
        want = 0;
        for (std::size_t j = 0; j < keys.size(); ++j) {
          want |= ((keys[j] >> b) & 1ULL) << j;
        }
      }
      EXPECT_EQ(got[b * lanes + x], want)
          << "bit " << b << " word " << x << " of " << lanes << ", "
          << keys.size() << " keys of " << key_bits << " bits";
    }
  }
}

TEST(Sequence, KeyLanePackersMatchPerBitReference) {
  util::Rng rng(0x1a9e);
  constexpr std::uint64_t sentinel = 0x5a5a5a5a5a5a5a5aULL;
  for (const std::size_t key_bits : {1, 5, 6, 7, 19, 35, 64}) {
    const std::uint64_t mask =
        key_bits == 64 ? ~0ULL : (1ULL << key_bits) - 1;
    // Random draws: full batches, partial ones, and the lone key.
    for (const std::size_t count : {64, 63, 37, 1}) {
      std::vector<std::uint64_t> keys;
      for (std::size_t j = 0; j < count; ++j) {
        keys.push_back(rng.next_u64() & mask);
      }
      for (const auto& [lanes, w] : {std::pair<std::size_t, std::size_t>{1, 0},
                                    {8, 3}, {5, 4}}) {
        std::vector<std::uint64_t> words(64 * lanes, sentinel);
        pack_key_lanes(keys, key_bits, words.data(), lanes, w);
        expect_lanes_match_per_bit(words, keys, key_bits, lanes, w, sentinel);
      }
    }
    // Exhaustive runs: every batch of a small space, in pass layout (batch b
    // in word b % 8), and sampled batches of a large one, its last included.
    const std::uint64_t space = key_bits == 64 ? 0 : 1ULL << key_bits;
    std::vector<std::uint64_t> firsts;
    if (key_bits <= 7) {
      for (std::uint64_t f = 0; f < space; f += 64) firsts.push_back(f);
    } else {
      firsts = {0, 64, (rng.next_u64() & mask) & ~63ULL, (space - 1) & ~63ULL};
    }
    for (const std::uint64_t first : firsts) {
      const std::size_t count = key_bits < 6 ? std::size_t{1} << key_bits : 64;
      std::vector<std::uint64_t> keys;
      for (std::size_t j = 0; j < count; ++j) keys.push_back(first + j);
      const std::size_t w = first / 64 % 8;
      std::vector<std::uint64_t> words(64 * 8, sentinel);
      pack_consecutive_key_lanes(first, count, key_bits, words.data(), 8, w);
      expect_lanes_match_per_bit(words, keys, key_bits, 8, w, sentinel);
      // A partial batch of the same keys: its unused lanes hold key 0.
      keys.resize(count / 2 + 1);
      std::vector<std::uint64_t> partial(64, sentinel);
      pack_consecutive_key_lanes(first, keys.size(), key_bits, partial.data(),
                                 1, 0);
      expect_lanes_match_per_bit(partial, keys, key_bits, 1, 0, sentinel);
    }
  }
}

TEST(Sequence, KeyLanePackersRejectMalformedBatches) {
  std::vector<std::uint64_t> words(65 * 2, 0);
  const std::vector<std::uint64_t> keys(65, 1);
  EXPECT_NO_THROW(pack_key_lanes({keys.data(), 64}, 64, words.data(), 2, 1));
  EXPECT_THROW(pack_key_lanes(keys, 8, words.data(), 2, 0),
               std::invalid_argument);
  EXPECT_THROW(pack_key_lanes({keys.data(), 4}, 65, words.data(), 2, 0),
               std::invalid_argument);
  EXPECT_THROW(pack_key_lanes({keys.data(), 4}, 8, words.data(), 2, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(pack_consecutive_key_lanes(128, 64, 64, words.data(), 2, 1));
  EXPECT_THROW(pack_consecutive_key_lanes(32, 8, 8, words.data(), 2, 0),
               std::invalid_argument);
  EXPECT_THROW(pack_consecutive_key_lanes(0, 65, 8, words.data(), 2, 0),
               std::invalid_argument);
  EXPECT_THROW(pack_consecutive_key_lanes(0, 8, 65, words.data(), 2, 0),
               std::invalid_argument);
  EXPECT_THROW(pack_consecutive_key_lanes(0, 8, 8, words.data(), 2, 2),
               std::invalid_argument);
}

TEST(Sequence, ScreenIgnoresWhatItsBuffersHeld) {
  // Survivor words on a fresh buffer, on one pre-filled with garbage, and
  // on one that a screen of another width used last, must all agree.
  const Netlist nl = netlist::read_bench_string(k_keyed_fsm, "fsm");
  const CompiledNetlist compiled(nl);
  util::Rng rng(16);
  const BitVec truth = random_bits(rng, 5);
  std::vector<std::vector<BitVec>> stimuli;
  std::vector<std::vector<BitVec>> responses;
  for (int s = 0; s < 3; ++s) {
    stimuli.push_back(random_stimulus(rng, 10, 2));
    responses.push_back(run_sequence(compiled, stimuli.back(), {truth}));
  }
  const StaticKeyScreen screen(compiled, stimuli, responses);
  ScreenBuffers reused;
  std::size_t survivors = 0;
  for (const std::size_t candidates : {512, 100, 64, 300, 512}) {
    std::vector<BitVec> keys;
    for (std::size_t j = 0; j < candidates; ++j) {
      keys.push_back(random_bits(rng, 5));
    }
    keys[candidates / 2] = truth;
    const std::vector<std::uint64_t> words = pack_keys(keys, 5);
    ScreenBuffers fresh;
    const auto want = screen.screen(words, candidates, fresh);
    ScreenBuffers garbage;
    const std::size_t lanes = (candidates + 63) / 64;
    garbage.values.resize(compiled.buffer_words(lanes));
    garbage.step.resize(compiled.dff_qs().size() * lanes);
    for (auto& word : garbage.values) word = rng.next_u64();
    for (auto& word : garbage.step) word = rng.next_u64();
    EXPECT_EQ(screen.screen(words, candidates, garbage), want) << candidates;
    EXPECT_EQ(screen.screen(words, candidates, reused), want) << candidates;
    for (const std::uint64_t w : want) survivors += std::popcount(w);
  }
  EXPECT_GE(survivors, 5u);
}

/// Per-draw reference of sample_key_flips: the documented draw order, each
/// draw run twice on one lane with run_sequence.
std::vector<KeyFlip> per_draw_key_flips(const CompiledNetlist& compiled,
                                        util::Rng& rng) {
  const std::size_t num_keys = compiled.key_inputs().size();
  std::vector<KeyFlip> flips(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    for (std::size_t d = 0; d < k_key_flip_draws; ++d) {
      const auto stim = random_stimulus(rng, k_key_flip_cycles,
                                        compiled.inputs().size());
      BitVec key = random_bits(rng, num_keys);
      key[k] = 0;
      const auto clear = run_sequence(compiled, stim, {key});
      key[k] = 1;
      const auto set = run_sequence(compiled, stim, {key});
      for (std::size_t c = 0; c < clear.size(); ++c) {
        for (std::size_t o = 0; o < clear[c].size(); ++o) {
          if (clear[c][o] < set[c][o]) flips[k].rose = true;
          if (clear[c][o] > set[c][o]) flips[k].fell = true;
        }
      }
    }
  }
  return flips;
}

/// Samples `nl` both ways from one seed and checks every bit, and that both
/// consumed the same draws. Returns which bits moved.
std::vector<bool> expect_key_flips_match_per_draw(const Netlist& nl) {
  const CompiledNetlist compiled(nl);
  util::Rng lanes_rng(0xf11b), draw_rng(0xf11b);
  const auto got = sample_key_flips(compiled, lanes_rng);
  const auto want = per_draw_key_flips(compiled, draw_rng);
  EXPECT_EQ(got.size(), nl.key_inputs().size());
  std::vector<bool> moved;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].rose, want[k].rose) << "bit " << k;
    EXPECT_EQ(got[k].fell, want[k].fell) << "bit " << k;
    moved.push_back(got[k].rose || got[k].fell);
  }
  EXPECT_EQ(lanes_rng.next_u64(), draw_rng.next_u64());
  return moved;
}

TEST(Sequence, KeyFlipSamplerMatchesPerDrawRunsOnS27) {
  const Netlist s27 = benchgen::make_s27();
  util::Rng rng(7);
  const auto lr = lock::xor_lock(s27, 4, rng);
  const auto moved = expect_key_flips_match_per_draw(lr.locked);
  EXPECT_NE(std::count(moved.begin(), moved.end(), true), 0);
}

TEST(Sequence, KeyFlipSamplerMatchesPerDrawRunsAcrossPasses) {
  // 20 bits x 16 draws = 320 draws: bits 0-15 ride a pass of 256 draws,
  // bits 16-19 a second pass of 64.
  const Netlist s298 = benchgen::make_circuit("s298").netlist;
  util::Rng rng(11);
  const auto lr = lock::xor_lock(s298, 20, rng);
  ASSERT_EQ(lr.locked.key_inputs().size(), 20u);
  const auto moved = expect_key_flips_match_per_draw(lr.locked);
  ASSERT_EQ(moved.size(), 20u);
  EXPECT_NE(std::count(moved.begin(), moved.begin() + 16, true), 0);
  EXPECT_NE(std::count(moved.begin() + 16, moved.end(), true), 0);
}

TEST(Sequence, KeyFlipSamplerMatchesPerDrawRunsOverThreePasses) {
  // 40 bits x 16 draws = 640 draws in passes of 256, 256 and 128: the
  // second pass reuses the first one's buffer at its width, the third at
  // half of it, and neither may see what the pass before left there.
  const Netlist s298 = benchgen::make_circuit("s298").netlist;
  util::Rng rng(13);
  const auto lr = lock::xor_lock(s298, 40, rng);
  ASSERT_EQ(lr.locked.key_inputs().size(), 40u);
  const auto moved = expect_key_flips_match_per_draw(lr.locked);
  ASSERT_EQ(moved.size(), 40u);
  EXPECT_NE(std::count(moved.begin() + 32, moved.end(), true), 0);
}

TEST(Sequence, KeyFlipSamplerReportsEachDirection) {
  // Setting keyinput0 can only raise y0, setting keyinput1 can only lower
  // y1, and keyinput2 reaches no output.
  const Netlist nl = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(keyinput0)
INPUT(keyinput1)
INPUT(keyinput2)
OUTPUT(y0)
OUTPUT(y1)
y0 = AND(a, keyinput0)
y1 = NOR(b, keyinput1)
dead = BUF(keyinput2)
)", "unate");
  expect_key_flips_match_per_draw(nl);
  util::Rng rng(4);
  const auto flips = sample_key_flips(CompiledNetlist(nl), rng);
  ASSERT_EQ(flips.size(), 3u);
  EXPECT_TRUE(flips[0].rose && !flips[0].fell);
  EXPECT_TRUE(!flips[1].rose && flips[1].fell);
  EXPECT_TRUE(!flips[2].rose && !flips[2].fell);
}

TEST(Sequence, KeyFlipSamplerOfAKeyFreeCircuitDrawsNothing) {
  const CompiledNetlist compiled(benchgen::make_s27());
  util::Rng rng(3), fresh(3);
  EXPECT_TRUE(sample_key_flips(compiled, rng).empty());
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

/// Per-trial reference of find_counterexample: one stimulus, one pair of
/// single-lane runs at a time. `*trial` is the diverging draw's index.
std::vector<BitVec> per_trial_counterexample(const CompiledNetlist& reference,
                                             const CompiledNetlist& locked,
                                             const std::vector<BitVec>& keys,
                                             util::Rng& rng,
                                             std::size_t sequences,
                                             std::size_t cycles,
                                             std::size_t* trial = nullptr) {
  for (std::size_t t = 0; t < sequences; ++t) {
    const auto stim =
        random_stimulus(rng, cycles, reference.inputs().size());
    const int diverge = first_divergence(run_sequence(reference, stim),
                                         run_sequence(locked, stim, keys));
    if (diverge != -1) {
      if (trial) *trial = t;
      return {stim.begin(), stim.begin() + diverge + 1};
    }
  }
  return {};
}

TEST(Sequence, CounterexampleScanMatchesPerTrialScan) {
  const Netlist s27 = benchgen::make_s27();
  util::Rng lock_rng(5);
  const auto lr = lock::xor_lock(s27, 4, lock_rng);
  const CompiledNetlist reference(s27);
  const CompiledNetlist locked(lr.locked);
  std::size_t found = 0;
  for (std::uint64_t wrong = 0; wrong < 16; ++wrong) {
    const BitVec key = u64_to_bits(wrong, 4);
    if (key == lr.correct_key) continue;
    util::Rng scan_rng(wrong), trial_rng(wrong);
    const auto got =
        find_counterexample(reference, locked, {key}, scan_rng, 100, 4);
    const auto want =
        per_trial_counterexample(reference, locked, {key}, trial_rng, 100, 4);
    EXPECT_EQ(got, want) << "key " << bits_to_string(key);
    if (!got.empty()) {
      ++found;
      EXPECT_NE(first_divergence(run_sequence(reference, got),
                                 run_sequence(locked, got, {key})),
                -1);
    }
  }
  EXPECT_GT(found, 0u);
}

// The wrong key shows only when all 8 inputs are 1 (1 draw in 256), so
// the first counterexample usually lies past the first round of 64.
TEST(Sequence, CounterexampleScanMatchesPerTrialScanAcrossRounds) {
  const Netlist reference_nl = netlist::read_bench_string(R"(
INPUT(a0)
INPUT(a1)
INPUT(a2)
INPUT(a3)
INPUT(a4)
INPUT(a5)
INPUT(a6)
INPUT(a7)
OUTPUT(y)
n0 = NOT(a0)
y = AND(a0, n0)
)", "zero");
  const Netlist locked_nl = netlist::read_bench_string(R"(
INPUT(a0)
INPUT(a1)
INPUT(a2)
INPUT(a3)
INPUT(a4)
INPUT(a5)
INPUT(a6)
INPUT(a7)
INPUT(keyinput0)
OUTPUT(y)
y = AND(a0, a1, a2, a3, a4, a5, a6, a7, keyinput0)
)", "rare");
  const CompiledNetlist reference(reference_nl);
  const CompiledNetlist locked(locked_nl);
  std::size_t late = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng scan_rng(seed), trial_rng(seed);
    std::size_t trial = 0;
    const auto got =
        find_counterexample(reference, locked, {BitVec{1}}, scan_rng, 2000, 1);
    const auto want = per_trial_counterexample(
        reference, locked, {BitVec{1}}, trial_rng, 2000, 1, &trial);
    ASSERT_FALSE(want.empty()) << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
    if (trial >= 64) ++late;
  }
  EXPECT_GT(late, 0u);
}

TEST(Sequence, CounterexampleScanFindsNoneUnderTheCorrectKey) {
  const Netlist s27 = benchgen::make_s27();
  const CompiledNetlist reference(s27);
  util::Rng lock_rng(5);
  const auto lr = lock::xor_lock(s27, 4, lock_rng);
  util::Rng rng(1);
  EXPECT_TRUE(find_counterexample(reference, CompiledNetlist(lr.locked),
                                  {lr.correct_key}, rng, 100, 32)
                  .empty());

  // A Cute-Lock-Str lock under its per-cycle schedule.
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 4;
  options.seed = 1;
  const auto str = core::cute_lock_str(s27, options);
  ASSERT_TRUE(str.is_dynamic());
  EXPECT_TRUE(find_counterexample(reference, CompiledNetlist(str.locked),
                                  str.keys_for(64), rng, 48, 64)
                  .empty());
}

TEST(Sequence, CounterexampleScanOfNoSequencesDrawsNothing) {
  const Netlist s27 = benchgen::make_s27();
  const CompiledNetlist reference(s27);
  util::Rng lock_rng(5);
  const auto lr = lock::xor_lock(s27, 4, lock_rng);
  BitVec wrong = lr.correct_key;
  wrong[0] ^= 1;
  util::Rng rng(9), fresh(9);
  EXPECT_TRUE(find_counterexample(reference, CompiledNetlist(lr.locked),
                                  {wrong}, rng, 0, 32)
                  .empty());
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(Sequence, FirstDivergenceFindsCycle) {
  std::vector<BitVec> a{{0}, {1}, {0}};
  std::vector<BitVec> b{{0}, {1}, {1}};
  EXPECT_EQ(first_divergence(a, a), -1);
  EXPECT_EQ(first_divergence(a, b), 2);
  std::vector<BitVec> c{{0}, {1}};
  EXPECT_THROW(first_divergence(a, c), std::invalid_argument);
}

TEST(Sequence, BitPackingRoundTrip) {
  const BitVec v{1, 0, 1, 1};
  EXPECT_EQ(bits_to_u64(v), 0b1101u);
  EXPECT_EQ(u64_to_bits(0b1101, 4), v);
  EXPECT_EQ(bits_to_string(v), "1011");
}

TEST(Sequence, RandomStimulusShape) {
  util::Rng rng(3);
  const auto s = random_stimulus(rng, 7, 3);
  EXPECT_EQ(s.size(), 7u);
  for (const auto& v : s) EXPECT_EQ(v.size(), 3u);
}

TEST(Sequence, XVariantShowsPowerUpX) {
  const char* seq = R"(
INPUT(a)
OUTPUT(q)
q = DFF(a)  # init q x
)";
  const Netlist nl = netlist::read_bench_string(seq, "x");
  const auto out = run_sequence_x(nl, {BitVec{1}, BitVec{1}});
  EXPECT_EQ(out[0][0], Trit::X);
  EXPECT_EQ(out[1][0], Trit::One);
}

}  // namespace
}  // namespace cl::sim
