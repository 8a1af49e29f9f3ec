#include "attack/bbo.hpp"

#include <algorithm>
#include <memory>

#include "attack/verify.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cl::attack {

using netlist::Netlist;

AttackResult bbo_attack(const Netlist& locked, const SequentialOracle& oracle,
                        const BboOptions& options) {
  if (locked.key_inputs().empty()) {
    throw std::invalid_argument("bbo_attack: circuit has no key inputs");
  }
  if (locked.key_inputs().size() > 64) {
    // Candidate keys ride in 64-bit words throughout (key_words_for, the
    // exhaustive-space mask); wider keys would shift by >= 64 (UB).
    throw std::invalid_argument("bbo_attack: more than 64 key bits");
  }
  util::Timer timer;
  util::Rng rng(options.seed);
  AttackResult result;
  const std::size_t ki = locked.key_inputs().size();

  // Screening pool: fixed random sequences + their oracle responses, fetched
  // in one batched wide-lane query (accounting: one pattern per sequence).
  std::vector<std::vector<sim::BitVec>> stimuli;
  for (std::size_t s = 0; s < options.screen_sequences; ++s) {
    stimuli.push_back(sim::random_stimulus(rng, options.screen_cycles,
                                           oracle.num_inputs()));
  }
  const std::vector<std::vector<sim::BitVec>> responses =
      oracle.query_batch(stimuli);

  const bool exhaustive = ki <= options.exhaustive_limit;
  const std::uint64_t space = exhaustive ? (1ULL << ki) : 0;

  // The locked netlist compiles once; every screening task shares the
  // instruction stream and owns only its value buffer.
  const sim::CompiledNetlist compiled(locked);

  // Screen a batch of 64 candidate keys (lane j = candidate j); returns the
  // lane mask of survivors. Thread-safe: touches only shared-const state.
  const auto screen_batch = [&](const std::vector<std::uint64_t>& key_words)
      -> std::uint64_t {
    std::uint64_t alive = ~0ULL;
    for (std::size_t s = 0; s < stimuli.size() && alive != 0; ++s) {
      const auto words = sim::run_sequence_keyed_lanes(compiled, stimuli[s],
                                                       key_words);
      for (std::size_t c = 0; c < stimuli[s].size() && alive != 0; ++c) {
        for (std::size_t o = 0; o < responses[s][c].size(); ++o) {
          const std::uint64_t want = responses[s][c][o] ? ~0ULL : 0ULL;
          alive &= ~(words[c][o] ^ want);
        }
      }
    }
    return alive;
  };

  const auto key_words_for = [&](const std::vector<std::uint64_t>& keys) {
    std::vector<std::uint64_t> words(ki, 0);
    for (std::size_t lane = 0; lane < keys.size(); ++lane) {
      for (std::size_t b = 0; b < ki; ++b) {
        if ((keys[lane] >> b) & 1ULL) words[b] |= 1ULL << lane;
      }
    }
    return words;
  };

  const auto finish_with = [&](std::uint64_t key_value) -> AttackResult {
    const sim::BitVec key = sim::u64_to_bits(key_value, ki);
    const VerifyResult v = verify_static_key(
        locked, key, oracle.reference(), verify_options_for(options.budget));
    result.key = key;
    result.outcome = verdict_outcome(v.verdict);
    result.seconds = timer.seconds();
    return result;
  };

  const std::size_t jobs =
      options.jobs != 0 ? options.jobs : util::jobs_from_env();
  // Created on first multi-batch round: tiny attacks (one screening batch,
  // the common case on table-size circuits) never pay the thread spawn.
  std::unique_ptr<util::ThreadPool> pool;

  // Rounds of up to `jobs` batches: candidates are drawn serially from the
  // RNG (the draw sequence is independent of the job count), screened in
  // parallel, then examined strictly in draw order. `tried`/`iterations`
  // advance only through the batch that decides the round, so the reported
  // numbers match a serial run exactly.
  std::uint64_t tried = 0;
  std::uint64_t next = 0;
  std::uint64_t batches_drawn = 0;
  while (true) {
    if (timer.seconds() > options.budget.time_limit_s) {
      result.outcome = Outcome::Timeout;
      result.seconds = timer.seconds();
      result.detail = "screened " + std::to_string(tried) + " keys";
      return result;
    }
    std::vector<std::vector<std::uint64_t>> round;
    for (std::size_t r = 0; r < jobs; ++r) {
      std::vector<std::uint64_t> batch;
      if (exhaustive) {
        for (int j = 0; j < 64 && next < space; ++j) batch.push_back(next++);
        if (batch.empty()) break;  // whole space drawn
      } else {
        if (batches_drawn >= options.budget.max_iterations) break;
        for (int j = 0; j < 64; ++j) {
          batch.push_back(rng.next_u64() &
                          ((ki == 64) ? ~0ULL : ((1ULL << ki) - 1)));
        }
      }
      ++batches_drawn;
      round.push_back(std::move(batch));
    }
    if (round.empty()) break;  // space or iteration budget exhausted

    std::vector<std::uint64_t> alive(round.size(), 0);
    if (jobs > 1 && round.size() > 1) {
      if (pool == nullptr) pool = std::make_unique<util::ThreadPool>(jobs);
      for (std::size_t r = 0; r < round.size(); ++r) {
        pool->submit([&, r] { alive[r] = screen_batch(key_words_for(round[r])); });
      }
      pool->wait();
    } else {
      for (std::size_t r = 0; r < round.size(); ++r) {
        alive[r] = screen_batch(key_words_for(round[r]));
      }
    }

    for (std::size_t r = 0; r < round.size(); ++r) {
      tried += round[r].size();
      ++result.iterations;
      if (alive[r] == 0) continue;
      for (std::size_t lane = 0; lane < round[r].size(); ++lane) {
        if ((alive[r] >> lane) & 1ULL) {
          const AttackResult res = finish_with(round[r][lane]);
          if (res.outcome == Outcome::Equal) return res;
          // Survivor of screening but not equivalent: keep searching.
        }
      }
    }
  }

  result.seconds = timer.seconds();
  if (exhaustive) {
    // Every static key failed the oracle screen: proved unsatisfiable.
    result.outcome = Outcome::Cns;
    result.detail = "exhausted 2^" + std::to_string(ki) +
                    " static keys; none matches the oracle";
  } else {
    result.outcome = Outcome::Fail;
    result.detail = "random search exhausted (" + std::to_string(tried) +
                    " keys screened)";
  }
  return result;
}

}  // namespace cl::attack
