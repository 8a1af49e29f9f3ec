#include "attack/bbo.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "attack/verify.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cl::attack {

using netlist::Netlist;

namespace {

// Candidate batches of 64 keys screened together in one simulation pass:
// 8 lane words are one AVX-512 vector, two AVX2 vectors or eight generic
// words per signal.
constexpr std::size_t k_batches_per_pass = 8;
constexpr std::size_t k_keys_per_pass = 64 * k_batches_per_pass;

}  // namespace

AttackResult bbo_attack(const Netlist& locked, const SequentialOracle& oracle,
                        const BboOptions& options) {
  if (locked.key_inputs().empty()) {
    throw std::invalid_argument("bbo_attack: circuit has no key inputs");
  }
  if (locked.key_inputs().size() > 64) {
    // Candidate keys ride in 64-bit words throughout (the key lane
    // packers, the exhaustive-space mask); wider keys would shift by >= 64
    // (UB).
    throw std::invalid_argument("bbo_attack: more than 64 key bits");
  }
  if (options.exhaustive_limit > 63) {
    // The exhaustive space holds 2^ki keys in a 64-bit count.
    throw std::invalid_argument("bbo_attack: exhaustive_limit above 63");
  }
  if (options.jobs == 0) {
    throw std::invalid_argument("bbo_attack: jobs must be at least 1");
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
  const std::uint64_t key_mask = ki == 64 ? ~0ULL : (1ULL << ki) - 1;

  // The locked netlist compiles once and the pool is checked once; every
  // screening task shares both. Pass p of every round builds its key lane
  // words in slot p and screens on slot p's buffers, so parallel passes
  // share nothing. Slots grow with the widest round, not with `jobs`.
  const sim::CompiledNetlist compiled(locked);
  const sim::StaticKeyScreen screen(compiled, stimuli, responses);
  struct PassSlot {
    std::vector<std::uint64_t> key_words;
    sim::ScreenBuffers buffers;
    std::vector<std::uint64_t> alive;
  };
  std::vector<PassSlot> slots;

  // A survivor whose proof runs out of budget may be the key: it is counted,
  // never taken as refuted, and turns a final CNS or FAIL into N/A. A
  // survivor verification refutes passed the screen all the same, so the
  // detail counts it too.
  std::uint64_t unproven = 0;
  std::uint64_t refuted = 0;
  const auto survivor_notes = [&] {
    std::string note;
    if (refuted > 0) {
      note += "; " + std::to_string(refuted) + " screened survivor" +
              (refuted == 1 ? "" : "s") + " refuted by verification";
    }
    if (unproven > 0) {
      note += "; unproven survivors: " + std::to_string(unproven);
    }
    return note;
  };

  // Each round draws up to `jobs` passes of 8 batches of 64 keys, serially
  // from the RNG (the draw sequence is independent of the job count),
  // screens the passes in parallel, then examines the batches strictly in
  // draw order. `tried`/`iterations` advance only through the batch that
  // decides the round, so the reported numbers match a serial run of
  // one-batch rounds exactly.
  std::unique_ptr<util::ThreadPool> pool;  // first multi-pass round only
  std::uint64_t tried = 0;
  std::uint64_t next = 0;
  std::uint64_t batches_drawn = 0;
  std::vector<std::uint64_t> keys;  // a random round's keys, draw order
  while (true) {
    if (options.budget.cancelled() ||
        timer.seconds() > options.budget.time_limit_s) {
      result.outcome = Outcome::Timeout;
      result.seconds = timer.seconds();
      result.detail = "screened " + std::to_string(tried) + " keys" +
                      survivor_notes();
      return result;
    }
    // Batch b of the round holds the round's keys 64b .. 64b + 63: the
    // consecutive keys from first + 64b in an exhaustive round, keys[64b ..]
    // in a random one. Only the space's last batch can hold fewer than 64
    // keys, so batch b is pass b / 8, lane word b % 8.
    const std::uint64_t first = next;
    std::size_t batches = 0;
    keys.clear();
    for (; batches < options.jobs * k_batches_per_pass; ++batches) {
      if (exhaustive) {
        if (next == space) break;  // whole space drawn
        next = std::min<std::uint64_t>(space, next + 64);
      } else {
        if (batches_drawn >= options.budget.max_iterations) break;
        ++batches_drawn;
        for (int j = 0; j < 64; ++j) keys.push_back(rng.next_u64() & key_mask);
      }
    }
    if (batches == 0) break;  // space or iteration budget exhausted
    const std::uint64_t round_keys = exhaustive ? next - first : keys.size();
    const auto batch_size = [&](std::size_t b) {
      return static_cast<std::size_t>(
          std::min<std::uint64_t>(64, round_keys - 64 * b));
    };

    const std::size_t passes =
        (batches + k_batches_per_pass - 1) / k_batches_per_pass;
    if (slots.size() < passes) slots.resize(passes);
    const auto screen_pass = [&](std::size_t p) {
      PassSlot& slot = slots[p];
      const std::size_t first_batch = p * k_batches_per_pass;
      const std::size_t lanes =
          std::min(k_batches_per_pass, batches - first_batch);
      slot.key_words.resize(ki * lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        const std::size_t b = first_batch + w;
        if (exhaustive) {
          sim::pack_consecutive_key_lanes(first + 64 * b, batch_size(b), ki,
                                          slot.key_words.data(), lanes, w);
        } else {
          sim::pack_key_lanes({keys.data() + 64 * b, batch_size(b)}, ki,
                              slot.key_words.data(), lanes, w);
        }
      }
      const std::uint64_t candidates = std::min<std::uint64_t>(
          k_keys_per_pass, round_keys - 64 * first_batch);
      slot.alive = screen.screen(slot.key_words, candidates, slot.buffers);
    };
    if (passes > 1) {
      if (pool == nullptr) {
        pool = std::make_unique<util::ThreadPool>(options.jobs);
      }
      for (std::size_t p = 0; p < passes; ++p) {
        pool->submit([&, p] { screen_pass(p); });
      }
      pool->wait();
    } else {
      screen_pass(0);
    }

    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t count = batch_size(b);
      tried += count;
      ++result.iterations;
      const std::uint64_t survivors =
          slots[b / k_batches_per_pass].alive[b % k_batches_per_pass];
      for (std::size_t lane = 0; lane < count; ++lane) {
        if (((survivors >> lane) & 1ULL) == 0) continue;
        const sim::BitVec key = sim::u64_to_bits(
            exhaustive ? first + 64 * b + lane : keys[64 * b + lane], ki);
        VerifyOptions verify = verify_options_for(options.budget);
        const double remaining =
            std::max(0.0, options.budget.time_limit_s - timer.seconds());
        verify.time_limit_s = std::min(remaining, verify.time_limit_s);
        const VerifyResult v =
            verify_static_key(locked, key, oracle.reference(), verify);
        // The last survivor verified stays the reported key, whatever the
        // final outcome, so acceptance scoring can judge it.
        result.key = key;
        if (v.verdict == Verdict::Equivalent) {
          result.outcome = Outcome::Equal;
          result.seconds = timer.seconds();
          return result;
        }
        if (v.verdict == Verdict::Unknown) {
          ++unproven;
        } else {
          ++refuted;
        }
      }
    }
  }

  result.seconds = timer.seconds();
  if (exhaustive) {
    // With no survivor left unproven, every static key failed the oracle
    // screen or verification: proved unsatisfiable.
    result.outcome = unproven > 0 ? Outcome::Timeout : Outcome::Cns;
    result.detail = "exhausted 2^" + std::to_string(ki) + " static keys";
    if (unproven > 0) {
      result.detail += "; none verified";
    } else if (refuted == 0) {
      result.detail += "; none matches the oracle";
    }
    result.detail += survivor_notes();
  } else {
    result.outcome = unproven > 0 ? Outcome::Timeout : Outcome::Fail;
    result.detail = "random search exhausted (" + std::to_string(tried) +
                    " keys screened)" + survivor_notes();
  }
  return result;
}

}  // namespace cl::attack
