#include "attack/accept.hpp"

#include <algorithm>

#include "sim/compiled.hpp"

namespace cl::attack {

namespace {

/// Corrupted-cycle fraction of `locked` under `key` against `original`.
/// Exhaustive mode holds every input word for sample_cycles from reset;
/// sampling mode draws sample_sequences random sequences. Both modes run
/// the whole pattern set through wide-lane batched passes (one pair of
/// evals retires up to 64*W sequences); exhaustive enumeration is chunked
/// so a 16-input sweep does not materialize a 65536-lane buffer.
double measure_corruption(const netlist::Netlist& locked,
                          const sim::BitVec& key,
                          const netlist::Netlist& original,
                          const AcceptOptions& options) {
  const sim::CompiledNetlist locked_c(locked);
  const sim::CompiledNetlist original_c(original);
  const std::size_t num_inputs = original.inputs().size();
  const std::size_t cycles = std::max<std::size_t>(1, options.sample_cycles);
  util::Rng rng(options.seed);

  std::uint64_t corrupted = 0, total = 0;
  const auto tally_batch = [&](const std::vector<std::vector<sim::BitVec>>&
                                   stims) {
    const auto want = sim::run_sequences_batched(original_c, stims);
    const auto got = sim::run_sequences_batched(locked_c, stims, {key});
    for (std::size_t s = 0; s < stims.size(); ++s) {
      for (std::size_t c = 0; c < want[s].size(); ++c) {
        ++total;
        if (want[s][c] != got[s][c]) ++corrupted;
      }
    }
  };

  if (options.exhaustive && num_inputs <= 16) {
    constexpr std::uint64_t k_chunk = 8192;  // 128 lane words per chunk
    const std::uint64_t words = 1ULL << num_inputs;
    for (std::uint64_t base = 0; base < words; base += k_chunk) {
      const std::uint64_t end = std::min(words, base + k_chunk);
      std::vector<std::vector<sim::BitVec>> stims;
      stims.reserve(static_cast<std::size_t>(end - base));
      for (std::uint64_t word = base; word < end; ++word) {
        stims.emplace_back(cycles, sim::u64_to_bits(word, num_inputs));
      }
      tally_batch(stims);
    }
  } else {
    std::vector<std::vector<sim::BitVec>> stims;
    stims.reserve(options.sample_sequences);
    for (std::size_t s = 0; s < options.sample_sequences; ++s) {
      stims.push_back(sim::random_stimulus(rng, cycles, num_inputs));
    }
    tally_batch(stims);
  }
  return total == 0 ? 0.0 : static_cast<double>(corrupted) / total;
}

}  // namespace

std::optional<AcceptCriterion> parse_criterion(const std::string& name) {
  if (name == "exact") return AcceptCriterion::ExactKey;
  if (name == "any") return AcceptCriterion::AnyPassingKey;
  if (name == "approx") return AcceptCriterion::Approximate;
  return std::nullopt;
}

const char* criterion_name(AcceptCriterion criterion) {
  switch (criterion) {
    case AcceptCriterion::ExactKey: return "exact";
    case AcceptCriterion::AnyPassingKey: return "any";
    case AcceptCriterion::Approximate: return "approx";
  }
  return "?";
}

AcceptReport verify_any_key(const netlist::Netlist& locked,
                            const sim::BitVec& key,
                            const netlist::Netlist& original,
                            const sim::BitVec* ground_truth,
                            const AcceptOptions& options) {
  AcceptReport report;
  report.criterion = options.criterion;
  if (key.size() != locked.key_inputs().size()) {
    report.detail = "key width " + std::to_string(key.size()) +
                    " does not match key port width " +
                    std::to_string(locked.key_inputs().size());
    return report;
  }
  if (ground_truth) {
    report.key_exact = (key == *ground_truth) ? 1 : 0;
  }
  report.corruption_rate = measure_corruption(locked, key, original, options);
  // Simulation already found a corrupted cycle: no point paying for the SAT
  // equivalence phase, the key is not a passing key.
  if (report.corruption_rate > 0.0) {
    report.any_key_pass = 0;
  } else if (options.criterion != AcceptCriterion::Approximate) {
    const VerifyResult v =
        verify_static_key(locked, key, original, options.verify);
    // An unproven key (Unknown) leaves any_key_pass at -1.
    if (v.verdict != Verdict::Unknown) {
      report.any_key_pass = v.verdict == Verdict::Equivalent ? 1 : 0;
    }
  }
  switch (options.criterion) {
    case AcceptCriterion::ExactKey:
      report.accepted = report.key_exact == 1;
      if (!ground_truth) report.detail = "ground truth unknown";
      break;
    case AcceptCriterion::AnyPassingKey:
      report.accepted = report.any_key_pass == 1;
      break;
    case AcceptCriterion::Approximate:
      report.accepted = report.corruption_rate <= options.epsilon;
      break;
  }
  return report;
}

void apply_acceptance(const AcceptReport& report, AttackResult* result) {
  result->key_exact = report.key_exact;
  result->any_key_pass = report.any_key_pass;
  result->corruption_rate = report.corruption_rate;
}

}  // namespace cl::attack
