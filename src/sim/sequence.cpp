#include "sim/sequence.hpp"

#include <algorithm>
#include <stdexcept>

namespace cl::sim {

using netlist::Netlist;
using netlist::SignalId;

namespace {

void check_widths(std::size_t num_inputs, std::size_t num_keys,
                  const std::vector<BitVec>& inputs,
                  const std::vector<BitVec>& keys) {
  for (const BitVec& v : inputs) {
    if (v.size() != num_inputs) {
      throw std::invalid_argument("run_sequence: input width mismatch");
    }
  }
  for (const BitVec& v : keys) {
    if (v.size() != num_keys) {
      throw std::invalid_argument("run_sequence: key width mismatch");
    }
  }
  if (!keys.empty() && keys.size() != 1 && keys.size() != inputs.size()) {
    throw std::invalid_argument(
        "run_sequence: keys must be empty, size 1 (static) or per-cycle");
  }
  if (keys.empty() && num_keys != 0) {
    throw std::invalid_argument(
        "run_sequence: circuit has key inputs but no key values given");
  }
}

const BitVec& key_for_cycle(const std::vector<BitVec>& keys, std::size_t c) {
  return keys.size() == 1 ? keys[0] : keys[c];
}

}  // namespace

std::vector<BitVec> run_sequence(const Netlist& nl,
                                 const std::vector<BitVec>& inputs,
                                 const std::vector<BitVec>& keys) {
  return run_sequence(CompiledNetlist(nl), inputs, keys);
}

std::vector<BitVec> run_sequence(const CompiledNetlist& compiled,
                                 const std::vector<BitVec>& inputs,
                                 const std::vector<BitVec>& keys) {
  check_widths(compiled.inputs().size(), compiled.key_inputs().size(), inputs,
               keys);
  util::AlignedVec<std::uint64_t> v(compiled.buffer_words(1), 0);
  util::AlignedVec<std::uint64_t> scratch;
  compiled.reset_words(v.data(), 1);
  std::vector<BitVec> out;
  out.reserve(inputs.size());
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    for (std::size_t i = 0; i < compiled.inputs().size(); ++i) {
      v[compiled.inputs()[i]] = inputs[c][i] ? ~0ULL : 0ULL;
    }
    if (!keys.empty()) {
      const BitVec& kv = key_for_cycle(keys, c);
      for (std::size_t k = 0; k < compiled.key_inputs().size(); ++k) {
        v[compiled.key_inputs()[k]] = kv[k] ? ~0ULL : 0ULL;
      }
    }
    compiled.eval_auto(v.data(), 1);
    BitVec cycle_out(compiled.outputs().size());
    for (std::size_t o = 0; o < compiled.outputs().size(); ++o) {
      cycle_out[o] = (v[compiled.outputs()[o]] & 1ULL) ? 1 : 0;
    }
    out.push_back(std::move(cycle_out));
    compiled.step_words(v.data(), 1, scratch);
  }
  return out;
}

std::vector<std::vector<BitVec>> run_sequences_batched(
    const CompiledNetlist& compiled,
    const std::vector<std::vector<BitVec>>& sequences,
    const std::vector<BitVec>& keys) {
  if (sequences.empty()) return {};
  const std::size_t cycles = sequences[0].size();
  for (const auto& seq : sequences) {
    if (seq.size() != cycles) {
      throw std::invalid_argument(
          "run_sequences_batched: sequences must have equal length");
    }
    for (const BitVec& v : seq) {
      if (v.size() != compiled.inputs().size()) {
        throw std::invalid_argument(
            "run_sequences_batched: input width mismatch");
      }
    }
  }
  for (const BitVec& v : keys) {
    if (v.size() != compiled.key_inputs().size()) {
      throw std::invalid_argument("run_sequences_batched: key width mismatch");
    }
  }
  if (!keys.empty() && keys.size() != 1 && keys.size() != cycles) {
    throw std::invalid_argument(
        "run_sequences_batched: keys must be empty, size 1 (static) or "
        "per-cycle");
  }
  if (keys.empty() && !compiled.key_inputs().empty()) {
    throw std::invalid_argument(
        "run_sequences_batched: circuit has key inputs but no key values "
        "given");
  }
  const std::size_t lanes = (sequences.size() + 63) / 64;  // W words
  util::AlignedVec<std::uint64_t> v(compiled.buffer_words(lanes), 0);
  util::AlignedVec<std::uint64_t> scratch;
  compiled.reset_words(v.data(), lanes);
  std::vector<std::vector<BitVec>> out(
      sequences.size(), std::vector<BitVec>(cycles));
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < compiled.inputs().size(); ++i) {
      std::uint64_t* words = v.data() + compiled.inputs()[i] * lanes;
      std::fill(words, words + lanes, 0ULL);
      for (std::size_t j = 0; j < sequences.size(); ++j) {
        if (sequences[j][c][i]) words[j / 64] |= 1ULL << (j % 64);
      }
    }
    if (!keys.empty()) {
      // The key candidate is shared by every lane: broadcast each key bit
      // across the whole lane block.
      const BitVec& kv = key_for_cycle(keys, c);
      for (std::size_t k = 0; k < compiled.key_inputs().size(); ++k) {
        std::uint64_t* words = v.data() + compiled.key_inputs()[k] * lanes;
        std::fill(words, words + lanes, kv[k] ? ~0ULL : 0ULL);
      }
    }
    compiled.eval_auto(v.data(), lanes);
    for (std::size_t j = 0; j < sequences.size(); ++j) {
      BitVec& cycle_out = out[j][c];
      cycle_out.resize(compiled.outputs().size());
      for (std::size_t o = 0; o < compiled.outputs().size(); ++o) {
        const std::uint64_t word =
            v[compiled.outputs()[o] * lanes + j / 64];
        cycle_out[o] = (word >> (j % 64)) & 1ULL ? 1 : 0;
      }
    }
    compiled.step_words(v.data(), lanes, scratch);
  }
  return out;
}

std::vector<std::vector<Trit>> run_sequence_x(const Netlist& nl,
                                              const std::vector<BitVec>& inputs,
                                              const std::vector<BitVec>& keys) {
  check_widths(nl.inputs().size(), nl.key_inputs().size(), inputs, keys);
  XSim sim(nl);
  std::vector<std::vector<Trit>> out;
  out.reserve(inputs.size());
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      sim.set(nl.inputs()[i], inputs[c][i] ? Trit::One : Trit::Zero);
    }
    if (!keys.empty()) {
      const BitVec& kv = key_for_cycle(keys, c);
      for (std::size_t k = 0; k < nl.key_inputs().size(); ++k) {
        sim.set(nl.key_inputs()[k], kv[k] ? Trit::One : Trit::Zero);
      }
    }
    sim.eval();
    std::vector<Trit> cycle_out(nl.outputs().size());
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      cycle_out[o] = sim.get(nl.outputs()[o]);
    }
    out.push_back(std::move(cycle_out));
    sim.step();
  }
  return out;
}

std::vector<std::uint64_t> screen_static_keys(
    const CompiledNetlist& compiled,
    const std::vector<std::vector<BitVec>>& stimuli,
    const std::vector<std::vector<BitVec>>& responses,
    const std::vector<std::uint64_t>& key_words, std::size_t candidates) {
  const std::size_t lanes = (candidates + 63) / 64;  // W words
  const std::size_t num_inputs = compiled.inputs().size();
  const std::size_t num_outputs = compiled.outputs().size();
  const std::size_t num_keys = compiled.key_inputs().size();
  if (key_words.size() != num_keys * lanes) {
    throw std::invalid_argument(
        "screen_static_keys: key_words must hold W words per key bit");
  }
  if (stimuli.size() != responses.size()) {
    throw std::invalid_argument(
        "screen_static_keys: one response per stimulus required");
  }
  for (std::size_t s = 0; s < stimuli.size(); ++s) {
    if (stimuli[s].size() != responses[s].size()) {
      throw std::invalid_argument(
          "screen_static_keys: response length mismatch");
    }
    for (std::size_t c = 0; c < stimuli[s].size(); ++c) {
      if (stimuli[s][c].size() != num_inputs) {
        throw std::invalid_argument("screen_static_keys: input width mismatch");
      }
      if (responses[s][c].size() != num_outputs) {
        throw std::invalid_argument(
            "screen_static_keys: output width mismatch");
      }
    }
  }
  std::vector<std::uint64_t> alive(lanes, ~0ULL);
  if (lanes == 0) return alive;
  if (candidates % 64 != 0) alive.back() = (1ULL << (candidates % 64)) - 1;

  util::AlignedVec<std::uint64_t> v(compiled.buffer_words(lanes), 0);
  util::AlignedVec<std::uint64_t> scratch;
  for (std::size_t s = 0; s < stimuli.size(); ++s) {
    compiled.reset_words(v.data(), lanes);
    for (std::size_t k = 0; k < num_keys; ++k) {
      const std::uint64_t* words = key_words.data() + k * lanes;
      std::copy(words, words + lanes,
                v.data() + compiled.key_inputs()[k] * lanes);
    }
    for (std::size_t c = 0; c < stimuli[s].size(); ++c) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        std::uint64_t* words = v.data() + compiled.inputs()[i] * lanes;
        std::fill(words, words + lanes, stimuli[s][c][i] ? ~0ULL : 0ULL);
      }
      compiled.eval_auto(v.data(), lanes);
      for (std::size_t o = 0; o < num_outputs; ++o) {
        const std::uint64_t* got = v.data() + compiled.outputs()[o] * lanes;
        const std::uint64_t want = responses[s][c][o] ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < lanes; ++w) alive[w] &= ~(got[w] ^ want);
      }
      if (std::all_of(alive.begin(), alive.end(),
                      [](std::uint64_t w) { return w == 0; })) {
        return alive;
      }
      compiled.step_words(v.data(), lanes, scratch);
    }
  }
  return alive;
}

BitVec random_bits(util::Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.chance(1, 2) ? 1 : 0;
  return v;
}

std::vector<BitVec> random_stimulus(util::Rng& rng, std::size_t cycles,
                                    std::size_t n) {
  std::vector<BitVec> out;
  out.reserve(cycles);
  for (std::size_t c = 0; c < cycles; ++c) out.push_back(random_bits(rng, n));
  return out;
}

int first_divergence(const std::vector<BitVec>& a, const std::vector<BitVec>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("first_divergence: length mismatch");
  }
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c] != b[c]) return static_cast<int>(c);
  }
  return -1;
}

std::string bits_to_string(const BitVec& bits) {
  std::string s;
  s.reserve(bits.size());
  for (std::uint8_t b : bits) s += b ? '1' : '0';
  return s;
}

std::uint64_t bits_to_u64(const BitVec& bits) {
  if (bits.size() > 64) throw std::invalid_argument("bits_to_u64: too wide");
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) w |= 1ULL << i;
  }
  return w;
}

BitVec u64_to_bits(std::uint64_t word, std::size_t n) {
  if (n > 64) throw std::invalid_argument("u64_to_bits: too wide");
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (word >> i) & 1ULL ? 1 : 0;
  return v;
}

}  // namespace cl::sim
