#include "sim/sequence.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

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

/// Input i of cycle c of every sequence, on lanes: sequence j rides bit
/// j % 64 of words[j / 64]. Every word of the block is written.
void pack_lanes(std::uint64_t* words,
                std::span<const std::vector<BitVec>> sequences, std::size_t c,
                std::size_t i) {
  for (std::size_t j = 0; j < sequences.size(); ++j) {
    const std::uint64_t bit = std::uint64_t{sequences[j][c][i]} << (j % 64);
    words[j / 64] = j % 64 == 0 ? bit : words[j / 64] | bit;
  }
}

/// The key lane packers' shared bounds (sequence.hpp's key layout).
void check_batch(std::size_t count, std::size_t key_bits, std::size_t lanes,
                 std::size_t w) {
  if (count > 64 || key_bits > 64 || w >= lanes) {
    throw std::invalid_argument(
        "key lanes: a batch holds at most 64 keys of at most 64 bits, in "
        "one of the pass's lane words");
  }
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
  return std::move(run_sequences_batched(compiled, {&inputs, 1}, keys).front());
}

std::vector<std::vector<BitVec>> run_sequences_batched(
    const CompiledNetlist& compiled,
    std::span<const std::vector<BitVec>> sequences,
    const std::vector<BitVec>& keys) {
  if (sequences.empty()) return {};
  const std::size_t cycles = sequences[0].size();
  for (const auto& seq : sequences) {
    if (seq.size() != cycles) {
      throw std::invalid_argument(
          "run_sequences_batched: sequences must have equal length");
    }
    check_widths(compiled.inputs().size(), compiled.key_inputs().size(), seq,
                 keys);
  }
  const std::size_t lanes = (sequences.size() + 63) / 64;  // W words
  util::AlignedVec<std::uint64_t> v(compiled.buffer_words(lanes), 0);
  util::AlignedVec<std::uint64_t> scratch;
  compiled.reset_words(v.data(), lanes);
  std::vector<std::vector<BitVec>> out(sequences.size());
  for (std::vector<BitVec>& trace : out) trace.reserve(cycles);
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < compiled.inputs().size(); ++i) {
      pack_lanes(v.data() + compiled.inputs()[i] * lanes, sequences, c, i);
    }
    if (!keys.empty() && (c == 0 || keys.size() > 1)) {
      // The key candidate is shared by every lane: broadcast each key bit
      // across the whole lane block. A static key is written once.
      const BitVec& kv = key_for_cycle(keys, c);
      for (std::size_t k = 0; k < compiled.key_inputs().size(); ++k) {
        std::uint64_t* words = v.data() + compiled.key_inputs()[k] * lanes;
        const std::uint64_t word = kv[k] ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < lanes; ++w) words[w] = word;
      }
    }
    compiled.eval_auto(v.data(), lanes);
    for (std::size_t j = 0; j < sequences.size(); ++j) {
      BitVec& cycle_out = out[j].emplace_back(compiled.outputs().size());
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

void pack_key_lanes(std::span<const std::uint64_t> keys, std::size_t key_bits,
                    std::uint64_t* key_words, std::size_t lanes,
                    std::size_t w) {
  check_batch(keys.size(), key_bits, lanes, w);
  // rows[j] starts as key j; after the transpose bit j of rows[b] is bit b
  // of key j. Round `half` swaps the high `half` columns of row k with the
  // low `half` columns of row k + half, for each k whose `half` bit is 0.
  std::array<std::uint64_t, 64> rows{};
  std::copy(keys.begin(), keys.end(), rows.begin());
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t half = 32; half != 0; half >>= 1, mask ^= mask << half) {
    for (std::size_t k = 0; k < 64; k = ((k | half) + 1) & ~half) {
      const std::uint64_t t = ((rows[k] >> half) ^ rows[k | half]) & mask;
      rows[k] ^= t << half;
      rows[k | half] ^= t;
    }
  }
  for (std::size_t b = 0; b < key_bits; ++b) key_words[b * lanes + w] = rows[b];
}

void pack_consecutive_key_lanes(std::uint64_t first, std::size_t count,
                                std::size_t key_bits, std::uint64_t* key_words,
                                std::size_t lanes, std::size_t w) {
  check_batch(count, key_bits, lanes, w);
  if (first % 64 != 0) {
    throw std::invalid_argument(
        "pack_consecutive_key_lanes: first must be a multiple of 64");
  }
  // Lane j holds first + j = first | j: bits 0-5 are j's, the rest first's.
  static constexpr std::uint64_t k_low_bits[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  const std::uint64_t used = count == 64 ? ~0ULL : (1ULL << count) - 1;
  for (std::size_t b = 0; b < key_bits; ++b) {
    const std::uint64_t word =
        b < 6 ? k_low_bits[b] : ((first >> b) & 1ULL) ? ~0ULL : 0ULL;
    key_words[b * lanes + w] = word & used;
  }
}

StaticKeyScreen::StaticKeyScreen(
    const CompiledNetlist& compiled,
    const std::vector<std::vector<BitVec>>& stimuli,
    const std::vector<std::vector<BitVec>>& responses)
    : compiled_(&compiled) {
  const std::size_t num_inputs = compiled.inputs().size();
  const std::size_t num_outputs = compiled.outputs().size();
  if (stimuli.size() != responses.size()) {
    throw std::invalid_argument(
        "StaticKeyScreen: one response per stimulus required");
  }
  for (std::size_t s = 0; s < stimuli.size(); ++s) {
    if (stimuli[s].size() != responses[s].size()) {
      throw std::invalid_argument("StaticKeyScreen: response length mismatch");
    }
    for (std::size_t c = 0; c < stimuli[s].size(); ++c) {
      if (stimuli[s][c].size() != num_inputs) {
        throw std::invalid_argument("StaticKeyScreen: input width mismatch");
      }
      if (responses[s][c].size() != num_outputs) {
        throw std::invalid_argument("StaticKeyScreen: output width mismatch");
      }
      inputs_.insert(inputs_.end(), stimuli[s][c].begin(),
                     stimuli[s][c].end());
      responses_.insert(responses_.end(), responses[s][c].begin(),
                        responses[s][c].end());
    }
    ends_.push_back((ends_.empty() ? 0 : ends_.back()) + stimuli[s].size());
  }
}

std::vector<std::uint64_t> StaticKeyScreen::screen(
    std::span<const std::uint64_t> key_words, std::size_t candidates,
    ScreenBuffers& buffers) const {
  const CompiledNetlist& compiled = *compiled_;
  const std::size_t lanes = (candidates + 63) / 64;  // W words
  const std::size_t num_inputs = compiled.inputs().size();
  const std::size_t num_outputs = compiled.outputs().size();
  const std::size_t num_keys = compiled.key_inputs().size();
  if (key_words.size() != num_keys * lanes) {
    throw std::invalid_argument(
        "StaticKeyScreen::screen: key_words must hold W words per key bit");
  }
  std::vector<std::uint64_t> alive(lanes, ~0ULL);
  if (lanes == 0) return alive;
  if (candidates % 64 != 0) alive.back() = (1ULL << (candidates % 64)) - 1;

  // reset_words loads every source and eval writes every gate, so the
  // buffer's old content is never read.
  buffers.values.resize(compiled.buffer_words(lanes));
  std::uint64_t* v = buffers.values.data();
  std::size_t begin = 0;
  for (const std::size_t end : ends_) {
    compiled.reset_words(v, lanes);
    for (std::size_t k = 0; k < num_keys; ++k) {
      const std::uint64_t* words = key_words.data() + k * lanes;
      std::copy(words, words + lanes, v + compiled.key_inputs()[k] * lanes);
    }
    for (std::size_t c = begin; c < end; ++c) {
      const std::uint8_t* in = inputs_.data() + c * num_inputs;
      for (std::size_t i = 0; i < num_inputs; ++i) {
        std::uint64_t* words = v + compiled.inputs()[i] * lanes;
        std::fill(words, words + lanes, in[i] ? ~0ULL : 0ULL);
      }
      compiled.eval_auto(v, lanes);
      const std::uint8_t* response = responses_.data() + c * num_outputs;
      for (std::size_t o = 0; o < num_outputs; ++o) {
        const std::uint64_t* got = v + compiled.outputs()[o] * lanes;
        const std::uint64_t want = response[o] ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < lanes; ++w) alive[w] &= ~(got[w] ^ want);
      }
      if (std::all_of(alive.begin(), alive.end(),
                      [](std::uint64_t w) { return w == 0; })) {
        return alive;
      }
      compiled.step_words(v, lanes, buffers.step);
    }
    begin = end;
  }
  return alive;
}

std::vector<KeyFlip> sample_key_flips(const CompiledNetlist& compiled,
                                      util::Rng& rng) {
  constexpr std::size_t k_pass_draws = 256;  // 512 lanes, BBO's width
  const std::size_t num_keys = compiled.key_inputs().size();
  const std::size_t total = num_keys * k_key_flip_draws;
  std::vector<KeyFlip> flips(num_keys);
  util::AlignedVec<std::uint64_t> v;
  util::AlignedVec<std::uint64_t> scratch;
  for (std::size_t first = 0; first < total; first += k_pass_draws) {
    const std::size_t draws = std::min(k_pass_draws, total - first);
    std::vector<std::vector<BitVec>> stims(draws), clear(draws), set(draws);
    for (std::size_t j = 0; j < draws; ++j) {
      stims[j] = random_stimulus(rng, k_key_flip_cycles,
                                 compiled.inputs().size());
      clear[j] = set[j] = {random_bits(rng, num_keys)};
      clear[j][0][(first + j) / k_key_flip_draws] = 0;
      set[j][0][(first + j) / k_key_flip_draws] = 1;
    }
    // Draw j rides lane j of the "clear" half and of the "set" half, which
    // starts `half` words in; both halves see the same stimulus.
    const std::size_t half = (draws + 63) / 64;
    const std::size_t lanes = 2 * half;
    v.resize(compiled.buffer_words(lanes));
    compiled.reset_words(v.data(), lanes);
    for (std::size_t k = 0; k < num_keys; ++k) {
      std::uint64_t* words = v.data() + compiled.key_inputs()[k] * lanes;
      pack_lanes(words, clear, 0, k);
      pack_lanes(words + half, set, 0, k);
    }
    std::vector<std::uint64_t> rose(half, 0), fell(half, 0);
    for (std::size_t c = 0; c < k_key_flip_cycles; ++c) {
      for (std::size_t i = 0; i < compiled.inputs().size(); ++i) {
        std::uint64_t* words = v.data() + compiled.inputs()[i] * lanes;
        pack_lanes(words, stims, c, i);
        std::copy(words, words + half, words + half);
      }
      compiled.eval_auto(v.data(), lanes);
      for (const SignalId o : compiled.outputs()) {
        const std::uint64_t* lo = v.data() + o * lanes;
        const std::uint64_t* hi = lo + half;
        for (std::size_t w = 0; w < half; ++w) {
          rose[w] |= ~lo[w] & hi[w];
          fell[w] |= lo[w] & ~hi[w];
        }
      }
      compiled.step_words(v.data(), lanes, scratch);
    }
    for (std::size_t j = 0; j < draws; ++j) {
      KeyFlip& f = flips[(first + j) / k_key_flip_draws];
      f.rose = f.rose || ((rose[j / 64] >> (j % 64)) & 1ULL);
      f.fell = f.fell || ((fell[j / 64] >> (j % 64)) & 1ULL);
    }
  }
  return flips;
}

std::vector<BitVec> find_counterexample(const CompiledNetlist& reference,
                                        const CompiledNetlist& locked,
                                        const std::vector<BitVec>& keys,
                                        util::Rng& rng, std::size_t sequences,
                                        std::size_t cycles) {
  // Rounds of one lane word keep the early exit cheap when divergence is
  // common (the DIP loop's refuted candidates).
  for (std::size_t done = 0; done < sequences;) {
    const std::size_t chunk = std::min<std::size_t>(64, sequences - done);
    std::vector<std::vector<BitVec>> stims;
    stims.reserve(chunk);
    for (std::size_t t = 0; t < chunk; ++t) {
      stims.push_back(
          random_stimulus(rng, cycles, reference.inputs().size()));
    }
    const auto want = run_sequences_batched(reference, stims);
    const auto got = run_sequences_batched(locked, stims, keys);
    for (std::size_t t = 0; t < chunk; ++t) {
      const int diverge = first_divergence(want[t], got[t]);
      if (diverge != -1) {
        return {stims[t].begin(), stims[t].begin() + diverge + 1};
      }
    }
    done += chunk;
  }
  return {};
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
