// Multi-cycle sequence simulation helpers: wide-lane batched runs (a single
// sequence is the one-lane case), static-key screening (a screen checked
// once per stimulus pool, key lane packers, per-task buffers), key-flip
// sampling, the random counterexample scan, random stimulus generation, and
// sequence comparison. These are the building blocks for oracles, key
// verification, validation tables, and the attacks that decide by
// simulation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "sim/x_sim.hpp"
#include "util/rng.hpp"

namespace cl::sim {

/// One bit per signal, cycle-major: pattern[cycle][i] drives the i-th entry
/// of the corresponding port list.
using BitVec = std::vector<std::uint8_t>;

/// Run `nl` for inputs.size() cycles. inputs[c][i] drives nl.inputs()[i] and
/// keys[c][j] drives nl.key_inputs()[j] on cycle c. `keys` may be empty when
/// the circuit has no key inputs, or contain a single entry that is then held
/// constant for the whole run (a static key). Outputs are sampled
/// combinationally each cycle, before the clock edge.
std::vector<BitVec> run_sequence(const netlist::Netlist& nl,
                                 const std::vector<BitVec>& inputs,
                                 const std::vector<BitVec>& keys = {});

/// Same, over a pre-compiled netlist — the hot-path variant: callers that
/// run many sequences on one circuit (oracles, verifiers, screening loops)
/// compile once and skip the per-call levelization. The one-sequence case
/// of run_sequences_batched.
std::vector<BitVec> run_sequence(const CompiledNetlist& compiled,
                                 const std::vector<BitVec>& inputs,
                                 const std::vector<BitVec>& keys = {});

/// Batched sequence evaluation with wide lanes: run `sequences.size()`
/// independent input sequences (all of equal length and width) in one
/// multi-word pass — sequence j rides pattern lane j. `keys` follows the
/// run_sequence contract (empty for key-free circuits, one entry held
/// static, or per-cycle) and is broadcast to every lane, so a keyed circuit
/// can batch many stimuli under one key candidate. Returns per-sequence
/// output traces. Throws std::invalid_argument when the sequences differ in
/// length or break that contract.
std::vector<std::vector<BitVec>> run_sequences_batched(
    const CompiledNetlist& compiled,
    std::span<const std::vector<BitVec>> sequences,
    const std::vector<BitVec>& keys = {});

/// Three-valued variant (power-up X preserved). Returns trits per cycle.
std::vector<std::vector<Trit>> run_sequence_x(const netlist::Netlist& nl,
                                              const std::vector<BitVec>& inputs,
                                              const std::vector<BitVec>& keys = {});

// ---- Static-key screening, the black-box attack's inner loop ---------------
//
// Key layout: `candidates` static keys ride the pattern lanes of one
// multi-word pass, W = ceil(candidates / 64) words per signal, candidate j
// in bit j % 64 of word j / 64, and key_words[b * W + w] is word w of key
// bit b. A batch is one lane word, up to 64 candidates; the two packers
// below write word w of every key bit for one batch, and lanes at or past
// the batch's `count` hold key 0. Both throw std::invalid_argument when
// count or key_bits exceeds 64 or w >= W.

/// A batch of drawn keys, keys[j] on lane j, through one 64x64 bit-matrix
/// transpose (six rounds of masked swaps); count = keys.size().
void pack_key_lanes(std::span<const std::uint64_t> keys, std::size_t key_bits,
                    std::uint64_t* key_words, std::size_t lanes, std::size_t w);

/// The `count` consecutive keys first, first + 1, ... on lanes 0, 1, ...
/// (an exhaustive batch; also throws unless `first` is a multiple of 64):
/// key bits 0-5 take fixed lane patterns (0xAAAA..., 0xCCCC..., ...,
/// 0xFFFFFFFF00000000) and each higher bit b broadcasts bit b of `first`.
void pack_consecutive_key_lanes(std::uint64_t first, std::size_t count,
                                std::size_t key_bits, std::uint64_t* key_words,
                                std::size_t lanes, std::size_t w);

/// Scratch of StaticKeyScreen::screen owned by the calling task: the value
/// buffer and the DFF step scratch, resized to each screen's width and
/// reused from screen to screen. Concurrent screens need one each; what a
/// buffer holds between screens never matters.
struct ScreenBuffers {
  util::AlignedVec<std::uint64_t> values;
  util::AlignedVec<std::uint64_t> step;
};

/// A stimulus pool and the oracle's responses to it, checked and copied
/// once, against which batches of static keys are screened.
class StaticKeyScreen {
 public:
  /// Throws std::invalid_argument when stimuli and responses differ in
  /// count or length, or when a vector's width does not match the
  /// circuit's inputs or outputs. `compiled` must outlive the screen.
  StaticKeyScreen(const CompiledNetlist& compiled,
                  const std::vector<std::vector<BitVec>>& stimuli,
                  const std::vector<std::vector<BitVec>>& responses);

  /// Screens `candidates` keys in the layout above. Every lane sees the
  /// same stimulus, run from reset, one stimulus after another; after every
  /// cycle each output is compared with the response, and a lane that
  /// differs once is dead. Returns the W survivor masks (bit j % 64 of word
  /// j / 64 set iff candidate j reproduced every response), as soon as no
  /// candidate is left alive. Lanes at or beyond `candidates` never survive
  /// and never delay that exit. Throws std::invalid_argument, before
  /// simulating, when key_words does not hold W words per key bit.
  /// Thread-safe on a shared screen, one `buffers` per thread.
  std::vector<std::uint64_t> screen(std::span<const std::uint64_t> key_words,
                                    std::size_t candidates,
                                    ScreenBuffers& buffers) const;

 private:
  const CompiledNetlist* compiled_;
  // The pool, cycle-major over all stimuli: cycle c of the whole pool holds
  // inputs_[c * inputs .. ) and responses_[c * outputs .. ); stimulus s
  // runs cycles [ends_[s - 1], ends_[s]), stimulus 0 from cycle 0.
  std::vector<std::uint8_t> inputs_;
  std::vector<std::uint8_t> responses_;
  std::vector<std::size_t> ends_;
};

/// Whether some output rose (0 -> 1) or fell (1 -> 0) when one key bit went
/// from clear to set, on some cycle of some draw of sample_key_flips.
struct KeyFlip {
  bool rose = false;
  bool fell = false;
};

/// Draws per key bit, and cycles per draw, of sample_key_flips.
inline constexpr std::size_t k_key_flip_draws = 16;
inline constexpr std::size_t k_key_flip_cycles = 8;

/// Key-flip sampling, the functional profile of FALL and SCOPE: one KeyFlip
/// per key bit. Bit k takes draws 16k..16k+15 from `rng`, each a
/// random_stimulus followed by a random_bits key, and runs each draw from
/// reset with the bit clear and with it set, on lane j of two halves of one
/// pass. A pass holds at most 256 draws (8 lane words per signal), so memory
/// does not grow with the key width.
std::vector<KeyFlip> sample_key_flips(const CompiledNetlist& compiled,
                                      util::Rng& rng);

/// Random-simulation counterexample scan (key verification's fast phase):
/// draws `sequences` random stimuli of `cycles` cycles, up to 64 per round,
/// and runs each round on `reference` without keys and on `locked` under
/// `keys` (run_sequence's key contract). Returns the first diverging
/// stimulus in draw order, cut after its first diverging cycle, or an empty
/// vector when none diverges.
std::vector<BitVec> find_counterexample(const CompiledNetlist& reference,
                                        const CompiledNetlist& locked,
                                        const std::vector<BitVec>& keys,
                                        util::Rng& rng, std::size_t sequences,
                                        std::size_t cycles);

/// Uniform random bit-vector of width n.
BitVec random_bits(util::Rng& rng, std::size_t n);

/// Uniform random stimulus: `cycles` vectors of width n.
std::vector<BitVec> random_stimulus(util::Rng& rng, std::size_t cycles,
                                    std::size_t n);

/// First cycle where the two output traces differ, or -1 if identical.
/// Traces must have equal dimensions.
int first_divergence(const std::vector<BitVec>& a, const std::vector<BitVec>& b);

/// Render a BitVec as binary text, index 0 leftmost.
std::string bits_to_string(const BitVec& bits);

/// Pack a BitVec (index 0 = LSB) into a word; width must be <= 64.
std::uint64_t bits_to_u64(const BitVec& bits);

/// Unpack the low `n` bits of a word into a BitVec (index 0 = LSB).
BitVec u64_to_bits(std::uint64_t word, std::size_t n);

}  // namespace cl::sim
