// Compiled simulation core: a one-time translation of a Netlist into a
// levelized, cache-friendly program with its own value numbering.
//
// Compilation replaces the pointer-heavy node-graph walk (hash lookups,
// fanin chasing, one switch per gate per eval) with:
//   - slots: every signal gets a slot, sources first (in levelize order),
//     then gates in evaluation order. The evaluation order is level by
//     level, each level grouped by ascending Op, ascending SignalId within
//     a group. Gate g's output is slot num_sources() + g, so a gate's
//     position is its output and the operands of a level sit next to each
//     other in memory. Value buffers, the port lists and the CNF encoder's
//     frames are indexed by slot; slot() maps a netlist SignalId to it;
//   - structure-of-arrays operands (a/b/c operand slots per gate, N-ary
//     fanins spilled to one flat pool in evaluation order) and
//     arity-specialized opcodes (And2 vs AndN, ...);
//   - runs: each level's gates of one opcode form a Run, and the kernels
//     walk the program run by run, one opcode switch per run and a tight
//     loop over its gates, with no per-gate index indirection;
//   - the levelize order (levelized()): the CNF encoder and XSim visit the
//     gates in netlist::levelize order, level by level and ascending
//     SignalId within a level, so CNF variable numbering does not depend on
//     the evaluation order;
//   - wide lanes: every slot carries W consecutive 64-bit words, so one
//     eval() pass simulates 64*W independent patterns (W chosen by the
//     WideSim owner, or sized from the batch by the batch APIs);
//   - sharded execution: gates within one level are independent, so each
//     level can be chunked across a util::ThreadPool with a barrier per
//     level — engaged automatically for netlists of at least
//     k_shard_threshold gates.
//
// WideSim, XSim, sim::sequence and attack::SequentialOracle are thin
// adapters over this core; tests cross-check it against sim::ReferenceSim
// (the pre-compilation evaluator).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace cl::sim {

/// Arity-specialized opcodes. N-suffixed forms read their fanins from the
/// flat pool; the rest use the inlined operands a/b/c. Constants have no
/// opcode: Const0/Const1 are fanin-less *sources* in the netlist model, so
/// their values are loaded once by reset_words(), never re-evaluated.
enum class Op : std::uint8_t {
  Buf, Not,
  And2, Nand2, Or2, Nor2, Xor2, Xnor2,
  Mux,  // a=sel, b=data0, c=data1 : out = sel ? c : b
  AndN, NandN, OrN, NorN, XorN, XnorN,
};

/// One compiled gate, as the CNF encoder and XSim read it: its output slot,
/// its opcode and its operand slots. For arity <= 3 the operand slots are
/// a/b/c; for N-ary ops `a` is the offset into fanin_pool() and `b` the
/// count.
struct Instr {
  std::uint32_t out = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  Op op = Op::Buf;
};

/// A run of gates of one opcode within one level: evaluation positions
/// [begin, end).
struct Run {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  Op op = Op::Buf;
};

/// Gate count from which eval_auto() shards a netlist's levels across
/// shard_pool().
inline constexpr std::size_t k_shard_threshold = 250'000;

/// Process-wide pool for sharded evaluation, sized by CUTELOCK_JOBS on first
/// use. Distinct from any bench::Runner pool, so a Runner worker evaluating
/// a large netlist can block in eval() without starving its own pool.
util::ThreadPool& shard_pool();

class CompiledNetlist {
 public:
  /// Compile `nl`. The netlist must outlive this object and must not be
  /// mutated afterwards (its signals are baked into the program).
  explicit CompiledNetlist(const netlist::Netlist& nl);

  const netlist::Netlist& source() const { return *nl_; }
  std::size_t num_signals() const { return slot_.size(); }
  /// Slots [0, num_sources()) hold the sources: inputs, key inputs, DFF Qs
  /// and constants.
  std::size_t num_sources() const { return num_sources_; }
  std::size_t num_gates() const { return op_.size(); }
  std::size_t num_levels() const { return level_begin_.size() - 1; }

  /// The slot of netlist signal `s`: its words in a value buffer and its
  /// literal in a CNF frame.
  std::uint32_t slot(netlist::SignalId s) const { return slot_[s]; }

  // ---- the program -------------------------------------------------------
  /// Gate g of the evaluation order; its output is slot num_sources() + g.
  Instr instr(std::size_t g) const {
    const std::size_t n = num_gates();
    return {static_cast<std::uint32_t>(num_sources_ + g), operands_[g],
            operands_[n + g], operands_[2 * n + g], op_[g]};
  }
  /// Evaluation positions of the gates in netlist::levelize order (level by
  /// level, ascending SignalId within a level): the order in which the CNF
  /// encoder and XSim visit them.
  const std::vector<std::uint32_t>& levelized() const { return levelized_; }
  /// The evaluation order as runs of one opcode, in order.
  const std::vector<Run>& runs() const { return runs_; }
  /// N-ary operand slots, contiguous per gate, in evaluation order.
  const std::vector<std::uint32_t>& fanin_pool() const { return pool_; }

  // Port lists, as slots (flat copies, so the hot loops never touch the
  // Netlist), each in the netlist's order.
  const std::vector<std::uint32_t>& inputs() const { return inputs_; }
  const std::vector<std::uint32_t>& key_inputs() const { return keys_; }
  const std::vector<std::uint32_t>& outputs() const { return outputs_; }
  const std::vector<std::uint32_t>& dff_qs() const { return dff_q_; }
  const std::vector<std::uint32_t>& dff_ds() const { return dff_d_; }
  const std::vector<netlist::DffInit>& dff_inits() const { return dff_init_; }
  /// Constant-source slots (Const0/Const1 are fanin-less sources in the
  /// netlist model; their values are loaded by reset_words, not eval).
  const std::vector<std::uint32_t>& const_ones() const { return const_1_; }
  const std::vector<std::uint32_t>& const_zeros() const { return const_0_; }

  /// True for signals accepted by the set() of the adapters (Input or
  /// KeyInput), indexed by SignalId.
  bool settable(netlist::SignalId s) const { return settable_[s]; }

  // ---- word-buffer evaluation -------------------------------------------
  // Buffers are slot-major: slot s owns words [s*lanes, (s+1)*lanes).

  std::size_t buffer_words(std::size_t lanes) const {
    return num_signals() * lanes;
  }

  /// Load power-up state into the source slots, words
  /// [0, num_sources() * lanes): inputs and key inputs 0, DFF power-up
  /// values (X treated as 0) and constant-source values. Gate words are
  /// left as they are: every gate slot is an output of eval(), so they are
  /// undefined after a reset until the next eval.
  void reset_words(std::uint64_t* values, std::size_t lanes) const;

  /// Propagate through the combinational core, single-threaded.
  void eval(std::uint64_t* values, std::size_t lanes) const;

  /// Level-parallel propagation: each level's gates are chunked across
  /// `pool` with a barrier between levels. Bit-identical to eval() for any
  /// pool size. Never pass the pool whose worker is running this call.
  /// Small levels are evaluated inline.
  void eval_sharded(std::uint64_t* values, std::size_t lanes,
                    util::ThreadPool& pool) const;

  /// eval_sharded(shard_pool()) from k_shard_threshold gates on, else
  /// eval().
  void eval_auto(std::uint64_t* values, std::size_t lanes) const;

  /// Latch every DFF: Q <= D, two-phase (register-to-register safe).
  /// `scratch` must hold dff_qs().size() * lanes words.
  void step_words_raw(std::uint64_t* values, std::size_t lanes,
                      std::uint64_t* scratch) const;

  /// step_words_raw with an owning scratch vector (any allocator), resized
  /// as needed and reusable across calls.
  template <class Alloc>
  void step_words(std::uint64_t* values, std::size_t lanes,
                  std::vector<std::uint64_t, Alloc>& scratch) const {
    scratch.resize(dff_q_.size() * lanes);
    step_words_raw(values, lanes, scratch.data());
  }

 private:
  /// Evaluate the gates at evaluation positions [first, last).
  void eval_range(std::size_t first, std::size_t last, std::uint64_t* values,
                  std::size_t lanes) const;

  const netlist::Netlist* nl_;
  std::size_t num_sources_ = 0;
  std::vector<std::uint32_t> slot_;         // SignalId -> slot
  // Per gate, in evaluation order: the opcode, and the a, b and c operand
  // slots as three planes of num_gates() entries each.
  std::vector<Op> op_;
  std::vector<std::uint32_t> operands_;
  std::vector<std::uint32_t> levelized_;    // levelize order -> position
  std::vector<Run> runs_;
  std::vector<std::size_t> level_begin_;    // positions per gate level
  std::vector<std::uint32_t> pool_;         // N-ary operand slots
  std::vector<std::uint32_t> inputs_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> outputs_;
  std::vector<std::uint32_t> dff_q_;
  std::vector<std::uint32_t> dff_d_;
  std::vector<netlist::DffInit> dff_init_;
  std::vector<std::uint32_t> const_0_;
  std::vector<std::uint32_t> const_1_;
  std::vector<std::uint8_t> settable_;
};

/// The two-valued simulator: owns a W-word-per-signal buffer over a
/// compiled netlist. One eval() simulates 64*W patterns; pattern p lives in
/// bit (p % 64) of word (p / 64). Sequential circuits advance with step(),
/// which latches each DFF's D word into its Q word; DFFs with X power-up
/// start at 0 (XSim keeps the X). Evaluation goes through eval_auto(), so
/// large netlists shard on their own.
class WideSim {
 public:
  /// Compile privately, with `lane_words` words per signal (W).
  explicit WideSim(const netlist::Netlist& nl, std::size_t lane_words = 1);
  /// Share a compilation (e.g. one compile, many parallel evaluators).
  explicit WideSim(std::shared_ptr<const CompiledNetlist> compiled,
                   std::size_t lane_words = 1);

  const CompiledNetlist& compiled() const { return *compiled_; }
  /// W: 64-bit words per signal.
  std::size_t lane_words() const { return lanes_; }

  /// Back to power-up (CompiledNetlist::reset_words): DFF init values,
  /// constants, every other source word 0; gate words are undefined until
  /// the next eval().
  void reset();
  /// Word `w` of input/key signal `s`. Throws std::invalid_argument for
  /// any other signal and std::out_of_range unless w < lane_words().
  void set_word(netlist::SignalId s, std::size_t w, std::uint64_t word);
  /// Word `w` of any signal (valid after eval()).
  std::uint64_t get_word(netlist::SignalId s, std::size_t w) const {
    return values_[std::size_t{compiled_->slot(s)} * lanes_ + w];
  }
  /// The whole value buffer, slot-major (see CompiledNetlist).
  std::span<const std::uint64_t> words() const { return values_; }

  /// Propagate through the combinational core (inputs and DFF Qs are
  /// sources).
  void eval();
  /// Latch every DFF: Q <= D. Call after eval().
  void step();

 private:
  std::shared_ptr<const CompiledNetlist> compiled_;
  std::size_t lanes_;
  util::AlignedVec<std::uint64_t> values_;   // 64-byte-aligned SoA buffer
  util::AlignedVec<std::uint64_t> scratch_;
};

}  // namespace cl::sim
