// Compiled simulation core: a one-time translation of a Netlist into a
// levelized, cache-friendly flat instruction stream.
//
// Compilation replaces the pointer-heavy node-graph walk (hash lookups,
// vector-of-vector fanin chasing, one switch per gate per eval) with:
//   - contiguous Instr records sorted by logic level, operands inlined for
//     arities <= 3 and spilled to one flat fanin pool otherwise;
//   - arity-specialized opcodes (And2 vs AndN, ...) so the hot kernels are
//     branch-light and vectorizable;
//   - an evaluation order, one 4-byte index per gate, that groups each
//     level's instructions by opcode: the kernels walk it, so their opcode
//     switch takes one target for a whole run of gates instead of a new,
//     mispredicted one per gate on circuits too large for the branch
//     predictor to learn. The instruction stream itself stays in levelized
//     order, which the CNF encoder and XSim walk;
//   - wide lanes: every signal carries W consecutive 64-bit words, so one
//     eval() pass simulates 64*W independent patterns (W chosen by the
//     WideSim owner, or sized from the batch by the batch APIs);
//   - sharded execution: instructions within one level are independent, so
//     each level can be chunked across a util::ThreadPool with a barrier per
//     level — engaged automatically for netlists of at least
//     k_shard_threshold gates.
//
// WideSim, XSim, sim::sequence and attack::SequentialOracle are thin
// adapters over this core; tests cross-check it against sim::ReferenceSim
// (the pre-compilation evaluator).
#pragma once

#include <cstdint>
#include <memory>
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

/// One compiled gate. For arity <= 3 the operand SignalIds live in a/b/c;
/// for N-ary ops `a` is the offset into fanin_pool() and `b` the count.
struct Instr {
  netlist::SignalId out = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
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
  /// mutated afterwards (SignalIds are baked into the instruction stream).
  explicit CompiledNetlist(const netlist::Netlist& nl);

  const netlist::Netlist& source() const { return *nl_; }
  std::size_t num_signals() const { return num_signals_; }
  std::size_t num_gates() const { return instrs_.size(); }
  std::size_t num_levels() const { return level_begin_.size() - 1; }

  // ---- instruction stream (walked by the trit adapter XSim and the CNF
  // encoder) ---------------------------------------------------------------
  /// Every gate in netlist::levelize order: level by level, ascending
  /// SignalId within a level.
  const std::vector<Instr>& instructions() const { return instrs_; }
  const std::vector<netlist::SignalId>& fanin_pool() const { return pool_; }
  /// Indices into instructions() in the order the kernels evaluate them:
  /// level by level like instructions(), but within each level grouped by
  /// ascending Op, ascending SignalId within a group.
  const std::vector<std::uint32_t>& eval_order() const { return order_; }

  // Source/DFF bookkeeping mirrored from the netlist (flat copies, so the
  // hot loops never touch the Netlist).
  const std::vector<netlist::SignalId>& inputs() const { return inputs_; }
  const std::vector<netlist::SignalId>& key_inputs() const { return keys_; }
  const std::vector<netlist::SignalId>& outputs() const { return outputs_; }
  const std::vector<netlist::SignalId>& dff_qs() const { return dff_q_; }
  const std::vector<netlist::SignalId>& dff_ds() const { return dff_d_; }
  const std::vector<netlist::DffInit>& dff_inits() const { return dff_init_; }
  /// Constant-source signals (Const0/Const1 are fanin-less sources in the
  /// netlist model; their values are loaded by reset_words, not eval).
  const std::vector<netlist::SignalId>& const_ones() const { return const_1_; }
  const std::vector<netlist::SignalId>& const_zeros() const { return const_0_; }

  /// True for signals accepted by the set() of the adapters (Input or
  /// KeyInput), indexed by SignalId.
  bool settable(netlist::SignalId s) const { return settable_[s]; }

  // ---- word-buffer evaluation -------------------------------------------
  // Buffers are signal-major: signal s owns words [s*lanes, (s+1)*lanes).

  std::size_t buffer_words(std::size_t lanes) const {
    return num_signals_ * lanes;
  }

  /// Zero every word, then load DFF power-up values (X treated as 0) and
  /// constant-source values.
  void reset_words(std::uint64_t* values, std::size_t lanes) const;

  /// Propagate through the combinational core, single-threaded.
  void eval(std::uint64_t* values, std::size_t lanes) const;

  /// Level-parallel propagation: each level's instruction range is chunked
  /// across `pool` with a barrier between levels. Bit-identical to eval()
  /// for any pool size. Never pass the pool whose worker is running this
  /// call. Small levels are evaluated inline.
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
  /// Evaluate the gates at positions [first, last) of eval_order().
  void eval_range(std::size_t first, std::size_t last, std::uint64_t* values,
                  std::size_t lanes) const;

  const netlist::Netlist* nl_;
  std::size_t num_signals_ = 0;
  std::vector<Instr> instrs_;               // level-sorted
  std::vector<std::uint32_t> order_;        // op-grouped within each level
  std::vector<std::size_t> level_begin_;    // instr offsets per gate level
  std::vector<netlist::SignalId> pool_;     // N-ary fanins, contiguous
  std::vector<netlist::SignalId> inputs_;
  std::vector<netlist::SignalId> keys_;
  std::vector<netlist::SignalId> outputs_;
  std::vector<netlist::SignalId> dff_q_;
  std::vector<netlist::SignalId> dff_d_;
  std::vector<netlist::DffInit> dff_init_;
  std::vector<netlist::SignalId> const_0_;
  std::vector<netlist::SignalId> const_1_;
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

  /// Back to power-up: DFF init values and constants, every other word 0.
  void reset();
  /// Word `w` of input/key signal `s`. Throws std::invalid_argument for
  /// any other signal and std::out_of_range unless w < lane_words().
  void set_word(netlist::SignalId s, std::size_t w, std::uint64_t word);
  /// Word `w` of any signal (valid after eval()).
  std::uint64_t get_word(netlist::SignalId s, std::size_t w) const {
    return values_[s * lanes_ + w];
  }

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
