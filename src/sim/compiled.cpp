#include "sim/compiled.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "netlist/topo.hpp"
#include "sim/kernels.hpp"
#include "util/env.hpp"

namespace cl::sim {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

util::ThreadPool& shard_pool() {
  static util::ThreadPool pool(util::jobs_from_env());
  return pool;
}

namespace {

Op op_for(GateType t, std::size_t arity) {
  switch (t) {
    case GateType::Buf: return Op::Buf;
    case GateType::Not: return Op::Not;
    case GateType::Mux: return Op::Mux;
    case GateType::And: return arity == 2 ? Op::And2 : Op::AndN;
    case GateType::Nand: return arity == 2 ? Op::Nand2 : Op::NandN;
    case GateType::Or: return arity == 2 ? Op::Or2 : Op::OrN;
    case GateType::Nor: return arity == 2 ? Op::Nor2 : Op::NorN;
    case GateType::Xor: return arity == 2 ? Op::Xor2 : Op::XorN;
    case GateType::Xnor: return arity == 2 ? Op::Xnor2 : Op::XnorN;
    default:
      throw std::logic_error("CompiledNetlist: unexpected gate type");
  }
}

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& nl)
    : nl_(&nl), num_signals_(nl.size()) {
  const netlist::Levelization lv = netlist::levelize(nl);
  instrs_.reserve(nl.stats().gates);
  // Emit instructions in levelized order (gate levels start at 1; sources
  // occupy level 0 of the levelization). level_begin_[l] delimits the
  // instructions of gate-level l+1.
  level_begin_.push_back(0);
  std::size_t current_level = 1;
  for (std::size_t i = lv.level_begin[1]; i < lv.order.size(); ++i) {
    const SignalId id = lv.order[i];
    const std::span<const SignalId> fanins = nl.fanins(id);
    const std::size_t level = static_cast<std::size_t>(lv.level[id]);
    while (current_level < level) {
      level_begin_.push_back(instrs_.size());
      ++current_level;
    }
    Instr in;
    in.out = id;
    in.op = op_for(nl.type(id), fanins.size());
    switch (in.op) {
      case Op::Buf:
      case Op::Not:
        in.a = fanins[0];
        break;
      case Op::Mux:
        in.a = fanins[0];
        in.b = fanins[1];
        in.c = fanins[2];
        break;
      case Op::And2:
      case Op::Nand2:
      case Op::Or2:
      case Op::Nor2:
      case Op::Xor2:
      case Op::Xnor2:
        in.a = fanins[0];
        in.b = fanins[1];
        break;
      default:  // N-ary: spill to the pool
        in.a = static_cast<std::uint32_t>(pool_.size());
        in.b = static_cast<std::uint32_t>(fanins.size());
        pool_.insert(pool_.end(), fanins.begin(), fanins.end());
        break;
    }
    instrs_.push_back(in);
  }
  level_begin_.push_back(instrs_.size());

  // Evaluation order: a stable counting sort of each level by opcode, so
  // gates keep ascending SignalId within an opcode group.
  constexpr std::size_t k_num_ops = static_cast<std::size_t>(Op::XnorN) + 1;
  order_.resize(instrs_.size());
  for (std::size_t l = 0; l + 1 < level_begin_.size(); ++l) {
    std::array<std::size_t, k_num_ops> cursor{};
    for (std::size_t i = level_begin_[l]; i < level_begin_[l + 1]; ++i) {
      ++cursor[static_cast<std::size_t>(instrs_[i].op)];
    }
    std::size_t at = level_begin_[l];
    for (std::size_t& c : cursor) at += std::exchange(c, at);
    for (std::size_t i = level_begin_[l]; i < level_begin_[l + 1]; ++i) {
      order_[cursor[static_cast<std::size_t>(instrs_[i].op)]++] =
          static_cast<std::uint32_t>(i);
    }
  }

  inputs_ = nl.inputs();
  keys_ = nl.key_inputs();
  outputs_ = nl.outputs();
  dff_q_ = nl.dffs();
  dff_d_.reserve(dff_q_.size());
  dff_init_.reserve(dff_q_.size());
  for (SignalId d : dff_q_) {
    dff_d_.push_back(nl.dff_input(d));
    dff_init_.push_back(nl.dff_init(d));
  }
  for (SignalId s = 0; s < num_signals_; ++s) {
    if (nl.type(s) == GateType::Const0) const_0_.push_back(s);
    if (nl.type(s) == GateType::Const1) const_1_.push_back(s);
  }
  settable_.assign(num_signals_, 0);
  for (SignalId s : inputs_) settable_[s] = 1;
  for (SignalId s : keys_) settable_[s] = 1;
}

void CompiledNetlist::reset_words(std::uint64_t* values,
                                  std::size_t lanes) const {
  std::fill(values, values + num_signals_ * lanes, 0ULL);
  for (std::size_t i = 0; i < dff_q_.size(); ++i) {
    if (dff_init_[i] == netlist::DffInit::One) {
      std::uint64_t* q = values + std::size_t{dff_q_[i]} * lanes;
      std::fill(q, q + lanes, ~0ULL);
    }
  }
  for (SignalId s : const_1_) {
    std::uint64_t* w = values + std::size_t{s} * lanes;
    std::fill(w, w + lanes, ~0ULL);
  }
}

void CompiledNetlist::eval_range(std::size_t first, std::size_t last,
                                 std::uint64_t* values,
                                 std::size_t lanes) const {
  // The Op kernels live in sim/kernels_*.cpp, one translation unit per ISA
  // tier; eval_span_for resolves the strongest tier for this host and lane
  // count (overridable via CUTELOCK_SIM_ISA).
  kernels::eval_span_for(lanes)(instrs_.data(), order_.data() + first,
                                order_.data() + last, pool_.data(), values,
                                lanes);
}

void CompiledNetlist::eval(std::uint64_t* values, std::size_t lanes) const {
  eval_range(0, instrs_.size(), values, lanes);
}

void CompiledNetlist::eval_sharded(std::uint64_t* values, std::size_t lanes,
                                   util::ThreadPool& pool) const {
  const std::size_t workers = pool.size();
  if (workers <= 1) {
    eval(values, lanes);
    return;
  }
  // Chunking a tiny level across threads costs more in wakeups than the
  // kernels themselves; evaluate such levels inline. The TaskGroup scopes
  // each level barrier to THIS eval's tasks, so concurrent sharded evals on
  // the shared pool do not convoy on one another.
  constexpr std::size_t k_min_words_per_shard = 2048;
  util::TaskGroup group(pool);
  for (std::size_t l = 0; l + 1 < level_begin_.size(); ++l) {
    const std::size_t first = level_begin_[l];
    const std::size_t last = level_begin_[l + 1];
    const std::size_t n = last - first;
    if (n * lanes < 2 * k_min_words_per_shard) {
      eval_range(first, last, values, lanes);
      continue;
    }
    const std::size_t shards =
        std::min(workers, std::max<std::size_t>(
                              1, n * lanes / k_min_words_per_shard));
    const std::size_t chunk = (n + shards - 1) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t b = first + s * chunk;
      const std::size_t e = std::min(last, b + chunk);
      if (b >= e) break;
      group.submit([this, b, e, values, lanes] {
        eval_range(b, e, values, lanes);
      });
    }
    group.wait();  // level barrier: next level reads this level's outputs
  }
}

void CompiledNetlist::eval_auto(std::uint64_t* values,
                                std::size_t lanes) const {
  if (num_gates() >= k_shard_threshold) {
    eval_sharded(values, lanes, shard_pool());
  } else {
    eval(values, lanes);
  }
}

void CompiledNetlist::step_words_raw(std::uint64_t* values, std::size_t lanes,
                                     std::uint64_t* scratch) const {
  for (std::size_t i = 0; i < dff_q_.size(); ++i) {
    const std::uint64_t* d = values + std::size_t{dff_d_[i]} * lanes;
    std::copy(d, d + lanes, scratch + i * lanes);
  }
  for (std::size_t i = 0; i < dff_q_.size(); ++i) {
    std::uint64_t* q = values + std::size_t{dff_q_[i]} * lanes;
    std::copy(scratch + i * lanes, scratch + (i + 1) * lanes, q);
  }
}

WideSim::WideSim(const Netlist& nl, std::size_t lane_words)
    : WideSim(std::make_shared<const CompiledNetlist>(nl), lane_words) {}

WideSim::WideSim(std::shared_ptr<const CompiledNetlist> compiled,
                 std::size_t lane_words)
    : compiled_(std::move(compiled)),
      lanes_(std::max<std::size_t>(1, lane_words)),
      values_(compiled_->buffer_words(lanes_), 0) {
  reset();
}

void WideSim::reset() { compiled_->reset_words(values_.data(), lanes_); }

void WideSim::set_word(SignalId s, std::size_t w, std::uint64_t word) {
  if (!compiled_->settable(s)) {
    throw std::invalid_argument("WideSim::set_word: not an input: " +
                                compiled_->source().signal_name(s));
  }
  if (w >= lanes_) {
    // Signal-major layout: an unchecked w would land in the next signal.
    throw std::out_of_range("WideSim::set_word: word index out of range");
  }
  values_[s * lanes_ + w] = word;
}

void WideSim::eval() { compiled_->eval_auto(values_.data(), lanes_); }

void WideSim::step() { compiled_->step_words(values_.data(), lanes_, scratch_); }

}  // namespace cl::sim
