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

constexpr std::size_t k_num_ops = static_cast<std::size_t>(Op::XnorN) + 1;

bool is_nary(Op op) { return op >= Op::AndN; }

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& nl) : nl_(&nl) {
  const netlist::Levelization lv = netlist::levelize(nl);
  const std::span<const GateType> types = nl.types();
  num_sources_ = lv.level_begin[1];
  const std::size_t gates = lv.order.size() - num_sources_;
  slot_.resize(nl.size());
  for (std::size_t i = 0; i < num_sources_; ++i) {
    const SignalId s = lv.order[i];
    slot_[s] = static_cast<std::uint32_t>(i);
    if (types[s] == GateType::Const0) const_0_.push_back(slot_[s]);
    if (types[s] == GateType::Const1) const_1_.push_back(slot_[s]);
  }
  // Each gate's opcode, in levelize order.
  std::vector<Op> ops(gates);
  for (std::size_t i = 0; i < gates; ++i) {
    const SignalId id = lv.order[num_sources_ + i];
    ops[i] = op_for(types[id], nl.fanins(id).size());
  }
  op_.resize(gates);
  operands_.resize(3 * gates);
  levelized_.resize(gates);
  std::uint32_t* a = operands_.data();
  std::uint32_t* b = a + gates;
  std::uint32_t* c = b + gates;
  runs_.reserve(std::min(gates, (lv.num_levels() - 1) * k_num_ops));
  level_begin_.reserve(lv.num_levels());
  level_begin_.push_back(0);

  // Slots follow the evaluation order: a stable counting sort of each level
  // by opcode, so gates keep ascending SignalId within an opcode group, and
  // each group is one Run. N-ary operands go to the pool in the same order.
  // Every fanin sits at a lower level, so its slot is known when its
  // readers are placed.
  for (std::size_t l = 1; l < lv.num_levels(); ++l) {
    const std::size_t first = lv.level_begin[l];
    const std::size_t last = lv.level_begin[l + 1];
    std::array<std::size_t, k_num_ops> cursor{};
    std::array<std::size_t, k_num_ops> pool_cursor{};
    for (std::size_t i = first; i < last; ++i) {
      const Op op = ops[i - num_sources_];
      ++cursor[static_cast<std::size_t>(op)];
      if (is_nary(op)) {
        pool_cursor[static_cast<std::size_t>(op)] +=
            nl.fanins(lv.order[i]).size();
      }
    }
    std::size_t at = first - num_sources_;
    std::size_t pool_at = pool_.size();
    for (std::size_t op = 0; op < k_num_ops; ++op) {
      if (cursor[op] != 0) {
        runs_.push_back({static_cast<std::uint32_t>(at),
                         static_cast<std::uint32_t>(at + cursor[op]),
                         static_cast<Op>(op)});
      }
      at += std::exchange(cursor[op], at);
      pool_at += std::exchange(pool_cursor[op], pool_at);
    }
    pool_.resize(pool_at);
    for (std::size_t i = first; i < last; ++i) {
      const SignalId id = lv.order[i];
      const Op op = ops[i - num_sources_];
      const std::size_t g = cursor[static_cast<std::size_t>(op)]++;
      const std::span<const SignalId> fanins = nl.fanins(id);
      slot_[id] = static_cast<std::uint32_t>(num_sources_ + g);
      op_[g] = op;
      levelized_[i - num_sources_] = static_cast<std::uint32_t>(g);
      if (is_nary(op)) {
        std::size_t& p = pool_cursor[static_cast<std::size_t>(op)];
        a[g] = static_cast<std::uint32_t>(p);
        b[g] = static_cast<std::uint32_t>(fanins.size());
        for (const SignalId f : fanins) pool_[p++] = slot_[f];
        continue;
      }
      a[g] = slot_[fanins[0]];
      if (fanins.size() > 1) b[g] = slot_[fanins[1]];
      if (fanins.size() > 2) c[g] = slot_[fanins[2]];
    }
    level_begin_.push_back(last - num_sources_);
  }

  const auto slots_of = [this](const std::vector<SignalId>& ids) {
    std::vector<std::uint32_t> out;
    out.reserve(ids.size());
    for (const SignalId s : ids) out.push_back(slot_[s]);
    return out;
  };
  inputs_ = slots_of(nl.inputs());
  keys_ = slots_of(nl.key_inputs());
  outputs_ = slots_of(nl.outputs());
  dff_q_ = slots_of(nl.dffs());
  dff_d_.reserve(dff_q_.size());
  dff_init_.reserve(dff_q_.size());
  for (SignalId d : nl.dffs()) {
    dff_d_.push_back(slot_[nl.dff_input(d)]);
    dff_init_.push_back(nl.dff_init(d));
  }
  settable_.assign(nl.size(), 0);
  for (SignalId s : nl.inputs()) settable_[s] = 1;
  for (SignalId s : nl.key_inputs()) settable_[s] = 1;
}

void CompiledNetlist::reset_words(std::uint64_t* values,
                                  std::size_t lanes) const {
  std::fill(values, values + num_sources_ * lanes, 0ULL);
  for (std::size_t i = 0; i < dff_q_.size(); ++i) {
    if (dff_init_[i] == netlist::DffInit::One) {
      std::uint64_t* q = values + std::size_t{dff_q_[i]} * lanes;
      std::fill(q, q + lanes, ~0ULL);
    }
  }
  for (const std::uint32_t s : const_1_) {
    std::uint64_t* w = values + std::size_t{s} * lanes;
    std::fill(w, w + lanes, ~0ULL);
  }
}

void CompiledNetlist::eval_range(std::size_t first, std::size_t last,
                                 std::uint64_t* values,
                                 std::size_t lanes) const {
  // The kernels live in sim/kernels_*.cpp, one translation unit per ISA
  // tier; eval_span_for resolves the strongest tier for this host and lane
  // count (overridable via CUTELOCK_SIM_ISA).
  kernels::Stream stream;
  stream.runs = runs_.data();
  stream.runs_end = runs_.data() + runs_.size();
  stream.a = operands_.data();
  stream.b = stream.a + num_gates();
  stream.c = stream.b + num_gates();
  stream.pool = pool_.data();
  stream.base = num_sources_;
  kernels::eval_span_for(lanes)(stream, first, last, values, lanes);
}

void CompiledNetlist::eval(std::uint64_t* values, std::size_t lanes) const {
  eval_range(0, num_gates(), values, lanes);
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
    // Slot-major layout: an unchecked w would land in the next slot.
    throw std::out_of_range("WideSim::set_word: word index out of range");
  }
  values_[std::size_t{compiled_->slot(s)} * lanes_ + w] = word;
}

void WideSim::eval() { compiled_->eval_auto(values_.data(), lanes_); }

void WideSim::step() { compiled_->step_words(values_.data(), lanes_, scratch_); }

}  // namespace cl::sim
