#include "cnf/hashed_encoder.hpp"

#include <bit>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace cl::cnf {

using sat::Lit;
using sim::Op;

namespace {

// A fresh encoder's table: 512 slots (8 KiB), enough for the cones of a
// small circuit's fact without a rehash.
constexpr std::size_t k_initial_slots = 512;
// Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
constexpr std::uint64_t k_hash_mul = 0x9E3779B97F4A7C15ULL;
// Bit 63 of an operand pair key is free (literal codes are below 2^31); XOR
// keys set it, so an AND and an XOR over the same operands never collide.
constexpr std::uint64_t k_xor_tag = std::uint64_t{1} << 63;

// What an opcode of at most three operands computes on constants: `table`
// holds its output on operand values a, b, c at bit a + 2b + 4c (the bits of
// operands past its arity are ignored), and `arity` is its operand count.
// The N-ary opcodes, whose fanins sit in a pool, have arity 0.
struct ConstRule {
  std::uint8_t table;
  std::uint8_t arity;
};
constexpr ConstRule k_const_rule[] = {
    {0xAA, 1},  // Buf: a
    {0x55, 1},  // Not: ~a
    {0x88, 2},  // And2
    {0x77, 2},  // Nand2
    {0xEE, 2},  // Or2
    {0x11, 2},  // Nor2
    {0x66, 2},  // Xor2
    {0x99, 2},  // Xnor2
    {0xE4, 3},  // Mux: a ? c : b
    {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0},  // AndN .. XnorN
};
static_assert(std::size(k_const_rule) == static_cast<std::size_t>(Op::XnorN) + 1);

std::uint64_t pair_key(Lit a, Lit b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.code()))
          << 32) |
         static_cast<std::uint32_t>(b.code());
}

}  // namespace

HashedEncoder::HashedEncoder(sat::Solver& solver)
    : solver_(solver), true_(sat::pos(solver.new_var())) {
  solver_.add_unit(true_);
}

Lit HashedEncoder::fresh() { return sat::pos(solver_.new_var()); }

Lit& HashedEncoder::node_slot(std::uint64_t key, bool& inserted) {
  if (2 * (used_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (key * k_hash_mul) >> shift_;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.key == key) {
      inserted = false;
      return slot.node;
    }
    if (slot.key == 0) {
      slot.key = key;
      ++used_;
      inserted = true;
      return slot.node;
    }
  }
}

void HashedEncoder::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t size = old.empty() ? k_initial_slots : 2 * old.size();
  slots_.assign(size, Slot{});
  shift_ = 64 - std::countr_zero(size);
  const std::size_t mask = size - 1;
  for (const Slot& slot : old) {
    if (slot.key == 0) continue;
    std::size_t i = (slot.key * k_hash_mul) >> shift_;
    while (slots_[i].key != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

Lit HashedEncoder::and2(Lit a, Lit b) {
  if (b < a) std::swap(a, b);
  if (is_constant(a)) return a == true_ ? b : a;
  if (is_constant(b)) return b == true_ ? a : b;
  if (a == b) return a;
  if (a == ~b) return constant(false);
  bool inserted = false;
  Lit& node = node_slot(pair_key(a, b), inserted);
  if (!inserted) return node;
  const Lit y = fresh();
  node = y;
  solver_.add_binary(~y, a);
  solver_.add_binary(~y, b);
  solver_.add_ternary(y, ~a, ~b);
  return y;
}

Lit HashedEncoder::xor2(Lit a, Lit b) {
  // Complements move to the output, so x^y, ~x^~y and ~(~x^y) share a node.
  const bool flip = a.negated() != b.negated();
  a = sat::pos(a.var());
  b = sat::pos(b.var());
  if (b < a) std::swap(a, b);
  Lit y;
  if (a == b) {
    y = constant(false);
  } else if (is_constant(a)) {
    y = ~b;
  } else if (is_constant(b)) {
    y = ~a;
  } else {
    bool inserted = false;
    Lit& node = node_slot(pair_key(a, b) | k_xor_tag, inserted);
    if (inserted) {
      node = fresh();
      const Lit x = node;
      solver_.add_ternary(~x, a, b);
      solver_.add_ternary(~x, ~a, ~b);
      solver_.add_ternary(x, ~a, b);
      solver_.add_ternary(x, a, ~b);
    }
    y = node;
  }
  return flip ? ~y : y;
}

Lit HashedEncoder::mux(Lit sel, Lit a, Lit b) {
  if (is_constant(sel)) return sel == true_ ? b : a;
  if (a == b) return a;
  if (a == ~b) return xor2(sel, a);
  return or2(and2(sel, b), and2(~sel, a));
}

std::vector<Lit> HashedEncoder::encode_frame(const sim::CompiledNetlist& prog,
                                             const std::vector<Lit>& inputs,
                                             const std::vector<Lit>& keys,
                                             const std::vector<Lit>& states) {
  if (inputs.size() != prog.inputs().size() ||
      keys.size() != prog.key_inputs().size() ||
      states.size() != prog.dff_qs().size()) {
    throw std::invalid_argument("HashedEncoder: source arity mismatch");
  }
  std::vector<Lit> lit(prog.num_signals());
  for (std::size_t i = 0; i < inputs.size(); ++i) lit[prog.inputs()[i]] = inputs[i];
  for (std::size_t i = 0; i < keys.size(); ++i) lit[prog.key_inputs()[i]] = keys[i];
  for (std::size_t i = 0; i < states.size(); ++i) lit[prog.dff_qs()[i]] = states[i];
  for (const std::uint32_t s : prog.const_zeros()) lit[s] = constant(false);
  for (const std::uint32_t s : prog.const_ones()) lit[s] = constant(true);

  // Gates in levelize order, whatever the simulator's evaluation order; N-ary
  // gates fold left to right over their fanins, as the netlist lists them.
  const std::uint32_t* pool = prog.fanin_pool().data();
  const auto fold = [&](const sim::Instr& in, auto&& op) {
    Lit y = lit[pool[in.a]];
    for (std::uint32_t k = 1; k < in.b; ++k) y = op(y, lit[pool[in.a + k]]);
    return y;
  };
  const auto and_op = [this](Lit a, Lit b) { return and2(a, b); };
  const auto or_op = [this](Lit a, Lit b) { return or2(a, b); };
  const auto xor_op = [this](Lit a, Lit b) { return xor2(a, b); };
  const Lit t = true_;
  for (const std::uint32_t g : prog.levelized()) {
    const sim::Instr in = prog.instr(g);
    // A gate whose operands are all constants takes its constant from the
    // truth table: what and2/xor2/mux return for it, with no variable,
    // clause or hash probe. Operands past the opcode's arity re-read a.
    if (const ConstRule rule = k_const_rule[static_cast<std::size_t>(in.op)];
        rule.arity != 0) {
      const Lit a = lit[in.a];
      const Lit b = lit[rule.arity >= 2 ? in.b : in.a];
      const Lit c = lit[rule.arity == 3 ? in.c : in.a];
      if (((a.var() ^ t.var()) | (b.var() ^ t.var()) | (c.var() ^ t.var())) == 0) {
        const unsigned row =
            unsigned{a == t} | unsigned{b == t} << 1 | unsigned{c == t} << 2;
        lit[in.out] = (rule.table >> row) & 1 ? t : ~t;
        continue;
      }
    }
    Lit y;
    switch (in.op) {
      case Op::Buf: y = lit[in.a]; break;
      case Op::Not: y = ~lit[in.a]; break;
      case Op::And2: y = and2(lit[in.a], lit[in.b]); break;
      case Op::Nand2: y = ~and2(lit[in.a], lit[in.b]); break;
      case Op::Or2: y = or2(lit[in.a], lit[in.b]); break;
      case Op::Nor2: y = ~or2(lit[in.a], lit[in.b]); break;
      case Op::Xor2: y = xor2(lit[in.a], lit[in.b]); break;
      case Op::Xnor2: y = ~xor2(lit[in.a], lit[in.b]); break;
      case Op::Mux: y = mux(lit[in.a], lit[in.b], lit[in.c]); break;
      case Op::AndN: y = fold(in, and_op); break;
      case Op::NandN: y = ~fold(in, and_op); break;
      case Op::OrN: y = fold(in, or_op); break;
      case Op::NorN: y = ~fold(in, or_op); break;
      case Op::XorN: y = fold(in, xor_op); break;
      case Op::XnorN: y = ~fold(in, xor_op); break;
    }
    lit[in.out] = y;
  }
  return lit;
}

std::vector<Lit> HashedEncoder::power_up_state(const sim::CompiledNetlist& prog) {
  std::vector<Lit> state;
  state.reserve(prog.dff_inits().size());
  for (const netlist::DffInit init : prog.dff_inits()) {
    state.push_back(init == netlist::DffInit::X
                        ? fresh()
                        : constant(init == netlist::DffInit::One));
  }
  return state;
}

std::vector<Lit> HashedEncoder::unroll_frame(const sim::CompiledNetlist& prog,
                                             const std::vector<Lit>& inputs,
                                             const std::vector<Lit>& keys,
                                             std::vector<Lit>& state) {
  std::vector<Lit> lit = encode_frame(prog, inputs, keys, state);
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = lit[prog.dff_ds()[i]];
  }
  return lit;
}

}  // namespace cl::cnf
