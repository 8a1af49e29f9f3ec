#include "netlist/netlist.hpp"

#include <algorithm>
#include <functional>

#include "util/strings.hpp"

namespace cl::netlist {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::Input: return "INPUT";
    case GateType::KeyInput: return "KEYINPUT";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Mux: return "MUX";
    case GateType::Dff: return "DFF";
  }
  return "?";
}

std::optional<GateType> gate_type_from_name(std::string_view name) {
  using util::iequals;
  struct Entry { const char* key; GateType type; };
  static constexpr Entry table[] = {
      {"BUF", GateType::Buf},     {"BUFF", GateType::Buf},
      {"NOT", GateType::Not},     {"INV", GateType::Not},
      {"AND", GateType::And},     {"NAND", GateType::Nand},
      {"OR", GateType::Or},       {"NOR", GateType::Nor},
      {"XOR", GateType::Xor},     {"XNOR", GateType::Xnor},
      {"MUX", GateType::Mux},     {"DFF", GateType::Dff},
      {"CONST0", GateType::Const0}, {"CONST1", GateType::Const1},
  };
  for (const auto& e : table) {
    if (iequals(name, e.key)) return e.type;
  }
  return std::nullopt;
}

bool is_source(GateType t) {
  return t == GateType::Input || t == GateType::KeyInput ||
         t == GateType::Const0 || t == GateType::Const1;
}

bool is_comb_gate(GateType t) { return !is_source(t) && t != GateType::Dff; }

namespace {

void check_arity(GateType t, std::size_t n) {
  bool ok = true;
  switch (t) {
    case GateType::Input:
    case GateType::KeyInput:
    case GateType::Const0:
    case GateType::Const1: ok = (n == 0); break;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Dff: ok = (n == 1); break;
    case GateType::Mux: ok = (n == 3); break;
    default: ok = (n >= 2); break;
  }
  if (!ok) {
    throw std::invalid_argument(std::string("bad fanin count for ") +
                                gate_type_name(t) + ": " + std::to_string(n));
  }
}

/// The 32 bits of a name's hash that by_name_ stores and probes from.
std::uint32_t name_hash(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name) >> 32);
}

}  // namespace

std::size_t Netlist::probe(std::string_view name, std::uint32_t hash) const {
  const std::size_t mask = by_name_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint64_t slot = by_name_[i];
    if (slot == 0) return i;
    if (static_cast<std::uint32_t>(slot >> 32) == hash &&
        names_[static_cast<std::uint32_t>(slot) - 1] == name) {
      return i;
    }
  }
}

void Netlist::grow_index() {
  std::vector<std::uint64_t> old(
      std::max<std::size_t>(16, 2 * by_name_.size()), 0);
  old.swap(by_name_);
  const std::size_t mask = by_name_.size() - 1;
  for (const std::uint64_t slot : old) {
    if (slot == 0) continue;
    std::size_t i = static_cast<std::uint32_t>(slot >> 32) & mask;
    while (by_name_[i] != 0) i = (i + 1) & mask;
    by_name_[i] = slot;
  }
}

SignalId Netlist::add_node(GateType type, std::span<const SignalId> fanins,
                           std::string name, DffInit init) {
  if (name.empty()) {
    name = fresh_name("n");
  }
  if (2 * (size() + 1) > by_name_.size()) grow_index();
  const std::uint32_t hash = name_hash(name);
  const std::size_t slot = probe(name, hash);
  if (by_name_[slot] != 0) {
    throw std::invalid_argument("duplicate signal name: " + name);
  }
  check_arity(type, fanins.size());
  const SignalId id = static_cast<SignalId>(size());
  for (SignalId f : fanins) {
    // A DFF may reference itself (self-loop through the register is legal
    // and is how floating DFFs are created).
    if (f >= id && !(type == GateType::Dff && f == id)) {
      throw std::invalid_argument("fanin id out of range for " + name);
    }
  }
  // `fanins` may view this netlist's own pool, which growing the pool
  // moves: such a view is copied by offset, after the growth.
  const std::size_t begin = fanin_pool_.size();
  const std::less<const SignalId*> before;
  if (!before(fanins.data(), fanin_pool_.data()) &&
      before(fanins.data(), fanin_pool_.data() + begin)) {
    const std::ptrdiff_t from = fanins.data() - fanin_pool_.data();
    fanin_pool_.resize(begin + fanins.size());
    std::copy_n(fanin_pool_.data() + from, fanins.size(),
                fanin_pool_.data() + begin);
  } else {
    fanin_pool_.insert(fanin_pool_.end(), fanins.begin(), fanins.end());
  }
  if (fanin_begin_.empty()) fanin_begin_.push_back(0);  // moved-from
  fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_pool_.size()));
  types_.push_back(type);
  inits_.push_back(init);
  names_.push_back(std::move(name));
  by_name_[slot] = (std::uint64_t{hash} << 32) | (std::uint64_t{id} + 1);
  return id;
}

std::span<SignalId> Netlist::fanins_mut(SignalId s) {
  const std::uint32_t end = fanin_begin_.at(std::size_t{s} + 1);
  return {fanin_pool_.data() + fanin_begin_[s], fanin_pool_.data() + end};
}

SignalId Netlist::add_input(std::string name) {
  const SignalId id =
      add_node(GateType::Input, {}, std::move(name), DffInit::Zero);
  inputs_.push_back(id);
  return id;
}

SignalId Netlist::add_key_input(std::string name) {
  const SignalId id =
      add_node(GateType::KeyInput, {}, std::move(name), DffInit::Zero);
  key_inputs_.push_back(id);
  return id;
}

SignalId Netlist::add_const(bool value, std::string name) {
  return add_node(value ? GateType::Const1 : GateType::Const0, {},
                  std::move(name), DffInit::Zero);
}

SignalId Netlist::add_gate(GateType type, std::span<const SignalId> fanins,
                           std::string name) {
  if (!is_comb_gate(type)) {
    throw std::invalid_argument("add_gate: not a combinational gate type");
  }
  return add_node(type, fanins, std::move(name), DffInit::Zero);
}

SignalId Netlist::add_dff(SignalId d, DffInit init, std::string name) {
  if (d == k_no_signal) {
    d = static_cast<SignalId>(size());  // self-loop: D = own Q
  }
  const SignalId id = add_node(GateType::Dff, std::span<const SignalId>(&d, 1),
                               std::move(name), init);
  dffs_.push_back(id);
  return id;
}

void Netlist::add_output(SignalId s) {
  if (s >= size()) throw std::invalid_argument("add_output: bad id");
  outputs_.push_back(s);
}

SignalId Netlist::add_not(SignalId a, std::string name) {
  return add_gate(GateType::Not, {a}, std::move(name));
}
SignalId Netlist::add_and(SignalId a, SignalId b, std::string name) {
  return add_gate(GateType::And, {a, b}, std::move(name));
}
SignalId Netlist::add_or(SignalId a, SignalId b, std::string name) {
  return add_gate(GateType::Or, {a, b}, std::move(name));
}
SignalId Netlist::add_xor(SignalId a, SignalId b, std::string name) {
  return add_gate(GateType::Xor, {a, b}, std::move(name));
}
SignalId Netlist::add_xnor(SignalId a, SignalId b, std::string name) {
  return add_gate(GateType::Xnor, {a, b}, std::move(name));
}
SignalId Netlist::add_mux(SignalId sel, SignalId a, SignalId b,
                          std::string name) {
  return add_gate(GateType::Mux, {sel, a, b}, std::move(name));
}

SignalId Netlist::find(std::string_view name) const {
  if (by_name_.empty()) return k_no_signal;
  const std::uint64_t slot = by_name_[probe(name, name_hash(name))];
  return slot == 0 ? k_no_signal : static_cast<SignalId>(slot) - 1;
}

SignalId Netlist::dff_input(SignalId dff) const {
  if (type(dff) != GateType::Dff) {
    throw std::invalid_argument("dff_input: not a DFF");
  }
  return fanin_pool_[fanin_begin_[dff]];
}

void Netlist::set_dff_init(SignalId dff, DffInit init) {
  if (type(dff) != GateType::Dff) {
    throw std::invalid_argument("set_dff_init: not a DFF");
  }
  inits_[dff] = init;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.inputs = inputs_.size();
  s.key_inputs = key_inputs_.size();
  s.outputs = outputs_.size();
  s.dffs = dffs_.size();
  for (const GateType t : types_) {
    if (is_comb_gate(t)) ++s.gates;
  }
  return s;
}

std::vector<SignalId> Netlist::all_inputs() const {
  std::vector<SignalId> v = inputs_;
  v.insert(v.end(), key_inputs_.begin(), key_inputs_.end());
  return v;
}

void Netlist::replace_fanin(SignalId gate, SignalId from, SignalId to) {
  bool found = false;
  for (SignalId& f : fanins_mut(gate)) {
    if (f == from) {
      f = to;
      found = true;
    }
  }
  if (!found) {
    throw std::invalid_argument("replace_fanin: " + names_.at(from) +
                                " is not a fanin of " + names_[gate]);
  }
}

void Netlist::replace_all_readers(SignalId old_sig, SignalId new_sig,
                                  const std::vector<SignalId>& except) {
  const auto excluded = [&](SignalId id) {
    return std::find(except.begin(), except.end(), id) != except.end();
  };
  for (SignalId id = 0; id < size(); ++id) {
    if (excluded(id)) continue;
    for (SignalId& f : fanins_mut(id)) {
      if (f == old_sig) f = new_sig;
    }
  }
  for (SignalId& o : outputs_) {
    if (o == old_sig) o = new_sig;
  }
}

void Netlist::set_dff_input(SignalId dff, SignalId d) {
  if (type(dff) != GateType::Dff) {
    throw std::invalid_argument("set_dff_input: not a DFF");
  }
  fanin_pool_[fanin_begin_[dff]] = d;
}

std::string Netlist::fresh_name(const std::string& prefix) {
  for (;;) {
    std::string candidate = prefix + std::to_string(fresh_counter_++);
    if (find(candidate) == k_no_signal) return candidate;
  }
}

void Netlist::check() const {
  const SignalId n = static_cast<SignalId>(size());
  for (SignalId id = 0; id < n; ++id) {
    const std::span<const SignalId> fi = fanins(id);
    check_arity(types_[id], fi.size());
    for (SignalId f : fi) {
      if (f >= n) {
        throw std::logic_error("dangling fanin in " + names_[id]);
      }
    }
    if (find(names_[id]) != id) {
      throw std::logic_error("name table inconsistent for " + names_[id]);
    }
  }
  // Combinational acyclicity: DFS over comb gates; DFF outputs are sources.
  enum class Mark : std::uint8_t { White, Grey, Black };
  std::vector<Mark> mark(n, Mark::White);
  std::vector<SignalId> stack;
  for (SignalId root = 0; root < n; ++root) {
    if (mark[root] != Mark::White) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const SignalId id = stack.back();
      if (mark[id] == Mark::White) {
        mark[id] = Mark::Grey;
        if (is_comb_gate(types_[id])) {
          for (SignalId f : fanins(id)) {
            if (!is_comb_gate(types_[f])) continue;
            if (mark[f] == Mark::Grey) {
              throw std::logic_error("combinational cycle through " +
                                     names_[f]);
            }
            if (mark[f] == Mark::White) stack.push_back(f);
          }
        }
      } else {
        mark[id] = Mark::Black;
        stack.pop_back();
      }
    }
  }
}

Netlist Netlist::clone(const std::string& new_name) const {
  Netlist copy = *this;
  copy.name_ = new_name;
  return copy;
}

}  // namespace cl::netlist
