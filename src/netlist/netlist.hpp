// Gate-level sequential netlist IR.
//
// The model follows the ISCAS .bench convention: every signal is produced by
// exactly one node — a primary input, a key input, a constant, a combinational
// gate, or a D flip-flop (whose output is the FF's Q pin). Primary outputs are
// designated signals. This single-driver model keeps structural transforms
// (key-gate insertion, MUX-tree construction, cone rewiring) simple and safe.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cl::netlist {

/// Index of a signal/node inside a Netlist. Stable across appends; transforms
/// that delete nodes invalidate ids (they return a compacted copy instead of
/// mutating in place).
using SignalId = std::uint32_t;
inline constexpr SignalId k_no_signal = 0xffffffffu;

/// Node kinds. Input/KeyInput/Const* are sources; Dff is the only sequential
/// element; the rest are combinational gates.
enum class GateType : std::uint8_t {
  Input,     // primary input, no fanins
  KeyInput,  // locking key bit, no fanins
  Const0,    // constant 0, no fanins
  Const1,    // constant 1, no fanins
  Buf,       // 1 fanin
  Not,       // 1 fanin
  And,       // >=2 fanins
  Nand,      // >=2 fanins
  Or,        // >=2 fanins
  Nor,       // >=2 fanins
  Xor,       // >=2 fanins (parity)
  Xnor,      // >=2 fanins (complemented parity)
  Mux,       // 3 fanins [sel, a, b]: out = sel ? b : a
  Dff,       // 1 fanin [d]; node's value is Q; has an init value
};

/// Human-readable gate name ("AND", "DFF", ...). Matches .bench keywords.
const char* gate_type_name(GateType t);

/// Parse a .bench keyword; case-insensitive. Returns nullopt on unknown.
std::optional<GateType> gate_type_from_name(std::string_view name);

/// True for Input/KeyInput/Const0/Const1 (no fanins).
bool is_source(GateType t);

/// True for combinational gates (everything except sources and Dff).
bool is_comb_gate(GateType t);

/// DFF power-up value.
enum class DffInit : std::uint8_t { Zero = 0, One = 1, X = 2 };

/// One node == one signal, viewed in place: `fanins` are the SignalIds of
/// the driving signals. A view borrows from its netlist's arrays, so an
/// append to that netlist invalidates it.
struct Node {
  const std::string& name;
  GateType type;
  std::span<const SignalId> fanins;
  DffInit init;  // meaningful only for Dff
};

/// Aggregate size statistics (used by reports and tests).
struct NetlistStats {
  std::size_t inputs = 0;
  std::size_t key_inputs = 0;
  std::size_t outputs = 0;
  std::size_t dffs = 0;
  std::size_t gates = 0;  // combinational gates only
};

/// A named sequential netlist.
///
/// Storage is flat: per-signal arrays of type, DFF init and name, and one
/// append-only fanin pool in which signal s owns
/// `[fanin_begin_[s], fanin_begin_[s + 1])`. Names are indexed by an
/// open-addressing table of ids. Adding a node (every add_* call except
/// add_output) may move these arrays, so it invalidates every fanin span,
/// Node view and name reference taken from the netlist before the append.
/// In-place rewiring (replace_fanin, replace_all_readers, set_dff_input)
/// moves nothing.
class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction ------------------------------------------------------

  SignalId add_input(std::string name);
  SignalId add_key_input(std::string name);
  SignalId add_const(bool value, std::string name = "");
  /// Add a combinational gate. Arity is validated against the type. The
  /// fanins are copied into the pool, so `fanins` may view this netlist.
  SignalId add_gate(GateType type, std::span<const SignalId> fanins,
                    std::string name = "");
  SignalId add_gate(GateType type, std::initializer_list<SignalId> fanins,
                    std::string name = "") {
    return add_gate(type, std::span<const SignalId>(fanins), std::move(name));
  }
  /// Add a D flip-flop. Passing k_no_signal as `d` creates a self-looped
  /// ("floating") DFF whose D pin is wired later via set_dff_input — the
  /// standard pattern when the next-state cone is built after the register.
  SignalId add_dff(SignalId d, DffInit init = DffInit::Zero,
                   std::string name = "");
  /// Designate an existing signal as a primary output (duplicates allowed,
  /// matching .bench semantics where OUTPUT lines may repeat a signal).
  void add_output(SignalId s);

  /// Convenience single-output gates.
  SignalId add_not(SignalId a, std::string name = "");
  SignalId add_and(SignalId a, SignalId b, std::string name = "");
  SignalId add_or(SignalId a, SignalId b, std::string name = "");
  SignalId add_xor(SignalId a, SignalId b, std::string name = "");
  SignalId add_xnor(SignalId a, SignalId b, std::string name = "");
  SignalId add_mux(SignalId sel, SignalId a, SignalId b, std::string name = "");

  // ---- access ------------------------------------------------------------

  std::size_t size() const { return types_.size(); }
  /// View of one node; see the class comment for how long it stays valid.
  Node node(SignalId s) const {
    return {names_.at(s), types_[s], fanins(s), inits_[s]};
  }
  GateType type(SignalId s) const { return types_.at(s); }
  const std::string& signal_name(SignalId s) const { return names_.at(s); }
  /// Fanins of `s`, in pin order; valid as long as a node view is.
  std::span<const SignalId> fanins(SignalId s) const {
    const std::uint32_t end = fanin_begin_.at(std::size_t{s} + 1);
    return {fanin_pool_.data() + fanin_begin_[s], fanin_pool_.data() + end};
  }
  /// Every signal's type, indexed by SignalId.
  std::span<const GateType> types() const { return types_; }
  /// Total fanin references (gate fanins plus DFF D pins).
  std::size_t fanin_refs() const { return fanin_pool_.size(); }

  const std::vector<SignalId>& inputs() const { return inputs_; }
  const std::vector<SignalId>& key_inputs() const { return key_inputs_; }
  const std::vector<SignalId>& outputs() const { return outputs_; }
  const std::vector<SignalId>& dffs() const { return dffs_; }

  /// Lookup a signal by name; k_no_signal when absent.
  SignalId find(std::string_view name) const;

  /// D-pin driver of a DFF node.
  SignalId dff_input(SignalId dff) const;
  DffInit dff_init(SignalId dff) const { return inits_.at(dff); }
  void set_dff_init(SignalId dff, DffInit init);

  NetlistStats stats() const;

  /// All primary inputs followed by all key inputs (the full controllable
  /// input vector, in a stable order).
  std::vector<SignalId> all_inputs() const;

  // ---- mutation ----------------------------------------------------------

  /// Re-route one fanin of `gate` from `from` to `to`.
  void replace_fanin(SignalId gate, SignalId from, SignalId to);

  /// Re-route every reader of `old_sig` (gate fanins, DFF D-pins, primary
  /// outputs) to `new_sig`, except fanins of nodes in `except`. Used to
  /// splice key gates / MUX trees onto an existing net.
  void replace_all_readers(SignalId old_sig, SignalId new_sig,
                           const std::vector<SignalId>& except = {});

  /// Change a DFF's D-pin driver.
  void set_dff_input(SignalId dff, SignalId d);

  /// Generate a signal name not yet in use, of the form <prefix><n>.
  std::string fresh_name(const std::string& prefix);

  // ---- integrity ---------------------------------------------------------

  /// Validate arities, name uniqueness, fanin ids, and combinational
  /// acyclicity. Throws std::logic_error describing the first violation.
  void check() const;

  /// Deep copy with a new name.
  Netlist clone(const std::string& new_name) const;

 private:
  SignalId add_node(GateType type, std::span<const SignalId> fanins,
                    std::string name, DffInit init);
  /// Mutable fanins of `s` (in-place rewiring only).
  std::span<SignalId> fanins_mut(SignalId s);
  /// The by_name_ slot holding `name`, or the empty slot where it belongs.
  std::size_t probe(std::string_view name, std::uint32_t hash) const;
  /// Double by_name_ (16 slots at first) and re-place every id.
  void grow_index();

  std::string name_;
  std::vector<GateType> types_;
  std::vector<DffInit> inits_;
  std::vector<std::string> names_;
  std::vector<std::uint32_t> fanin_begin_ = {0};  // size() + 1 offsets
  std::vector<SignalId> fanin_pool_;
  std::vector<SignalId> inputs_;
  std::vector<SignalId> key_inputs_;
  std::vector<SignalId> outputs_;
  std::vector<SignalId> dffs_;
  // Open-addressing name index: power-of-two slots, at most half full,
  // linear probing. A slot holds (name hash << 32) | (id + 1); 0 is empty.
  std::vector<std::uint64_t> by_name_;
  std::uint64_t fresh_counter_ = 0;
};

}  // namespace cl::netlist
