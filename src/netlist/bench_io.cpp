#include "netlist/bench_io.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "netlist/transform.hpp"

#include "util/strings.hpp"

namespace cl::netlist {

namespace {

using util::starts_with;
using util::to_lower;
using util::trim;

struct PendingGate {
  std::string output;
  std::string op;
  std::vector<std::string> args;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("bench:" + std::to_string(line) + ": " + msg);
}

bool is_key_name(const std::string& name) {
  return starts_with(to_lower(name), "keyinput");
}

}  // namespace

Netlist read_bench(std::istream& in, const std::string& name) {
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<PendingGate> gates;
  std::map<std::string, DffInit> init_overrides;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = raw;
    // "# init <sig> <0|1|x>" comments carry DFF power-up values.
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      const auto comment = util::split(line.substr(hash + 1));
      if (comment.size() == 3 && util::iequals(comment[0], "init")) {
        DffInit v = DffInit::X;
        if (comment[2] == "0") v = DffInit::Zero;
        else if (comment[2] == "1") v = DffInit::One;
        init_overrides[comment[1]] = v;
      }
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      // INPUT(x) / OUTPUT(x)
      const std::size_t open = line.find('(');
      const std::size_t close = line.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close < open) {
        fail(line_no, "expected INPUT(...)/OUTPUT(...) or assignment");
      }
      const std::string kw(trim(line.substr(0, open)));
      const std::string arg(trim(line.substr(open + 1, close - open - 1)));
      if (arg.empty()) fail(line_no, "empty port name");
      if (util::iequals(kw, "INPUT")) {
        input_names.push_back(arg);
      } else if (util::iequals(kw, "OUTPUT")) {
        output_names.push_back(arg);
      } else {
        fail(line_no, "unknown directive: " + kw);
      }
      continue;
    }

    // out = OP(a, b, ...)
    PendingGate g;
    g.line = line_no;
    g.output = std::string(trim(line.substr(0, eq)));
    std::string_view rhs = trim(line.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      fail(line_no, "expected OP(args) on right-hand side");
    }
    g.op = std::string(trim(rhs.substr(0, open)));
    for (const auto& a : util::split(rhs.substr(open + 1, close - open - 1), ", \t")) {
      g.args.push_back(a);
    }
    gates.push_back(std::move(g));
  }

  Netlist nl(name);
  // Declare inputs (splitting off key inputs by naming convention).
  for (const std::string& in_name : input_names) {
    if (is_key_name(in_name)) {
      nl.add_key_input(in_name);
    } else {
      nl.add_input(in_name);
    }
  }

  // Two passes: create all gate outputs (so forward references resolve), then
  // connect fanins. DFFs are created in pass one with a placeholder D that is
  // fixed in pass two; combinational gates are created in dependency order.
  // Simpler and fully general: create every signal as a placeholder BUF of
  // itself is not possible, so instead resolve names lazily by building an
  // explicit symbol table first.
  std::map<std::string, std::size_t> gate_by_output;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (!gate_by_output.emplace(gates[i].output, i).second) {
      fail(gates[i].line, "signal defined twice: " + gates[i].output);
    }
  }

  // DFFs first: their outputs are sequential sources, breaking all cycles.
  // They are created floating (self-looped) and wired after all signals exist.
  std::vector<SignalId> dff_ids(gates.size(), k_no_signal);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const PendingGate& g = gates[i];
    const auto type = gate_type_from_name(g.op);
    if (!type) fail(g.line, "unknown gate type: " + g.op);
    if (*type != GateType::Dff) continue;
    if (g.args.size() != 1) fail(g.line, "DFF takes exactly one argument");
    DffInit init = DffInit::Zero;
    if (const auto it = init_overrides.find(g.output); it != init_overrides.end()) {
      init = it->second;
    }
    dff_ids[i] = nl.add_dff(k_no_signal, init, g.output);
  }

  // Combinational gates in topological order via DFS over name references.
  std::vector<std::uint8_t> state(gates.size(), 0);  // 0=new 1=visiting 2=done
  const std::function<SignalId(const std::string&, int)> resolve =
      [&](const std::string& sig, int line) -> SignalId {
    const SignalId existing = nl.find(sig);
    if (existing != k_no_signal) return existing;
    const auto it = gate_by_output.find(sig);
    if (it == gate_by_output.end()) fail(line, "undefined signal: " + sig);
    const std::size_t gi = it->second;
    const PendingGate& g = gates[gi];
    if (state[gi] == 1) fail(g.line, "combinational cycle through " + sig);
    state[gi] = 1;
    const auto type = gate_type_from_name(g.op);
    std::vector<SignalId> fanins;
    fanins.reserve(g.args.size());
    for (const std::string& a : g.args) fanins.push_back(resolve(a, g.line));
    SignalId id = k_no_signal;
    if (*type == GateType::Const0 || *type == GateType::Const1) {
      id = nl.add_const(*type == GateType::Const1, g.output);
    } else {
      // Single-input AND/OR occur in some dumps; treat as BUF.
      GateType t = *type;
      if (fanins.size() == 1 &&
          (t == GateType::And || t == GateType::Or)) {
        t = GateType::Buf;
      }
      if (fanins.size() == 1 && (t == GateType::Nand || t == GateType::Nor)) {
        t = GateType::Not;
      }
      id = nl.add_gate(t, fanins, g.output);
    }
    state[gi] = 2;
    return id;
  };

  for (std::size_t i = 0; i < gates.size(); ++i) {
    const PendingGate& g = gates[i];
    if (dff_ids[i] != k_no_signal) continue;  // created below via resolve
    if (nl.find(g.output) == k_no_signal) resolve(g.output, g.line);
  }
  // Wire DFF D-pins now that every signal exists.
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (dff_ids[i] == k_no_signal) continue;
    const PendingGate& g = gates[i];
    nl.set_dff_input(dff_ids[i], resolve(g.args[0], g.line));
  }

  for (const std::string& out_name : output_names) {
    const SignalId s = nl.find(out_name);
    if (s == k_no_signal) {
      throw std::runtime_error("bench: OUTPUT of undefined signal: " + out_name);
    }
    nl.add_output(s);
  }
  nl.check();
  return nl;
}

Netlist read_bench_string(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  return read_bench(in, name);
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  // Derive the module name from the file stem.
  std::string stem = path;
  if (const auto slash = stem.find_last_of('/'); slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  if (const auto dot = stem.find_last_of('.'); dot != std::string::npos) {
    stem = stem.substr(0, dot);
  }
  return read_bench(in, stem);
}

void write_bench(std::ostream& out, const Netlist& nl) {
  out << "# " << nl.name() << ".bench — generated by cutelock\n";
  const NetlistStats st = nl.stats();
  out << "# inputs=" << st.inputs << " keys=" << st.key_inputs
      << " outputs=" << st.outputs << " dffs=" << st.dffs
      << " gates=" << st.gates << "\n";
  for (SignalId s : nl.inputs()) out << "INPUT(" << nl.signal_name(s) << ")\n";
  for (SignalId s : nl.key_inputs()) out << "INPUT(" << nl.signal_name(s) << ")\n";
  for (SignalId s : nl.outputs()) out << "OUTPUT(" << nl.signal_name(s) << ")\n";
  for (SignalId s : nl.dffs()) {
    out << nl.signal_name(s) << " = DFF(" << nl.signal_name(nl.dff_input(s))
        << ")";
    switch (nl.dff_init(s)) {
      case DffInit::Zero: out << "  # init " << nl.signal_name(s) << " 0"; break;
      case DffInit::One: out << "  # init " << nl.signal_name(s) << " 1"; break;
      case DffInit::X: out << "  # init " << nl.signal_name(s) << " x"; break;
    }
    out << "\n";
  }
  for (SignalId s = 0; s < nl.size(); ++s) {
    const Node n = nl.node(s);
    if (!is_comb_gate(n.type) && n.type != GateType::Const0 &&
        n.type != GateType::Const1) {
      continue;
    }
    if (n.type == GateType::Const0 || n.type == GateType::Const1) {
      out << n.name << " = " << gate_type_name(n.type) << "()\n";
      continue;
    }
    out << n.name << " = " << gate_type_name(n.type) << "(";
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      if (i) out << ", ";
      out << nl.signal_name(n.fanins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Netlist& nl) {
  std::ostringstream out;
  write_bench(out, nl);
  return out.str();
}

void write_bench_file(const std::string& path, const Netlist& nl) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_bench(out, nl);
}

}  // namespace cl::netlist
