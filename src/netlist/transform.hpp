// Structural transforms that return rewritten copies of a netlist.
#pragma once

#include "netlist/netlist.hpp"

namespace cl::netlist {

/// Remove nodes that are neither ports, outputs, DFFs, nor reachable from any
/// output/DFF D-pin. Returns a compacted copy (SignalIds change; names are
/// preserved).
Netlist remove_dangling(const Netlist& nl);

/// Rewrite every MUX gate into AND/OR/NOT gates (for consumers restricted to
/// the classic .bench basis).
Netlist decompose_muxes(const Netlist& nl);

/// Structural hashing: merges syntactically identical gates (same type, same
/// fanin list after canonical sorting for commutative types) and collapses
/// BUFs. Keeps port/output/DFF names.
Netlist strash(const Netlist& nl);

/// Pin one primary input or key input to a constant: the port node is
/// replaced by Const0/Const1 (keeping its name) and dropped from the port
/// lists. The analysis module's SCOPE pass pins each key bit to 0 and to 1
/// and compares what optimize() does to the two variants. Throws
/// std::invalid_argument if `source` is not an Input/KeyInput node.
Netlist pin_signal(const Netlist& nl, SignalId source, bool value);

/// Full-scan model: every DFF Q becomes a primary input ("scan_in_<name>")
/// and every DFF D-pin becomes a primary output. The result is purely
/// combinational — the threat model of the classic oracle-guided SAT attack
/// on circuits with scan-chain access.
Netlist scan_expose(const Netlist& nl);

}  // namespace cl::netlist
