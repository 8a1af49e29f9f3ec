// Serialization regression: write -> read -> write must be a fixpoint for
// .bench, and the round trip must preserve the interface that locking
// correctness depends on — key inputs (names and order) and flip-flops
// (names, D-pin wiring, init values). Runs over catalog circuits both
// unlocked and after Cute-Lock-Str, so keyinput handling is exercised for
// real locked netlists, not just hand-written fixtures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"

namespace cl::netlist {
namespace {

std::vector<Netlist> golden_circuits() {
  std::vector<Netlist> out;
  for (const char* name : {"s27", "s298", "s349"}) {
    const auto circuit = benchgen::make_circuit(name);
    out.push_back(circuit.netlist);

    core::StrOptions options;
    const auto& spec = benchgen::find_spec(name);
    options.num_keys = spec.lock_keys;
    options.key_bits = spec.lock_bits;
    options.locked_ffs = 2;
    options.seed = 7;
    out.push_back(core::cute_lock_str(circuit.netlist, options).locked);
  }
  return out;
}

void expect_same_interface(const Netlist& a, const Netlist& b) {
  const NetlistStats sa = a.stats();
  const NetlistStats sb = b.stats();
  EXPECT_EQ(sa.inputs, sb.inputs);
  EXPECT_EQ(sa.key_inputs, sb.key_inputs);
  EXPECT_EQ(sa.outputs, sb.outputs);
  EXPECT_EQ(sa.dffs, sb.dffs);
  EXPECT_EQ(sa.gates, sb.gates);

  ASSERT_EQ(a.key_inputs().size(), b.key_inputs().size());
  for (std::size_t i = 0; i < a.key_inputs().size(); ++i) {
    EXPECT_EQ(a.signal_name(a.key_inputs()[i]),
              b.signal_name(b.key_inputs()[i]));
  }

  ASSERT_EQ(a.dffs().size(), b.dffs().size());
  for (std::size_t i = 0; i < a.dffs().size(); ++i) {
    const SignalId da = a.dffs()[i];
    const SignalId db = b.dffs()[i];
    EXPECT_EQ(a.signal_name(da), b.signal_name(db));
    EXPECT_EQ(a.dff_init(da), b.dff_init(db));
    EXPECT_EQ(a.signal_name(a.dff_input(da)), b.signal_name(b.dff_input(db)));
  }
}

TEST(RoundtripGolden, BenchWriteReadWriteIsFixpoint) {
  for (const Netlist& nl : golden_circuits()) {
    SCOPED_TRACE(nl.name());
    const std::string first = write_bench_string(nl);
    const Netlist back = read_bench_string(first, nl.name());
    EXPECT_EQ(first, write_bench_string(back));
    expect_same_interface(nl, back);
  }
}

}  // namespace
}  // namespace cl::netlist
