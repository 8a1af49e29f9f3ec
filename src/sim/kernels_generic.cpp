// Portable scalar kernel tier. This hosts the original PR 3 compiled-engine
// kernels: plain 64-bit word loops, with the hot lane counts instantiated at
// fixed width so the compiler can fully unroll them, and a dynamic fallback
// for everything else. Always compiled in; the baseline the SIMD tiers are
// cross-checked against.
#include "sim/kernels.hpp"
#include "sim/kernels_impl.hpp"

namespace cl::sim::kernels {

bool detail_generic_compiled_in() { return true; }

void eval_span_generic(const Instr* instrs, const std::uint32_t* first,
                       const std::uint32_t* last,
                       const netlist::SignalId* pool, std::uint64_t* values,
                       std::size_t lanes) {
  using impl::ScalarPolicy;
  switch (lanes) {
    case 1:
      impl::eval_span_impl<ScalarPolicy, 1>(instrs, first, last, pool, values,
                                            lanes);
      break;
    case 2:
      impl::eval_span_impl<ScalarPolicy, 2>(instrs, first, last, pool, values,
                                            lanes);
      break;
    case 4:
      impl::eval_span_impl<ScalarPolicy, 4>(instrs, first, last, pool, values,
                                            lanes);
      break;
    case 8:
      impl::eval_span_impl<ScalarPolicy, 8>(instrs, first, last, pool, values,
                                            lanes);
      break;
    case 16:
      impl::eval_span_impl<ScalarPolicy, 16>(instrs, first, last, pool, values,
                                             lanes);
      break;
    default:
      impl::eval_span_impl<ScalarPolicy, 0>(instrs, first, last, pool, values,
                                            lanes);
      break;
  }
}

}  // namespace cl::sim::kernels
