// Portable scalar kernel tier: plain 64-bit word loops, with the hot lane
// counts instantiated at fixed width so the compiler can fully unroll them,
// and a dynamic fallback for everything else. Always compiled in; the
// baseline the SIMD tiers are cross-checked against.
#include "sim/kernels.hpp"
#include "sim/kernels_impl.hpp"

namespace cl::sim::kernels {

bool detail_generic_compiled_in() { return true; }

void eval_span_generic(const Stream& stream, std::size_t first,
                       std::size_t last, std::uint64_t* values,
                       std::size_t lanes) {
  using impl::ScalarPolicy;
  using impl::eval_span_impl;
  switch (lanes) {
    case 1:
      eval_span_impl<ScalarPolicy, 1>(stream, first, last, values, lanes);
      break;
    case 2:
      eval_span_impl<ScalarPolicy, 2>(stream, first, last, values, lanes);
      break;
    case 4:
      eval_span_impl<ScalarPolicy, 4>(stream, first, last, values, lanes);
      break;
    case 8:
      eval_span_impl<ScalarPolicy, 8>(stream, first, last, values, lanes);
      break;
    case 16:
      eval_span_impl<ScalarPolicy, 16>(stream, first, last, values, lanes);
      break;
    default:
      eval_span_impl<ScalarPolicy, 0>(stream, first, last, values, lanes);
      break;
  }
}

}  // namespace cl::sim::kernels
