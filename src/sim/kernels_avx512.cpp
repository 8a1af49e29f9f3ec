// AVX-512 kernel tier: 512-bit registers, 8 lane words per op. Compiled with
// -mavx512f (only this file — see src/CMakeLists.txt); only foundation
// instructions are used, so AVX-512F alone gates the tier. Mux collapses to a
// single vpternlogq: for operands (sel, d1, d0) the truth table of
// (sel & d1) | (~sel & d0) is imm8 0xCA.
//
// Unaligned loads/stores throughout, same rationale as the AVX2 tier.
#include "sim/kernels.hpp"
#include "sim/kernels_impl.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace cl::sim::kernels {

#if defined(__AVX512F__)

namespace {

struct V512 {
  static constexpr std::size_t width = 8;
  using Reg = __m512i;
  static Reg load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, Reg r) { _mm512_storeu_si512(p, r); }
  static Reg band(Reg a, Reg b) { return _mm512_and_si512(a, b); }
  static Reg bor(Reg a, Reg b) { return _mm512_or_si512(a, b); }
  static Reg bxor(Reg a, Reg b) { return _mm512_xor_si512(a, b); }
  static Reg bnot(Reg a) {
    // ~a as a one-instruction ternary log (0x55 = NOT of the first operand).
    return _mm512_ternarylogic_epi64(a, a, a, 0x55);
  }
  static Reg mux(Reg s, Reg d0, Reg d1) {
    return _mm512_ternarylogic_epi64(s, d1, d0, 0xCA);
  }
};

}  // namespace

bool detail_avx512_compiled_in() { return true; }

void eval_span_avx512(const Stream& stream, std::size_t first,
                      std::size_t last, std::uint64_t* values,
                      std::size_t lanes) {
  switch (lanes) {
    case 8:
      impl::eval_span_impl<V512, 8>(stream, first, last, values, lanes);
      break;
    case 16:
      impl::eval_span_impl<V512, 16>(stream, first, last, values, lanes);
      break;
    default:
      impl::eval_span_impl<V512, 0>(stream, first, last, values, lanes);
      break;
  }
}

#else  // !__AVX512F__

bool detail_avx512_compiled_in() { return false; }

void eval_span_avx512(const Stream& stream, std::size_t first,
                      std::size_t last, std::uint64_t* values,
                      std::size_t lanes) {
  eval_span_avx2(stream, first, last, values, lanes);
}

#endif

}  // namespace cl::sim::kernels
