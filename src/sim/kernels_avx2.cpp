// AVX2 kernel tier: 256-bit registers, 4 lane words per op. This file is the
// only one in the library compiled with -mavx2 (see src/CMakeLists.txt), so
// __AVX2__ is defined here exactly when the toolchain accepted that flag; on
// toolchains that did not, the entry point degrades to a forward into the
// generic tier and detail_avx2_compiled_in() reports the truth to dispatch.
//
// Loads and stores are unaligned (loadu/storeu): the SoA buffers are 64-byte
// aligned at the base, but a signal's lane block starts at
// signal * lanes * 8, which is only vector-aligned when lanes cooperates.
// Alignment is a throughput property, never a correctness gate.
#include "sim/kernels.hpp"
#include "sim/kernels_impl.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace cl::sim::kernels {

#if defined(__AVX2__)

namespace {

struct V256 {
  static constexpr std::size_t width = 4;
  using Reg = __m256i;
  static Reg load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, Reg r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), r);
  }
  static Reg band(Reg a, Reg b) { return _mm256_and_si256(a, b); }
  static Reg bor(Reg a, Reg b) { return _mm256_or_si256(a, b); }
  static Reg bxor(Reg a, Reg b) { return _mm256_xor_si256(a, b); }
  static Reg bnot(Reg a) {
    return _mm256_xor_si256(a, _mm256_set1_epi64x(-1));
  }
  static Reg mux(Reg s, Reg d0, Reg d1) {
    // (s & d1) | (~s & d0); andnot computes ~first & second.
    return _mm256_or_si256(_mm256_and_si256(s, d1), _mm256_andnot_si256(s, d0));
  }
};

}  // namespace

bool detail_avx2_compiled_in() { return true; }

void eval_span_avx2(const Stream& stream, std::size_t first,
                    std::size_t last, std::uint64_t* values,
                    std::size_t lanes) {
  switch (lanes) {
    case 4:
      impl::eval_span_impl<V256, 4>(stream, first, last, values, lanes);
      break;
    case 8:
      impl::eval_span_impl<V256, 8>(stream, first, last, values, lanes);
      break;
    case 16:
      impl::eval_span_impl<V256, 16>(stream, first, last, values, lanes);
      break;
    default:
      impl::eval_span_impl<V256, 0>(stream, first, last, values, lanes);
      break;
  }
}

#else  // !__AVX2__

bool detail_avx2_compiled_in() { return false; }

void eval_span_avx2(const Stream& stream, std::size_t first,
                    std::size_t last, std::uint64_t* values,
                    std::size_t lanes) {
  eval_span_generic(stream, first, last, values, lanes);
}

#endif

}  // namespace cl::sim::kernels
