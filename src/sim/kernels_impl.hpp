// Shared kernel bodies for the per-ISA translation units. Each of
// kernels_generic.cpp / kernels_avx2.cpp / kernels_avx512.cpp includes this
// header and instantiates eval_span_impl with its own vector policy — a
// stateless struct describing one register tier:
//
//   static constexpr std::size_t width;   // lane words per register
//   using Reg;                            // register type
//   static Reg load(const std::uint64_t*);
//   static void store(std::uint64_t*, Reg);
//   static Reg band/bor/bxor(Reg, Reg);
//   static Reg bnot(Reg);
//   static Reg mux(Reg sel, Reg d0, Reg d1);   // sel ? d1 : d0, bitwise
//
// Kernels run the vector body over floor(n / width) registers and finish any
// remaining tail words with the scalar policy, so every lane count is legal
// for every tier (dispatch merely refuses tiers wider than the whole lane
// block). All policies are pure bitwise logic: results are bit-identical
// across tiers by construction, and tests/sim/test_kernels.cpp asserts it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/compiled.hpp"

namespace cl::sim::kernels::impl {

using netlist::SignalId;

/// The portable tier, and every SIMD tier's tail handler.
struct ScalarPolicy {
  static constexpr std::size_t width = 1;
  using Reg = std::uint64_t;
  static Reg load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Reg r) { *p = r; }
  static Reg band(Reg a, Reg b) { return a & b; }
  static Reg bor(Reg a, Reg b) { return a | b; }
  static Reg bxor(Reg a, Reg b) { return a ^ b; }
  static Reg bnot(Reg a) { return ~a; }
  static Reg mux(Reg s, Reg d0, Reg d1) { return (s & d1) | (~s & d0); }
};

// map1/map2/map3 apply a bitwise functor lane-word-wise: full registers
// first, scalar tail after. The functor is a generic lambda taking the
// policy as its first argument, so one lambda serves both the vector body
// and the tail.

// GCC's vectorizer flags the dynamic-count (W == 0) tail loops with
// -Waggressive-loop-optimizations: it computes the iteration at which
// `out + w` would overflow PTRDIFF_MAX (2^61 words) and treats it as
// reachable. Lane counts are bounded by real signal-buffer allocations, so
// that iteration cannot occur; suppress the false positive for just these
// three helpers.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Waggressive-loop-optimizations"
#endif

template <class V, std::size_t W, class F>
inline void map1(std::uint64_t* out, const std::uint64_t* a, std::size_t n,
                 F f) {
  (void)n;
  const std::size_t count = W == 0 ? n : W;
  std::size_t w = 0;
  if constexpr (V::width > 1) {
    for (; w + V::width <= count; w += V::width) {
      V::store(out + w, f(V{}, V::load(a + w)));
    }
  }
  for (; w < count; ++w) out[w] = f(ScalarPolicy{}, a[w]);
}

template <class V, std::size_t W, class F>
inline void map2(std::uint64_t* out, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n, F f) {
  (void)n;
  const std::size_t count = W == 0 ? n : W;
  std::size_t w = 0;
  if constexpr (V::width > 1) {
    for (; w + V::width <= count; w += V::width) {
      V::store(out + w, f(V{}, V::load(a + w), V::load(b + w)));
    }
  }
  for (; w < count; ++w) out[w] = f(ScalarPolicy{}, a[w], b[w]);
}

template <class V, std::size_t W, class F>
inline void map3(std::uint64_t* out, const std::uint64_t* a,
                 const std::uint64_t* b, const std::uint64_t* c, std::size_t n,
                 F f) {
  (void)n;
  const std::size_t count = W == 0 ? n : W;
  std::size_t w = 0;
  if constexpr (V::width > 1) {
    for (; w + V::width <= count; w += V::width) {
      V::store(out + w, f(V{}, V::load(a + w), V::load(b + w), V::load(c + w)));
    }
  }
  for (; w < count; ++w) out[w] = f(ScalarPolicy{}, a[w], b[w], c[w]);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

template <class V, std::size_t W>
inline void eval_instr_v(const Instr& in, const SignalId* pool,
                         std::uint64_t* v, std::size_t lanes) {
  const std::size_t n = W == 0 ? lanes : W;
  std::uint64_t* out = v + std::size_t{in.out} * n;
  const auto operand = [&](std::uint32_t s) {
    return v + std::size_t{s} * n;
  };
  const auto f_buf = [](auto p, auto a) {
    (void)p;
    return a;
  };
  const auto f_not = [](auto p, auto a) { return decltype(p)::bnot(a); };
  const auto f_and = [](auto p, auto a, auto b) {
    return decltype(p)::band(a, b);
  };
  const auto f_nand = [](auto p, auto a, auto b) {
    using P = decltype(p);
    return P::bnot(P::band(a, b));
  };
  const auto f_or = [](auto p, auto a, auto b) {
    return decltype(p)::bor(a, b);
  };
  const auto f_nor = [](auto p, auto a, auto b) {
    using P = decltype(p);
    return P::bnot(P::bor(a, b));
  };
  const auto f_xor = [](auto p, auto a, auto b) {
    return decltype(p)::bxor(a, b);
  };
  const auto f_xnor = [](auto p, auto a, auto b) {
    using P = decltype(p);
    return P::bnot(P::bxor(a, b));
  };
  const auto f_mux = [](auto p, auto s, auto d0, auto d1) {
    return decltype(p)::mux(s, d0, d1);
  };
  switch (in.op) {
    case Op::Buf:
      map1<V, W>(out, operand(in.a), n, f_buf);
      break;
    case Op::Not:
      map1<V, W>(out, operand(in.a), n, f_not);
      break;
    case Op::And2:
      map2<V, W>(out, operand(in.a), operand(in.b), n, f_and);
      break;
    case Op::Nand2:
      map2<V, W>(out, operand(in.a), operand(in.b), n, f_nand);
      break;
    case Op::Or2:
      map2<V, W>(out, operand(in.a), operand(in.b), n, f_or);
      break;
    case Op::Nor2:
      map2<V, W>(out, operand(in.a), operand(in.b), n, f_nor);
      break;
    case Op::Xor2:
      map2<V, W>(out, operand(in.a), operand(in.b), n, f_xor);
      break;
    case Op::Xnor2:
      map2<V, W>(out, operand(in.a), operand(in.b), n, f_xnor);
      break;
    case Op::Mux:
      // a=sel, b=data0, c=data1 (see Op): out = sel ? c : b.
      map3<V, W>(out, operand(in.a), operand(in.b), operand(in.c), n, f_mux);
      break;
    case Op::AndN:
    case Op::NandN: {
      map1<V, W>(out, operand(pool[in.a]), n, f_buf);
      for (std::uint32_t f = 1; f < in.b; ++f) {
        map2<V, W>(out, out, operand(pool[in.a + f]), n, f_and);
      }
      if (in.op == Op::NandN) map1<V, W>(out, out, n, f_not);
      break;
    }
    case Op::OrN:
    case Op::NorN: {
      map1<V, W>(out, operand(pool[in.a]), n, f_buf);
      for (std::uint32_t f = 1; f < in.b; ++f) {
        map2<V, W>(out, out, operand(pool[in.a + f]), n, f_or);
      }
      if (in.op == Op::NorN) map1<V, W>(out, out, n, f_not);
      break;
    }
    case Op::XorN:
    case Op::XnorN: {
      map1<V, W>(out, operand(pool[in.a]), n, f_buf);
      for (std::uint32_t f = 1; f < in.b; ++f) {
        map2<V, W>(out, out, operand(pool[in.a + f]), n, f_xor);
      }
      if (in.op == Op::XnorN) map1<V, W>(out, out, n, f_not);
      break;
    }
  }
}

template <class V, std::size_t W>
void eval_span_impl(const Instr* instrs, const std::uint32_t* first,
                    const std::uint32_t* last, const SignalId* pool,
                    std::uint64_t* v, std::size_t lanes) {
  for (const std::uint32_t* i = first; i != last; ++i) {
    eval_instr_v<V, W>(instrs[*i], pool, v, lanes);
  }
}

}  // namespace cl::sim::kernels::impl
