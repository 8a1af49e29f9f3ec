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
// eval_span_impl switches once per Run and loops over the run's gates;
// within a gate, the vector body covers floor(n / width) registers and the
// scalar policy finishes any remaining tail words, so every lane count is
// legal for every tier (dispatch merely refuses tiers wider than the whole
// lane block). All policies are pure bitwise logic: results are bit-identical
// across tiers by construction, and tests/sim/test_kernels.cpp asserts it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/kernels.hpp"

namespace cl::sim::kernels::impl {

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
// first, scalar tail after; mapn folds one over an N-ary gate's operands,
// register by register. The functor is a generic lambda taking the policy
// as its first argument, so one lambda serves both the vector body and the
// tail.

// GCC's vectorizer flags the dynamic-count (W == 0) tail loops with
// -Waggressive-loop-optimizations: it computes the iteration at which
// `out + w` would overflow PTRDIFF_MAX (2^61 words) and treats it as
// reachable. Lane counts are bounded by real signal-buffer allocations, so
// that iteration cannot occur; suppress the false positive for just these
// helpers.
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

/// out = fold of f over the operand slots fanins[0, arity), complemented
/// when `negate`, left to right like the netlist lists them.
template <class V, std::size_t W, class F>
inline void mapn(std::uint64_t* out, const std::uint32_t* fanins,
                 std::size_t arity, const std::uint64_t* v, std::size_t n,
                 F f, bool negate) {
  const std::size_t count = W == 0 ? n : W;
  std::size_t w = 0;
  if constexpr (V::width > 1) {
    for (; w + V::width <= count; w += V::width) {
      typename V::Reg acc = V::load(v + std::size_t{fanins[0]} * n + w);
      for (std::size_t k = 1; k < arity; ++k) {
        acc = f(V{}, acc, V::load(v + std::size_t{fanins[k]} * n + w));
      }
      V::store(out + w, negate ? V::bnot(acc) : acc);
    }
  }
  for (; w < count; ++w) {
    std::uint64_t acc = v[std::size_t{fanins[0]} * n + w];
    for (std::size_t k = 1; k < arity; ++k) {
      acc = f(ScalarPolicy{}, acc, v[std::size_t{fanins[k]} * n + w]);
    }
    out[w] = negate ? ~acc : acc;
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Evaluate gates [first, last) of one run of opcode `op`: gate g writes
/// slot base + g from its operand slots a[g], b[g], c[g].
template <class V, std::size_t W>
inline void eval_run(Op op, const Stream& s, std::size_t first,
                     std::size_t last, std::uint64_t* v, std::size_t lanes) {
  const std::size_t n = W == 0 ? lanes : W;
  std::uint64_t* out = v + (s.base + first) * n;
  const std::uint32_t* a = s.a + first;
  const std::uint32_t* b = s.b + first;
  const std::uint32_t* c = s.c + first;
  const std::size_t count = last - first;
  const auto at = [v, n](std::uint32_t slot) {
    return v + std::size_t{slot} * n;
  };
  const auto unary = [&](auto f) {
    for (std::size_t i = 0; i < count; ++i) {
      map1<V, W>(out + i * n, at(a[i]), n, f);
    }
  };
  const auto binary = [&](auto f) {
    for (std::size_t i = 0; i < count; ++i) {
      map2<V, W>(out + i * n, at(a[i]), at(b[i]), n, f);
    }
  };
  const auto nary = [&](auto f, bool negate) {
    for (std::size_t i = 0; i < count; ++i) {
      mapn<V, W>(out + i * n, s.pool + a[i], b[i], v, n, f, negate);
    }
  };
  const auto f_buf = [](auto p, auto x) {
    (void)p;
    return x;
  };
  const auto f_not = [](auto p, auto x) { return decltype(p)::bnot(x); };
  const auto f_and = [](auto p, auto x, auto y) {
    return decltype(p)::band(x, y);
  };
  const auto f_nand = [](auto p, auto x, auto y) {
    using P = decltype(p);
    return P::bnot(P::band(x, y));
  };
  const auto f_or = [](auto p, auto x, auto y) {
    return decltype(p)::bor(x, y);
  };
  const auto f_nor = [](auto p, auto x, auto y) {
    using P = decltype(p);
    return P::bnot(P::bor(x, y));
  };
  const auto f_xor = [](auto p, auto x, auto y) {
    return decltype(p)::bxor(x, y);
  };
  const auto f_xnor = [](auto p, auto x, auto y) {
    using P = decltype(p);
    return P::bnot(P::bxor(x, y));
  };
  switch (op) {
    case Op::Buf: unary(f_buf); break;
    case Op::Not: unary(f_not); break;
    case Op::And2: binary(f_and); break;
    case Op::Nand2: binary(f_nand); break;
    case Op::Or2: binary(f_or); break;
    case Op::Nor2: binary(f_nor); break;
    case Op::Xor2: binary(f_xor); break;
    case Op::Xnor2: binary(f_xnor); break;
    case Op::Mux:
      // a=sel, b=data0, c=data1 (see Op): out = sel ? c : b.
      for (std::size_t i = 0; i < count; ++i) {
        map3<V, W>(out + i * n, at(a[i]), at(b[i]), at(c[i]), n,
                   [](auto p, auto sel, auto d0, auto d1) {
                     return decltype(p)::mux(sel, d0, d1);
                   });
      }
      break;
    case Op::AndN: nary(f_and, false); break;
    case Op::NandN: nary(f_and, true); break;
    case Op::OrN: nary(f_or, false); break;
    case Op::NorN: nary(f_or, true); break;
    case Op::XorN: nary(f_xor, false); break;
    case Op::XnorN: nary(f_xor, true); break;
  }
}

template <class V, std::size_t W>
void eval_span_impl(const Stream& stream, std::size_t first, std::size_t last,
                    std::uint64_t* v, std::size_t lanes) {
  // A local copy: the value stores cannot alias it, so its fields stay in
  // registers across gates.
  const Stream s = stream;
  // The first run that ends past `first`; runs are sorted and contiguous.
  const Run* run =
      first == 0 ? s.runs
                 : std::upper_bound(
                       s.runs, s.runs_end, first,
                       [](std::size_t g, const Run& r) { return g < r.end; });
  for (; run != s.runs_end && run->begin < last; ++run) {
    eval_run<V, W>(run->op, s, std::max<std::size_t>(run->begin, first),
                   std::min<std::size_t>(run->end, last), v, lanes);
  }
}

}  // namespace cl::sim::kernels::impl
