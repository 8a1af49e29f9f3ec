// SIMD execution backend of sim::CompiledNetlist.
//
// The kernels walk a compiled program run by run: one opcode switch per
// Run, then a tight loop over its gates' structure-of-arrays operand slots
// (see sim/compiled.hpp). Every kernel exists in three implementations, one
// per translation unit, each compiled with its own instruction-set flags:
//   kernels_generic.cpp  portable scalar 64-bit words, with fixed-width
//                        specializations for the common lane counts
//   kernels_avx2.cpp     256-bit vectors, 4 lane words per op (-mavx2)
//   kernels_avx512.cpp   512-bit vectors, 8 lane words per op (-mavx512f)
// All three compute identical bits — the ops are pure bitwise logic — so the
// choice is a pure throughput decision, made once per process by
// active_isa(): the strongest tier that (a) the CPU reports at runtime
// (util::cpu), (b) the toolchain could compile (non-x86 builds degrade the
// AVX units to forwarding stubs), and (c) CUTELOCK_SIM_ISA does not veto.
//
// Dispatch is per (ISA, lane count): a narrow buffer cannot feed a wide
// vector, so W < 4 always runs generic and W < 8 at most AVX2, with any
// non-multiple tail words handled scalar inside the SIMD kernels.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/compiled.hpp"
#include "util/cpu.hpp"

namespace cl::sim::kernels {

/// A compiled program as the kernels read it: its runs in evaluation order
/// and its per-gate operand slots, indexed by evaluation position. Gate g
/// writes slot `base + g`. N-ary gates read their `b[g]` operand slots from
/// pool[a[g]...].
struct Stream {
  const Run* runs = nullptr;
  const Run* runs_end = nullptr;
  const std::uint32_t* a = nullptr;
  const std::uint32_t* b = nullptr;
  const std::uint32_t* c = nullptr;
  const std::uint32_t* pool = nullptr;
  std::size_t base = 0;
};

/// Evaluate the gates at evaluation positions [first, last) of `stream`,
/// run by run, over `values` (slot-major, `lanes` words per slot). Runs
/// that straddle the range are clipped to it, so a level can be split
/// anywhere (sharded evaluation does).
using EvalSpanFn = void (*)(const Stream& stream, std::size_t first,
                            std::size_t last, std::uint64_t* values,
                            std::size_t lanes);

// Per-ISA entry points. The AVX functions must only be called on hosts whose
// CPU reports the extension (active dispatch guarantees this); on toolchains
// that cannot build the intrinsics they forward to the generic kernels.
void eval_span_generic(const Stream& stream, std::size_t first,
                       std::size_t last, std::uint64_t* values,
                       std::size_t lanes);
void eval_span_avx2(const Stream& stream, std::size_t first, std::size_t last,
                    std::uint64_t* values, std::size_t lanes);
void eval_span_avx512(const Stream& stream, std::size_t first,
                      std::size_t last, std::uint64_t* values,
                      std::size_t lanes);

/// True when the tier's translation unit was built with real intrinsics
/// (always true for Generic). Distinct from util::cpu_supports, which asks
/// the CPU.
bool compiled_in(util::SimIsa isa);

/// True when the tier can actually execute here: compiled in AND supported
/// by the running CPU.
bool available(util::SimIsa isa);

/// The process-wide active tier: min(CUTELOCK_SIM_ISA when set, best
/// available). Cached after the first call; an invalid or unsupported env
/// request warns once on stderr and falls back to auto-detection.
util::SimIsa active_isa();

/// Test hook: force the active tier. Returns false (and changes nothing)
/// when the tier is not available on this host. Not thread-safe against
/// concurrent eval calls — tests only.
bool set_active_isa(util::SimIsa isa);

/// The kernel for `lanes` words per signal under the active tier (or an
/// explicit one): the strongest tier whose vector width fits the lane count.
EvalSpanFn eval_span_for(std::size_t lanes);
EvalSpanFn eval_span_for(std::size_t lanes, util::SimIsa isa);

}  // namespace cl::sim::kernels
