// SIMD execution backend of sim::CompiledNetlist.
//
// Every Op kernel exists in three implementations, one per translation unit,
// each compiled with its own instruction-set flags:
//   kernels_generic.cpp  portable scalar 64-bit words (the PR 3 kernels,
//                        with the same fixed-width specializations)
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

#include "netlist/netlist.hpp"
#include "util/cpu.hpp"

namespace cl::sim {

struct Instr;

namespace kernels {

/// Evaluate instrs[*i] for every index i in the span [first, last), in span
/// order, over `values` (signal-major, `lanes` words per signal). N-ary
/// instructions read their fanins from `pool`. CompiledNetlist passes its
/// evaluation order, which groups each level's instructions by opcode so
/// the per-instruction opcode switch repeats one target for long runs.
using EvalSpanFn = void (*)(const Instr* instrs, const std::uint32_t* first,
                            const std::uint32_t* last,
                            const netlist::SignalId* pool,
                            std::uint64_t* values, std::size_t lanes);

// Per-ISA entry points. The AVX functions must only be called on hosts whose
// CPU reports the extension (active dispatch guarantees this); on toolchains
// that cannot build the intrinsics they forward to the generic kernels.
void eval_span_generic(const Instr* instrs, const std::uint32_t* first,
                       const std::uint32_t* last,
                       const netlist::SignalId* pool, std::uint64_t* values,
                       std::size_t lanes);
void eval_span_avx2(const Instr* instrs, const std::uint32_t* first,
                    const std::uint32_t* last, const netlist::SignalId* pool,
                    std::uint64_t* values, std::size_t lanes);
void eval_span_avx512(const Instr* instrs, const std::uint32_t* first,
                      const std::uint32_t* last,
                      const netlist::SignalId* pool, std::uint64_t* values,
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

}  // namespace kernels
}  // namespace cl::sim
