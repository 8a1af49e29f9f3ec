// Strict environment-variable parsing for the entry points (the CLI, the
// bench harnesses, `cutelock serve`) and for the few process-wide values the
// library reads once: the SIMD kernel tier, the simulator pool width and the
// arena GC fraction. All parsers reject trailing junk (atof would silently read
// "2s" as 2) and warn on stderr when an invalid value is ignored.
#pragma once

#include <cstddef>
#include <string>

namespace cl::util {

/// Parse the whole string as a finite double. Returns false on junk,
/// trailing characters, range errors, or inf/nan.
bool parse_double_strict(const char* text, double* out);

/// Parse the whole string as a non-negative integer.
bool parse_size_strict(const char* text, std::size_t* out);

/// True iff the variable is set to exactly "1"; "0" and unset are false.
/// Anything else ("true", "yes", trailing junk) warns on stderr and is
/// treated as off.
bool env_flag(const char* name);

/// Value of `name` as a positive double, or `fallback` when unset. Invalid
/// values (junk, <= 0) warn on stderr and fall back.
double env_double_or(const char* name, double fallback);

/// Value of `name` as a positive integer, or `fallback` when unset. Invalid
/// values (junk, 0) warn on stderr and fall back.
std::size_t env_size_or(const char* name, std::size_t fallback);

/// Worker-thread count: CUTELOCK_JOBS, or hardware_concurrency when unset.
/// Always >= 1. Shared by bench::Runner, the sharded simulator pool, the
/// CLI's BBO screening threads (BboOptions::jobs) and `cutelock serve`'s
/// --workers default.
std::size_t jobs_from_env();

/// Cross-attack oracle observation bank: CUTELOCK_OBS_BANK=1 makes
/// bench::Runner switch it on, default off. Deterministic output requires
/// CUTELOCK_JOBS=1 (the bank's content at each attack's start depends on job
/// completion order).
bool obs_bank_from_env();

/// Observation-bank persistence file: CUTELOCK_OBS_BANK_PATH, empty when
/// unset. `cutelock serve` (as its --bank default) and `cutelock attack`
/// load banked oracle facts from this file at start and save them back on
/// shutdown, so facts survive restarts and can be shipped between machines.
std::string obs_bank_path_from_env();

/// Arena GC trigger fraction: CUTELOCK_SAT_GC_FRAC, default 0.25; collect
/// when that fraction of the clause arena is wasted words. Values > 1 warn
/// and fall back (GC would effectively never run). Read once and cached —
/// every Solver construction consults it.
double sat_gc_frac_from_env();

}  // namespace cl::util
