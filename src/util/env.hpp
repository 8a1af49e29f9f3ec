// Strict environment-variable parsing shared by the bench harnesses and the
// simulation engine. All parsers reject trailing junk (atof would silently
// read "2s" as 2) and warn on stderr when an invalid value is ignored.
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
/// Always >= 1. Shared by bench::Runner, the sharded simulator pool, and
/// the CLI's BBO screening threads (BboOptions::jobs).
std::size_t jobs_from_env();

/// Diversified CDCL workers racing each solver call: CUTELOCK_SAT_PORTFOLIO,
/// default 1 (portfolio off). Seeds AttackBudget::sat_workers; bench
/// harnesses force 1 under CUTELOCK_BENCH_STABLE=1.
std::size_t sat_portfolio_from_env();

/// Live clause sharing between portfolio workers: CUTELOCK_SAT_SHARE,
/// default on; "0" disables. Only meaningful when a race is actually running
/// (portfolio >= 2 workers), so it is trivially off under
/// CUTELOCK_BENCH_STABLE=1 (which forces the portfolio off).
bool sat_share_from_env();

/// Cross-attack oracle observation bank: CUTELOCK_OBS_BANK=1 enables,
/// default off. Deterministic output requires CUTELOCK_JOBS=1 (the bank's
/// content at each attack's start depends on job completion order).
bool obs_bank_from_env();

/// Observation-bank persistence file: CUTELOCK_OBS_BANK_PATH, empty when
/// unset. The serve daemon (and the CLI attack mode, when the bank is on)
/// loads banked oracle facts from this file at start and saves them back on
/// shutdown, so facts survive restarts and can be shipped between machines.
std::string obs_bank_path_from_env();

/// Structural key hints seeding the oracle-guided engine:
/// CUTELOCK_KEY_HINTS=1 makes OgEngine run analysis::infer_key_hints on the
/// locked netlist and install high-confidence bits as startup unit
/// assumptions. Default off, and forced off under CUTELOCK_BENCH_STABLE=1 so
/// the stable tables stay byte-identical.
bool key_hints_from_env();

/// SAT pre/inprocessing: CUTELOCK_SAT_PREPROCESS=1 makes the attacks run
/// bounded variable elimination before search and subsumption/vivification
/// at restart boundaries (seeds AttackBudget::sat_preprocess). Default off,
/// and forced off under CUTELOCK_BENCH_STABLE=1 so the stable tables stay
/// byte-identical.
bool sat_preprocess_from_env();

/// Arena GC trigger fraction: CUTELOCK_SAT_GC_FRAC, default 0.25; collect
/// when that fraction of the clause arena is wasted words. Values > 1 warn
/// and fall back (GC would effectively never run). Read once and cached —
/// every Solver construction consults it.
double sat_gc_frac_from_env();

}  // namespace cl::util
