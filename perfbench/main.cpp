// perfbench: the repository benchmark. Times seeded lock x attack workloads
// end to end with tracing off (--trace 0) or layer by layer with tracing on
// (--trace 1), and checks every cell's verdict against the paper.
//
//   perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//
// A pass sets up every cell, attacks every cell and checks every verdict;
// passes repeat until --seconds have gone by and times are medians over
// passes. The last stdout line is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics"; README.md defines every metric. The
// exit status is 1 when any cell failed and 64 on a usage error.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "runner.hpp"
#include "sim/kernels.hpp"
#include "span.hpp"
#include "util/cpu.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

/// Untraced runs time this many instance sets (sets 0, 1 and 2 of the
/// seed) in whole rounds, one pass per set, repeated until --seconds have
/// gone by. Which instances a run times therefore does not depend on how
/// fast the code is, and attack_s is always a median of three or more
/// passes (a two-pass median is a mean that the cold first pass pulls up).
constexpr std::size_t kInstanceSets = 3;
/// After each untraced pass, its instance set is set up again until the
/// pass's set-ups number at least this many and take at least this long.
/// Set-up samples are thus spread over the run as the passes are, and
/// setup_s is a steady median even when set-up is quick.
constexpr std::size_t kMinSetupsPerPass = 2;
constexpr double kSetupSecondsPerPass = 0.3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed <n>] "
               "[--seconds <s>] [--trace 0|1]\nworkloads:",
               problem.c_str());
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 0);
      if (*value == '\0' || *value == '-' || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(args.seconds >= 0.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage(args.workload.empty() ? "--workload is required"
                                : "unknown workload " + args.workload);
  }
  return args;
}

/// The library reads CUTELOCK_* knobs deep inside (key hints, observation
/// bank, SIM lanes and ISA, SAT portfolio); clear them all so none moves a
/// number. CUTELOCK_BENCH_JSON=0 only stops the Runner writing a file.
void pin_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (text.rfind("CUTELOCK_", 0) == 0) {
      names.push_back(text.substr(0, text.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("CUTELOCK_BENCH_JSON", "0", 1);
}

void print_host() {
  std::printf("host: nproc=%u sim_isa=%s build=%s compiler=%s\n",
              std::thread::hardware_concurrency(),
              cl::util::sim_isa_name(cl::sim::kernels::active_isa()),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::printf("warning: %s build, not Release; timings are not comparable\n",
                PERFBENCH_BUILD_TYPE);
  }
}

std::uint64_t cell_seed(std::uint64_t seed, std::size_t cell,
                        std::uint64_t salt) {
  return (seed * 0x100000001b3ULL + cell) ^ salt;
}

std::string cell_label(const CellSpec& spec) {
  std::string mode = spec.lock.single_key_reduction ? "single-key" : "multi-key";
  return spec.circuit.name + "/" + mode + "/" + family_name(spec.attack);
}

struct CellRun {
  std::unique_ptr<Instance> instance;
  cl::attack::AttackResult result;
  std::string error;  // set-up or attack exception, or failed verdict
  double attack_span_s = 0.0;
  std::uint64_t oracle_patterns = 0;
};

struct Pass {
  double setup_s = 0.0;
  double attack_s = 0.0;
  SetupSpans spans;
  std::vector<CellRun> cells;
};

/// Hands the heap's free pages back to the kernel and restarts the kernel's
/// resident high-water mark, so every set-up starts from the same allocator
/// state and every pass's peak counts only that pass's memory. Where the
/// kernel refuses the restart, the peak is the whole process's.
void release_memory() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << '5';
}

/// Resident high-water mark (VmHWM) since the last release_memory(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

Pass set_up(const Workload& workload, bool traced) {
  release_memory();
  Pass pass;
  pass.cells.resize(workload.cells.size());
  cl::util::Timer timer;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    try {
      pass.cells[i].instance = std::make_unique<Instance>(
          workload.cells[i], traced ? &pass.spans : nullptr);
    } catch (const std::exception& e) {
      pass.cells[i].error = std::string("set-up threw: ") + e.what();
    }
  }
  pass.setup_s = timer.seconds();
  return pass;
}

void attack_cells(const Workload& workload, Pass& pass, bool traced) {
  cl::bench::Runner runner("perfbench_" + workload.name);
  runner.set_threads(workload.workers);
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    if (pass.cells[i].instance == nullptr) continue;
    const CellSpec& spec = workload.cells[i];
    runner.add({"perfbench", spec.circuit.name, family_name(spec.attack),
                static_cast<int>(spec.lock.num_keys),
                static_cast<int>(spec.lock.key_bits)},
               [&spec, &cell = pass.cells[i], traced] {
                 try {
                   Span span(traced ? &cell.attack_span_s : nullptr);
                   cell.result = run_attack(spec, *cell.instance);
                 } catch (const std::exception& e) {
                   cell.error = std::string("attack threw: ") + e.what();
                 }
                 cell.oracle_patterns = cell.instance->oracle->num_queries();
                 return cl::bench::JobOutcome{
                     cl::attack::outcome_label(cell.result.outcome)};
               });
  }
  cl::util::Timer timer;
  runner.run();
  pass.attack_s = timer.seconds();
}

/// Failed cells of the pass; each failure is reported on stderr.
std::size_t check_cells(const Workload& workload, Pass& pass,
                        std::uint64_t seed) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    CellRun& cell = pass.cells[i];
    if (cell.error.empty()) {
      cell.error = check_verdict(workload.cells[i], *cell.instance,
                                 cell.result, cell_seed(seed, i, 0xc4ec));
    }
    if (!cell.error.empty()) {
      ++failed;
      std::fprintf(stderr, "FAIL %s cell %zu %s: %s\n", workload.name.c_str(),
                   i, cell_label(workload.cells[i]).c_str(),
                   cell.error.c_str());
    }
  }
  return failed;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Per-layer metrics of one traced pass whose probes have run.
std::vector<Metric> layer_metrics(const Workload& workload, const Pass& pass,
                                  const ProbeTotals& probes,
                                  double untraced_attack_s) {
  double family_s[4] = {0, 0, 0, 0};
  double cells_s = 0.0;
  std::uint64_t iterations = 0, fresh = 0, batches = 0, na = 0, jobs = 0;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    const CellRun& cell = pass.cells[i];
    if (cell.instance == nullptr) continue;
    ++jobs;
    family_s[static_cast<int>(workload.cells[i].attack)] += cell.attack_span_s;
    cells_s += cell.attack_span_s;
    iterations += cell.result.iterations;
    fresh += cell.result.fresh_queries;
    batches += cell.result.oracle_batches;
    if (cell.result.outcome == cl::attack::Outcome::Timeout) ++na;
  }
  const double workers = static_cast<double>(
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(workload.workers, jobs)));
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  return {
      {"benchgen.make_circuit_s", pass.spans.make_circuit_s, "s"},
      {"core.lock_s", pass.spans.lock_s, "s"},
      {"analysis.lint_s", pass.spans.lint_s, "s"},
      {"sim.compile_s", pass.spans.compile_s, "s"},
      {"attack.int_s", family_s[static_cast<int>(Family::Int)], "s"},
      {"attack.kc2_s", family_s[static_cast<int>(Family::Kc2)], "s"},
      {"attack.rane_s", family_s[static_cast<int>(Family::Rane)], "s"},
      {"attack.bbo_s", family_s[static_cast<int>(Family::Bbo)], "s"},
      {"attack.iterations", count(iterations), "count"},
      {"attack.fresh_queries", count(fresh), "count"},
      {"attack.oracle_batches", count(batches), "count"},
      {"attack.na_cells", count(na), "count"},
      {"bench.runner_utilization",
       pass.attack_s > 0 ? cells_s / (workers * pass.attack_s) : 0.0, "ratio"},
      {"attack.verify_s", probes.verify_s, "s"},
      {"attack.verify_sim_s", probes.verify_sim_s, "s"},
      {"attack.verify_sat_s", probes.verify_sat_s, "s"},
      {"attack.verify_calls", count(probes.verify_calls), "count"},
      {"cnf.fact_encode_s", probes.fact_encode_s, "s"},
      {"cnf.fact_vars", count(probes.fact_vars), "count"},
      {"cnf.fact_clauses", count(probes.fact_clauses), "count"},
      {"cnf.miter_build_s", probes.miter_build_s, "s"},
      {"cnf.miter_vars", count(probes.miter_vars), "count"},
      {"cnf.miter_clauses", count(probes.miter_clauses), "count"},
      {"sat.solve_s", probes.solve_s, "s"},
      {"sat.conflicts", count(probes.conflicts), "count"},
      {"sat.propagations", count(probes.propagations), "count"},
      {"sim.oracle_query_s", probes.oracle_query_s, "s"},
      {"sim.oracle_patterns", count(probes.oracle_patterns), "count"},
      {"trace.overhead_s", pass.attack_s - untraced_attack_s, "s"},
      {"trace.coverage", cells_s > 0 ? probes.covered_s() / cells_s : 0.0,
       "ratio"},
  };
}

/// Element-wise median of per-pass metric lists (every list has the same
/// names in the same order).
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out = passes.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(pass[m].value);
    out[m].value = median(values);
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, r.ptr);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Workload& workload, std::size_t failed_cells) {
    attempted += workload.cells.size();
    failed += failed_cells;
  }
};

/// "circuit/mode/attack=verdict" for every cell of the pass.
std::string verdicts(const Workload& workload, const Pass& pass) {
  std::string out;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    const CellRun& cell = pass.cells[i];
    out += ' ';
    out += cell_label(workload.cells[i]);
    out += '=';
    out += cell.instance == nullptr
               ? "SETUP-ERROR"
               : cl::attack::outcome_label(cell.result.outcome);
  }
  return out;
}

int report(const std::string& last_verdicts, const Tally& tally,
           const std::vector<Metric>& metrics) {
  std::printf("verdicts:%s\n", last_verdicts.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit);
  }
  std::printf("verdict_error_rate: %s (%llu failed of %llu cells attempted)\n",
              json_number(static_cast<double>(tally.failed) /
                          static_cast<double>(tally.attempted))
                  .c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return tally.failed == 0 ? 0 : 1;
}

int run_untraced(const Args& args) {
  std::vector<Workload> sets;
  for (std::size_t s = 0; s < kInstanceSets; ++s) {
    sets.push_back(make_workload(args.workload, args.seed, s));
  }
  cl::util::Timer clock;
  std::vector<double> setup_s, attack_s, peak_mb;
  Tally tally;
  std::string last_verdicts;
  do {
    for (const Workload& workload : sets) {
      double pass_setup_s = 0.0;
      {
        Pass pass = set_up(workload, false);
        attack_cells(workload, pass, false);
        peak_mb.push_back(peak_rss_mb());
        tally.add(workload, check_cells(workload, pass, args.seed));
        setup_s.push_back(pass.setup_s);
        attack_s.push_back(pass.attack_s);
        pass_setup_s = pass.setup_s;
        std::printf("pass %zu: setup_s %s attack_s %s peak_rss_mb %s\n",
                    attack_s.size(), json_number(pass.setup_s).c_str(),
                    json_number(pass.attack_s).c_str(),
                    json_number(peak_mb.back()).c_str());
        last_verdicts = verdicts(workload, pass);
      }
      for (std::size_t n = 1;
           n < kMinSetupsPerPass || pass_setup_s < kSetupSecondsPerPass; ++n) {
        setup_s.push_back(set_up(workload, false).setup_s);
        pass_setup_s += setup_s.back();
      }
    }
  } while (clock.seconds() < args.seconds);
  std::printf("passes: %zu, set-ups: %zu\n", attack_s.size(), setup_s.size());
  return report(last_verdicts, tally,
                {{"attack_s", median(attack_s), "s"},
                 {"setup_s", median(setup_s), "s"},
                 {"peak_rss_mb", median(peak_mb), "MB"}});
}

/// Traced runs repeat one instance set (set 0 of the seed), so every
/// counter is the same in each pair and times are medians over pairs.
int run_traced(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed, 0);
  cl::util::Timer clock;
  std::vector<std::vector<Metric>> samples;
  Tally tally;
  std::string last_verdicts;
  do {
    // The untraced twin of the traced pass: their attack phases differ only
    // by the spans, which is the tracing overhead.
    double untraced_attack_s = 0.0;
    {
      Pass base = set_up(workload, false);
      attack_cells(workload, base, false);
      tally.add(workload, check_cells(workload, base, args.seed));
      untraced_attack_s = base.attack_s;
    }
    Pass pass = set_up(workload, true);
    attack_cells(workload, pass, true);
    std::size_t failed = check_cells(workload, pass, args.seed);
    ProbeTotals probes;
    for (std::size_t i = 0; i < workload.cells.size(); ++i) {
      CellRun& cell = pass.cells[i];
      if (!cell.error.empty()) continue;
      try {
        probe_cell(workload.cells[i], *cell.instance, cell.result,
                   cell.oracle_patterns, cell_seed(args.seed, i, 0x9b0be),
                   probes);
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "FAIL %s cell %zu %s: probe threw: %s\n",
                     workload.name.c_str(), i,
                     cell_label(workload.cells[i]).c_str(), e.what());
      }
    }
    tally.add(workload, failed);
    samples.push_back(layer_metrics(workload, pass, probes, untraced_attack_s));
    last_verdicts = verdicts(workload, pass);
  } while (clock.seconds() < args.seconds);
  std::printf("traced pairs: %zu\n", samples.size());
  return report(last_verdicts, tally, median_metrics(samples));
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();
  const Args args = parse_args(argc, argv);
  print_host();
  const Workload workload = make_workload(args.workload, args.seed, 0);
  std::printf("workload: %s, seed %llu, %zu cells, %zu worker(s), trace %d\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              workload.cells.size(), workload.workers, args.trace ? 1 : 0);
  std::fflush(stdout);
  return args.trace ? run_traced(args) : run_untraced(args);
}
