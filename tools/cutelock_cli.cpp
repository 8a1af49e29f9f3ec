// cutelock — command-line driver for the library.
//
//   cutelock info <circuit.bench>
//   cutelock lock <circuit.bench> -o <locked.bench> [--k 4] [--ki 4]
//            [--ffs 2] [--seed 1] [--single-key] [--keys 1,3,2,0]
//            [--scheme cl-str|xor|kgate|cac2|latch]
//            (non-default schemes take --seed only and print the correct key
//             plus any decoy key-bit positions)
//   cutelock attack <locked.bench> --oracle <original.bench>
//            [--attack bmc|kc2|rane|sat|appsat|double-dip|bbo|fall|dana|
//             scope|periodic] [--seconds 10] [--max-iterations N]
//            [--max-period 8] [--accept exact|any|approx] [--epsilon 0.05]
//            [--true-key 0101]
//            (runs the daemon's attack job in-process — docs/service.md —
//             so it prints what `submit` to a cold daemon prints)
//            (--accept judges the reported key under the chosen acceptance
//             criterion — docs/locking.md — and the exit code follows that
//             verdict instead of the attack's ground-truth comparison)
//            (sat/appsat/double-dip run the scan-access model: both circuits
//             are scan-exposed first; malformed submissions are rejected by
//             the netlist lint before any solver runs)
//   cutelock analyze <circuit.bench> [--seconds 10] [--no-unate]
//            (netlist lint + SCOPE-style per-key-bit structural inference;
//             exit 0 clean, 1 lint errors)
//   cutelock overhead <circuit.bench> [--baseline <original.bench>]
//   cutelock vcd <circuit.bench> -o <out.vcd> [--cycles 32] [--seed 1]
//   cutelock gen <s27|s1423|b14|...> -o <circuit.bench>   (catalog circuits)
//   cutelock serve [--socket <path> | --port 0] [--workers N]
//            [--bank <obs-bank file>]
//   cutelock submit <locked.bench> --oracle <original.bench>
//            (--socket <path> | --port <p>) [the attack flags above]
//   cutelock submit --op <ping|stats|shutdown|status|wait|cancel> [--id N]
//            (--socket <path> | --port <p>)
//
// serve runs the attack service (docs/service.md): jobs over newline-
// delimited JSON, scheduled on a thread pool, with the observation bank
// forced on so repeated jobs replay oracle facts instead of re-querying.
// submit is the matching client. attack and submit build the same request
// and print its result the same way, so scripts can treat the two
// interchangeably.
//
// Exit codes: 0 on success; attacks return 0 when the defense held and 2
// when a key was recovered (so scripts can assert either way). 64 is a
// usage error (including a malformed attack request), 65 a runtime error
// (including a lint rejection), 66 an unreadable input file, 69 an
// unreachable daemon.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/key_infer.hpp"
#include "analysis/lint.hpp"
#include "attack/observation_bank.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/lock_registry.hpp"
#include "netlist/bench_io.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/vcd.hpp"
#include "tech/overhead.hpp"
#include "util/env.hpp"
#include "util/strings.hpp"

namespace {

using namespace cl;

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : std::stoull(it->second);
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0 || a == "-o") {
      const std::string name = (a == "-o") ? "out" : a.substr(2);
      // Boolean flags have no value; peek at the next token.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.options[name] = argv[++i];
      } else {
        args.options[name] = "1";
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: cutelock <info|lock|attack|analyze|overhead|vcd|serve|"
               "submit> "
               "<file> [options]\n  see the header of tools/cutelock_cli.cpp\n");
  return 64;
}

bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Observation-bank persistence for one-shot attack runs, the daemon's
/// default --bank: with CUTELOCK_OBS_BANK_PATH set, facts from earlier
/// processes prime this attack, and this attack's facts are saved back for
/// the next one.
void maybe_load_bank_file() {
  const std::string path = util::obs_bank_path_from_env();
  if (path.empty()) return;
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return;  // cold start: nothing persisted yet
  probe.close();
  std::string error;
  if (!attack::load_observation_banks(path, &error)) {
    std::fprintf(stderr, "cutelock: warning: ignoring observation-bank file: %s\n",
                 error.c_str());
  }
}

void maybe_save_bank_file() {
  const std::string path = util::obs_bank_path_from_env();
  if (path.empty()) return;
  std::string error;
  if (!attack::save_observation_banks(path, &error)) {
    std::fprintf(stderr,
                 "cutelock: warning: could not save observation banks: %s\n",
                 error.c_str());
  }
}

int cmd_info(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto nl = netlist::read_bench_file(args.positional[0]);
  const auto st = nl.stats();
  std::printf("%s: %zu inputs, %zu key inputs, %zu outputs, %zu FFs, %zu gates\n",
              nl.name().c_str(), st.inputs, st.key_inputs, st.outputs, st.dffs,
              st.gates);
  return 0;
}

int cmd_lock(const Args& args) {
  if (args.positional.empty() || !args.flag("out")) return usage();
  const auto nl = netlist::read_bench_file(args.positional[0]);
  // Registry schemes (xor, kgate, cac2, latch, ...) share one build
  // signature; "cl-str" falls through to the option-rich Cute-Lock-Str path
  // below, which remains the default.
  const std::string scheme = args.get("scheme", "cl-str");
  if (scheme != "cl-str") {
    const lock::RegisteredLock* entry = lock::find_lock(scheme);
    if (entry == nullptr) {
      std::fprintf(stderr, "cutelock lock: unknown --scheme %s (have: %s)\n",
                   scheme.c_str(), lock::lock_names().c_str());
      return 64;
    }
    util::Rng rng(args.get_u64("seed", 1));
    const lock::LockResult locked = entry->build(nl, rng);
    netlist::write_bench_file(args.get("out", ""), locked.locked);
    std::printf("locked %s with %s -> %s\ncorrect key: %s\n", nl.name().c_str(),
                entry->name.c_str(), args.get("out", "").c_str(),
                sim::bits_to_string(locked.correct_key).c_str());
    if (!locked.decoy_key_bits.empty()) {
      std::printf("decoy key bits (any value passes):");
      for (const std::size_t pos : locked.decoy_key_bits) {
        std::printf(" %zu", pos);
      }
      std::printf("\n");
    }
    return 0;
  }
  core::StrOptions options;
  options.num_keys = args.get_u64("k", 4);
  options.key_bits = args.get_u64("ki", 4);
  options.locked_ffs = args.get_u64("ffs", 1);
  options.seed = args.get_u64("seed", 1);
  options.single_key_reduction = args.flag("single-key");
  if (args.flag("keys")) {
    for (const std::string& v : util::split(args.get("keys", ""), ",")) {
      options.explicit_keys.push_back(std::stoull(v));
    }
  }
  const lock::LockResult locked = core::cute_lock_str(nl, options);
  netlist::write_bench_file(args.get("out", ""), locked.locked);
  std::printf("locked %s -> %s\nkey schedule (cycle t expects K[t %% %zu]):",
              nl.name().c_str(), args.get("out", "").c_str(),
              locked.key_schedule.size());
  for (const auto& kv : locked.key_schedule) {
    std::printf(" %llu", static_cast<unsigned long long>(sim::bits_to_u64(kv)));
  }
  std::printf("\n");
  return 0;
}

/// The attack request `attack` and `submit` both send (docs/service.md):
/// both circuits inline plus the attack flags. Returns 0 when built, 64 on
/// a malformed number, 66 when a circuit file cannot be read.
int attack_request(const char* command, const Args& args,
                   service::Json* request) {
  if (args.positional.empty() || !args.flag("oracle")) return usage();
  service::Json& r = *request;
  r = service::Json::object();
  r.set("op", service::Json::string("submit"));
  r.set("job", service::Json::string("attack"));
  // Each flag is the request field of the same name, with '-' for '_';
  // flags left out take the job's defaults (docs/service.md).
  static const std::pair<const char*, bool> k_flags[] = {
      {"attack", false},  {"seconds", true}, {"max-iterations", true},
      {"max-period", true}, {"accept", false}, {"epsilon", true},
      {"true-key", false}};
  for (const auto& [flag, number] : k_flags) {
    if (!args.flag(flag)) continue;
    std::string field = flag;
    std::replace(field.begin(), field.end(), '-', '_');
    const std::string text = args.get(flag, "");
    double value = 0;
    if (!number) {
      r.set(field, service::Json::string(text));
    } else if (util::parse_double_strict(text.c_str(), &value) && value >= 0) {
      r.set(field, service::Json::number(value));
    } else {
      std::fprintf(stderr, "cutelock %s: --%s must be a non-negative number\n",
                   command, flag);
      return 64;
    }
  }
  for (const auto& [field, path] :
       {std::pair{"locked", args.positional[0]},
        std::pair{"oracle", args.get("oracle", "")}}) {
    std::string text;
    if (!read_text_file(path, &text)) {
      std::fprintf(stderr, "cutelock %s: cannot read %s\n", command,
                   path.c_str());
      return 66;
    }
    r.set(field, service::Json::string(std::move(text)));
  }
  return 0;
}

/// Print an attack job's result and return the exit code: 2 when the key
/// was recovered, or under `accept` when the criterion accepted it; else 0.
int print_attack_result(const service::Json& result) {
  std::printf("%s attack: %s (%.3fs)\n", result.str_or("attack", "?").c_str(),
              result.str_or("summary", "?").c_str(),
              result.num_or("seconds", 0.0));
  const std::uint64_t replayed = result.u64_or("replayed_queries", 0);
  const std::uint64_t preloaded = result.u64_or("preloaded_facts", 0);
  if (replayed != 0 || preloaded != 0) {
    std::printf("oracle queries: %llu fresh, %llu replayed from the "
                "observation bank, %llu preloaded facts\n",
                static_cast<unsigned long long>(result.u64_or("fresh_queries", 0)),
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(preloaded));
  }
  if (const service::Json* schedule = result.find("schedule")) {
    std::printf("schedule (period %llu):",
                static_cast<unsigned long long>(result.u64_or("period", 0)));
    for (const service::Json& key : schedule->elements()) {
      std::printf(" %s", key.as_string().c_str());
    }
    std::printf("\n");
  }
  const std::string accept = result.str_or("accept", "");
  if (accept.empty()) return result.str_or("outcome", "") == "Equal" ? 2 : 0;
  // Under an acceptance criterion the exit code follows its verdict instead
  // of the outcome label, which bakes in the one-key premise.
  const bool accepted = result.bool_or("accepted", false);
  std::printf("acceptance (%s): %s", accept.c_str(),
              accepted ? "accepted" : "rejected");
  for (const char* fact : {"key_exact", "any_key_pass"}) {
    if (result.find(fact) != nullptr) {
      std::printf(" %s=%s", fact, result.bool_or(fact, false) ? "yes" : "no");
    }
  }
  if (result.find("corruption_rate") != nullptr) {
    std::printf(" corruption_rate=%.4f", result.num_or("corruption_rate", -1.0));
  }
  if (result.find("accept_detail") != nullptr) {
    std::printf(" (%s)", result.str_or("accept_detail", "").c_str());
  }
  std::printf("\n");
  return accepted ? 2 : 0;
}

/// Runs the daemon's attack job in-process, on a private circuit cache and
/// with the observation bank on as in the daemon, so it prints what a cold
/// daemon prints (an attack that repeats a query replays it from the bank).
int cmd_attack(const Args& args) {
  service::Json request;
  if (const int rc = attack_request("attack", args, &request); rc != 0) {
    return rc;
  }
  attack::set_observation_bank_forced(true);
  maybe_load_bank_file();
  service::CircuitCache cache;
  service::Json result;
  try {
    result = service::run_attack_job(request, cache, nullptr,
                                     util::jobs_from_env());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cutelock attack: %s\n", e.what());
    return 64;
  }
  maybe_save_bank_file();
  return print_attack_result(result);
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto nl = netlist::read_bench_file(args.positional[0]);
  const auto st = nl.stats();
  std::printf("%s: %zu inputs, %zu key inputs, %zu outputs, %zu FFs, "
              "%zu gates\n",
              nl.name().c_str(), st.inputs, st.key_inputs, st.outputs, st.dffs,
              st.gates);

  const analysis::LintReport lint_rep = analysis::lint(nl);
  if (lint_rep.diagnostics.empty()) {
    std::printf("lint: clean\n");
  } else {
    std::printf("lint: %zu error(s), %zu warning(s), %zu info(s)\n%s",
                lint_rep.errors(), lint_rep.warnings(), lint_rep.infos(),
                analysis::format_diagnostics(lint_rep).c_str());
  }

  if (!nl.key_inputs().empty()) {
    analysis::InferOptions options;
    options.profile_unateness = !args.flag("no-unate");
    options.time_limit_s = static_cast<double>(args.get_u64("seconds", 10));
    const analysis::KeyHintReport report =
        analysis::infer_key_hints(nl, options);
    std::printf("\nkey inference (%s):\n", report.summary().c_str());
    for (std::size_t i = 0; i < report.bits.size(); ++i) {
      const analysis::BitHint& h = report.bits[i];
      std::printf("  bit %3zu %-16s role=%-10s verdict=%c conf=%.2f "
                  "unate=%s\n",
                  i, h.name.c_str(), analysis::role_name(h.role),
                  analysis::verdict_char(h.verdict), h.confidence,
                  analysis::unate_name(h.unate));
    }
  }
  return lint_rep.ok() ? 0 : 1;
}

int cmd_overhead(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto nl = netlist::read_bench_file(args.positional[0]);
  const tech::OverheadReport r = tech::analyze_overhead(nl);
  std::printf("%s: power %.2f uW, area %.1f um2, %zu cells, %zu IOs\n",
              nl.name().c_str(), r.power_w * 1e6, r.area_um2, r.cells, r.ios);
  if (args.flag("baseline")) {
    const auto base_nl = netlist::read_bench_file(args.get("baseline", ""));
    const tech::OverheadReport base = tech::analyze_overhead(base_nl);
    std::printf("overhead vs %s: power %+.1f%%, area %+.1f%%, cells %+.1f%%, "
                "IOs %+.1f%%\n",
                base_nl.name().c_str(), r.power_overhead_pct(base),
                r.area_overhead_pct(base), r.cells_overhead_pct(base),
                r.ios_overhead_pct(base));
  }
  return 0;
}

int cmd_gen(const Args& args) {
  if (args.positional.empty() || !args.flag("out")) return usage();
  const auto circuit = benchgen::make_circuit(args.positional[0]);
  netlist::write_bench_file(args.get("out", ""), circuit.netlist);
  const auto st = circuit.netlist.stats();
  std::printf("wrote %s: %zu inputs, %zu outputs, %zu FFs, %zu gates\n",
              args.get("out", "").c_str(), st.inputs, st.outputs, st.dffs,
              st.gates);
  return 0;
}

int cmd_serve(const Args& args) {
  service::ServerOptions options;
  options.unix_socket = args.get("socket", "");
  options.tcp_port = static_cast<int>(args.get_u64("port", 0));
  options.workers = args.get_u64("workers", 0);
  options.obs_bank_path = args.get("bank", "");
  service::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "cutelock serve: %s\n", error.c_str());
    return 69;
  }
  if (!server.socket_path().empty()) {
    std::printf("cutelock serve: listening on %s\n", server.socket_path().c_str());
  } else {
    std::printf("cutelock serve: listening on 127.0.0.1:%d\n", server.port());
  }
  std::fflush(stdout);  // scripts poll this line for the bound address
  server.serve_forever();
  std::printf("cutelock serve: shut down\n");
  return 0;
}

/// 0 = connected, 64 = neither --socket nor --port given (usage), 69 =
/// connect failed (transport).
int connect_client(const Args& args, service::Client* client) {
  std::string error;
  const std::string socket_path = args.get("socket", "");
  if (!socket_path.empty()) {
    if (client->connect_unix(socket_path, &error)) return 0;
  } else {
    const int port = static_cast<int>(args.get_u64("port", 0));
    if (port == 0) {
      std::fprintf(stderr,
                   "cutelock submit: need --socket <path> or --port <port>\n");
      return 64;
    }
    if (client->connect_tcp(port, &error)) return 0;
  }
  std::fprintf(stderr, "cutelock submit: %s\n", error.c_str());
  return 69;
}

int cmd_submit(const Args& args) {
  service::Client client;
  if (const int rc = connect_client(args, &client); rc != 0) return rc;
  std::string error;

  // Raw-op mode: one protocol request, response echoed as JSON.
  const std::string op = args.get("op", "");
  if (!op.empty()) {
    service::Json request = service::Json::object();
    request.set("op", service::Json::string(op));
    if (args.flag("id")) {
      request.set("id", service::Json::number(args.get_u64("id", 0)));
    }
    service::Json response;
    if (!client.request(request, &response, &error)) {
      std::fprintf(stderr, "cutelock submit: %s\n", error.c_str());
      return 69;
    }
    std::printf("%s\n", response.dump().c_str());
    return response.bool_or("ok", false) ? 0 : 65;
  }

  // Attack mode: the request `cutelock attack` runs in-process, submitted
  // and waited on, then printed the same way.
  service::Json request;
  if (const int rc = attack_request("submit", args, &request); rc != 0) {
    return rc;
  }
  service::Json submitted;
  if (!client.request(request, &submitted, &error)) {
    std::fprintf(stderr, "cutelock submit: %s\n", error.c_str());
    return 69;
  }
  if (!submitted.bool_or("ok", false)) {
    std::fprintf(stderr, "cutelock submit: %s\n",
                 submitted.str_or("error", "submit rejected").c_str());
    return 65;
  }
  service::Json wait_request = service::Json::object();
  wait_request.set("op", service::Json::string("wait"));
  wait_request.set("id", service::Json::number(submitted.u64_or("id", 0)));
  service::Json reply;
  if (!client.request(wait_request, &reply, &error)) {
    std::fprintf(stderr, "cutelock submit: %s\n", error.c_str());
    return 69;
  }
  const std::string status = reply.str_or("status", "?");
  if (status != "done") {
    std::fprintf(stderr, "cutelock submit: job %s: %s\n", status.c_str(),
                 reply.str_or("error", "no result").c_str());
    return 65;
  }
  const service::Json* result = reply.find("result");
  if (result == nullptr) {
    std::fprintf(stderr, "cutelock submit: malformed response (no result)\n");
    return 65;
  }
  return print_attack_result(*result);
}

int cmd_vcd(const Args& args) {
  if (args.positional.empty() || !args.flag("out")) return usage();
  const auto nl = netlist::read_bench_file(args.positional[0]);
  util::Rng rng(args.get_u64("seed", 1));
  const std::size_t cycles = args.get_u64("cycles", 32);
  const auto stim = sim::random_stimulus(rng, cycles, nl.inputs().size());
  std::vector<sim::BitVec> keys;
  if (!nl.key_inputs().empty()) {
    keys.push_back(sim::random_bits(rng, nl.key_inputs().size()));
  }
  std::ofstream out(args.get("out", ""));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.get("out", "").c_str());
    return 66;
  }
  sim::write_vcd(out, nl, stim, keys);
  std::printf("wrote %zu cycles to %s\n", cycles, args.get("out", "").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse(argc, argv);
  try {
    if (command == "info") return cmd_info(args);
    if (command == "lock") return cmd_lock(args);
    if (command == "attack") return cmd_attack(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "overhead") return cmd_overhead(args);
    if (command == "vcd") return cmd_vcd(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "submit") return cmd_submit(args);
    if (command == "gen") return cmd_gen(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cutelock: %s\n", e.what());
    return 65;
  }
  return usage();
}
