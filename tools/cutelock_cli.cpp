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
//            [--max-depth N] [--max-period 8 (1..64)]
//            [--accept exact|any|approx]
//            [--epsilon 0.05] [--true-key 0101]
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
//            (--workers defaults to CUTELOCK_JOBS, --bank to
//             CUTELOCK_OBS_BANK_PATH)
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
// Each command takes exactly the flags listed for it above; any other flag,
// a flag missing its value, or a malformed number is a usage error that
// names the flag.
//
// Exit codes: 0 on success; attacks return 0 when the defense held and 2
// when a key was recovered (so scripts can assert either way). 64 is a
// usage error (including a malformed attack request, under `attack` and
// `submit` alike), 65 a runtime error (including a lint rejection), 66 an
// unreadable input file, 69 an unreachable daemon.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
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

/// A malformed command line: main prints "cutelock <command>: <what>" and
/// exits 64.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parse a whole decimal string as an unsigned count, naming `flag` on
/// failure.
std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError("--" + flag + " must be a non-negative integer, not '" +
                     text + "'");
  }
  return value;
}

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
    return it == options.end() ? fallback : parse_count(name, it->second);
  }
  double get_seconds(const std::string& name, double fallback) const {
    const auto it = options.find(name);
    if (it == options.end()) return fallback;
    double value = 0;
    if (!util::parse_double_strict(it->second.c_str(), &value) ||
        !(value >= 0)) {
      throw UsageError("--" + name + " must be a non-negative number");
    }
    return value;
  }
};

/// One accepted flag of a command: a switch stands alone, any other flag
/// takes the next token as its value.
struct FlagSpec {
  const char* name;
  bool takes_value;
};

/// Split argv[2..] into positionals and the command's flags ("-o" is
/// "--out"). Throws UsageError on a flag outside `flags` or a value flag
/// with no value.
Args parse(int argc, char** argv, const std::vector<FlagSpec>& flags) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 && a != "-o") {
      args.positional.push_back(a);
      continue;
    }
    const std::string name = (a == "-o") ? "out" : a.substr(2);
    const auto spec =
        std::find_if(flags.begin(), flags.end(),
                     [&](const FlagSpec& f) { return name == f.name; });
    if (spec == flags.end()) throw UsageError("unknown flag " + a);
    if (!spec->takes_value) {
      args.options[name] = "1";
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      args.options[name] = argv[++i];
    } else {
      throw UsageError(a + " needs a value");
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
      options.explicit_keys.push_back(parse_count("keys", v));
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

/// An attack request field and the flag that sets it: the field's name
/// with '-' for '_'. A number field must parse as a non-negative number.
struct RequestFlag {
  const char* name;
  bool number;
};

constexpr RequestFlag k_request_flags[] = {
    {"attack", false},   {"seconds", true},    {"max-iterations", true},
    {"max-depth", true}, {"max-period", true}, {"accept", false},
    {"epsilon", true},   {"true-key", false}};

/// The attack request `attack` and `submit` both send (docs/service.md):
/// both circuits inline plus the attack flags. Returns 0 when built, 64 on
/// a malformed number, 66 when a circuit file cannot be read.
int attack_request(const char* command, const Args& args,
                   util::Json* request) {
  if (args.positional.empty() || !args.flag("oracle")) return usage();
  util::Json& r = *request;
  r = util::Json::object();
  r.set("op", util::Json::string("submit"));
  r.set("job", util::Json::string("attack"));
  // Flags left out take the job's defaults (docs/service.md).
  for (const auto& [flag, number] : k_request_flags) {
    if (!args.flag(flag)) continue;
    std::string field = flag;
    std::replace(field.begin(), field.end(), '-', '_');
    const std::string text = args.get(flag, "");
    double value = 0;
    if (!number) {
      r.set(field, util::Json::string(text));
    } else if (util::parse_double_strict(text.c_str(), &value) && value >= 0) {
      r.set(field, util::Json::number(value));
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
    r.set(field, util::Json::string(std::move(text)));
  }
  return 0;
}

/// Print an attack job's result and return the exit code: 2 when the key
/// was recovered, or under `accept` when the criterion accepted it; else 0.
int print_attack_result(const util::Json& result) {
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
  if (const util::Json* schedule = result.find("schedule")) {
    std::printf("schedule (period %llu):",
                static_cast<unsigned long long>(result.u64_or("period", 0)));
    for (const util::Json& key : schedule->elements()) {
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
  // Facts the criterion did not evaluate are null (attack::to_json).
  for (const char* fact : {"key_exact", "any_key_pass"}) {
    const util::Json* value = result.find(fact);
    if (value != nullptr && value->type() == util::Json::Type::Bool) {
      std::printf(" %s=%s", fact, value->as_bool() ? "yes" : "no");
    }
  }
  const util::Json* rate = result.find("corruption_rate");
  if (rate != nullptr && rate->type() == util::Json::Type::Number) {
    std::printf(" corruption_rate=%.4f", rate->as_number());
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
  util::Json request;
  if (const int rc = attack_request("attack", args, &request); rc != 0) {
    return rc;
  }
  // Bank persistence follows CUTELOCK_OBS_BANK_PATH, the daemon's default
  // --bank: facts from earlier processes prime this attack, and its facts
  // are saved back for the next one.
  attack::set_observation_bank_forced(true);
  const std::string bank_path = util::obs_bank_path_from_env();
  service::load_bank_file(bank_path, "cutelock");
  service::CircuitCache cache;
  util::Json result;
  try {
    result = service::run_attack_job(request, cache, nullptr,
                                     util::jobs_from_env());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cutelock attack: %s\n", e.what());
    return 64;
  }
  service::save_bank_file(bank_path, "cutelock");
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
    options.time_limit_s = args.get_seconds("seconds", 10);
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

/// --port as a TCP port, 0 when absent.
int port_flag(const Args& args) {
  const std::uint64_t port = args.get_u64("port", 0);
  if (port > 65535) throw UsageError("--port must be at most 65535");
  return static_cast<int>(port);
}

int cmd_serve(const Args& args) {
  service::ServerOptions options;
  options.unix_socket = args.get("socket", "");
  options.tcp_port = port_flag(args);
  options.workers = args.get_u64("workers", util::jobs_from_env());
  options.obs_bank_path = args.get("bank", util::obs_bank_path_from_env());
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
    const int port = port_flag(args);
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
    util::Json request = util::Json::object();
    request.set("op", util::Json::string(op));
    if (args.flag("id")) {
      request.set("id", util::Json::number(args.get_u64("id", 0)));
    }
    util::Json response;
    if (!client.request(request, &response, &error)) {
      std::fprintf(stderr, "cutelock submit: %s\n", error.c_str());
      return 69;
    }
    std::printf("%s\n", response.dump().c_str());
    return response.bool_or("ok", false) ? 0 : 65;
  }

  // Attack mode: the request `cutelock attack` runs in-process, submitted
  // and waited on, then printed the same way.
  util::Json request;
  if (const int rc = attack_request("submit", args, &request); rc != 0) {
    return rc;
  }
  util::Json submitted;
  if (!client.request(request, &submitted, &error)) {
    std::fprintf(stderr, "cutelock submit: %s\n", error.c_str());
    return 69;
  }
  if (!submitted.bool_or("ok", false)) {
    std::fprintf(stderr, "cutelock submit: %s\n",
                 submitted.str_or("error", "submit rejected").c_str());
    return 65;
  }
  util::Json wait_request = util::Json::object();
  wait_request.set("op", util::Json::string("wait"));
  wait_request.set("id", util::Json::number(submitted.u64_or("id", 0)));
  util::Json reply;
  if (!client.request(wait_request, &reply, &error)) {
    std::fprintf(stderr, "cutelock submit: %s\n", error.c_str());
    return 69;
  }
  const std::string status = reply.str_or("status", "?");
  if (status != "done") {
    std::fprintf(stderr, "cutelock submit: job %s: %s\n", status.c_str(),
                 reply.str_or("error", "no result").c_str());
    // A malformed request is a usage error, as under `attack`.
    return reply.bool_or("bad_request", false) ? 64 : 65;
  }
  const util::Json* result = reply.find("result");
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

/// `attack`'s flags: --oracle plus one per request field. `submit` takes
/// them after its own.
std::vector<FlagSpec> attack_flags(std::vector<FlagSpec> flags = {}) {
  flags.push_back({"oracle", true});
  for (const RequestFlag& f : k_request_flags) flags.push_back({f.name, true});
  return flags;
}

/// Every command with the flags it takes.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<FlagSpec> flags;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"info", cmd_info, {}},
      {"lock", cmd_lock,
       {{"out", true}, {"k", true}, {"ki", true}, {"ffs", true},
        {"seed", true}, {"single-key", false}, {"keys", true},
        {"scheme", true}}},
      {"attack", cmd_attack, attack_flags()},
      {"analyze", cmd_analyze, {{"seconds", true}, {"no-unate", false}}},
      {"overhead", cmd_overhead, {{"baseline", true}}},
      {"vcd", cmd_vcd, {{"out", true}, {"cycles", true}, {"seed", true}}},
      {"serve", cmd_serve,
       {{"socket", true}, {"port", true}, {"workers", true}, {"bank", true}}},
      {"submit", cmd_submit,
       attack_flags({{"socket", true}, {"port", true}, {"op", true},
                     {"id", true}})},
      {"gen", cmd_gen, {{"out", true}}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  const auto& table = commands();
  const auto command =
      std::find_if(table.begin(), table.end(),
                   [&](const Command& c) { return name == c.name; });
  if (command == table.end()) return usage();
  try {
    return command->run(parse(argc, argv, command->flags));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "cutelock %s: %s\n", command->name, e.what());
    return 64;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cutelock: %s\n", e.what());
    return 65;
  }
}
