// Integration tests for the attack service: a real Server on a Unix socket
// in a temp directory, driven through the real Client. Covers the job
// lifecycle (submit/wait/status/cancel), per-job budgets, the acceptance
// property that a resubmitted attack replays oracle facts from the
// observation bank (fresh queries strictly below the cold run, identical
// verdict), error paths, and save-on-shutdown persistence.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "attack/observation_bank.hpp"
#include "attack/seq_attack.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"
#include "netlist/bench_io.hpp"
#include "service/client.hpp"
#include "util/rng.hpp"

namespace cl::service {
namespace {

namespace fs = std::filesystem;

struct LockedPair {
  std::string locked_text;
  std::string original_text;
};

/// A Cute-Lock-Str instance over s27 as wire-ready bench text. Different
/// seeds give structurally different locks, so each test that needs a cold
/// observation bank picks its own seed (the process-wide bank registry is
/// never cleared).
LockedPair s27_pair(std::uint64_t seed, std::size_t k = 4, std::size_t ki = 4) {
  const netlist::Netlist nl = benchgen::make_circuit("s27").netlist;
  core::StrOptions options;
  options.num_keys = k;
  options.key_bits = ki;
  options.locked_ffs = 1;
  options.seed = seed;
  const lock::LockResult lr = core::cute_lock_str(nl, options);
  return {netlist::write_bench_string(lr.locked),
          netlist::write_bench_string(nl)};
}

Json attack_request(const LockedPair& pair, const std::string& mode,
                    double seconds = 30.0) {
  Json request = Json::object();
  request.set("op", Json::string("submit"));
  request.set("job", Json::string("attack"));
  request.set("locked", Json::string(pair.locked_text));
  request.set("oracle", Json::string(pair.original_text));
  request.set("attack", Json::string(mode));
  request.set("seconds", Json::number(seconds));
  return request;
}

/// An attack result without its wall time and cache hits: the fields that
/// must not depend on where the job ran.
Json placeless(const Json& result) {
  Json out = Json::object();
  for (const auto& [field, value] : result.items()) {
    if (field != "seconds" && field != "cache_hits") out.set(field, value);
  }
  return out;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cutelock_service_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string socket_path() const { return (dir_ / "cl.sock").string(); }

  /// Start a server on the fixture socket; registers no teardown — the
  /// Server destructor stops it.
  void start(Server& server) {
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_TRUE(server.running());
  }

  Json rpc(Client& client, const Json& request) {
    Json response;
    std::string error;
    EXPECT_TRUE(client.request(request, &response, &error)) << error;
    return response;
  }

  /// submit + wait, returning the wait response.
  Json submit_and_wait(Client& client, const Json& request) {
    const Json submitted = rpc(client, request);
    EXPECT_TRUE(submitted.bool_or("ok", false)) << submitted.dump();
    Json wait = Json::object();
    wait.set("op", Json::string("wait"));
    wait.set("id", Json::number(submitted.u64_or("id", 0)));
    return rpc(client, wait);
  }

  fs::path dir_;
};

TEST_F(ServiceTest, PingStatsAndProtocolErrorsOverTheSocket) {
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 2;
  Server server(options);
  start(server);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  Json ping = Json::object();
  ping.set("op", Json::string("ping"));
  EXPECT_TRUE(rpc(client, ping).bool_or("ok", false));

  Json stats = Json::object();
  stats.set("op", Json::string("stats"));
  const Json s = rpc(client, stats);
  EXPECT_TRUE(s.bool_or("ok", false));
  ASSERT_NE(s.find("jobs"), nullptr);
  EXPECT_EQ(s.find("jobs")->u64_or("submitted", 99), 0u);

  Json bogus = Json::object();
  bogus.set("op", Json::string("frobnicate"));
  const Json rejected = rpc(client, bogus);
  EXPECT_FALSE(rejected.bool_or("ok", true));
  EXPECT_NE(rejected.str_or("error", "").find("unknown op"), std::string::npos);

  Json missing = Json::object();
  missing.set("op", Json::string("status"));
  missing.set("id", Json::number(std::uint64_t{777}));
  EXPECT_FALSE(rpc(client, missing).bool_or("ok", true));

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServiceTest, TcpLoopbackServesTheSameProtocol) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.workers = 1;
  Server server(options);
  start(server);
  ASSERT_GT(server.port(), 0);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_tcp(server.port(), &error)) << error;
  Json ping = Json::object();
  ping.set("op", Json::string("ping"));
  EXPECT_TRUE(rpc(client, ping).bool_or("ok", false));
}

TEST_F(ServiceTest, AttackJobMatchesInProcessRunAndResubmissionReplays) {
  const LockedPair pair = s27_pair(0xc01d);

  // In-process reference run, no bank: what the one-shot CLI would report.
  attack::AttackResult reference;
  {
    const netlist::Netlist locked =
        netlist::read_bench_string(pair.locked_text, "locked");
    const netlist::Netlist original =
        netlist::read_bench_string(pair.original_text, "original");
    attack::SequentialOracle oracle(original);
    attack::AttackBudget budget;
    budget.time_limit_s = 30.0;
    reference = attack::bmc_attack(locked, oracle, budget);
    ASSERT_GT(reference.fresh_queries, 0u);
  }

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 2;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  // Cold submission: empty bank, so the job must walk the exact same path
  // as the in-process run — same verdict, same DIP count, same queries.
  const Json cold = submit_and_wait(client, attack_request(pair, "bmc"));
  ASSERT_EQ(cold.str_or("status", "?"), "done") << cold.dump();
  const Json* cr = cold.find("result");
  ASSERT_NE(cr, nullptr);
  EXPECT_EQ(cr->str_or("outcome", ""),
            attack::outcome_label(reference.outcome));
  EXPECT_EQ(cr->u64_or("iterations", 0), reference.iterations);
  EXPECT_EQ(cr->u64_or("fresh_queries", 0), reference.fresh_queries);
  EXPECT_EQ(cr->u64_or("replayed_queries", 1), 0u);
  EXPECT_EQ(cr->u64_or("preloaded_facts", 1), 0u);

  // Resubmission: the bank now holds the cold run's facts. Same verdict,
  // strictly fewer fresh oracle queries — the acceptance property.
  const Json warm = submit_and_wait(client, attack_request(pair, "bmc"));
  ASSERT_EQ(warm.str_or("status", "?"), "done") << warm.dump();
  const Json* wr = warm.find("result");
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(wr->str_or("outcome", ""), cr->str_or("outcome", "x"));
  EXPECT_LT(wr->u64_or("fresh_queries", 99), reference.fresh_queries);
  EXPECT_GT(wr->u64_or("replayed_queries", 0) +
                wr->u64_or("preloaded_facts", 0),
            0u);
  // The circuit cache served the resubmission without re-parsing.
  EXPECT_GT(wr->u64_or("cache_hits", 0), 0u);

  Json stats = Json::object();
  stats.set("op", Json::string("stats"));
  const Json s = rpc(client, stats);
  EXPECT_EQ(s.find("jobs")->u64_or("done", 0), 2u);
  EXPECT_GT(s.find("observation_bank")->u64_or("facts", 0), 0u);
  EXPECT_GT(s.find("circuit_cache")->u64_or("hits", 0), 0u);
}

TEST_F(ServiceTest, EveryAttackModeRunsAsADaemonJobLikeInProcess) {
  // Scan-model modes get an XOR lock (it adds no state, so the scan
  // interfaces match); the others get Cute-Lock-Str, one lock per mode.
  // The observation bank is process-wide, so an in-process run would warm
  // the daemon's bank for the same lock: both sides run without one here,
  // and the comparison sees the job function alone. (The CLI serve test
  // compares `attack` with a cold daemon from separate processes.)
  const netlist::Netlist nl = benchgen::make_circuit("s27").netlist;
  const std::vector<AttackModeInfo> modes = attack_modes();
  ASSERT_EQ(modes.size(), 11u);
  std::vector<Json> requests;
  std::vector<Json> in_process;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    LockedPair pair = s27_pair(0x3000 + i);
    if (modes[i].scan_model) {
      util::Rng rng(i);
      const lock::LockResult lr = lock::xor_lock(nl, 3 + i, rng);
      pair = {netlist::write_bench_string(lr.locked),
              netlist::write_bench_string(nl)};
    }
    requests.push_back(attack_request(pair, modes[i].name, 20.0));
    CircuitCache cache;
    in_process.push_back(run_attack_job(requests.back(), cache, nullptr, 1));
  }

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 2;
  options.use_observation_bank = false;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const Json done = submit_and_wait(client, requests[i]);
    ASSERT_EQ(done.str_or("status", "?"), "done")
        << modes[i].name << ": " << done.dump();
    ASSERT_NE(done.find("result"), nullptr);
    EXPECT_EQ(placeless(*done.find("result")).dump(),
              placeless(in_process[i]).dump())
        << modes[i].name;
  }
}

TEST_F(ServiceTest, MalformedAttackRequestFailsOnItsFieldBeforeAnyCircuit) {
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  // No "locked" field at all: each request must fail on its own bad field,
  // not on the missing circuit.
  for (const auto& [field, value, needle] :
       {std::tuple{"attack", "nope", "unknown mode \"nope\""},
        std::tuple{"accept", "bogus", "\"accept\""},
        std::tuple{"true_key", "01x0", "\"true_key\""}}) {
    Json request = Json::object();
    request.set("op", Json::string("submit"));
    request.set("job", Json::string("attack"));
    request.set("accept", Json::string("any"));
    request.set(field, Json::string(value));
    const Json done = submit_and_wait(client, request);
    EXPECT_EQ(done.str_or("status", "?"), "error") << done.dump();
    EXPECT_NE(done.str_or("error", "").find(needle), std::string::npos)
        << done.dump();

    CircuitCache cache;
    EXPECT_THROW(run_attack_job(request, cache, nullptr, 1),
                 std::invalid_argument)
        << field;
  }
}

TEST_F(ServiceTest, ConcurrentJobsCarryTheirOwnBudgets) {
  // Two structurally different instances in flight together, one of them
  // with an iteration budget so small it must time out while the other
  // concludes: per-job AttackBudgets, not a shared one.
  const LockedPair quick = s27_pair(0xaaa1);
  const LockedPair starved = s27_pair(0xbbb2);

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 2;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  Json starved_request = attack_request(starved, "bmc");
  starved_request.set("max_iterations", Json::number(std::uint64_t{0}));
  const Json a = rpc(client, attack_request(quick, "bmc"));
  const Json b = rpc(client, starved_request);
  ASSERT_TRUE(a.bool_or("ok", false));
  ASSERT_TRUE(b.bool_or("ok", false));

  Json wait_a = Json::object();
  wait_a.set("op", Json::string("wait"));
  wait_a.set("id", Json::number(a.u64_or("id", 0)));
  Json wait_b = Json::object();
  wait_b.set("op", Json::string("wait"));
  wait_b.set("id", Json::number(b.u64_or("id", 0)));

  const Json ra = rpc(client, wait_a);
  const Json rb = rpc(client, wait_b);
  ASSERT_EQ(ra.str_or("status", "?"), "done") << ra.dump();
  ASSERT_EQ(rb.str_or("status", "?"), "done") << rb.dump();
  EXPECT_NE(ra.find("result")->str_or("outcome", ""), "N/A");
  EXPECT_EQ(rb.find("result")->str_or("outcome", ""), "N/A");  // timeout
}

TEST_F(ServiceTest, CancelAbortsAQueuedJob) {
  // One worker, and the queue head is an attack on a four-digit-gate ITC'99
  // circuit with a 2 s wall budget: the worker is pinned long enough that
  // cancelling the queued job behind it is race-free for any realistic
  // scheduler hiccup. The cancelled job must come back "cancelled" without
  // ever running its attack.
  const netlist::Netlist big = benchgen::make_circuit("b14").netlist;
  core::StrOptions big_options;
  big_options.num_keys = 4;
  big_options.key_bits = 4;
  big_options.seed = 7;
  const lock::LockResult big_lock = core::cute_lock_str(big, big_options);
  LockedPair slow{netlist::write_bench_string(big_lock.locked),
                  netlist::write_bench_string(big)};
  const LockedPair fast = s27_pair(0xccc3);

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  const Json a = rpc(client, attack_request(slow, "bmc", 2.0));
  ASSERT_TRUE(a.bool_or("ok", false)) << a.dump();
  const Json b = rpc(client, attack_request(fast, "bmc"));
  ASSERT_TRUE(b.bool_or("ok", false)) << b.dump();

  Json cancel = Json::object();
  cancel.set("op", Json::string("cancel"));
  cancel.set("id", Json::number(b.u64_or("id", 0)));
  const Json cancelled = rpc(client, cancel);
  EXPECT_TRUE(cancelled.bool_or("ok", false));
  EXPECT_TRUE(cancelled.bool_or("cancelled", false));

  Json wait_b = Json::object();
  wait_b.set("op", Json::string("wait"));
  wait_b.set("id", Json::number(b.u64_or("id", 0)));
  const Json rb = rpc(client, wait_b);
  EXPECT_EQ(rb.str_or("status", "?"), "cancelled") << rb.dump();

  // The pinned job still finishes on its own budget.
  Json wait_a = Json::object();
  wait_a.set("op", Json::string("wait"));
  wait_a.set("id", Json::number(a.u64_or("id", 0)));
  EXPECT_EQ(rpc(client, wait_a).str_or("status", "?"), "done");
}

TEST_F(ServiceTest, VerifyAndLockJobsWork) {
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  const std::string original_text =
      netlist::write_bench_string(benchgen::make_circuit("s27").netlist);

  // Lock job: returns the locked bench text and the key schedule.
  Json lock_request = Json::object();
  lock_request.set("op", Json::string("submit"));
  lock_request.set("job", Json::string("lock"));
  lock_request.set("circuit", Json::string(original_text));
  lock_request.set("k", Json::number(std::uint64_t{2}));
  lock_request.set("ki", Json::number(std::uint64_t{2}));
  const Json locked_reply = submit_and_wait(client, lock_request);
  ASSERT_EQ(locked_reply.str_or("status", "?"), "done") << locked_reply.dump();
  const Json* lr = locked_reply.find("result");
  ASSERT_NE(lr, nullptr);
  const std::string locked_text = lr->str_or("locked", "");
  ASSERT_FALSE(locked_text.empty());
  ASSERT_NE(lr->find("key_schedule"), nullptr);
  EXPECT_EQ(lr->find("key_schedule")->elements().size(), 2u);

  // Verify job: a deliberately wrong static key against the dynamic lock
  // must come back non-equivalent.
  Json verify_request = Json::object();
  verify_request.set("op", Json::string("submit"));
  verify_request.set("job", Json::string("verify"));
  verify_request.set("locked", Json::string(locked_text));
  verify_request.set("oracle", Json::string(original_text));
  verify_request.set("key", Json::string("00"));
  const Json verified = submit_and_wait(client, verify_request);
  ASSERT_EQ(verified.str_or("status", "?"), "done") << verified.dump();
  EXPECT_FALSE(verified.find("result")->bool_or("equivalent", true));
  EXPECT_EQ(verified.find("result")->str_or("verdict", "?"), "different");

  // Malformed verify: wrong key width surfaces as a job error, not a crash.
  verify_request.set("key", Json::string("010101"));
  const Json bad = submit_and_wait(client, verify_request);
  EXPECT_EQ(bad.str_or("status", "?"), "error");
  EXPECT_NE(bad.str_or("error", "").find("key inputs"), std::string::npos);

  // Unparsable netlist surfaces as a job error too.
  Json garbage = attack_request({"NOT A NETLIST", original_text}, "bmc");
  const Json rejected = submit_and_wait(client, garbage);
  EXPECT_EQ(rejected.str_or("status", "?"), "error") << rejected.dump();
}

TEST_F(ServiceTest, AnalyzeJobReportsLintAndKeyInference) {
  const netlist::Netlist nl = benchgen::make_circuit("s27").netlist;
  util::Rng rng(5);
  const lock::LockResult lr = lock::xor_lock(nl, 6, rng);

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  Json request = Json::object();
  request.set("op", Json::string("submit"));
  request.set("job", Json::string("analyze"));
  request.set("circuit", Json::string(netlist::write_bench_string(lr.locked)));
  const Json done = submit_and_wait(client, request);
  ASSERT_EQ(done.str_or("status", "?"), "done") << done.dump();
  const Json* r = done.find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->bool_or("lint_ok", false)) << r->dump();
  ASSERT_NE(r->find("stats"), nullptr);
  EXPECT_EQ(r->find("stats")->u64_or("key_inputs", 0), 6u);
  // Inline XOR key gates are exactly the shape the synthesis differential
  // reads, so the sweep must decide bits and report one entry per key bit.
  EXPECT_EQ(r->str_or("verdicts", "").size(), 6u);
  EXPECT_GT(r->u64_or("decided", 0), 0u);
  ASSERT_NE(r->find("bits"), nullptr);
  EXPECT_EQ(r->find("bits")->elements().size(), 6u);

  // A key-free circuit gets lint + stats but no inference block.
  Json plain = Json::object();
  plain.set("op", Json::string("submit"));
  plain.set("job", Json::string("analyze"));
  plain.set("circuit", Json::string(netlist::write_bench_string(nl)));
  const Json done_plain = submit_and_wait(client, plain);
  ASSERT_EQ(done_plain.str_or("status", "?"), "done") << done_plain.dump();
  const Json* rp = done_plain.find("result");
  ASSERT_NE(rp, nullptr);
  EXPECT_TRUE(rp->bool_or("lint_ok", false));
  EXPECT_EQ(rp->find("bits"), nullptr);
  // Resubmitting the same analyze must hit the circuit cache.
  const Json again = submit_and_wait(client, request);
  ASSERT_EQ(again.str_or("status", "?"), "done");
  EXPECT_GT(again.find("result")->u64_or("cache_hits", 0), 0u);
}

TEST_F(ServiceTest, AttackSubmissionsFailingLintAreRejected) {
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  // A "locked" circuit with no key inputs: nothing to attack, so lint must
  // stop the job before any solver time is spent.
  const std::string original_text =
      netlist::write_bench_string(benchgen::make_circuit("s27").netlist);
  const Json rejected = submit_and_wait(
      client, attack_request({original_text, original_text}, "bmc"));
  EXPECT_EQ(rejected.str_or("status", "?"), "error") << rejected.dump();
  EXPECT_NE(rejected.str_or("error", "").find("netlist lint"),
            std::string::npos);
  EXPECT_NE(rejected.str_or("error", "").find("no-key-inputs"),
            std::string::npos);
}

TEST_F(ServiceTest, ScopeAttackModeRunsOracleFreeInference) {
  const netlist::Netlist nl = benchgen::make_circuit("s27").netlist;
  util::Rng rng(5);
  const lock::LockResult lr = lock::xor_lock(nl, 6, rng);
  const LockedPair pair{netlist::write_bench_string(lr.locked),
                        netlist::write_bench_string(nl)};

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  const Json done = submit_and_wait(client, attack_request(pair, "scope"));
  ASSERT_EQ(done.str_or("status", "?"), "done") << done.dump();
  const Json* r = done.find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->str_or("attack", ""), "scope");
  EXPECT_EQ(r->str_or("verdicts", "").size(), 6u);
  EXPECT_GT(r->u64_or("decided", 0), 0u);
  // Oracle-free by construction: the oracle only confirms a complete key.
  EXPECT_EQ(r->u64_or("fresh_queries", 99), 0u);
}

TEST_F(ServiceTest, ShutdownSavesBanksAndRejectsLateSubmissions) {
  const LockedPair pair = s27_pair(0xddd4);
  const std::string bank_path = (dir_ / "bank.bin").string();

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  options.obs_bank_path = bank_path;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;

  const Json done = submit_and_wait(client, attack_request(pair, "bmc"));
  ASSERT_EQ(done.str_or("status", "?"), "done") << done.dump();

  server.stop();
  ASSERT_TRUE(fs::exists(bank_path)) << "stop() must persist the banks";
  EXPECT_FALSE(fs::exists(bank_path + ".tmp"));

  // The persisted file is a loadable registry image (the true cross-process
  // reload is exercised end-to-end by the CLI serve test).
  std::string load_error;
  EXPECT_TRUE(attack::load_observation_banks(bank_path, &load_error))
      << load_error;

  // After stop, the dispatcher refuses new work instead of touching a
  // drained pool.
  const Json late = server.handle_request(attack_request(pair, "bmc"));
  EXPECT_FALSE(late.bool_or("ok", true));
  EXPECT_NE(late.str_or("error", "").find("shutting down"), std::string::npos);
}

}  // namespace
}  // namespace cl::service
