// Integration tests for the attack service: a real Server on a Unix socket
// in a temp directory, driven through the real Client. Covers the job
// lifecycle (submit/wait/status/cancel), per-job budgets, the acceptance
// property that a resubmitted attack replays oracle facts from the
// observation bank (fresh queries strictly below the cold run, identical
// verdict), error paths, and save-on-shutdown persistence.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/observation_bank.hpp"
#include "attack/registry.hpp"
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

util::Json attack_request(const LockedPair& pair, const std::string& mode,
                    double seconds = 30.0) {
  util::Json request = util::Json::object();
  request.set("op", util::Json::string("submit"));
  request.set("job", util::Json::string("attack"));
  request.set("locked", util::Json::string(pair.locked_text));
  request.set("oracle", util::Json::string(pair.original_text));
  request.set("attack", util::Json::string(mode));
  request.set("seconds", util::Json::number(seconds));
  return request;
}

/// An attack result without its wall time and cache hits: the fields that
/// must not depend on where the job ran.
util::Json placeless(const util::Json& result) {
  util::Json out = util::Json::object();
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

  util::Json rpc(Client& client, const util::Json& request) {
    util::Json response;
    std::string error;
    EXPECT_TRUE(client.request(request, &response, &error)) << error;
    return response;
  }

  /// submit + wait, returning the wait response.
  util::Json submit_and_wait(Client& client, const util::Json& request) {
    const util::Json submitted = rpc(client, request);
    EXPECT_TRUE(submitted.bool_or("ok", false)) << submitted.dump();
    util::Json wait = util::Json::object();
    wait.set("op", util::Json::string("wait"));
    wait.set("id", util::Json::number(submitted.u64_or("id", 0)));
    return rpc(client, wait);
  }

  /// Submits `{"op":"submit","job":job,field:value}` as a raw line (1e999
  /// parses to +inf, which util::Json cannot write back) and expects the
  /// job to fail as a bad request naming `field`. No circuit is sent: the
  /// field must fail first. An attack request must also make
  /// run_attack_job throw std::invalid_argument.
  void expect_bad_request(Client& client, const std::string& job,
                          const std::string& field, const std::string& value) {
    const std::string line = "{\"op\":\"submit\",\"job\":\"" + job +
                             "\",\"" + field + "\":" + value + "}\n";
    const std::string what = job + " " + field + "=" + value;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path().c_str(), sizeof addr.sun_path - 1);
    std::string received;
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
        ::send(fd, line.data(), line.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(line.size())) {
      char chunk[4096];
      for (ssize_t n; received.find('\n') == std::string::npos &&
                      (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
        received.append(chunk, static_cast<std::size_t>(n));
      }
    }
    if (fd >= 0) ::close(fd);
    util::Json submitted;
    std::string error;
    ASSERT_TRUE(util::Json::parse(received.substr(0, received.find('\n')),
                                  &submitted, &error))
        << what << ": " << error;
    ASSERT_TRUE(submitted.bool_or("ok", false)) << what << ": "
                                                << submitted.dump();
    util::Json wait = util::Json::object();
    wait.set("op", util::Json::string("wait"));
    wait.set("id", util::Json::number(submitted.u64_or("id", 0)));
    const util::Json done = rpc(client, wait);
    EXPECT_EQ(done.str_or("status", "?"), "error") << what;
    EXPECT_NE(done.str_or("error", "").find("\"" + field + "\""),
              std::string::npos)
        << what << ": " << done.dump();
    EXPECT_TRUE(done.bool_or("bad_request", false)) << what << ": "
                                                    << done.dump();
    if (job == "attack") {
      util::Json request;
      ASSERT_TRUE(util::Json::parse(line.substr(0, line.size() - 1), &request,
                                    &error))
          << what << ": " << error;
      CircuitCache cache;
      EXPECT_THROW(run_attack_job(request, cache, nullptr, 1),
                   std::invalid_argument)
          << what;
    }
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

  util::Json ping = util::Json::object();
  ping.set("op", util::Json::string("ping"));
  EXPECT_TRUE(rpc(client, ping).bool_or("ok", false));

  util::Json stats = util::Json::object();
  stats.set("op", util::Json::string("stats"));
  const util::Json s = rpc(client, stats);
  EXPECT_TRUE(s.bool_or("ok", false));
  ASSERT_NE(s.find("jobs"), nullptr);
  EXPECT_EQ(s.find("jobs")->u64_or("submitted", 99), 0u);

  util::Json bogus = util::Json::object();
  bogus.set("op", util::Json::string("frobnicate"));
  const util::Json rejected = rpc(client, bogus);
  EXPECT_FALSE(rejected.bool_or("ok", true));
  EXPECT_NE(rejected.str_or("error", "").find("unknown op"), std::string::npos);

  util::Json missing = util::Json::object();
  missing.set("op", util::Json::string("status"));
  missing.set("id", util::Json::number(std::uint64_t{777}));
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
  util::Json ping = util::Json::object();
  ping.set("op", util::Json::string("ping"));
  EXPECT_TRUE(rpc(client, ping).bool_or("ok", false));
}

TEST_F(ServiceTest, LongLinesAndPipelinedRequestsAreAnsweredInOrder) {
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);

  // A raw connection, so that one write can carry two requests.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path().c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const auto send_text = [fd](const std::string& text) {
    for (std::size_t sent = 0; sent < text.size();) {
      const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::string pending;
  const auto reply = [fd, &pending] {
    std::size_t eol;
    char chunk[4096];
    while ((eol = pending.find('\n')) == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return util::Json();
      pending.append(chunk, static_cast<std::size_t>(n));
    }
    util::Json parsed;
    std::string error;
    EXPECT_TRUE(util::Json::parse(pending.substr(0, eol), &parsed, &error))
        << error;
    pending.erase(0, eol + 1);
    return parsed;
  };

  // One ping padded past 8 MB arrives over some two thousand recv calls.
  const std::string pad(std::size_t{8} << 20, 'x');
  ASSERT_TRUE(send_text("{\"op\":\"ping\",\"pad\":\"" + pad + "\"}\n"));
  const util::Json long_ping = reply();
  EXPECT_TRUE(long_ping.bool_or("ok", false)) << long_ping.dump();
  EXPECT_EQ(long_ping.str_or("op", ""), "ping");

  ASSERT_TRUE(send_text("{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n"));
  const util::Json first = reply();
  const util::Json second = reply();
  EXPECT_EQ(first.str_or("op", ""), "ping") << first.dump();
  EXPECT_TRUE(second.bool_or("ok", false)) << second.dump();
  EXPECT_NE(second.find("jobs"), nullptr) << second.dump();
  ::close(fd);
}

TEST_F(ServiceTest, RequestLineOverTheCapIsRejectedAndTheConnectionClosed) {
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path().c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  // A ping padded to one byte over the cap, newline excluded. The daemon
  // may close before the last bytes are sent, so a failed send is fine.
  const std::string head = "{\"op\":\"ping\",\"pad\":\"";
  std::string line = head;
  line.append(k_max_request_line + 1 - head.size() - 2, 'x');
  line += "\"}";
  ASSERT_EQ(line.size(), k_max_request_line + 1);
  line += '\n';
  for (std::size_t sent = 0; sent < line.size();) {
    const ssize_t n =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  // One error reply naming the cap, then end of stream.
  std::string received;
  char chunk[4096];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_FALSE(received.empty());
  ASSERT_EQ(received.find('\n'), received.size() - 1) << received;
  util::Json reply;
  std::string error;
  ASSERT_TRUE(util::Json::parse(received.substr(0, received.size() - 1),
                                &reply, &error))
      << error;
  EXPECT_FALSE(reply.bool_or("ok", true)) << received;
  EXPECT_NE(reply.str_or("error", "").find(std::to_string(k_max_request_line)),
            std::string::npos)
      << received;

  // The daemon still serves other connections.
  Client client;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;
  util::Json ping = util::Json::object();
  ping.set("op", util::Json::string("ping"));
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
  const util::Json cold = submit_and_wait(client, attack_request(pair, "bmc"));
  ASSERT_EQ(cold.str_or("status", "?"), "done") << cold.dump();
  const util::Json* cr = cold.find("result");
  ASSERT_NE(cr, nullptr);
  EXPECT_EQ(cr->str_or("outcome", ""),
            attack::outcome_label(reference.outcome));
  EXPECT_EQ(cr->u64_or("iterations", 0), reference.iterations);
  EXPECT_EQ(cr->u64_or("fresh_queries", 0), reference.fresh_queries);
  EXPECT_EQ(cr->u64_or("replayed_queries", 1), 0u);
  EXPECT_EQ(cr->u64_or("preloaded_facts", 1), 0u);

  // Resubmission: the bank now holds the cold run's facts. Same verdict,
  // strictly fewer fresh oracle queries — the acceptance property.
  const util::Json warm = submit_and_wait(client, attack_request(pair, "bmc"));
  ASSERT_EQ(warm.str_or("status", "?"), "done") << warm.dump();
  const util::Json* wr = warm.find("result");
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(wr->str_or("outcome", ""), cr->str_or("outcome", "x"));
  EXPECT_LT(wr->u64_or("fresh_queries", 99), reference.fresh_queries);
  EXPECT_GT(wr->u64_or("replayed_queries", 0) +
                wr->u64_or("preloaded_facts", 0),
            0u);
  // The circuit cache served the resubmission without re-parsing.
  EXPECT_GT(wr->u64_or("cache_hits", 0), 0u);

  util::Json stats = util::Json::object();
  stats.set("op", util::Json::string("stats"));
  const util::Json s = rpc(client, stats);
  EXPECT_EQ(s.find("jobs")->u64_or("done", 0), 2u);
  EXPECT_GT(s.find("observation_bank")->u64_or("facts", 0), 0u);
  EXPECT_GT(s.find("circuit_cache")->u64_or("hits", 0), 0u);
}

TEST_F(ServiceTest, AttackResultCarriesTheBatchCounters) {
  // The job's result is attack::to_json of the attack's result, so the
  // wide-lane oracle counters travel with it like every other field.
  const LockedPair pair = s27_pair(0xba7c);
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
    ASSERT_GT(reference.oracle_batches, 0u);
  }

  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  options.use_observation_bank = false;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;
  const util::Json done = submit_and_wait(client, attack_request(pair, "bmc"));
  ASSERT_EQ(done.str_or("status", "?"), "done") << done.dump();
  const util::Json* result = done.find("result");
  ASSERT_NE(result, nullptr);
  for (const auto& [field, expected] :
       {std::pair{"batched_queries", reference.batched_queries},
        std::pair{"oracle_batches", reference.oracle_batches}}) {
    ASSERT_NE(result->find(field), nullptr) << field << ": " << result->dump();
    EXPECT_EQ(result->u64_or(field, 0), expected) << field;
  }
}

TEST_F(ServiceTest, EveryAttackModeRunsAsADaemonJobLikeInProcess) {
  // Scan-model modes get an XOR lock (it adds no state, so the scan
  // interfaces match); the others get Cute-Lock-Str, one lock per mode.
  // The observation bank is process-wide, so an in-process run would warm
  // the daemon's bank for the same lock: both sides run without one here,
  // and the comparison sees the job function alone. (The CLI serve test
  // compares `attack` with a cold daemon from separate processes.)
  const netlist::Netlist nl = benchgen::make_circuit("s27").netlist;
  const std::span<const attack::AttackMode> modes = attack::attack_modes();
  ASSERT_EQ(modes.size(), 11u);
  std::vector<util::Json> requests;
  std::vector<util::Json> in_process;
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
    const util::Json done = submit_and_wait(client, requests[i]);
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
    util::Json request = util::Json::object();
    request.set("op", util::Json::string("submit"));
    request.set("job", util::Json::string("attack"));
    request.set("accept", util::Json::string("any"));
    request.set(field, util::Json::string(value));
    const util::Json done = submit_and_wait(client, request);
    EXPECT_EQ(done.str_or("status", "?"), "error") << done.dump();
    EXPECT_NE(done.str_or("error", "").find(needle), std::string::npos)
        << done.dump();
    // Marked as a malformed request, so `submit` exits 64 like `attack`.
    EXPECT_TRUE(done.bool_or("bad_request", false)) << done.dump();

    CircuitCache cache;
    EXPECT_THROW(run_attack_job(request, cache, nullptr, 1),
                 std::invalid_argument)
        << field;
  }
}

TEST_F(ServiceTest, NegativeOrNonFiniteSecondsFailsNamingTheField) {
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;
  for (const char* job : {"attack", "verify", "analyze"}) {
    for (const char* seconds : {"-1", "1e999"}) {
      expect_bad_request(client, job, "seconds", seconds);
    }
  }
}

TEST_F(ServiceTest, MistypedNumericFieldsFailNamingTheField) {
  // A present numeric field must be a number, the counts non-negative
  // integers below 2^64 and the approx tolerance a finite non-negative
  // number: none of these may fall back to the default.
  ServerOptions options;
  options.unix_socket = socket_path();
  options.workers = 1;
  Server server(options);
  start(server);
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path(), &error)) << error;
  for (const char* job : {"attack", "verify", "analyze"}) {
    for (const char* seconds : {"\"abc\"", "\"5\"", "null", "true", "[]"}) {
      expect_bad_request(client, job, "seconds", seconds);
    }
  }
  for (const char* field : {"max_iterations", "max_depth", "max_period"}) {
    for (const char* value : {"-5", "2.5", "1e30", "\"7\"", "\"x\"", "null",
                              "false", "{}"}) {
      expect_bad_request(client, "attack", field, value);
    }
  }
  for (const char* epsilon : {"-0.5", "1e999", "\"0.1\"", "null", "true"}) {
    expect_bad_request(client, "attack", "epsilon", epsilon);
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

  util::Json starved_request = attack_request(starved, "bmc");
  starved_request.set("max_iterations", util::Json::number(std::uint64_t{0}));
  const util::Json a = rpc(client, attack_request(quick, "bmc"));
  const util::Json b = rpc(client, starved_request);
  ASSERT_TRUE(a.bool_or("ok", false));
  ASSERT_TRUE(b.bool_or("ok", false));

  util::Json wait_a = util::Json::object();
  wait_a.set("op", util::Json::string("wait"));
  wait_a.set("id", util::Json::number(a.u64_or("id", 0)));
  util::Json wait_b = util::Json::object();
  wait_b.set("op", util::Json::string("wait"));
  wait_b.set("id", util::Json::number(b.u64_or("id", 0)));

  const util::Json ra = rpc(client, wait_a);
  const util::Json rb = rpc(client, wait_b);
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

  const util::Json a = rpc(client, attack_request(slow, "bmc", 2.0));
  ASSERT_TRUE(a.bool_or("ok", false)) << a.dump();
  const util::Json b = rpc(client, attack_request(fast, "bmc"));
  ASSERT_TRUE(b.bool_or("ok", false)) << b.dump();

  util::Json cancel = util::Json::object();
  cancel.set("op", util::Json::string("cancel"));
  cancel.set("id", util::Json::number(b.u64_or("id", 0)));
  const util::Json cancelled = rpc(client, cancel);
  EXPECT_TRUE(cancelled.bool_or("ok", false));
  EXPECT_TRUE(cancelled.bool_or("cancelled", false));

  util::Json wait_b = util::Json::object();
  wait_b.set("op", util::Json::string("wait"));
  wait_b.set("id", util::Json::number(b.u64_or("id", 0)));
  const util::Json rb = rpc(client, wait_b);
  EXPECT_EQ(rb.str_or("status", "?"), "cancelled") << rb.dump();

  // The pinned job still finishes on its own budget.
  util::Json wait_a = util::Json::object();
  wait_a.set("op", util::Json::string("wait"));
  wait_a.set("id", util::Json::number(a.u64_or("id", 0)));
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
  util::Json lock_request = util::Json::object();
  lock_request.set("op", util::Json::string("submit"));
  lock_request.set("job", util::Json::string("lock"));
  lock_request.set("circuit", util::Json::string(original_text));
  lock_request.set("k", util::Json::number(std::uint64_t{2}));
  lock_request.set("ki", util::Json::number(std::uint64_t{2}));
  const util::Json locked_reply = submit_and_wait(client, lock_request);
  ASSERT_EQ(locked_reply.str_or("status", "?"), "done") << locked_reply.dump();
  const util::Json* lr = locked_reply.find("result");
  ASSERT_NE(lr, nullptr);
  const std::string locked_text = lr->str_or("locked", "");
  ASSERT_FALSE(locked_text.empty());
  ASSERT_NE(lr->find("key_schedule"), nullptr);
  EXPECT_EQ(lr->find("key_schedule")->elements().size(), 2u);

  // Verify job: a deliberately wrong static key against the dynamic lock
  // must come back non-equivalent.
  util::Json verify_request = util::Json::object();
  verify_request.set("op", util::Json::string("submit"));
  verify_request.set("job", util::Json::string("verify"));
  verify_request.set("locked", util::Json::string(locked_text));
  verify_request.set("oracle", util::Json::string(original_text));
  verify_request.set("key", util::Json::string("00"));
  const util::Json verified = submit_and_wait(client, verify_request);
  ASSERT_EQ(verified.str_or("status", "?"), "done") << verified.dump();
  EXPECT_FALSE(verified.find("result")->bool_or("equivalent", true));
  EXPECT_EQ(verified.find("result")->str_or("verdict", "?"), "different");

  // Malformed verify: wrong key width surfaces as a job error, not a crash.
  verify_request.set("key", util::Json::string("010101"));
  const util::Json bad = submit_and_wait(client, verify_request);
  EXPECT_EQ(bad.str_or("status", "?"), "error");
  EXPECT_NE(bad.str_or("error", "").find("key inputs"), std::string::npos);

  // Unparsable netlist surfaces as a job error too.
  util::Json garbage = attack_request({"NOT A NETLIST", original_text}, "bmc");
  const util::Json rejected = submit_and_wait(client, garbage);
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

  util::Json request = util::Json::object();
  request.set("op", util::Json::string("submit"));
  request.set("job", util::Json::string("analyze"));
  request.set("circuit",
              util::Json::string(netlist::write_bench_string(lr.locked)));
  const util::Json done = submit_and_wait(client, request);
  ASSERT_EQ(done.str_or("status", "?"), "done") << done.dump();
  const util::Json* r = done.find("result");
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
  util::Json plain = util::Json::object();
  plain.set("op", util::Json::string("submit"));
  plain.set("job", util::Json::string("analyze"));
  plain.set("circuit", util::Json::string(netlist::write_bench_string(nl)));
  const util::Json done_plain = submit_and_wait(client, plain);
  ASSERT_EQ(done_plain.str_or("status", "?"), "done") << done_plain.dump();
  const util::Json* rp = done_plain.find("result");
  ASSERT_NE(rp, nullptr);
  EXPECT_TRUE(rp->bool_or("lint_ok", false));
  EXPECT_EQ(rp->find("bits"), nullptr);
  // Resubmitting the same analyze must hit the circuit cache.
  const util::Json again = submit_and_wait(client, request);
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
  const util::Json rejected = submit_and_wait(
      client, attack_request({original_text, original_text}, "bmc"));
  EXPECT_EQ(rejected.str_or("status", "?"), "error") << rejected.dump();
  EXPECT_NE(rejected.str_or("error", "").find("netlist lint"),
            std::string::npos);
  EXPECT_NE(rejected.str_or("error", "").find("no-key-inputs"),
            std::string::npos);
  // A lint rejection is a failed run, not a malformed request.
  EXPECT_EQ(rejected.find("bad_request"), nullptr) << rejected.dump();
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

  const util::Json done =
      submit_and_wait(client, attack_request(pair, "scope"));
  ASSERT_EQ(done.str_or("status", "?"), "done") << done.dump();
  const util::Json* r = done.find("result");
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

  const util::Json done = submit_and_wait(client, attack_request(pair, "bmc"));
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
  const util::Json late = server.handle_request(attack_request(pair, "bmc"));
  EXPECT_FALSE(late.bool_or("ok", true));
  EXPECT_NE(late.str_or("error", "").find("shutting down"), std::string::npos);
}

}  // namespace
}  // namespace cl::service
