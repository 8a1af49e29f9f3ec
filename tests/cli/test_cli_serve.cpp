// End-to-end test for `cutelock serve` / `cutelock submit`: a real daemon
// process on a Unix socket, driven by the real client binary. This is the
// only place the acceptance property "a restarted daemon reloads the
// observation bank from disk" can be tested honestly — the in-process bank
// registry lives for the whole process, so cross-restart replay needs two
// separate daemon processes sharing a bank file.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "attack/registry.hpp"
#include "benchgen/catalog.hpp"
#include "netlist/bench_io.hpp"

namespace {

namespace fs = std::filesystem;

std::string quoted(const fs::path& p) { return "\"" + p.string() + "\""; }

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout only
};

class CliServe : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cutelock_cli_serve_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    s27_ = dir_ / "s27.bench";
    locked_ = dir_ / "s27_locked.bench";
    socket_ = dir_ / "cl.sock";
    bank_ = dir_ / "bank.bin";
    cl::netlist::write_bench_file(s27_.string(),
                                  cl::benchgen::make_circuit("s27").netlist);
    ASSERT_EQ(run("lock " + quoted(s27_) + " -o " + quoted(locked_) +
                  " --k 4 --ki 4 --seed 1")
                  .exit_code,
              0);
  }

  void TearDown() override {
    // Belt and braces: if a test failed before its shutdown, don't leak the
    // daemon past the test process.
    run("submit --socket " + quoted(socket_) + " --op shutdown");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Run the CLI to completion, capturing stdout (stderr silenced).
  CliRun run(const std::string& args) {
    const fs::path out_file = dir_ / "out.txt";
    const std::string cmd = std::string(CUTELOCK_CLI_PATH) + " " + args +
                            " > " + quoted(out_file) + " 2> /dev/null";
    const int status = std::system(cmd.c_str());
    CliRun result;
    EXPECT_NE(status, -1) << "failed to spawn: " << cmd;
    EXPECT_TRUE(WIFEXITED(status)) << "abnormal termination: " << cmd;
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    result.output = slurp(out_file);
    return result;
  }

  /// Start a daemon in the background and wait until it answers a ping.
  void start_daemon() {
    const std::string cmd = std::string(CUTELOCK_CLI_PATH) +
                            " serve --socket " + quoted(socket_) + " --bank " +
                            quoted(bank_) + " --workers 2 > " +
                            quoted(dir_ / "serve.log") + " 2>&1 &";
    ASSERT_NE(std::system(cmd.c_str()), -1);
    for (int i = 0; i < 100; ++i) {
      if (run("submit --socket " + quoted(socket_) + " --op ping").exit_code ==
          0) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    FAIL() << "daemon never answered ping; log:\n"
           << slurp(dir_ / "serve.log");
  }

  /// Shut the daemon down and wait for it to unlink its socket on exit.
  void stop_daemon() {
    ASSERT_EQ(
        run("submit --socket " + quoted(socket_) + " --op shutdown").exit_code,
        0);
    for (int i = 0; i < 100; ++i) {
      if (!fs::exists(socket_)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    FAIL() << "daemon never removed its socket; log:\n"
           << slurp(dir_ / "serve.log");
  }

  CliRun submit_attack() {
    return run("submit --socket " + quoted(socket_) + " " + quoted(locked_) +
               " --oracle " + quoted(s27_) + " --attack bmc --seconds 20");
  }

  /// The verdict line with its wall-clock suffix stripped:
  /// "bmc attack: CNS iters=3 queries=3f/0r (key space ...)" stays, the
  /// trailing " (0.004s)" goes.
  static std::string verdict_of(const std::string& output) {
    const std::size_t eol = output.find('\n');
    std::string line = output.substr(0, eol);
    const std::size_t paren = line.rfind(" (");
    if (paren != std::string::npos && line.find('s', paren) != std::string::npos
        && line.back() == ')') {
      line.resize(paren);
    }
    return line;
  }

  /// The whole output with every line's " (<seconds>s)" suffix stripped.
  static std::string without_wall_time(const std::string& output) {
    std::istringstream lines(output);
    std::string stripped;
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t paren = line.rfind(" (");
      if (paren != std::string::npos && line.size() > paren + 4 &&
          line.compare(line.size() - 2, 2, "s)") == 0 &&
          line.find_first_not_of("0123456789.", paren + 2) == line.size() - 2) {
        line.resize(paren);
      }
      stripped += line + "\n";
    }
    return stripped;
  }

  fs::path dir_, s27_, locked_, socket_, bank_;
};

TEST_F(CliServe, DaemonMatchesInProcessAttackAndReplaysAcrossRestart) {
  // Reference: the one-shot CLI attack, no daemon, no bank.
  const CliRun direct = run("attack " + quoted(locked_) + " --oracle " +
                            quoted(s27_) + " --attack bmc --seconds 20");
  ASSERT_EQ(direct.exit_code, 0) << direct.output;  // multi-key lock holds

  start_daemon();

  // Cold daemon run: same verdict line (minus timing), same exit code.
  const CliRun cold = submit_attack();
  EXPECT_EQ(cold.exit_code, direct.exit_code) << cold.output;
  EXPECT_EQ(verdict_of(cold.output), verdict_of(direct.output));
  EXPECT_EQ(cold.output.find("replayed from the observation bank"),
            std::string::npos)
      << "cold run must not replay: " << cold.output;

  // Warm run in the same daemon: replay kicks in.
  const CliRun warm = submit_attack();
  EXPECT_EQ(warm.exit_code, direct.exit_code) << warm.output;
  EXPECT_NE(warm.output.find("replayed from the observation bank"),
            std::string::npos)
      << warm.output;

  stop_daemon();
  ASSERT_TRUE(fs::exists(bank_)) << "shutdown must persist the bank";

  // A brand-new daemon process with the same --bank: its FIRST attack must
  // already replay — the facts came back from disk, not from memory.
  start_daemon();
  const CliRun reloaded = submit_attack();
  EXPECT_EQ(reloaded.exit_code, direct.exit_code) << reloaded.output;
  EXPECT_NE(reloaded.output.find("replayed from the observation bank"),
            std::string::npos)
      << "restart lost the bank: " << reloaded.output;
  stop_daemon();
}

TEST_F(CliServe, AttackAndSubmitPrintTheSameForEveryMode) {
  // `attack` runs the daemon's job in-process, so for every registered mode
  // a cold daemon must print the same lines and exit the same way. Each
  // run gets its own lock seed, so every bank starts cold; scan-model modes
  // get an XOR lock, the rest Cute-Lock-Str.
  start_daemon();
  std::uint64_t seed = 100;
  for (const cl::attack::AttackMode& mode : cl::attack::attack_modes()) {
    for (const std::string accept : {"", " --accept any"}) {
      const fs::path locked = dir_ / ("mode_" + std::to_string(seed) + ".bench");
      ASSERT_EQ(run("lock " + quoted(s27_) + " -o " + quoted(locked) +
                    (mode.scan_model ? " --scheme xor" : " --k 4 --ki 4") +
                    " --seed " + std::to_string(seed++))
                    .exit_code,
                0);
      const std::string flags = quoted(locked) + " --oracle " + quoted(s27_) +
                                " --attack " + std::string(mode.name) +
                                " --seconds 20" +
                                accept;
      const CliRun direct = run("attack " + flags);
      const CliRun daemon = run("submit --socket " + quoted(socket_) + " " + flags);
      EXPECT_EQ(daemon.exit_code, direct.exit_code) << mode.name << accept;
      EXPECT_EQ(without_wall_time(daemon.output),
                without_wall_time(direct.output))
          << mode.name << accept;
      EXPECT_NE(direct.output.find(std::string(mode.name) + " attack: "),
                std::string::npos)
          << direct.output;
    }
  }
  stop_daemon();
}

TEST_F(CliServe, MalformedRequestsExitUsageUnderAttackAndSubmit) {
  // A malformed request is a usage error (64) under both commands: the
  // daemon marks the job's error as a bad request, and `submit` maps that
  // mark to the exit code `attack` returns.
  start_daemon();
  for (const std::string bad :
       {"--attack nosuch", "--accept bogus", "--true-key 01x0",
        "--attack periodic --max-period 0",
        "--attack periodic --max-period 65"}) {
    const std::string flags =
        quoted(locked_) + " --oracle " + quoted(s27_) + " " + bad;
    const CliRun direct = run("attack " + flags);
    const CliRun daemon =
        run("submit --socket " + quoted(socket_) + " " + flags);
    EXPECT_EQ(direct.exit_code, 64) << bad;
    EXPECT_EQ(daemon.exit_code, 64) << bad;
    EXPECT_EQ(direct.output, "") << bad;
    EXPECT_EQ(daemon.output, "") << bad;
  }
  stop_daemon();
}

TEST_F(CliServe, SubmitSendsMaxDepthLikeAttack) {
  // --max-depth is a request field under both commands: a depth budget
  // below BMC's start depth ends the attack the same way in the daemon.
  start_daemon();
  const std::string flags = quoted(locked_) + " --oracle " + quoted(s27_) +
                            " --attack bmc --seconds 20 --max-depth 1";
  const CliRun direct = run("attack " + flags);
  const CliRun daemon = run("submit --socket " + quoted(socket_) + " " + flags);
  EXPECT_EQ(direct.exit_code, 0);
  EXPECT_EQ(daemon.exit_code, 0);
  EXPECT_NE(direct.output.find("start depth exceeds the budget's max depth"),
            std::string::npos)
      << direct.output;
  EXPECT_EQ(without_wall_time(daemon.output), without_wall_time(direct.output));
  stop_daemon();
}

TEST_F(CliServe, SubmitWithoutDaemonFailsWithTransportExitCode) {
  const CliRun lost = run("submit --socket " + quoted(dir_ / "no.sock") +
                          " --op ping");
  EXPECT_EQ(lost.exit_code, 69);  // EX_UNAVAILABLE: connect/transport failure
}

TEST_F(CliServe, ServeUsageErrors) {
  // Neither --socket nor --port: usage error before any bind.
  EXPECT_EQ(run("submit --op ping").exit_code, 64);
}

}  // namespace
