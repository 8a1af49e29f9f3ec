// End-to-end smoke test for the cutelock CLI binary: lock s27, attack it,
// and assert the documented exit-code contract (0 = defense held, 2 = key
// recovered, 64 = usage error, 65 = runtime error, 66 = unreadable input).
// The binary path is injected by CMake as CUTELOCK_CLI_PATH.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "benchgen/catalog.hpp"
#include "netlist/bench_io.hpp"

namespace {

namespace fs = std::filesystem;

std::string quoted(const fs::path& p) { return "\"" + p.string() + "\""; }

// Runs the CLI with stderr silenced; returns the process exit code. Stdout
// goes to `stdout_file` when given, else it is discarded too.
int run_cli(const std::string& args, const fs::path& stdout_file = "/dev/null") {
  const std::string cmd = std::string(CUTELOCK_CLI_PATH) + " " + args + " > " +
                          quoted(stdout_file) + " 2> /dev/null";
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "failed to spawn: " << cmd;
  // A signal death must not masquerade as exit 0 ("defense held").
  EXPECT_TRUE(WIFEXITED(status)) << "abnormal termination: " << cmd;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class CliSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cutelock_cli_smoke_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    s27_ = dir_ / "s27.bench";
    cl::netlist::write_bench_file(s27_.string(),
                                  cl::benchgen::make_circuit("s27").netlist);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  fs::path s27_;
};

TEST_F(CliSmoke, InfoSucceeds) {
  EXPECT_EQ(run_cli("info " + quoted(s27_)), 0);
}

TEST_F(CliSmoke, UsageErrorIs64) {
  EXPECT_EQ(run_cli("lock"), 64);
  EXPECT_EQ(run_cli("no-such-command x"), 64);
}

TEST_F(CliSmoke, MultiKeyDefenseHoldsExitZero) {
  const fs::path locked = dir_ / "s27_locked.bench";
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(locked) +
                    " --k 4 --ki 4 --seed 1"),
            0);
  ASSERT_TRUE(fs::exists(locked));
  // A true multi-key time-base lock defeats the static-key attack: exit 0.
  EXPECT_EQ(run_cli("attack " + quoted(locked) + " --oracle " + quoted(s27_) +
                    " --attack bmc --seconds 20"),
            0);
}

TEST_F(CliSmoke, SingleKeyReductionIsBrokenExitTwo) {
  const fs::path locked = dir_ / "s27_single.bench";
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(locked) +
                    " --k 2 --ki 4 --seed 1 --single-key"),
            0);
  // The single-key reduction (validation mode) must fall to the same
  // attack: exit 2 = key recovered.
  EXPECT_EQ(run_cli("attack " + quoted(locked) + " --oracle " + quoted(s27_) +
                    " --attack bmc --seconds 20"),
            2);
}

TEST_F(CliSmoke, AttackExitCodesFollowTheRequestContract) {
  const fs::path multi = dir_ / "s27_locked.bench";
  const fs::path single = dir_ / "s27_single.bench";
  const fs::path xored = dir_ / "s27_xor.bench";
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(multi) +
                    " --k 4 --ki 4 --seed 1"),
            0);
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(single) +
                    " --k 2 --ki 4 --seed 1 --single-key"),
            0);
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(xored) +
                    " --scheme xor --seed 1"),
            0);
  const auto attack = [&](const fs::path& locked, const std::string& flags,
                          const fs::path& out = "/dev/null") {
    return run_cli("attack " + quoted(locked) + " --oracle " + quoted(s27_) +
                       " " + flags,
                   out);
  };

  // Malformed requests are usage errors, found before any attack runs.
  EXPECT_EQ(attack(multi, "--attack nope"), 64);
  const fs::path out = dir_ / "stdout.txt";
  EXPECT_EQ(attack(multi, "--accept bogus", out), 64);
  std::ifstream printed(out);
  std::ostringstream text;
  text << printed.rdbuf();
  EXPECT_EQ(text.str(), "") << "the attack ran before --accept was checked";
  EXPECT_EQ(attack(xored, "--accept any --true-key 01x0"), 64);
  EXPECT_EQ(attack(single, "--seconds abc"), 64);

  // An unreadable input is an I/O error; a lint rejection a runtime error.
  EXPECT_EQ(attack(dir_ / "missing.bench", ""), 66);
  EXPECT_EQ(attack(s27_, ""), 65);  // no key inputs: nothing to attack

  // Budgets from the command line reach the attack intact: half a second
  // is not zero, and a huge one is no deadline, not an expired one.
  EXPECT_EQ(attack(single, "--seconds 0.5"), 2);
  EXPECT_EQ(attack(single, "--seconds 100000000000"), 2);
}

TEST_F(CliSmoke, OverheadReportSucceeds) {
  const fs::path locked = dir_ / "s27_locked.bench";
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(locked) +
                    " --k 4 --ki 4 --seed 1"),
            0);
  EXPECT_EQ(run_cli("overhead " + quoted(locked) + " --baseline " +
                    quoted(s27_)),
            0);
}

}  // namespace
