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

// Runs the CLI; returns the process exit code. Stdout and stderr go to
// `stdout_file` and `stderr_file` when given, else they are discarded.
int run_cli(const std::string& args, const fs::path& stdout_file = "/dev/null",
            const fs::path& stderr_file = "/dev/null") {
  const std::string cmd = std::string(CUTELOCK_CLI_PATH) + " " + args + " > " +
                          quoted(stdout_file) + " 2> " + quoted(stderr_file);
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

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(CliSmoke, MalformedNumbersNameTheFlagAndExitUsage) {
  const fs::path locked = dir_ / "s27_locked.bench";
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(locked) +
                    " --k 4 --ki 4 --seed 1"),
            0);
  const fs::path err = dir_ / "stderr.txt";
  const struct {
    std::string args;
    std::string flag;
  } cases[] = {
      {"lock " + quoted(s27_) + " -o " + quoted(dir_ / "x.bench") + " --k abc",
       "--k"},
      {"lock " + quoted(s27_) + " -o " + quoted(dir_ / "x.bench") +
           " --k 2 --keys 1,x",
       "--keys"},
      {"vcd " + quoted(s27_) + " -o " + quoted(dir_ / "x.vcd") +
           " --cycles 12x",
       "--cycles"},
      {"analyze " + quoted(locked) + " --seconds abc", "--seconds"},
      {"attack " + quoted(locked) + " --oracle " + quoted(s27_) +
           " --max-depth abc",
       "--max-depth"},
      // A port past 65535 would wrap to another port, not fail.
      {"submit --port 70000 --op ping", "--port"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run_cli(c.args, "/dev/null", err), 64) << c.args;
    EXPECT_NE(slurp(err).find(c.flag), std::string::npos)
        << c.args << ": " << slurp(err);
  }
  EXPECT_FALSE(fs::exists(dir_ / "x.bench"));
  EXPECT_FALSE(fs::exists(dir_ / "x.vcd"));
}

TEST_F(CliSmoke, UnknownFlagsNameTheFlagAndExitUsage) {
  // Every command checks its flags against its own table before it does
  // anything, so a flag it does not take is never silently ignored.
  const fs::path locked = dir_ / "s27_locked.bench";
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(locked) +
                    " --k 4 --ki 4 --seed 1"),
            0);
  const fs::path err = dir_ / "stderr.txt";
  const fs::path out = dir_ / "stdout.txt";
  const std::string oracle = " --oracle " + quoted(s27_);
  for (const std::string& command : {
           "info " + quoted(s27_),
           "lock " + quoted(s27_) + " -o " + quoted(dir_ / "x.bench"),
           "attack " + quoted(locked) + oracle + " --max-depth 3",
           "analyze " + quoted(locked),
           "overhead " + quoted(locked),
           "vcd " + quoted(s27_) + " -o " + quoted(dir_ / "x.vcd"),
           "gen s27 -o " + quoted(dir_ / "x.bench"),
           "submit --socket " + quoted(dir_ / "no.sock") + " " +
               quoted(locked) + oracle,
           "submit --socket " + quoted(dir_ / "no.sock") + " --op ping",
       }) {
    EXPECT_EQ(run_cli(command + " --bogus-flag 7", out, err), 64) << command;
    EXPECT_NE(slurp(err).find("--bogus-flag"), std::string::npos)
        << command << ": " << slurp(err);
    EXPECT_EQ(slurp(out), "") << command;
  }
  // A flag of another command is as unknown as a made-up one.
  EXPECT_EQ(run_cli("info " + quoted(s27_) + " --seed 1", out, err), 64);
  EXPECT_NE(slurp(err).find("--seed"), std::string::npos) << slurp(err);
  EXPECT_FALSE(fs::exists(dir_ / "x.bench"));
  EXPECT_FALSE(fs::exists(dir_ / "x.vcd"));
}

TEST_F(CliSmoke, MaxDepthReachesTheAttack) {
  // --max-depth is the attack job's max_depth field: BMC's start depth on
  // the multi-key s27 lock is 2, so a budget of 1 ends the attack at once.
  const fs::path locked = dir_ / "s27_locked.bench";
  ASSERT_EQ(run_cli("lock " + quoted(s27_) + " -o " + quoted(locked) +
                    " --k 4 --ki 4 --seed 1"),
            0);
  const fs::path out = dir_ / "stdout.txt";
  const std::string attack =
      "attack " + quoted(locked) + " --oracle " + quoted(s27_) +
      " --attack bmc --seconds 20";
  EXPECT_EQ(run_cli(attack + " --max-depth 1", out), 0);
  EXPECT_NE(slurp(out).find("start depth exceeds the budget's max depth"),
            std::string::npos)
      << slurp(out);
  EXPECT_EQ(run_cli(attack + " --max-depth 8", out), 0);
  EXPECT_NE(slurp(out).find("CNS"), std::string::npos) << slurp(out);
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
