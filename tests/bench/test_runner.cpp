#include "runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/json.hpp"

namespace cl::bench {
namespace {

/// Scoped environment override (restored on destruction).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

/// The document parsed with util::Json; a document that does not parse
/// fails the test.
util::Json parsed_document(const std::string& text) {
  util::Json doc;
  std::string error;
  EXPECT_TRUE(util::Json::parse(text, &doc, &error)) << error << "\n" << text;
  return doc;
}

/// Record `i` of a parsed document (an empty object when absent).
util::Json record(const util::Json& doc, std::size_t i) {
  const util::Json* records = doc.find("records");
  if (records == nullptr || i >= records->elements().size()) {
    ADD_FAILURE() << "no record " << i << " in " << doc.dump();
    return util::Json::object();
  }
  return records->elements()[i];
}

// ---- Runner ----------------------------------------------------------------

TEST(Runner, CollectsResultsInRegistrationOrder) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("order");
  runner.set_threads(4);
  std::vector<int> slots(32, -1);
  for (int i = 0; i < 32; ++i) {
    runner.add({"suite", "c" + std::to_string(i), "probe", -1, -1},
               [&slots, i]() {
                 slots[static_cast<std::size_t>(i)] = i * i;
                 return JobOutcome{"ok", -1.0, static_cast<std::uint64_t>(i)};
               });
  }
  runner.run();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(slots[static_cast<std::size_t>(i)], i * i);
    EXPECT_EQ(runner.outcome(static_cast<std::size_t>(i)).iterations,
              static_cast<std::uint64_t>(i));
  }
}

TEST(Runner, SerialAndParallelProduceIdenticalResults) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  const auto run_with = [](std::size_t threads) {
    Runner runner("det");
    runner.set_threads(threads);
    std::vector<std::uint64_t> values(40, 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      runner.add({"s", "c" + std::to_string(i), "a", 2, 3}, [&values, i]() {
        // Deterministic per-job computation.
        std::uint64_t v = i + 1;
        for (int r = 0; r < 1000; ++r) v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        values[i] = v;
        return JobOutcome{"ok", -1.0, v};
      });
    }
    runner.run();
    return values;
  };
  EXPECT_EQ(run_with(1), run_with(8));
}

TEST(Runner, AttackJobFillsCallerSlot) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("attack_slot");
  runner.set_threads(2);
  attack::AttackResult slot;
  runner.add_attack({"ISCAS'89", "s27", "KC2", 4, 2}, &slot, []() {
    attack::AttackResult r;
    r.outcome = attack::Outcome::Cns;
    r.seconds = 0.25;
    r.iterations = 17;
    return r;
  });
  runner.run();
  EXPECT_EQ(slot.outcome, attack::Outcome::Cns);
  EXPECT_EQ(runner.outcome(0).outcome, "CNS");
  EXPECT_DOUBLE_EQ(runner.outcome(0).seconds, 0.25);
  EXPECT_EQ(runner.outcome(0).iterations, 17u);
}

TEST(Runner, JobExceptionPropagatesFromRun) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("boom");
  runner.set_threads(2);
  runner.add({"s", "c", "a", -1, -1},
             []() -> JobOutcome { throw std::runtime_error("job died"); });
  EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(Runner, JsonDocumentIsValidAndCarriesTheSchema) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("schema_check");
  runner.set_threads(1);
  runner.add({"ITC'99", "b10\"quoted\"", "INT", 4, 11},
             []() { return JobOutcome{"CNS", 1.5, 42}; });
  runner.add({"-", "freeform", "overhead", -1, -1},
             []() { return JobOutcome{"12.5", -1.0, 0}; });
  runner.run();
  const std::string text = runner.json();
  const util::Json doc = parsed_document(text);
  EXPECT_EQ(doc.u64_or("schema", 0), 2u);
  EXPECT_EQ(doc.str_or("harness", ""), "schema_check");
  EXPECT_EQ(doc.u64_or("threads", 0), 1u);
  const util::Json first = record(doc, 0);
  EXPECT_EQ(first.str_or("suite", ""), "ITC'99");
  EXPECT_EQ(first.str_or("circuit", ""), "b10\"quoted\"");
  EXPECT_EQ(first.u64_or("k", 0), 4u);
  EXPECT_EQ(first.u64_or("ki", 0), 11u);
  EXPECT_EQ(first.str_or("outcome", ""), "CNS");
  EXPECT_EQ(first.u64_or("iterations", 0), 42u);
  // One record per line.
  EXPECT_NE(text.find("\n    " + first.dump() + ",\n"), std::string::npos)
      << text;
  // k/ki are null, not -1, when not applicable.
  const util::Json second = record(doc, 1);
  for (const char* field : {"k", "ki"}) {
    ASSERT_NE(second.find(field), nullptr) << field;
    EXPECT_EQ(second.find(field)->type(), util::Json::Type::Null) << field;
  }
}

TEST(Runner, AttackJobsWriteTheFullAttackRecord) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("attack_record");
  runner.set_threads(1);
  attack::AttackResult slot;
  runner.add_attack({"ISCAS'89", "s27", "RANE", 4, 2}, &slot, []() {
    attack::AttackResult r;
    r.outcome = attack::Outcome::Equal;
    r.key = {1, 0, 1, 1};
    r.seconds = 0.5;
    r.iterations = 6;
    r.fresh_queries = 9;
    r.batched_queries = 8;
    r.oracle_batches = 1;
    r.detail = "verified";
    return r;
  });
  runner.run();
  // The identity, then exactly attack::to_json of the result.
  util::Json expected = util::Json::object();
  expected.set("suite", util::Json::string("ISCAS'89"));
  expected.set("circuit", util::Json::string("s27"));
  expected.set("attack", util::Json::string("RANE"));
  expected.set("k", util::Json::number(std::uint64_t{4}));
  expected.set("ki", util::Json::number(std::uint64_t{2}));
  const util::Json fields = attack::to_json(slot);
  for (const auto& [field, value] : fields.items()) expected.set(field, value);
  EXPECT_EQ(record(parsed_document(runner.json()), 0).dump(), expected.dump());
}

TEST(Runner, NonFiniteSecondsAreSanitizedInJson) {
  // nan/inf are not JSON; a single crashed timer must not poison the whole
  // baseline document for every downstream consumer.
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("nonfinite");
  runner.set_threads(1);
  runner.add({"s", "bad_timer_a", "x", -1, -1},
             []() { return JobOutcome{"ok", 0.0 / 0.0, 3}; });
  runner.add({"s", "bad_timer_b", "x", -1, -1},
             []() { return JobOutcome{"ok", 1.0 / 0.0, 4}; });
  runner.run();
  const std::string text = runner.json();
  const util::Json doc = parsed_document(text);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(record(doc, i).num_or("seconds", -1.0), 0.0) << text;
  }
}

TEST(Runner, WritesBaselineFileIntoConfiguredDirectory) {
  const std::string dir = ::testing::TempDir();
  ScopedEnv json_dir("CUTELOCK_BENCH_JSON_DIR", dir.c_str());
  ScopedEnv json_on("CUTELOCK_BENCH_JSON", nullptr);
  Runner runner("file_emit");
  runner.set_threads(1);
  runner.add({"s", "c", "a", 2, 2}, []() { return JobOutcome{"ok", -1.0, 1}; });
  runner.run();
  std::ifstream in(runner.json_path());
  ASSERT_TRUE(in.good()) << runner.json_path();
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(parsed_document(buffer.str()).u64_or("schema", 0), 2u);
  EXPECT_EQ(buffer.str(), runner.json());
}

TEST(Runner, JsonDisabledByEnv) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("disabled");
  EXPECT_TRUE(runner.json_path().empty());
}

TEST(Runner, RunIsSingleShot) {
  ScopedEnv no_json("CUTELOCK_BENCH_JSON", "0");
  Runner runner("once");
  runner.set_threads(1);
  runner.run();
  EXPECT_THROW(runner.run(), std::logic_error);
  EXPECT_THROW(runner.add({"s", "c", "a", -1, -1},
                          []() { return JobOutcome{}; }),
               std::logic_error);
}

// ---- env parsing ------------------------------------------------------------

TEST(BenchEnv, AttackSecondsStrictParse) {
  {
    ScopedEnv env("CUTELOCK_ATTACK_SECONDS", "2.5");
    EXPECT_DOUBLE_EQ(attack_seconds(9.0), 2.5);
  }
  {
    ScopedEnv env("CUTELOCK_ATTACK_SECONDS", "2s");  // atof would read 2
    EXPECT_DOUBLE_EQ(attack_seconds(9.0), 9.0);
  }
  {
    ScopedEnv env("CUTELOCK_ATTACK_SECONDS", "abc");
    EXPECT_DOUBLE_EQ(attack_seconds(9.0), 9.0);
  }
  {
    ScopedEnv env("CUTELOCK_ATTACK_SECONDS", "-3");
    EXPECT_DOUBLE_EQ(attack_seconds(9.0), 9.0);
  }
  {
    // Non-finite budgets would overflow Solver::set_time_budget's
    // duration_cast; rejected like any other invalid value.
    ScopedEnv env("CUTELOCK_ATTACK_SECONDS", "inf");
    EXPECT_DOUBLE_EQ(attack_seconds(9.0), 9.0);
  }
  {
    ScopedEnv env("CUTELOCK_ATTACK_SECONDS", "nan");
    EXPECT_DOUBLE_EQ(attack_seconds(9.0), 9.0);
  }
  {
    ScopedEnv env("CUTELOCK_ATTACK_SECONDS", nullptr);
    EXPECT_DOUBLE_EQ(attack_seconds(9.0), 9.0);
  }
}

TEST(BenchEnv, JobsStrictParse) {
  {
    ScopedEnv env("CUTELOCK_JOBS", "3");
    EXPECT_EQ(jobs_from_env(), 3u);
  }
  {
    ScopedEnv env("CUTELOCK_JOBS", "4x");
    EXPECT_GE(jobs_from_env(), 1u);  // falls back to hardware_concurrency
  }
  {
    ScopedEnv env("CUTELOCK_JOBS", "0");
    EXPECT_GE(jobs_from_env(), 1u);
  }
  {
    ScopedEnv env("CUTELOCK_JOBS", "1");
    Runner runner("env_threads");
    EXPECT_EQ(runner.threads(), 1u);
  }
}

TEST(BenchEnv, StableCellsDropDurations) {
  attack::AttackResult r;
  r.outcome = attack::Outcome::Cns;
  r.seconds = 1.25;
  {
    ScopedEnv env("CUTELOCK_BENCH_STABLE", "1");
    EXPECT_EQ(attack_cell(r), "CNS");
    EXPECT_EQ(time_cell(3.0), "-");
  }
  {
    ScopedEnv env("CUTELOCK_BENCH_STABLE", nullptr);
    EXPECT_EQ(attack_cell(r), "CNS 1.250s");
    EXPECT_EQ(time_cell(3.0), "3.000s");
  }
}

TEST(BenchEnv, SmallProfileFiltersSuites) {
  {
    ScopedEnv env("CUTELOCK_BENCH_SMALL", "1");
    for (const auto& spec : selected_circuits(benchgen::iscas89_specs())) {
      EXPECT_LE(spec.gates, 1200u) << spec.name;
    }
    for (const auto& spec : selected_fsms(benchgen::synthezza_specs())) {
      EXPECT_STREQ(spec.tier, "small") << spec.name;
    }
  }
  {
    ScopedEnv env("CUTELOCK_BENCH_SMALL", nullptr);
    EXPECT_EQ(selected_circuits(benchgen::iscas89_specs()).size(),
              benchgen::iscas89_specs().size());
    EXPECT_EQ(selected_fsms(benchgen::synthezza_specs()).size(),
              benchgen::synthezza_specs().size());
  }
}

}  // namespace
}  // namespace cl::bench
