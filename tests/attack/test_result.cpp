// attack::to_json, the one JSON form of an AttackResult: every field comes
// back through util::Json::parse, and a fact that was not evaluated is null.
#include "attack/result.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cl::attack {
namespace {

using util::Json;

Json round_trip(const AttackResult& r) {
  Json back;
  std::string error;
  EXPECT_TRUE(Json::parse(to_json(r).dump(), &back, &error)) << error;
  return back;
}

std::vector<std::string> field_names(const Json& j) {
  std::vector<std::string> names;
  for (const auto& [field, value] : j.items()) names.push_back(field);
  return names;
}

/// to_json's fields, in AttackResult's declaration order.
const std::vector<std::string> k_fields = {
    "outcome", "key", "seconds", "iterations", "replayed_queries",
    "fresh_queries", "preloaded_facts", "batched_queries", "oracle_batches",
    "hinted_bits", "hint_accuracy", "key_exact", "any_key_pass",
    "corruption_rate", "detail"};

TEST(AttackResultJson, EveryFieldRoundTrips) {
  AttackResult r;
  r.outcome = Outcome::Equal;
  r.key = {1, 0, 0, 1};
  r.seconds = 1.25;
  r.iterations = 7;
  r.replayed_queries = 2;
  r.fresh_queries = 5;
  r.preloaded_facts = 3;
  r.batched_queries = 4;
  r.oracle_batches = 1;
  r.hinted_bits = 6;
  r.hint_accuracy = 0.5;
  r.key_exact = 0;
  r.any_key_pass = 1;
  r.corruption_rate = 0.1953125;
  r.detail = "a \"quoted\" detail";

  const Json j = round_trip(r);
  EXPECT_EQ(field_names(j), k_fields);
  EXPECT_EQ(j.str_or("outcome", ""), "Equal");
  EXPECT_EQ(j.str_or("key", ""), "1001");
  EXPECT_DOUBLE_EQ(j.num_or("seconds", 0), 1.25);
  EXPECT_EQ(j.u64_or("iterations", 0), 7u);
  EXPECT_EQ(j.u64_or("replayed_queries", 0), 2u);
  EXPECT_EQ(j.u64_or("fresh_queries", 0), 5u);
  EXPECT_EQ(j.u64_or("preloaded_facts", 0), 3u);
  EXPECT_EQ(j.u64_or("batched_queries", 0), 4u);
  EXPECT_EQ(j.u64_or("oracle_batches", 0), 1u);
  EXPECT_EQ(j.u64_or("hinted_bits", 0), 6u);
  EXPECT_DOUBLE_EQ(j.num_or("hint_accuracy", -1), 0.5);
  ASSERT_NE(j.find("key_exact"), nullptr);
  EXPECT_EQ(j.find("key_exact")->type(), Json::Type::Bool);
  EXPECT_FALSE(j.bool_or("key_exact", true));
  EXPECT_TRUE(j.bool_or("any_key_pass", false));
  EXPECT_DOUBLE_EQ(j.num_or("corruption_rate", -1), 0.1953125);
  EXPECT_EQ(j.str_or("detail", ""), "a \"quoted\" detail");
}

TEST(AttackResultJson, UnevaluatedFactsAreNull) {
  const Json j = round_trip(AttackResult{});
  // Every field is present even when nothing was set.
  EXPECT_EQ(field_names(j), k_fields);
  EXPECT_EQ(j.str_or("outcome", ""), "FAIL");
  for (const char* fact : {"key", "hint_accuracy", "key_exact",
                           "any_key_pass", "corruption_rate"}) {
    ASSERT_NE(j.find(fact), nullptr) << fact;
    EXPECT_EQ(j.find(fact)->type(), Json::Type::Null) << fact;
  }
  for (const char* counter :
       {"iterations", "replayed_queries", "fresh_queries", "preloaded_facts",
        "batched_queries", "oracle_batches", "hinted_bits"}) {
    EXPECT_EQ(j.u64_or(counter, 1), 0u) << counter;
  }
  EXPECT_EQ(j.str_or("detail", "x"), "");
}

}  // namespace
}  // namespace cl::attack
