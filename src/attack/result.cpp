#include "attack/result.hpp"

#include <sstream>
#include <utility>

namespace cl::attack {

const char* outcome_label(Outcome o) {
  switch (o) {
    case Outcome::Equal: return "Equal";
    case Outcome::Cns: return "CNS";
    case Outcome::WrongKey: return "x..x";
    case Outcome::Fail: return "FAIL";
    case Outcome::Timeout: return "N/A";
  }
  return "?";
}

std::string AttackResult::summary() const {
  std::ostringstream out;
  out << outcome_label(outcome);
  if (!key.empty()) out << " key=" << sim::bits_to_string(key);
  out << " iters=" << iterations;
  if (fresh_queries != 0 || replayed_queries != 0 || preloaded_facts != 0) {
    out << " queries=" << fresh_queries << "f/" << replayed_queries << "r";
    if (preloaded_facts != 0) out << "/" << preloaded_facts << "p";
  }
  if (!detail.empty()) out << " (" << detail << ")";
  return out.str();
}

util::Json to_json(const AttackResult& r) {
  using util::Json;
  const auto fact = [](bool evaluated, Json value) {
    return evaluated ? std::move(value) : Json::null();
  };
  Json j = Json::object();
  j.set("outcome", Json::string(outcome_label(r.outcome)));
  j.set("key", fact(!r.key.empty(), Json::string(sim::bits_to_string(r.key))));
  j.set("seconds", Json::number(r.seconds));
  j.set("iterations", Json::number(r.iterations));
  j.set("replayed_queries", Json::number(r.replayed_queries));
  j.set("fresh_queries", Json::number(r.fresh_queries));
  j.set("preloaded_facts", Json::number(r.preloaded_facts));
  j.set("batched_queries", Json::number(r.batched_queries));
  j.set("oracle_batches", Json::number(r.oracle_batches));
  j.set("hinted_bits", Json::number(r.hinted_bits));
  j.set("hint_accuracy",
        fact(r.hint_accuracy >= 0, Json::number(r.hint_accuracy)));
  j.set("key_exact", fact(r.key_exact >= 0, Json::boolean(r.key_exact == 1)));
  j.set("any_key_pass",
        fact(r.any_key_pass >= 0, Json::boolean(r.any_key_pass == 1)));
  j.set("corruption_rate",
        fact(r.corruption_rate >= 0, Json::number(r.corruption_rate)));
  j.set("detail", Json::string(r.detail));
  return j;
}

util::Json schedule_to_json(const std::vector<sim::BitVec>& schedule) {
  util::Json arr = util::Json::array();
  for (const sim::BitVec& key : schedule) {
    arr.push_back(util::Json::string(sim::bits_to_string(key)));
  }
  return arr;
}

}  // namespace cl::attack
