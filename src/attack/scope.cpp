#include "attack/scope.hpp"

#include "attack/verify.hpp"
#include "util/timer.hpp"

namespace cl::attack {

ScopeResult scope_attack(const netlist::Netlist& locked,
                         const SequentialOracle* oracle,
                         const ScopeOptions& options) {
  util::Timer timer;
  ScopeResult out;
  analysis::InferOptions infer = options.infer;
  if (infer.time_limit_s <= 0) {
    infer.time_limit_s = options.budget.time_limit_s;
  }
  out.report = analysis::infer_key_hints(locked, infer);
  out.decided = out.report.decided();

  AttackResult& r = out.result;
  r.iterations = out.decided;
  const std::size_t ki = out.report.bits.size();
  // Reported key: decided bits at their verdicts, undecided bits at 0. Only
  // a fully decided key is ever claimed as an answer.
  r.key.assign(ki, 0);
  for (const auto& [bit, value] : out.report.decided_bits()) {
    r.key[bit] = value ? 1 : 0;
  }
  r.detail = out.report.summary();

  if (out.report.budget_exhausted) {
    r.outcome = Outcome::Timeout;
  } else if (ki == 0 || out.decided < ki) {
    r.outcome = Outcome::Fail;  // honest partial verdict, no key claimed
  } else if (oracle == nullptr) {
    r.outcome = Outcome::Fail;
    r.detail += "; no oracle to confirm the key";
  } else {
    const VerifyResult v =
        verify_static_key(locked, r.key, oracle->reference(),
                          verify_options_for(options.budget));
    r.outcome = verdict_outcome(v.verdict);
  }
  r.seconds = timer.seconds();
  return out;
}

}  // namespace cl::attack
