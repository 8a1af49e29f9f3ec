#include "runner.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "attack/observation_bank.hpp"
#include "bench_common.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cl::bench {

Runner::Runner(std::string harness)
    : harness_(std::move(harness)), threads_(jobs_from_env()) {
  if (util::obs_bank_from_env()) attack::set_observation_bank_forced(true);
}

std::size_t Runner::add(JobMeta meta, std::function<JobOutcome()> fn) {
  if (ran_) throw std::logic_error("Runner::add: run() already happened");
  jobs_.push_back(Job{std::move(meta), std::move(fn), nullptr, {}, {}});
  return jobs_.size() - 1;
}

std::size_t Runner::add_attack(JobMeta meta, attack::AttackResult* slot,
                               std::function<attack::AttackResult()> fn) {
  const std::size_t id = add(std::move(meta), [slot, fn = std::move(fn)]() {
    *slot = fn();
    return JobOutcome{attack::outcome_label(slot->outcome), slot->seconds,
                      slot->iterations};
  });
  jobs_[id].result = slot;
  return id;
}

void Runner::set_threads(std::size_t n) {
  if (ran_) throw std::logic_error("Runner::set_threads: run() already happened");
  threads_ = std::max<std::size_t>(1, n);
}

void Runner::execute(Job& job) {
  util::Timer timer;
  job.out = job.fn();
  if (job.out.seconds < 0) job.out.seconds = timer.seconds();
  // The job's identity first; a k or ki that does not apply is null.
  const auto lock_param = [](int v) {
    return v < 0 ? util::Json::null()
                 : util::Json::number(static_cast<double>(v));
  };
  util::Json& rec = job.record = util::Json::object();
  rec.set("suite", util::Json::string(job.meta.suite));
  rec.set("circuit", util::Json::string(job.meta.circuit));
  rec.set("attack", util::Json::string(job.meta.attack));
  rec.set("k", lock_param(job.meta.k));
  rec.set("ki", lock_param(job.meta.ki));
  if (job.result != nullptr) {
    const util::Json fields = attack::to_json(*job.result);
    for (const auto& [field, value] : fields.items()) rec.set(field, value);
  } else {
    rec.set("outcome", util::Json::string(job.out.outcome));
    rec.set("seconds", util::Json::number(job.out.seconds));
    rec.set("iterations", util::Json::number(job.out.iterations));
  }
}

void Runner::run() {
  if (ran_) throw std::logic_error("Runner::run: run() already happened");
  ran_ = true;
  if (threads_ <= 1 || jobs_.size() <= 1) {
    effective_threads_ = 1;  // inline on the calling thread
    for (Job& job : jobs_) execute(job);
  } else {
    effective_threads_ = std::min(threads_, jobs_.size());
    util::ThreadPool pool(effective_threads_);
    for (Job& job : jobs_) {
      pool.submit([this, &job] { execute(job); });
    }
    pool.wait();
  }
  write_json();
}

const JobOutcome& Runner::outcome(std::size_t id) const {
  if (!ran_) throw std::logic_error("Runner::outcome: call run() first");
  return jobs_.at(id).out;
}

std::string Runner::json() const {
  util::Json doc = util::Json::object();
  doc.set("schema", util::Json::number(std::uint64_t{2}));
  doc.set("harness", util::Json::string(harness_));
  doc.set("threads", util::Json::number(
                         static_cast<std::uint64_t>(effective_threads_)));
  doc.set("small_profile", util::Json::boolean(small_run()));
  util::Json records = util::Json::array();
  for (const Job& job : jobs_) records.push_back(job.record);
  doc.set("records", std::move(records));
  // Header fields and records one per line; each record on one line.
  return doc.dump(2) + "\n";
}

std::string Runner::json_path() const {
  if (!json_enabled()) return "";
  return json_dir() + "/BENCH_" + harness_ + ".json";
}

void Runner::write_json() const {
  const std::string path = json_path();
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write bench baseline %s\n",
                 path.c_str());
    return;
  }
  out << json();
}

}  // namespace cl::bench
