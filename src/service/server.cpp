#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/key_infer.hpp"
#include "analysis/lint.hpp"
#include "attack/accept.hpp"
#include "attack/observation_bank.hpp"
#include "attack/registry.hpp"
#include "attack/verify.hpp"
#include "core/cute_lock_str.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/transform.hpp"
#include "sim/sequence.hpp"
#include "util/timer.hpp"

namespace cl::service {
namespace {

util::Json error_reply(const std::string& message) {
  util::Json reply = util::Json::object();
  reply.set("ok", util::Json::boolean(false));
  reply.set("error", util::Json::string(message));
  return reply;
}

bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool bits_from_string(const std::string& text, sim::BitVec* out) {
  out->clear();
  out->reserve(text.size());
  for (char c : text) {
    if (c != '0' && c != '1') return false;
    out->push_back(c == '1' ? 1 : 0);
  }
  return true;
}

util::Json diagnostics_to_json(const analysis::LintReport& report) {
  util::Json arr = util::Json::array();
  for (const analysis::Diagnostic& d : report.diagnostics) {
    util::Json item = util::Json::object();
    item.set("severity",
             util::Json::string(d.severity == analysis::Severity::Error
                              ? "error"
                              : (d.severity == analysis::Severity::Warning
                                     ? "warning"
                                     : "info")));
    item.set("code", util::Json::string(d.code));
    if (!d.signal.empty()) item.set("signal", util::Json::string(d.signal));
    item.set("message", util::Json::string(d.message));
    arr.push_back(std::move(item));
  }
  return arr;
}

util::Json count(std::size_t n) {
  return util::Json::number(static_cast<std::uint64_t>(n));
}

/// Netlist source for a job: inline bench text under `field`, or a
/// server-side path under `field` + "_file". Throws std::runtime_error when
/// absent, unreadable or unparsable; *cache_hits advances when the cache
/// already had it.
std::shared_ptr<const CachedCircuit> circuit_from(const util::Json& request,
                                                  const std::string& field,
                                                  CircuitCache& cache,
                                                  std::size_t* cache_hits) {
  std::string text = request.str_or(field, "");
  std::string name = field;
  if (text.empty()) {
    const std::string path = request.str_or(field + "_file", "");
    if (path.empty()) {
      throw std::runtime_error("missing \"" + field +
                               "\" (inline bench text) or \"" + field +
                               "_file\" (server-side path)");
    }
    if (!read_text_file(path, &text)) {
      throw std::runtime_error("cannot read " + path);
    }
    name = path;
  }
  bool hit = false;
  std::string error;
  auto circuit = cache.get_or_parse(text, name, &hit, &error);
  if (circuit == nullptr) throw std::runtime_error(error);
  if (hit) ++*cache_hits;
  return circuit;
}

/// Scan-access threat model: full scan-chain access turns a circuit
/// combinational. The view is cached under its own structural key, so a
/// resubmission skips the transform's compile cost too.
std::shared_ptr<const CachedCircuit> scan_view(const CachedCircuit& circuit,
                                               CircuitCache& cache,
                                               std::size_t* cache_hits) {
  bool hit = false;
  auto view = cache.get_or_add(netlist::scan_expose(circuit.netlist()), &hit);
  if (hit) ++*cache_hits;
  return view;
}

/// Write the whole buffer; MSG_NOSIGNAL so a client that hung up mid-reply
/// costs us an EPIPE, not a SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A request's number field (the `seconds` budget, the `epsilon`
/// tolerance), `fallback` when absent. A value that is not a number, or is
/// negative or non-finite (JSON's 1e999 parses to +inf, which would lift a
/// `seconds` deadline), is a malformed request, as the matching flag is on
/// the command line.
double number_field(const util::Json& request, const std::string& name,
                    double fallback) {
  const util::Json* field = request.find(name);
  if (field == nullptr) return fallback;
  const double value = field->type() == util::Json::Type::Number
                           ? field->as_number()
                           : -1.0;
  if (!std::isfinite(value) || value < 0) {
    throw std::invalid_argument("\"" + name +
                                "\" must be a finite non-negative number");
  }
  return value;
}

/// A request's count field (`max_iterations`, ...), `fallback` when absent.
/// A value that is not a non-negative integer below 2^64 (a string, -5,
/// 2.5) is a malformed request.
std::uint64_t count_field(const util::Json& request, const std::string& name,
                          std::uint64_t fallback) {
  const util::Json* field = request.find(name);
  if (field == nullptr) return fallback;
  const double count = field->type() == util::Json::Type::Number
                           ? field->as_number()
                           : -1.0;
  if (!(count >= 0 && count < 18446744073709551616.0) ||
      count != std::floor(count)) {
    throw std::invalid_argument("\"" + name +
                                "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(count);
}

}  // namespace

void load_bank_file(const std::string& path, const char* who) {
  if (path.empty()) return;
  // A missing file is a cold start, not an error; a corrupt file is
  // rejected loudly but must not keep the run from going ahead.
  if (!std::ifstream(path, std::ios::binary)) return;
  std::string error;
  if (!attack::load_observation_banks(path, &error)) {
    std::fprintf(stderr, "%s: warning: ignoring observation-bank file: %s\n",
                 who, error.c_str());
  }
}

void save_bank_file(const std::string& path, const char* who) {
  std::string error;
  if (!path.empty() && !attack::save_observation_banks(path, &error)) {
    std::fprintf(stderr, "%s: warning: could not save observation banks: %s\n",
                 who, error.c_str());
  }
}

util::Json run_attack_job(const util::Json& request, CircuitCache& cache,
                          const std::atomic<bool>* cancel,
                          std::size_t bbo_jobs) {
  // The whole request is checked before any circuit is read.
  const std::string name = request.str_or("attack", "bmc");
  const attack::AttackMode& mode = attack::find_attack_mode(name);
  attack::ModeOptions options;
  attack::AttackBudget& budget = options.budget;
  budget.time_limit_s = number_field(request, "seconds", 10.0);
  budget.max_iterations =
      count_field(request, "max_iterations", budget.max_iterations);
  budget.max_depth = static_cast<std::size_t>(
      count_field(request, "max_depth", budget.max_depth));
  budget.cancel = cancel;
  options.bbo_jobs = bbo_jobs;
  options.max_period = static_cast<std::size_t>(
      count_field(request, "max_period", options.max_period));
  attack::check_mode_options(mode, options);
  // Acceptance-criterion judgement (docs/locking.md): when the request names
  // a criterion, the reported key is re-judged under it and the verdict
  // rides along in the result, so clients can score multi-key locks without
  // the one-key premise baked into Equal/not-Equal.
  const std::string accept_name = request.str_or("accept", "");
  const auto criterion = attack::parse_criterion(accept_name);
  if (!accept_name.empty() && !criterion) {
    throw std::invalid_argument("\"accept\" must be exact, any or approx");
  }
  const double epsilon = number_field(request, "epsilon", 0.0);
  sim::BitVec truth;
  const std::string truth_text = request.str_or("true_key", "");
  if (!bits_from_string(truth_text, &truth)) {
    throw std::invalid_argument("\"true_key\" must be a 0/1 string");
  }

  std::size_t cache_hits = 0;
  const auto locked = circuit_from(request, "locked", cache, &cache_hits);
  const auto reference = circuit_from(request, "oracle", cache, &cache_hits);
  // Reject malformed submissions up front: a truncated upload or a
  // mismatched oracle would otherwise burn the budget on a solver run that
  // can only end in nonsense.
  const analysis::LintReport lint_rep =
      analysis::lint_attack_inputs(locked->netlist(), reference->netlist());
  if (!lint_rep.ok()) {
    throw std::runtime_error("rejected by netlist lint\n" +
                             analysis::format_diagnostics(lint_rep));
  }
  auto attacked = locked;
  auto queried = reference;
  if (mode.scan_model) {
    attacked = scan_view(*locked, cache, &cache_hits);
    queried = scan_view(*reference, cache, &cache_hits);
    attack::check_scan_interfaces(attacked->netlist(), queried->netlist());
  }
  attack::ModeResult run =
      mode.run(attacked->netlist(), queried->oracle(), options);
  attack::AttackResult& r = run.result;

  attack::AcceptReport accept_report;
  if (criterion) {
    if (r.key.empty()) {
      accept_report.detail = "no key reported";
    } else {
      attack::AcceptOptions accept_options;
      accept_options.criterion = *criterion;
      accept_options.epsilon = epsilon;
      accept_report = attack::verify_any_key(
          locked->netlist(), r.key, reference->netlist(),
          truth_text.empty() ? nullptr : &truth, accept_options);
      attack::apply_acceptance(accept_report, &r);
    }
  }

  util::Json out = util::Json::object();
  out.set("attack", util::Json::string(name));
  out.set("summary", util::Json::string(r.summary()));
  const util::Json fields = attack::to_json(r);
  for (const auto& [field, value] : fields.items()) out.set(field, value);
  if (criterion) {
    out.set("accept", util::Json::string(accept_name));
    out.set("accepted", util::Json::boolean(accept_report.accepted));
    if (!accept_report.detail.empty()) {
      out.set("accept_detail", util::Json::string(accept_report.detail));
    }
  }
  out.set("cache_hits", count(cache_hits));
  for (auto& [field, value] : run.facts) out.set(field, std::move(value));
  return out;
}

Server::~Server() { stop(); }

const char* Server::state_label(Job::State s) {
  switch (s) {
    case Job::State::Queued: return "queued";
    case Job::State::Running: return "running";
    case Job::State::Done: return "done";
    case Job::State::Cancelled: return "cancelled";
    case Job::State::Error: return "error";
  }
  return "?";
}

bool Server::bind_listener(std::string* error) {
  if (!options_.unix_socket.empty()) {
    sockaddr_un addr{};
    if (options_.unix_socket.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "socket path too long: " + options_.unix_socket;
      return false;
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.unix_socket.c_str(),
                options_.unix_socket.size() + 1);
    // A leftover socket file from a dead daemon would make bind fail forever.
    ::unlink(options_.unix_socket.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0) {
      if (error != nullptr) {
        *error = "bind " + options_.unix_socket + ": " + std::strerror(errno);
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0) {
      if (error != nullptr) {
        *error = "bind 127.0.0.1:" + std::to_string(options_.tcp_port) + ": " +
                 std::strerror(errno);
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 16) < 0) {
    if (error != nullptr) *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

bool Server::start(std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopping_) {
      if (error != nullptr) *error = "server already started (one start per instance)";
      return false;
    }
  }
  if (!bind_listener(error)) return false;
  if (options_.use_observation_bank) {
    attack::set_observation_bank_forced(true);
  }
  load_bank_file(options_.obs_bank_path, "cutelock serve");
  pool_ = std::make_unique<util::ThreadPool>(
      options_.workers == 0 ? util::ThreadPool::default_thread_count()
                            : options_.workers);
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  accept_thread_ = std::thread(&Server::accept_loop, this);
  return true;
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    for (auto& [id, job] : jobs_) {
      job->cancel.store(true, std::memory_order_relaxed);
    }
  }
  // Unblock accept() and stop taking connections.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain the pool: running jobs see their cancel flag through the solver
  // interrupt and unwind with Timeout; queued jobs run, observe the flag
  // immediately, and go terminal as Cancelled. Every job reaching a terminal
  // state notifies job_cv_, so connection threads blocked in `wait` answer
  // their clients before we cut the sockets.
  pool_.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : connection_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : connection_threads_) {
    if (t.joinable()) t.join();
  }
  connection_threads_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  save_bank_file(options_.obs_bank_path, "cutelock serve");
  // The socket file disappears last: scripts that poll for it to vanish may
  // immediately start a successor daemon, which must find the bank on disk.
  if (!options_.unix_socket.empty()) ::unlink(options_.unix_socket.c_str());
  if (options_.use_observation_bank) {
    attack::set_observation_bank_forced(false);
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void Server::serve_forever() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
  }
  stop();
}

bool Server::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !stopping_;
}

int Server::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bound_port_;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by stop()
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back(&Server::handle_connection, this, fd);
  }
}

void Server::handle_connection(int fd) {
  // `buffer` holds the input not yet consumed, and holds no newline before
  // `scanned`: each search resumes there, and consumed lines are dropped
  // once per recv, so a line costs time linear in its length however many
  // recv calls deliver it. No line grows past k_max_request_line.
  std::string buffer;
  std::size_t scanned = 0;
  char chunk[4096];
  bool open = true;
  const auto reject_long_line = [fd] {
    send_all(fd, error_reply("bad request: request line longer than " +
                             std::to_string(k_max_request_line) +
                             " bytes (64 MiB); closing the connection")
                         .dump() +
                     "\n");
  };
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t eol;
    while (open && (eol = buffer.find('\n', scanned)) != std::string::npos) {
      if (eol - start > k_max_request_line) {
        reject_long_line();
        open = false;
        break;
      }
      const std::string line = buffer.substr(start, eol - start);
      start = scanned = eol + 1;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      util::Json request;
      std::string parse_error;
      util::Json response;
      bool defer_shutdown = false;
      if (!util::Json::parse(line, &request, &parse_error)) {
        response = error_reply("bad request: " + parse_error);
      } else if (!request.is_object()) {
        response = error_reply("bad request: expected a JSON object");
      } else {
        response = handle_request(request, &defer_shutdown);
      }
      if (!send_all(fd, response.dump() + "\n")) open = false;
      // Only signal once the client has its acknowledgement: stop() tears
      // down this very connection.
      if (defer_shutdown) request_shutdown();
    }
    if (open && buffer.size() - start > k_max_request_line) {
      reject_long_line();
      open = false;
    }
    buffer.erase(0, start);
    scanned = buffer.size();
  }
  // The thread owns the close; stop() only ever shutdown()s a still-listed
  // fd, so marking the slot under the lock keeps the two from racing.
  std::lock_guard<std::mutex> lock(mu_);
  for (int& slot : connection_fds_) {
    if (slot == fd) {
      ::close(fd);
      slot = -1;
      break;
    }
  }
}

void Server::request_shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

util::Json Server::handle_request(const util::Json& request) {
  bool defer_shutdown = false;
  util::Json response = handle_request(request, &defer_shutdown);
  if (defer_shutdown) request_shutdown();
  return response;
}

util::Json Server::handle_request(const util::Json& request,
                                  bool* defer_shutdown) {
  const std::string op = request.str_or("op", "");
  if (op == "ping") {
    util::Json reply = util::Json::object();
    reply.set("ok", util::Json::boolean(true));
    reply.set("op", util::Json::string("ping"));
    return reply;
  }
  if (op == "submit") return submit_job(request);
  if (op == "status" || op == "wait") {
    const std::uint64_t id = request.u64_or("id", 0);
    if (id == 0) return error_reply(op + ": missing job \"id\"");
    return job_status(id, op == "wait");
  }
  if (op == "cancel") {
    const std::uint64_t id = request.u64_or("id", 0);
    if (id == 0) return error_reply("cancel: missing job \"id\"");
    return cancel_job(id);
  }
  if (op == "stats") return stats();
  if (op == "shutdown") {
    *defer_shutdown = true;
    util::Json reply = util::Json::object();
    reply.set("ok", util::Json::boolean(true));
    reply.set("op", util::Json::string("shutdown"));
    return reply;
  }
  return error_reply("unknown op \"" + op +
                     "\" (want ping/submit/status/wait/cancel/stats/shutdown)");
}

util::Json Server::submit_job(const util::Json& request) {
  const std::string kind = request.str_or("job", "attack");
  if (kind != "attack" && kind != "verify" && kind != "lock" &&
      kind != "analyze") {
    return error_reply("unknown job kind \"" + kind +
                       "\" (want attack/verify/lock/analyze)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || stopping_) return error_reply("server is shutting down");
  const std::uint64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->kind = kind;
  job->request = request;
  Job* raw = job.get();
  jobs_[id] = std::move(job);
  // Submitting under mu_ is what makes shutdown sound: stop() flips
  // stopping_ under the same lock before draining the pool, so no task can
  // slip into a pool that is being destroyed.
  pool_->submit([this, raw] { run_job(*raw); });
  util::Json reply = util::Json::object();
  reply.set("ok", util::Json::boolean(true));
  reply.set("id", util::Json::number(id));
  reply.set("status", util::Json::string(state_label(Job::State::Queued)));
  return reply;
}

util::Json Server::job_status(std::uint64_t id, bool wait) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return error_reply("no such job id " + std::to_string(id));
  }
  Job& job = *it->second;
  if (wait) {
    job_cv_.wait(lock, [&] {
      return job.state != Job::State::Queued && job.state != Job::State::Running;
    });
  }
  util::Json reply = util::Json::object();
  reply.set("ok", util::Json::boolean(true));
  reply.set("id", util::Json::number(id));
  reply.set("status", util::Json::string(state_label(job.state)));
  if (job.state == Job::State::Done) reply.set("result", job.result);
  if (job.state == Job::State::Error) {
    reply.set("error", util::Json::string(job.error));
    if (job.bad_request) reply.set("bad_request", util::Json::boolean(true));
  }
  return reply;
}

util::Json Server::cancel_job(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return error_reply("no such job id " + std::to_string(id));
  }
  Job& job = *it->second;
  const bool terminal = job.state == Job::State::Done ||
                        job.state == Job::State::Cancelled ||
                        job.state == Job::State::Error;
  if (!terminal) job.cancel.store(true, std::memory_order_relaxed);
  util::Json reply = util::Json::object();
  reply.set("ok", util::Json::boolean(true));
  reply.set("id", util::Json::number(id));
  reply.set("status", util::Json::string(state_label(job.state)));
  reply.set("cancelled", util::Json::boolean(!terminal));
  return reply;
}

util::Json Server::stats() const {
  util::Json jobs = util::Json::object();
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t queued = 0, running = 0, done = 0, cancelled = 0, errors = 0;
    for (const auto& [id, job] : jobs_) {
      switch (job->state) {
        case Job::State::Queued: ++queued; break;
        case Job::State::Running: ++running; break;
        case Job::State::Done: ++done; break;
        case Job::State::Cancelled: ++cancelled; break;
        case Job::State::Error: ++errors; break;
      }
    }
    jobs.set("submitted", count(jobs_.size()));
    jobs.set("queued", util::Json::number(queued));
    jobs.set("running", util::Json::number(running));
    jobs.set("done", util::Json::number(done));
    jobs.set("cancelled", util::Json::number(cancelled));
    jobs.set("errors", util::Json::number(errors));
  }
  util::Json cache = util::Json::object();
  cache.set("entries", count(cache_.size()));
  cache.set("hits", util::Json::number(cache_.hits()));
  cache.set("misses", util::Json::number(cache_.misses()));
  util::Json bank = util::Json::object();
  std::uint64_t facts = 0;
  const auto keys = attack::observation_bank_keys();
  for (std::uint64_t key : keys) {
    facts += attack::observation_bank_for_key(key).size();
  }
  bank.set("banks", count(keys.size()));
  bank.set("facts", util::Json::number(facts));
  util::Json reply = util::Json::object();
  reply.set("ok", util::Json::boolean(true));
  reply.set("jobs", std::move(jobs));
  reply.set("circuit_cache", std::move(cache));
  reply.set("observation_bank", std::move(bank));
  return reply;
}

void Server::run_job(Job& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job.cancel.load(std::memory_order_relaxed)) {
      job.state = Job::State::Cancelled;
      job_cv_.notify_all();
      return;
    }
    job.state = Job::State::Running;
  }
  util::Json result = util::Json::object();
  std::string error;
  bool bad_request = false;
  try {
    if (job.kind == "attack") {
      // BBO screens at one thread: the pool already runs jobs side by side.
      result = run_attack_job(job.request, cache_, &job.cancel, 1);
    } else if (job.kind == "verify") {
      run_verify_job(job, &result);
    } else if (job.kind == "analyze") {
      run_analyze_job(job, &result);
    } else {
      run_lock_job(job, &result);
    }
  } catch (const std::exception& e) {
    error = job.kind + ": " + e.what();
    // A malformed request (run_attack_job checks its fields first): the
    // status reply marks it, so clients can tell it from a failed run.
    bad_request = dynamic_cast<const std::invalid_argument*>(&e) != nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (job.cancel.load(std::memory_order_relaxed)) {
    job.state = Job::State::Cancelled;
  } else if (!error.empty()) {
    job.state = Job::State::Error;
    job.error = error;
    job.bad_request = bad_request;
  } else {
    job.state = Job::State::Done;
    job.result = std::move(result);
  }
  job_cv_.notify_all();
}

void Server::run_verify_job(Job& job, util::Json* result) {
  attack::VerifyOptions options;
  options.time_limit_s =
      number_field(job.request, "seconds", options.time_limit_s);
  std::size_t cache_hits = 0;
  const auto locked = circuit_from(job.request, "locked", cache_, &cache_hits);
  const auto reference = circuit_from(job.request, "oracle", cache_, &cache_hits);
  const std::string key_text = job.request.str_or("key", "");
  sim::BitVec key;
  if (key_text.empty() || !bits_from_string(key_text, &key)) {
    throw std::runtime_error("\"key\" must be a non-empty 0/1 string");
  }
  if (key.size() != locked->netlist().key_inputs().size()) {
    throw std::runtime_error(
        "key has " + std::to_string(key.size()) + " bits but the " +
        "locked circuit has " +
        std::to_string(locked->netlist().key_inputs().size()) + " key inputs");
  }
  util::Timer timer;
  const attack::VerifyResult vr = attack::verify_static_key(
      locked->netlist(), key, reference->netlist(), options);
  util::Json& out = *result;
  out.set("verdict", util::Json::string(attack::verdict_name(vr.verdict)));
  out.set("equivalent",
          util::Json::boolean(vr.verdict == attack::Verdict::Equivalent));
  out.set("counterexample_cycles", count(vr.counterexample.size()));
  out.set("seconds", util::Json::number(timer.seconds()));
  out.set("cache_hits", count(cache_hits));
}

void Server::run_lock_job(Job& job, util::Json* result) {
  std::size_t cache_hits = 0;
  const auto circuit = circuit_from(job.request, "circuit", cache_, &cache_hits);
  core::StrOptions options;
  options.num_keys = job.request.u64_or("k", 4);
  options.key_bits = job.request.u64_or("ki", 4);
  options.locked_ffs = job.request.u64_or("ffs", 1);
  options.seed = job.request.u64_or("seed", 1);
  options.single_key_reduction = job.request.bool_or("single_key", false);
  const lock::LockResult lr = core::cute_lock_str(circuit->netlist(), options);
  util::Json& out = *result;
  out.set("locked", util::Json::string(netlist::write_bench_string(lr.locked)));
  out.set("scheme", util::Json::string(lr.scheme));
  out.set("key_schedule", attack::schedule_to_json(lr.key_schedule));
  out.set("cache_hits", count(cache_hits));
}

void Server::run_analyze_job(Job& job, util::Json* result) {
  const double seconds = number_field(job.request, "seconds", 10.0);
  std::size_t cache_hits = 0;
  const auto circuit = circuit_from(job.request, "circuit", cache_, &cache_hits);
  const netlist::Netlist& nl = circuit->netlist();
  util::Timer timer;

  util::Json& out = *result;
  util::Json stats = util::Json::object();
  stats.set("signals", count(nl.size()));
  stats.set("inputs", count(nl.inputs().size()));
  stats.set("key_inputs", count(nl.key_inputs().size()));
  stats.set("outputs", count(nl.outputs().size()));
  stats.set("dffs", count(nl.dffs().size()));
  out.set("stats", std::move(stats));

  const analysis::LintReport lint_rep = analysis::lint(nl);
  out.set("lint_ok", util::Json::boolean(lint_rep.ok()));
  out.set("lint_errors", count(lint_rep.errors()));
  out.set("lint_warnings", count(lint_rep.warnings()));
  if (lint_rep.infos() > 0) {
    out.set("lint_infos", count(lint_rep.infos()));
  }
  if (!lint_rep.diagnostics.empty()) {
    out.set("diagnostics", diagnostics_to_json(lint_rep));
  }

  if (!nl.key_inputs().empty()) {
    analysis::InferOptions opt;
    opt.time_limit_s = seconds;
    opt.profile_unateness = job.request.bool_or("unateness", true);
    const analysis::KeyHintReport report = analysis::infer_key_hints(nl, opt);
    out.set("verdicts", util::Json::string(report.verdict_string()));
    out.set("decided", count(report.decided()));
    out.set("summary", util::Json::string(report.summary()));
    if (report.budget_exhausted) {
      out.set("budget_exhausted", util::Json::boolean(true));
    }
    util::Json bits = util::Json::array();
    for (const analysis::BitHint& h : report.bits) {
      util::Json bit = util::Json::object();
      bit.set("name", util::Json::string(h.name));
      bit.set("role", util::Json::string(analysis::role_name(h.role)));
      bit.set("verdict", util::Json::string(std::string(
                             1, analysis::verdict_char(h.verdict))));
      bit.set("confidence", util::Json::number(h.confidence));
      bit.set("unateness", util::Json::string(analysis::unate_name(h.unate)));
      bits.push_back(std::move(bit));
    }
    out.set("bits", std::move(bits));
  }

  out.set("seconds", util::Json::number(timer.seconds()));
  out.set("cache_hits", count(cache_hits));
}

}  // namespace cl::service
