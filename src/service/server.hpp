// Attack-as-a-service daemon.
//
// `cutelock serve` turns the one-shot CLI/bench world into a long-running
// service: clients submit lock/attack/verify jobs as newline-delimited JSON
// over a TCP or Unix socket (util/json.hpp), the server schedules
// them asynchronously on a util::ThreadPool with a per-job AttackBudget and
// a cooperative cancel flag (plumbed through the SAT solver's atomic
// interrupt hook via AttackBudget::cancel), and clients poll (`status`),
// block (`wait`), or abort (`cancel`) by job id.
//
// What makes the daemon worth running instead of the CLI is what persists
// between jobs:
//   * a CircuitCache keyed by structural content hash — repeated
//     submissions of the same netlist/oracle skip parsing and simulation-
//     kernel compilation (service/cache.hpp);
//   * the process-wide attack::ObservationBank registry, forced on for the
//     daemon's lifetime, so every attack's oracle facts prime the next
//     attack on the same (locked, oracle) pair — a repeated job replays
//     from the bank and reports strictly fewer fresh_queries;
//   * optional disk persistence for the banks (ServerOptions::obs_bank_path;
//     `cutelock serve` defaults it to CUTELOCK_OBS_BANK_PATH): loaded on
//     start, saved on shutdown, so oracle knowledge survives restarts and
//     can be shipped between machines.
//
// Protocol schema, job lifecycle, and the persistence format: docs/service.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/cache.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace cl::service {

struct ServerOptions {
  /// Non-empty: listen on this Unix-domain socket path (a stale file from a
  /// dead daemon is replaced). Takes precedence over tcp_port.
  std::string unix_socket;
  /// When unix_socket is empty: listen on 127.0.0.1:tcp_port (0 picks an
  /// ephemeral port; read it back with port()).
  int tcp_port = 0;
  /// Attack workers (concurrent jobs); 0 = one per hardware thread.
  std::size_t workers = 0;
  /// Observation-bank persistence file: loaded on start (missing file is
  /// fine, corrupt is rejected with a warning), saved on stop. Empty = no
  /// persistence.
  std::string obs_bank_path;
  /// Switch the cross-run observation bank on for the daemon's lifetime:
  /// cross-job caching is the service's point.
  bool use_observation_bank = true;
};

/// Observation-bank persistence at `path`, a no-op when it is empty. Load
/// merges the file into the banks (a missing file is a cold start); a
/// corrupt file, or a save that fails, warns on stderr as `who` and is
/// otherwise ignored.
void load_bank_file(const std::string& path, const char* who);
void save_bank_file(const std::string& path, const char* who);

/// Run one `attack` job request (docs/service.md) and return its result
/// object: attack::to_json of the attack's result, framed by the job's own
/// fields. The mode runs from the attack registry (attack/registry.hpp)
/// with one SAT solver and no preprocessing; the job reads no environment.
/// The daemon runs it on its pool with BBO at one thread; `cutelock attack`
/// runs it in-process with a private cache.
///
/// The mode name and options, `accept` and `true_key` are checked before
/// any circuit is read: a malformed request throws std::invalid_argument. A
/// missing, unreadable or unparsable circuit, a lint rejection, or a
/// scan-model mode on circuits whose scan interfaces differ throws
/// std::runtime_error. `cancel` (may be null) is the job's kill switch;
/// `bbo_jobs` is BBO's screening threads.
util::Json run_attack_job(const util::Json& request, CircuitCache& cache,
                          const std::atomic<bool>* cancel,
                          std::size_t bbo_jobs);

/// The longest request line a connection may send, newline excluded: 64 MiB,
/// above the largest inline circuit the benches send (syn1m's .bench text).
/// A longer line is answered with an error naming the cap, and the
/// connection is closed without reading the rest of the line.
inline constexpr std::size_t k_max_request_line = std::size_t{64} << 20;

class Server {
 public:
  explicit Server(ServerOptions options) : options_(std::move(options)) {}
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, load persisted banks, start the accept loop. False + *error on
  /// bind/listen failure.
  bool start(std::string* error);

  /// Graceful shutdown: stop accepting, cancel queued and running jobs,
  /// drain the pool, answer blocked waiters, save banks, join every thread.
  /// Idempotent.
  void stop();

  /// Block until a client's `shutdown` request (or stop()), then shut down.
  void serve_forever();

  bool running() const;
  /// The bound TCP port (after start(); 0 when serving a Unix socket).
  int port() const;
  const std::string& socket_path() const { return options_.unix_socket; }

  /// One request against this server's job table (the same dispatcher the
  /// socket connections use; `wait` blocks). Exposed for in-process tests.
  util::Json handle_request(const util::Json& request);

 private:
  /// The socket path defers acting on a `shutdown` op until the reply line
  /// is on the wire — signalling from inside the dispatcher would let stop()
  /// cut the connection before the client hears its acknowledgement.
  util::Json handle_request(const util::Json& request, bool* defer_shutdown);
  void request_shutdown();

  struct Job {
    std::uint64_t id = 0;
    std::string kind;  // "attack" | "verify" | "lock" | "analyze"
    enum class State { Queued, Running, Done, Cancelled, Error };
    State state = State::Queued;
    std::atomic<bool> cancel{false};
    util::Json request;
    util::Json result;  // payload, valid when state == Done
    std::string error;  // diagnostic, valid when state == Error
    bool bad_request = false;  // Error on a malformed request field
  };

  static const char* state_label(Job::State s);

  bool bind_listener(std::string* error);
  void accept_loop();
  void handle_connection(int fd);

  util::Json submit_job(const util::Json& request);
  util::Json job_status(std::uint64_t id, bool wait);
  util::Json cancel_job(std::uint64_t id);
  util::Json stats() const;
  void run_job(Job& job);
  void run_verify_job(Job& job, util::Json* result);
  void run_lock_job(Job& job, util::Json* result);
  void run_analyze_job(Job& job, util::Json* result);

  ServerOptions options_;
  CircuitCache cache_;

  mutable std::mutex mu_;
  std::condition_variable job_cv_;       // a job reached a terminal state
  std::condition_variable shutdown_cv_;  // a client requested shutdown
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  bool started_ = false;
  bool stopping_ = false;
  bool shutdown_requested_ = false;

  std::unique_ptr<util::ThreadPool> pool_;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> connection_threads_;
  std::vector<int> connection_fds_;
};

}  // namespace cl::service
