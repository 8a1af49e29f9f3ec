// Blocking client for the attack service: one connection, one request line
// out, one response line back (requests on one connection are answered in
// order, so a Client is usable from one thread at a time). Used by
// `cutelock submit` and the service tests.
#pragma once

#include <string>

#include "util/json.hpp"

namespace cl::service {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a daemon on 127.0.0.1:port / a Unix socket path. False with
  /// a diagnostic in *error on failure.
  bool connect_tcp(int port, std::string* error);
  bool connect_unix(const std::string& path, std::string* error);

  bool connected() const { return fd_ >= 0; }
  void close();

  /// Send one request, block for its response line. False on transport or
  /// parse failure; a server-side error still returns true (inspect the
  /// response's "ok"/"error" fields).
  bool request(const util::Json& req, util::Json* response, std::string* error);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes past the last response line
};

}  // namespace cl::service
