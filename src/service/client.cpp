#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace cl::service {

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::connect_tcp(int port, std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    if (error != nullptr) {
      *error = "connect 127.0.0.1:" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    close();
    return false;
  }
  return true;
}

bool Client::connect_unix(const std::string& path, std::string* error) {
  close();
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    if (error != nullptr) {
      *error = "connect " + path + ": " + std::strerror(errno);
    }
    close();
    return false;
  }
  return true;
}

bool Client::request(const util::Json& req, util::Json* response,
                     std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "not connected";
    return false;
  }
  const std::string line = req.dump() + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (error != nullptr) *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  char chunk[4096];
  for (;;) {
    const std::size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      const std::string reply_line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      std::string parse_error;
      if (!util::Json::parse(reply_line, response, &parse_error)) {
        if (error != nullptr) *error = "bad response: " + parse_error;
        return false;
      }
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (error != nullptr) {
        *error = n == 0 ? "connection closed by server"
                        : std::string("recv: ") + std::strerror(errno);
      }
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace cl::service
