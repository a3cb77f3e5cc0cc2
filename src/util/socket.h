#ifndef HISTWALK_UTIL_SOCKET_H_
#define HISTWALK_UTIL_SOCKET_H_

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

#if defined(_WIN32)
#error "util/socket.h is POSIX-only (the telemetry server has no Windows port)"
#endif

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

// Thin RAII wrappers over POSIX TCP sockets — just enough substrate for
// the embedded telemetry endpoint (obs/http_exporter.h), and the first
// networking brick for the ROADMAP item-1 service daemon. Deliberately
// minimal: blocking I/O, IPv4 loopback by default, no TLS, no poll loop.
// Everything returns util::Status/Result instead of throwing; EINTR is
// retried internally.

namespace histwalk::util {

// An owned file descriptor for one accepted (or connected) stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream() { Close(); }
  TcpStream(TcpStream&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpStream& operator=(TcpStream&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Connects to 127.0.0.1:port (test/client convenience).
  static Result<TcpStream> ConnectLocal(uint16_t port) {
    return Connect("127.0.0.1", port);
  }

  // Connects to host:port. `host` must be an IPv4 dotted-quad literal or
  // "localhost" — there is deliberately no resolver dependency here; the
  // daemon and its clients address each other numerically.
  static Result<TcpStream> Connect(std::string_view host, uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (host == "localhost") {
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (::inet_pton(AF_INET, std::string(host).c_str(),
                           &addr.sin_addr) != 1) {
      return Status::InvalidArgument("not an IPv4 literal: " +
                                     std::string(host));
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Unavailable(std::string("socket: ") +
                                 std::strerror(errno));
    }
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      Status status = Status::Unavailable(std::string("connect: ") +
                                          std::strerror(errno));
      ::close(fd);
      return status;
    }
    return TcpStream(fd);
  }

  // One recv(); 0 bytes = orderly peer shutdown. Appends to `out`.
  Result<size_t> RecvSome(std::string& out, size_t max_bytes = 4096) {
    std::string buf(max_bytes, '\0');
    ssize_t n;
    do {
      n = ::recv(fd_, buf.data(), buf.size(), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return Status::Unavailable(std::string("recv: ") +
                                 std::strerror(errno));
    }
    out.append(buf.data(), static_cast<size_t>(n));
    return static_cast<size_t>(n);
  }

  // Loops until exactly `len` bytes have been read into `out`. Typed
  // termination:
  //   - orderly peer close before the first byte  -> kNotFound ("clean"
  //     end of stream; between-frames close is not an error for callers
  //     draining a framed protocol)
  //   - orderly peer close mid-buffer             -> kDataLoss (truncated)
  //   - socket error                              -> kUnavailable
  Status RecvAll(char* out, size_t len) {
    size_t got = 0;
    while (got < len) {
      ssize_t n;
      do {
        n = ::recv(fd_, out + got, len - got, 0);
      } while (n < 0 && errno == EINTR);
      if (n < 0) {
        return Status::Unavailable(std::string("recv: ") +
                                   std::strerror(errno));
      }
      if (n == 0) {
        if (got == 0) return Status::NotFound("peer closed (end of stream)");
        return Status::DataLoss("peer closed mid-read after " +
                                std::to_string(got) + "/" +
                                std::to_string(len) + " bytes");
      }
      got += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  // Disables Nagle's algorithm. A framed request/response protocol writes
  // one small frame and then waits; without TCP_NODELAY every exchange
  // eats a delayed-ACK round trip.
  Status SetNoDelay(bool enabled = true) {
    int flag = enabled ? 1 : 0;
    if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) <
        0) {
      return Status::Unavailable(std::string("setsockopt(TCP_NODELAY): ") +
                                 std::strerror(errno));
    }
    return Status::Ok();
  }

  // Half-close helpers. ShutdownRead() wakes a thread blocked in recv()
  // on this fd (it sees end-of-stream) while letting queued writes flush —
  // the graceful-drain primitive. ShutdownBoth() also aborts writes.
  void ShutdownRead() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
  }
  void ShutdownBoth() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  // Loops until every byte of `data` is written (or the peer vanishes).
  Status SendAll(std::string_view data) {
    while (!data.empty()) {
      ssize_t n;
      do {
        n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) {
        return Status::Unavailable(std::string("send: ") +
                                   std::strerror(errno));
      }
      data.remove_prefix(static_cast<size_t>(n));
    }
    return Status::Ok();
  }

  // Releases the descriptor. Only the owner may call it, and only once no
  // other thread can still be inside a call on this stream: a close under a
  // concurrent recv() both races on fd_ and lets the kernel hand the number
  // to a new socket that the other thread then reads or shuts down. To wake
  // such a thread, use ShutdownRead()/ShutdownBoth() and close after it has
  // returned.
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

// A listening socket bound to 127.0.0.1. Accept() blocks; Shutdown() from
// another thread wakes it with an error, which is how the telemetry
// server's accept loop is told to exit. Shutdown() never closes the
// descriptor — the blocked thread may still be reading it — so the close
// waits for the destructor (or a move-assignment over this listener), which
// the owner reaches only after joining that thread.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }
  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_),
        port_(other.port_),
        shut_(other.shut_.load(std::memory_order_relaxed)) {
    other.fd_ = -1;
  }
  TcpListener& operator=(TcpListener&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      shut_.store(other.shut_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      other.fd_ = -1;
    }
    return *this;
  }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds 127.0.0.1:port (0 = kernel-assigned ephemeral port; read the
  // outcome from port()) and starts listening. Loopback-only on purpose:
  // the scrape endpoint is diagnostics, not a public service.
  // `reuse_addr` keeps restarts from tripping over TIME_WAIT remnants of a
  // previous instance; tests that want to prove a port is genuinely busy
  // pass false.
  static Result<TcpListener> Listen(uint16_t port, int backlog = 16,
                                    bool reuse_addr = true) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Unavailable(std::string("socket: ") +
                                 std::strerror(errno));
    }
    if (reuse_addr) {
      int reuse = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Status status = Status::Unavailable(std::string("bind: ") +
                                          std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (::listen(fd, backlog) < 0) {
      Status status = Status::Unavailable(std::string("listen: ") +
                                          std::strerror(errno));
      ::close(fd);
      return status;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      Status status = Status::Unavailable(std::string("getsockname: ") +
                                          std::strerror(errno));
      ::close(fd);
      return status;
    }
    TcpListener listener;
    listener.fd_ = fd;
    listener.port_ = ntohs(bound.sin_port);
    return listener;
  }

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  // Blocks for the next connection. After Shutdown() (from any thread)
  // the pending and all future Accepts return Unavailable.
  Result<TcpStream> Accept() {
    if (shut_.load(std::memory_order_acquire)) {
      return Status::Unavailable("accept: listener shut down");
    }
    int client;
    do {
      client = ::accept(fd_, nullptr, nullptr);
    } while (client < 0 && errno == EINTR);
    if (client < 0) {
      return Status::Unavailable(std::string("accept: ") +
                                 std::strerror(errno));
    }
    return TcpStream(client);
  }

  // Stops listening and wakes a blocked Accept. Idempotent and safe from
  // any thread: it only shuts the socket down and raises a flag; fd_ is
  // neither written nor closed here (see the class comment).
  void Shutdown() {
    if (fd_ >= 0 && !shut_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> shut_{false};
};

}  // namespace histwalk::util

#endif  // HISTWALK_UTIL_SOCKET_H_
