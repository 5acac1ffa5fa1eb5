#include "service/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/failpoint.hpp"

namespace flowgen::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

/// Failpoint adapter for transport sites: callers of send/recv catch
/// TransportError, so an injected `error` action must arrive as one —
/// otherwise chaos runs would exercise an exception path no real I/O
/// failure can take.
void transport_failpoint(const char* name) {
  try {
    FLOWGEN_FAILPOINT(name);
  } catch (const util::FailpointError& e) {
    throw TransportError(e.what());
  }
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(sa.sun_path)) {
    throw TransportError("unix socket path too long: " + path);
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

/// connect() with an honest deadline: non-blocking connect, poll for
/// writability, then SO_ERROR. A black-holed host (dropped SYNs) costs
/// `timeout_ms`, not the kernel's multi-minute retry window.
void connect_with_timeout(int fd, const sockaddr* sa, socklen_t len,
                          int timeout_ms, const std::string& what) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc;
  do {
    rc = ::connect(fd, sa, len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno != EINPROGRESS) throw_errno("connect " + what);
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) throw_errno("poll");
    if (rc == 0) throw TransportError("connect timeout: " + what);
    int err = 0;
    socklen_t errlen = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
    if (err != 0) {
      errno = err;
      throw_errno("connect " + what);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
}

}  // namespace

Address Address::parse(const std::string& spec) {
  Address a;
  if (spec.rfind("unix:", 0) == 0) {
    a.kind = Kind::kUnix;
    a.host = spec.substr(5);
    if (a.host.empty()) throw TransportError("empty unix path in " + spec);
    return a;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    a.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw TransportError("expected tcp:host:port, got " + spec);
    }
    a.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long p = std::strtol(port.c_str(), &end, 10);
    if (end == port.c_str() || *end != '\0' || p < 0 || p > 65535) {
      throw TransportError("bad tcp port in " + spec);
    }
    a.port = static_cast<std::uint16_t>(p);
    return a;
  }
  throw TransportError("address must start with unix: or tcp: — " + spec);
}

std::string Address::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + host;
  return "tcp:" + host + ":" + std::to_string(port);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::set_nonblocking(bool on) const {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd_, F_SETFL, want) != 0) {
    throw_errno("fcntl(F_SETFL)");
  }
}

void Socket::send_all(const void* data, std::size_t len, int timeout_ms) {
  transport_failpoint("transport.send");
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    // Attempt first, poll only on EAGAIN: short writes advance `p` and the
    // loop resumes mid-buffer, so the socket may be blocking *or*
    // non-blocking (O_NONBLOCK on the fd behaves exactly like the
    // MSG_DONTWAIT we pass when a timeout bounds each wait).
    const ssize_t n =
        ::send(fd_, p, len,
               MSG_NOSIGNAL | (timeout_ms >= 0 ? MSG_DONTWAIT : 0));
    if (n > 0) {
      p += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Buffer full: wait for space (forever when timeout_ms < 0 — the
      // historical blocking contract) and retry.
      pollfd pfd{fd_, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) throw_errno("poll");
      if (rc == 0) throw TransportError("send timeout");
      continue;
    }
    throw_errno("send");
  }
}

long Socket::send_some(const void* data, std::size_t len) {
  transport_failpoint("transport.send");
  while (true) {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("send");
  }
}

long Socket::recv_some(void* data, std::size_t len) {
  transport_failpoint("transport.recv");
  while (true) {
    const ssize_t n = ::recv(fd_, data, len, MSG_DONTWAIT);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("recv");
  }
}

bool Socket::recv_all(void* data, std::size_t len, int timeout_ms) {
  transport_failpoint("transport.recv");
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    if (timeout_ms >= 0 && !wait_readable(timeout_ms)) {
      throw TransportError("recv timeout");
    }
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A non-blocking socket (or a spurious poll wakeup) reports EAGAIN;
      // go back to waiting rather than failing the record. The bounded
      // case re-enters the wait_readable at the top of the loop.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (timeout_ms < 0) wait_readable(-1);
        continue;
      }
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF on a record boundary
      throw TransportError("peer closed mid-record");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::wait_readable(int timeout_ms) const {
  pollfd pfd{fd_, POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return rc > 0;
  }
}

Socket connect_to(const Address& addr, int timeout_ms) {
  transport_failpoint("transport.connect");
  if (addr.kind == Address::Kind::kUnix) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) throw_errno("socket(AF_UNIX)");
    const sockaddr_un sa = unix_sockaddr(addr.host);
    connect_with_timeout(s.fd(), reinterpret_cast<const sockaddr*>(&sa),
                         sizeof sa, timeout_ms, addr.to_string());
    return s;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(addr.port);
  if (::getaddrinfo(addr.host.c_str(), port.c_str(), &hints, &res) != 0) {
    throw TransportError("getaddrinfo failed for " + addr.to_string());
  }
  Socket s;
  std::string last_error = "connect failed: " + addr.to_string();
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Socket cand(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!cand.valid()) continue;
    try {
      connect_with_timeout(cand.fd(), ai->ai_addr, ai->ai_addrlen,
                           timeout_ms, addr.to_string());
      s = std::move(cand);
      break;
    } catch (const TransportError& e) {
      last_error = e.what();  // try the next resolved address
    }
  }
  ::freeaddrinfo(res);
  if (!s.valid()) throw TransportError(last_error);
  const int one = 1;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return s;
}

Listener Listener::bind(const Address& addr) {
  if (addr.kind == Address::Kind::kUnix) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) throw_errno("socket(AF_UNIX)");
    ::unlink(addr.host.c_str());
    const sockaddr_un sa = unix_sockaddr(addr.host);
    if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof sa) !=
        0) {
      throw_errno("bind " + addr.to_string());
    }
    if (::listen(s.fd(), 16) != 0) throw_errno("listen");
    return Listener(std::move(s), addr);
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (addr.host.empty() || addr.host == "*") {
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    throw TransportError("listen host must be an IPv4 address: " + addr.host);
  }
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    throw_errno("bind " + addr.to_string());
  }
  if (::listen(s.fd(), 16) != 0) throw_errno("listen");
  Address actual = addr;
  socklen_t len = sizeof sa;
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
    actual.port = ntohs(sa.sin_port);
  }
  return Listener(std::move(s), actual);
}

Listener::~Listener() {
  if (sock_.valid() && addr_.kind == Address::Kind::kUnix) {
    ::unlink(addr_.host.c_str());
  }
}

Socket Listener::accept(int timeout_ms) {
  transport_failpoint("transport.accept");
  if (!sock_.wait_readable(timeout_ms)) {
    throw AcceptTimeout("accept timeout on " + addr_.to_string());
  }
  // EINTR between the poll and the accept (signal-heavy chaos runs, a
  // profiler's SIGPROF) is a retry, not a transport failure.
  int fd;
  do {
    fd = ::accept(sock_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) throw_errno("accept");
  if (addr_.kind == Address::Kind::kTcp) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return Socket(fd);
}

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

}  // namespace flowgen::service
