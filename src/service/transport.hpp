#pragma once
// Socket transport for the flow-evaluation service: a thin RAII layer over
// Unix-domain and TCP stream sockets with blocking, timeout-aware exact
// reads/writes. Everything above this file (wire.hpp upward) is
// transport-agnostic; everything below the Socket API is POSIX.
//
// Addresses are spelled "unix:/path/to.sock" or "tcp:host:port" so worker
// lists stay plain strings in configs and on the evald command line.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace flowgen::service {

/// Any transport-level failure: connect/bind errors, peer death mid-frame,
/// exceeded timeouts. The coordinator treats these as "worker lost".
class TransportError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Listener::accept ran out its poll window with no pending connection —
/// the one TransportError that is *not* a failure. Accept loops catch this
/// to re-check their stop flag; hard accept errors (EMFILE, EBADF, a dead
/// listener) stay plain TransportError and must propagate, not spin.
class AcceptTimeout : public TransportError {
public:
  using TransportError::TransportError;
};

struct Address {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string host;         ///< unix: filesystem path; tcp: host/IP
  std::uint16_t port = 0;   ///< tcp only

  /// Parse "unix:/path" or "tcp:host:port"; throws TransportError.
  static Address parse(const std::string& spec);
  std::string to_string() const;
};

/// Move-only owner of a connected stream socket.
class Socket {
public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();
  /// Shut both directions down without closing the fd: the peer sees EOF
  /// and a recv blocked on this socket in another thread returns. Safe to
  /// call from any thread while the owner still uses the socket.
  void shutdown() const;

  /// Flip O_NONBLOCK. The coordinator's event loop puts every socket it
  /// owns in non-blocking mode; send_all/recv_all keep working on such
  /// sockets (they poll for readiness instead of relying on a blocking fd).
  void set_nonblocking(bool on) const;

  /// Write exactly `len` bytes; throws TransportError on any failure
  /// (including EPIPE — SIGPIPE is suppressed). With timeout_ms >= 0 each
  /// wait for buffer space is bounded, so a peer that stops *reading*
  /// (wedged, SIGSTOPped) raises TransportError instead of blocking the
  /// caller forever once the socket buffer fills. Correct on blocking and
  /// non-blocking sockets alike: a short write or EAGAIN means "poll for
  /// POLLOUT and resume", never a failure.
  void send_all(const void* data, std::size_t len, int timeout_ms = -1);

  /// One non-blocking write attempt. Returns the bytes written (possibly
  /// short), or -1 if the socket buffer is full right now (EAGAIN). Throws
  /// TransportError on hard errors. The reactor's buffered writers are
  /// built on this.
  long send_some(const void* data, std::size_t len);

  /// One non-blocking read attempt. Returns bytes read, 0 on EOF, or -1
  /// if nothing is available right now (EAGAIN). Throws TransportError on
  /// hard errors.
  long recv_some(void* data, std::size_t len);

  /// Read exactly `len` bytes. Returns false on clean EOF before the first
  /// byte; throws TransportError on errors, timeouts, or EOF mid-record.
  /// timeout_ms < 0 blocks indefinitely; the timeout applies per poll wait,
  /// i.e. to gaps in the stream, not to the whole record.
  bool recv_all(void* data, std::size_t len, int timeout_ms = -1);

  /// Wait until readable; false on timeout, throws on poll error.
  bool wait_readable(int timeout_ms) const;

private:
  int fd_ = -1;
};

/// Connect to a listening worker/server; throws TransportError.
Socket connect_to(const Address& addr, int timeout_ms = 5000);

/// A bound, listening server socket.
class Listener {
public:
  /// Bind + listen on `addr`. Unix paths are unlinked first so restarts
  /// work; tcp port 0 picks an ephemeral port (see address()).
  static Listener bind(const Address& addr);

  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;
  ~Listener();

  /// Accept one connection; throws TransportError on timeout or error.
  Socket accept(int timeout_ms = -1);

  /// The actual bound address (resolves tcp port 0).
  const Address& address() const { return addr_; }
  int fd() const { return sock_.fd(); }

private:
  Listener(Socket sock, Address addr)
      : sock_(std::move(sock)), addr_(std::move(addr)) {}

  Socket sock_;
  Address addr_;
};

/// A connected AF_UNIX stream pair — the loopback cluster's parent/child
/// channel (no filesystem path, inherited across fork).
std::pair<Socket, Socket> socket_pair();

}  // namespace flowgen::service
