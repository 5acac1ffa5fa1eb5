#include "service/reactor.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace flowgen::service {

namespace {

struct FrameMetrics {
  telemetry::Counter& frames_rx;
  telemetry::Counter& frames_tx;
  telemetry::Counter& bytes_rx;
  telemetry::Counter& bytes_tx;
};

FrameMetrics& frame_metrics() {
  static FrameMetrics m{
      telemetry::counter("flowgen_frames_rx_total",
                         "Wire frames parsed off event-loop connections"),
      telemetry::counter("flowgen_frames_tx_total",
                         "Wire frames enqueued on event-loop connections"),
      telemetry::counter("flowgen_frame_bytes_rx_total",
                         "Bytes received on event-loop connections"),
      telemetry::counter("flowgen_frame_bytes_tx_total",
                         "Bytes sent on event-loop connections"),
  };
  return m;
}

}  // namespace

// ------------------------------------------------------------------ Poller --

#ifdef __linux__

Poller::Poller() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw TransportError(std::string("epoll_create1: ") +
                         std::strerror(errno));
  }
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

namespace {
epoll_event make_event(bool want_read, bool want_write, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = tag;
  return ev;
}
}  // namespace

void Poller::add(int fd, bool want_read, bool want_write, std::uint64_t tag) {
  epoll_event ev = make_event(want_read, want_write, tag);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw TransportError(std::string("epoll_ctl(ADD): ") +
                         std::strerror(errno));
  }
}

void Poller::mod(int fd, bool want_read, bool want_write, std::uint64_t tag) {
  epoll_event ev = make_event(want_read, want_write, tag);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw TransportError(std::string("epoll_ctl(MOD): ") +
                         std::strerror(errno));
  }
}

void Poller::del(int fd) {
  // Best effort: the fd may already be closed (kernel removed it).
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

const std::vector<Poller::Event>& Poller::wait(int timeout_ms) {
  epoll_event raw[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, raw, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    throw TransportError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  events_.clear();
  for (int i = 0; i < n; ++i) {
    Event e;
    e.tag = raw[i].data.u64;
    e.readable = (raw[i].events & EPOLLIN) != 0;
    e.writable = (raw[i].events & EPOLLOUT) != 0;
    e.error = (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events_.push_back(e);
  }
  return events_;
}

#else  // poll(2) fallback for non-Linux POSIX

Poller::Poller() = default;
Poller::~Poller() = default;

void Poller::add(int fd, bool want_read, bool want_write, std::uint64_t tag) {
  entries_.push_back(Entry{
      fd,
      static_cast<short>((want_read ? POLLIN : 0) |
                         (want_write ? POLLOUT : 0)),
      tag});
}

void Poller::mod(int fd, bool want_read, bool want_write, std::uint64_t tag) {
  for (Entry& e : entries_) {
    if (e.fd == fd) {
      e.events = static_cast<short>((want_read ? POLLIN : 0) |
                                    (want_write ? POLLOUT : 0));
      e.tag = tag;
      return;
    }
  }
  add(fd, want_read, want_write, tag);
}

void Poller::del(int fd) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->fd == fd) {
      entries_.erase(it);
      return;
    }
  }
}

const std::vector<Poller::Event>& Poller::wait(int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(entries_.size());
  for (const Entry& e : entries_) {
    fds.push_back(pollfd{e.fd, e.events, 0});
  }
  int rc;
  do {
    rc = ::poll(fds.data(), fds.size(), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    throw TransportError(std::string("poll: ") + std::strerror(errno));
  }
  events_.clear();
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    Event e;
    e.tag = entries_[i].tag;
    e.readable = (fds[i].revents & POLLIN) != 0;
    e.writable = (fds[i].revents & POLLOUT) != 0;
    e.error = (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    events_.push_back(e);
  }
  return events_;
}

#endif

// ---------------------------------------------------------------- WakePipe --

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw TransportError(std::string("pipe: ") + std::strerror(errno));
  }
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  for (const int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
}

WakePipe::~WakePipe() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

void WakePipe::notify() {
  const std::uint8_t byte = 1;
  // EAGAIN (pipe full) is success: a wakeup is already pending. EINTR is
  // not — a swallowed signal here would lose the wakeup and leave the
  // loop asleep on work that is already queued, so retry.
  ssize_t n;
  do {
    n = ::write(write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

void WakePipe::drain() {
  std::uint8_t buf[256];
  while (true) {
    const ssize_t n = ::read(read_fd_, buf, sizeof buf);
    if (n > 0) continue;
    // A drain cut short by EINTR would leave pending bytes and make the
    // next poll() wake immediately for nothing; retry until EAGAIN/empty.
    if (n < 0 && errno == EINTR) continue;
    break;
  }
}

// --------------------------------------------------------------- FrameConn --

namespace {

constexpr std::size_t kHeaderBytes = 12;

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

FrameConn::FrameConn(Socket sock) : sock_(std::move(sock)) {
  sock_.set_nonblocking(true);
}

FrameConn::Io FrameConn::fail() {
  broken_ = true;
  return Io::kError;
}

FrameConn::Io FrameConn::on_readable(std::vector<Frame>& frames) {
  if (broken_) return Io::kError;
  std::uint8_t chunk[64 * 1024];
  while (true) {
    long n;
    try {
      n = sock_.recv_some(chunk, sizeof chunk);
    } catch (const TransportError&) {
      return fail();
    }
    if (n < 0) break;  // drained what the kernel had
    if (n == 0) {
      // EOF: valid only on a frame boundary with nothing buffered.
      return inbuf_.size() == in_consumed_ ? Io::kEof : fail();
    }
    inbuf_.insert(inbuf_.end(), chunk, chunk + n);
    frame_metrics().bytes_rx.inc(static_cast<std::uint64_t>(n));
    if (static_cast<std::size_t>(n) < sizeof chunk) break;
  }
  // Parse every complete frame out of the accumulator.
  while (inbuf_.size() - in_consumed_ >= kHeaderBytes) {
    const std::uint8_t* h = inbuf_.data() + in_consumed_;
    if (read_u32le(h) != kFrameMagic || h[4] != kProtocolVersion) {
      util::log_warn("reactor: bad frame header (magic/version) — dropping "
                     "connection");
      return fail();
    }
    const std::uint32_t len = read_u32le(h + 8);
    if (len > kMaxPayloadBytes) {
      util::log_warn("reactor: oversized frame payload — dropping connection");
      return fail();
    }
    if (inbuf_.size() - in_consumed_ < kHeaderBytes + len) break;
    Frame f;
    f.type = static_cast<MsgType>(h[5]);
    f.payload.assign(h + kHeaderBytes, h + kHeaderBytes + len);
    frames.push_back(std::move(f));
    frame_metrics().frames_rx.inc();
    in_consumed_ += kHeaderBytes + len;
  }
  // Compact once the parsed prefix dominates the buffer.
  if (in_consumed_ > 0 && in_consumed_ * 2 >= inbuf_.size()) {
    inbuf_.erase(inbuf_.begin(),
                 inbuf_.begin() + static_cast<std::ptrdiff_t>(in_consumed_));
    in_consumed_ = 0;
  }
  return Io::kOk;
}

FrameConn::Io FrameConn::on_writable() {
  if (broken_) return Io::kError;
  while (!outbox_.empty()) {
    const std::vector<std::uint8_t>& buf = outbox_.front();
    long n;
    try {
      n = sock_.send_some(buf.data() + out_offset_, buf.size() - out_offset_);
    } catch (const TransportError&) {
      return fail();
    }
    if (n < 0) return Io::kOk;  // socket buffer full — POLLOUT will resume
    frame_metrics().bytes_tx.inc(static_cast<std::uint64_t>(n));
    out_offset_ += static_cast<std::size_t>(n);
    if (out_offset_ == buf.size()) {
      outbox_.pop_front();
      out_offset_ = 0;
    }
  }
  return Io::kOk;
}

FrameConn::Io FrameConn::enqueue(MsgType type,
                                 std::span<const std::uint8_t> payload) {
  if (broken_) return Io::kError;
  frame_metrics().frames_tx.inc();
  outbox_.push_back(encode_frame(type, payload));
  // Opportunistic flush: most frames leave immediately and POLLOUT
  // interest is never registered for them.
  return on_writable();
}

}  // namespace flowgen::service
