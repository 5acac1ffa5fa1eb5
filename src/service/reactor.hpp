#pragma once
// The event-loop substrate of the coordinator: a readiness poller (epoll
// on Linux, poll(2) elsewhere), a self-wakeup pipe so other threads can
// interrupt a blocked wait, and FrameConn — a non-blocking socket wrapped
// in buffered partial read/write state machines that speaks whole wire
// frames. Only EvalCoordinator runs an event loop (one thread multiplexing
// its whole fleet); workers and evald servers serve each connection on its
// own thread with the blocking serve_frames (service/worker.hpp). Nothing
// here knows about requests, shards, or evaluators.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "service/transport.hpp"
#include "service/wire.hpp"

namespace flowgen::service {

/// Level-triggered readiness notification over an arbitrary fd set. One
/// owner thread; `tag` is an opaque cookie handed back in events (the
/// coordinator uses indices into its worker table).
class Poller {
public:
  struct Event {
    std::uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
    bool error = false;  ///< EPOLLERR/EPOLLHUP — treat as readable EOF
  };

  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, bool want_read, bool want_write, std::uint64_t tag);
  void mod(int fd, bool want_read, bool want_write, std::uint64_t tag);
  void del(int fd);

  /// Block up to timeout_ms (-1 = forever) and return the ready set.
  /// The returned reference is invalidated by the next wait().
  const std::vector<Event>& wait(int timeout_ms);

private:
#ifdef __linux__
  int epoll_fd_ = -1;
#else
  struct Entry {
    int fd;
    short events;
    std::uint64_t tag;
  };
  std::vector<Entry> entries_;
#endif
  std::vector<Event> events_;
};

/// A self-pipe: any thread may notify(); the loop owns the read end,
/// registers it with its Poller, and drains on wakeup. Both ends are
/// non-blocking, so notify() never stalls the caller (a full pipe already
/// guarantees a pending wakeup).
class WakePipe {
public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return read_fd_; }
  void notify();
  void drain();

private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// One non-blocking connection speaking length-prefixed wire frames, with
/// explicit partial-I/O state: an input accumulator that surfaces only
/// complete frames, and an output queue drained as the socket accepts
/// bytes. The owning loop calls on_readable()/on_writable() from poller
/// events and keeps POLLOUT interest while want_write() is true.
class FrameConn {
public:
  enum class Io {
    kOk,     ///< made progress (possibly zero bytes), connection healthy
    kEof,    ///< peer closed cleanly
    kError,  ///< transport failure or malformed frame header — drop it
  };

  explicit FrameConn(Socket sock);

  int fd() const { return sock_.fd(); }
  Socket& socket() { return sock_; }

  /// Read whatever the socket has and append every complete frame to
  /// `frames` (possibly none, possibly several). Never blocks.
  Io on_readable(std::vector<Frame>& frames);

  /// Flush queued output as far as the socket allows. Never blocks.
  Io on_writable();

  /// Queue one frame (header + payload, via encode_frame) and opportunistically
  /// flush. Returns kError if the connection is already broken.
  Io enqueue(MsgType type, std::span<const std::uint8_t> payload);

  bool want_write() const { return !outbox_.empty(); }

private:
  Io fail();

  Socket sock_;
  std::vector<std::uint8_t> inbuf_;
  std::size_t in_consumed_ = 0;  ///< parsed prefix of inbuf_
  std::deque<std::vector<std::uint8_t>> outbox_;
  std::size_t out_offset_ = 0;  ///< sent prefix of outbox_.front()
  bool broken_ = false;
};

}  // namespace flowgen::service
