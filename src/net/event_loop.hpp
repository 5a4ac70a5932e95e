// Readiness multiplexer for the serving daemon, over epoll (the build is
// Linux-only).
//
// Deliberately minimal — level-triggered readiness only, one interest set
// per descriptor, no callbacks.  The Server owns all session logic; the
// loop's single job is "which of these descriptors can make progress".
// Ready events are returned sorted by descriptor so the handling order for
// a fixed ready set is deterministic (kernel readiness order is not), in
// line with the repo's determinism discipline: answer bytes never depend on
// it either way, but deterministic traversal keeps behavior reproducible
// under a debugger.
#pragma once

#include <cstddef>
#include <vector>

namespace nas::net {

struct ReadyEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error/hangup condition (EPOLLERR/EPOLLHUP).
  /// Reported alongside `readable` so handlers observe the pending EOF or
  /// the captured socket error through the normal read path.
  bool broken = false;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with the given interest set.  A descriptor is added at
  /// most once; update interest with `modify`.
  void add(int fd, bool want_read, bool want_write);
  void modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Blocks until at least one registered descriptor is ready or
  /// `timeout_ms` elapses (-1 = no timeout; 0 = poll).  An interrupted wait
  /// (EINTR) returns an empty set — callers re-check their own state and
  /// wait again.  The returned reference is invalidated by the next call.
  [[nodiscard]] const std::vector<ReadyEvent>& wait(int timeout_ms);

  [[nodiscard]] std::size_t watched() const { return watched_; }

 private:
  std::size_t watched_ = 0;
  std::vector<ReadyEvent> ready_;
  int epoll_fd_ = -1;
};

}  // namespace nas::net
