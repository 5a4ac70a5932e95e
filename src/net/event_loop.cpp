#include "net/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <string>

#include "net/posix_io.hpp"

#include <sys/epoll.h>
#include <unistd.h>

namespace nas::net {

namespace {

[[nodiscard]] std::uint32_t interest_mask(bool want_read, bool want_write) {
  std::uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epoll_fd_ < 0) throw_errno("create epoll instance", errno);
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) {
    const int rc = ::close(epoll_fd_);
    static_cast<void>(rc);
  }
}

void EventLoop::add(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = interest_mask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("register descriptor " + std::to_string(fd), errno);
  }
  ++watched_;
}

void EventLoop::modify(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = interest_mask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("update descriptor " + std::to_string(fd), errno);
  }
}

void EventLoop::remove(int fd) {
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    throw_errno("deregister descriptor " + std::to_string(fd), errno);
  }
  --watched_;
}

const std::vector<ReadyEvent>& EventLoop::wait(int timeout_ms) {
  ready_.clear();
  std::vector<epoll_event> raw(std::max<std::size_t>(watched_, 1));
  const int n = ::epoll_wait(epoll_fd_, raw.data(),
                             static_cast<int>(raw.size()), timeout_ms);
  if (n < 0) {
    const int saved_errno = errno;
    if (saved_errno == EINTR) return ready_;  // caller re-checks and re-waits
    throw_errno("wait for readiness", saved_errno);
  }
  for (int i = 0; i < n; ++i) {
    const auto& ev = raw[static_cast<std::size_t>(i)];
    ReadyEvent out;
    out.fd = ev.data.fd;
    out.readable = (ev.events & EPOLLIN) != 0;
    out.writable = (ev.events & EPOLLOUT) != 0;
    out.broken = (ev.events & (EPOLLERR | EPOLLHUP)) != 0;
    ready_.push_back(out);
  }
  std::sort(ready_.begin(), ready_.end(),
            [](const ReadyEvent& a, const ReadyEvent& b) { return a.fd < b.fd; });
  return ready_;
}

}  // namespace nas::net
