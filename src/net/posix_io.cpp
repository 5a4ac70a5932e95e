#include "net/posix_io.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace nas::net {

std::string errno_message(const std::string& what, int saved_errno) {
  return "net: cannot " + what + ": " + std::strerror(saved_errno);
}

void throw_errno(const std::string& what, int saved_errno) {
  throw std::runtime_error(errno_message(what, saved_errno));
}

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) {
    // POSIX leaves the descriptor state unspecified after an EINTR'd close;
    // retrying could close a descriptor another thread just received.  One
    // call, result deliberately ignored (there is no recovery from a failed
    // close on this side).
    const int rc = ::close(fd_);
    static_cast<void>(rc);
  }
  fd_ = fd;
}

IoResult read_some(int fd, void* buf, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, cap);
    if (n > 0) {
      return {IoStatus::kOk, static_cast<std::size_t>(n), 0};
    }
    if (n == 0) return {IoStatus::kEof, 0, 0};
    const int saved_errno = errno;
    if (saved_errno == EINTR) continue;
    if (saved_errno == EAGAIN || saved_errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0, 0};
    }
    return {IoStatus::kError, 0, saved_errno};
  }
}

IoResult write_some(int fd, const void* buf, std::size_t len) {
  for (;;) {
    // MSG_NOSIGNAL: a vanished peer is EPIPE on this connection, not a
    // process-wide SIGPIPE.  Falls back to ::write for non-socket fds.
    ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, buf, len);
    if (n >= 0) {
      return {IoStatus::kOk, static_cast<std::size_t>(n), 0};
    }
    const int saved_errno = errno;
    if (saved_errno == EINTR) continue;
    if (saved_errno == EAGAIN || saved_errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0, 0};
    }
    return {IoStatus::kError, 0, saved_errno};
  }
}

bool write_all(int fd, const void* buf, std::size_t len, int* error) {
  const auto* cursor = static_cast<const unsigned char*>(buf);
  std::size_t left = len;
  while (left > 0) {
    const IoResult r = write_some(fd, cursor, left);
    if (r.status == IoStatus::kOk) {
      cursor += r.bytes;
      left -= r.bytes;
      continue;
    }
    if (r.status == IoStatus::kWouldBlock) {
      // Blocking-side helper used on blocking fds; a would-block here means
      // the caller handed us a non-blocking fd — spin via a zero-byte retry
      // would busy-wait, so report it as an error instead.
      if (error != nullptr) *error = EAGAIN;
      return false;
    }
    if (error != nullptr) *error = r.error;
    return false;
  }
  return true;
}

AcceptResult accept_connection(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return {IoStatus::kOk, fd, 0};
    const int saved_errno = errno;
    if (saved_errno == EINTR || saved_errno == ECONNABORTED) continue;
    if (saved_errno == EAGAIN || saved_errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, -1, 0};
    }
    return {IoStatus::kError, -1, saved_errno};
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("read descriptor flags", errno);
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("set O_NONBLOCK", errno);
  }
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags < 0) throw_errno("read descriptor fd-flags", errno);
  if (::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) < 0) {
    throw_errno("set FD_CLOEXEC", errno);
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  const int rc =
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  static_cast<void>(rc);
}

namespace {

[[nodiscard]] sockaddr_in make_addr(const std::string& host,
                                    std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: cannot parse IPv4 address \"" + host +
                             "\"");
  }
  return addr;
}

}  // namespace

UniqueFd open_listen_socket(const std::string& host, std::uint16_t port,
                            int backlog, std::uint16_t* bound_port) {
  const sockaddr_in addr = make_addr(host, port);
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("create listen socket", errno);
  set_cloexec(fd.get());
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) !=
      0) {
    throw_errno("set SO_REUSEADDR", errno);
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port), errno);
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw_errno("listen on " + host + ":" + std::to_string(port), errno);
  }
  set_nonblocking(fd.get());
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      throw_errno("read bound port", errno);
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

UniqueFd connect_blocking(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = make_addr(host, port);
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("create client socket", errno);
  set_cloexec(fd.get());
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      break;
    }
    const int saved_errno = errno;
    if (saved_errno == EINTR) continue;
    throw_errno("connect to " + host + ":" + std::to_string(port),
                saved_errno);
  }
  set_nodelay(fd.get());
  return fd;
}

WakeupPipe open_wakeup_pipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw_errno("create wakeup pipe", errno);
  WakeupPipe p{UniqueFd(fds[0]), UniqueFd(fds[1])};
  for (const int fd : fds) {
    set_nonblocking(fd);
    set_cloexec(fd);
  }
  return p;
}

void signal_wakeup(int wakeup_write_fd) {
  const char byte = 'w';
  for (;;) {
    const ssize_t n = ::write(wakeup_write_fd, &byte, 1);
    if (n >= 0) return;
    if (errno == EINTR) continue;
    // EAGAIN: the pipe already holds unread wakeups — the loop will wake.
    // Anything else is unrecoverable from a signal context; swallow it.
    return;
  }
}

}  // namespace nas::net
