// EINTR-safe POSIX socket primitives for the serving daemon.
//
// Every raw descriptor operation the network layer performs goes through
// this file, for three reasons the rest of `src/net` depends on:
//
//   * EINTR discipline — `read_some`/`write_some`/`accept_connection` retry
//     interrupted calls internally, so callers never see a spurious failure
//     because a signal (SIGINT during graceful shutdown, a profiler tick)
//     landed mid-syscall.
//   * Short-transfer discipline — the `*_some` calls report exactly how many
//     bytes moved and classify the outcome (`kOk`/`kWouldBlock`/`kEof`/
//     `kError`), so partial reads and writes are explicit states the event
//     loop handles, never silently-dropped bytes.  `write_all` is the
//     blocking-side loop (client/tests) that keeps writing until everything
//     moved or a real error occurred.
//   * errno discipline — error text is built from the errno captured at the
//     failing call site, *before* any cleanup (`::close` can clobber errno;
//     see the MappedFile::map regression this repo carries a test for).
//
// Socket writes use MSG_NOSIGNAL so a peer that disappeared mid-response
// surfaces as EPIPE on the one affected connection instead of a
// process-killing SIGPIPE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace nas::net {

/// Builds "net: cannot <what>: <strerror(saved_errno)>".  Pass the errno
/// captured immediately after the failing call.
[[nodiscard]] std::string errno_message(const std::string& what,
                                        int saved_errno);

/// Throws std::runtime_error with `errno_message(what, saved_errno)`.
[[noreturn]] void throw_errno(const std::string& what, int saved_errno);

/// Move-only owning file descriptor (closed exactly once on destruction).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset(other.release());
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { reset(); }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Outcome classification for one descriptor operation.
enum class IoStatus {
  kOk,          ///< >= 1 byte moved (`bytes` says how many)
  kWouldBlock,  ///< non-blocking fd has no room/data right now
  kEof,         ///< orderly end of stream (reads only)
  kError,       ///< real failure; `error` holds the captured errno
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t bytes = 0;  ///< bytes transferred (kOk only)
  int error = 0;          ///< errno captured at the failing call (kError only)
};

/// Reads up to `cap` bytes.  Retries EINTR; never throws.
[[nodiscard]] IoResult read_some(int fd, void* buf, std::size_t cap);

/// Writes up to `len` bytes (socket send with MSG_NOSIGNAL).  A short write
/// returns kOk with the partial count — callers keep the rest buffered.
/// Retries EINTR; never throws.
[[nodiscard]] IoResult write_some(int fd, const void* buf, std::size_t len);

/// Blocking-side helper: loops `write_some` until all `len` bytes moved.
/// Returns false (with the captured errno in `*error` when non-null) on a
/// real error; EINTR and short writes are handled internally.
[[nodiscard]] bool write_all(int fd, const void* buf, std::size_t len,
                             int* error = nullptr);

struct AcceptResult {
  IoStatus status = IoStatus::kError;
  int fd = -1;  ///< the accepted connection (kOk only); caller owns it
  int error = 0;
};

/// Accepts one pending connection from a non-blocking listen socket.
/// Retries EINTR and ECONNABORTED (the peer gave up while queued — not an
/// error worth surfacing); kWouldBlock means the backlog is drained.
[[nodiscard]] AcceptResult accept_connection(int listen_fd);

/// Sets O_NONBLOCK / FD_CLOEXEC.  Throw on fcntl failure.
void set_nonblocking(int fd);
void set_cloexec(int fd);

/// Best-effort TCP_NODELAY (the line protocol is latency-bound; Nagle only
/// adds round-trip delay to one-line responses).  Never fails visibly.
void set_nodelay(int fd);

/// Opens a TCP listen socket bound to `host:port` (IPv4 dotted quad;
/// port 0 = kernel-assigned ephemeral port), non-blocking, SO_REUSEADDR.
/// The actually-bound port is stored in `*bound_port`.  Throws on failure.
[[nodiscard]] UniqueFd open_listen_socket(const std::string& host,
                                          std::uint16_t port, int backlog,
                                          std::uint16_t* bound_port);

/// Blocking client connect to `host:port` (IPv4 dotted quad), TCP_NODELAY.
/// Throws on failure.
[[nodiscard]] UniqueFd connect_blocking(const std::string& host,
                                        std::uint16_t port);

/// A non-blocking self-pipe: worker threads (and signal handlers) write one
/// byte to `write_end` to wake the event loop; the loop drains `read_end`.
struct WakeupPipe {
  UniqueFd read_end;
  UniqueFd write_end;
};
[[nodiscard]] WakeupPipe open_wakeup_pipe();

/// Writes one byte to a wakeup pipe.  Async-signal-safe (one ::write call,
/// no allocation).  A full pipe (EAGAIN) counts as success — the reader has
/// wakeups queued already.
void signal_wakeup(int wakeup_write_fd);

}  // namespace nas::net
