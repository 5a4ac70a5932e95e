#include "net/client.hpp"

#include <cerrno>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/time.h>

namespace nas::net {

LineClient::LineClient(const std::string& host, std::uint16_t port,
                       std::uint64_t recv_timeout_ms)
    : fd_(connect_blocking(host, port)) {
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(recv_timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((recv_timeout_ms % 1000) * 1000);
    if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) !=
        0) {
      throw_errno("set receive timeout", errno);
    }
  }
}

void LineClient::send(std::string_view text) {
  int error = 0;
  if (!write_all(fd_.get(), text.data(), text.size(), &error)) {
    throw_errno("send request", error);
  }
}

std::optional<std::string> LineClient::recv_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', pos_);
    if (newline != std::string::npos) {
      std::size_t end = newline;
      if (end > pos_ && buffer_[end - 1] == '\r') --end;
      std::string line = buffer_.substr(pos_, end - pos_);
      pos_ = newline + 1;
      if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
      }
      return line;
    }
    char chunk[4096];
    const IoResult r = read_some(fd_.get(), chunk, sizeof chunk);
    if (r.status == IoStatus::kOk) {
      buffer_.append(chunk, r.bytes);
      continue;
    }
    if (r.status == IoStatus::kEof) {
      if (pos_ < buffer_.size()) {
        throw std::runtime_error(
            "net: connection closed mid-line (partial: \"" +
            buffer_.substr(pos_) + "\")");
      }
      return std::nullopt;
    }
    if (r.status == IoStatus::kWouldBlock) {
      // SO_RCVTIMEO expiry on a blocking socket surfaces as EAGAIN.
      throw std::runtime_error("net: receive timed out waiting for a reply");
    }
    throw_errno("receive reply", r.error);
  }
}

std::vector<std::string> LineClient::recv_lines(std::size_t n) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto line = recv_line();
    if (!line.has_value()) {
      throw std::runtime_error("net: stream ended after " +
                               std::to_string(i) + " of " + std::to_string(n) +
                               " expected reply lines");
    }
    lines.push_back(std::move(*line));
  }
  return lines;
}

void LineClient::shutdown_write() {
  const int rc = ::shutdown(fd_.get(), SHUT_WR);
  static_cast<void>(rc);  // already-reset peers are fine; reads continue
}

}  // namespace nas::net
