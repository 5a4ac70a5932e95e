#include "util/temp_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace nas::util {

std::string create_temp_file_in(const std::string& dir,
                                const std::string& prefix,
                                const std::string& suffix) {
  // One process-wide counter across all prefixes: simpler, and uniqueness
  // never depends on it anyway — the exclusive create is the arbiter.
  static std::atomic<std::uint64_t> counter{0};
  const auto pid = static_cast<std::uint64_t>(::getpid());
  // 1000 tries means 1000 occupied candidates in a row; at that point the
  // directory is wedged (a crashed sweep, a full disk masquerading via
  // EEXIST never happens) and failing loudly beats spinning.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto name = prefix + std::to_string(pid) + "_" +
                      std::to_string(counter.fetch_add(1)) + suffix;
    const std::string path = (std::filesystem::path(dir) / name).string();
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0600);
    if (fd >= 0) {
      const int rc = ::close(fd);
      static_cast<void>(rc);
      return path;
    }
    const int saved_errno = errno;
    if (saved_errno == EEXIST) continue;  // taken (pid reuse, stale file)
    throw std::runtime_error("temp_file: cannot create " + path + ": " +
                             std::strerror(saved_errno));
  }
  throw std::runtime_error(
      "temp_file: exhausted 1000 candidate names under " + dir);
}

std::string create_temp_file(const std::string& prefix,
                             const std::string& suffix) {
  return create_temp_file_in(std::filesystem::temp_directory_path().string(),
                             prefix, suffix);
}

}  // namespace nas::util
