#include "util/mapped_file.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace nas::util {

namespace {

/// `saved_errno` must be captured immediately after the failing call —
/// cleanup such as ::close runs before the throw and may overwrite errno,
/// which used to turn "No space left on device" into "Success" here.
[[noreturn]] void fail(const std::string& path, const char* what,
                       int saved_errno) {
  throw std::runtime_error("MappedFile: cannot " + std::string(what) + " " +
                           path + ": " + std::strerror(saved_errno));
}

}  // namespace

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  std::shared_ptr<MappedFile> file(new MappedFile());
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "open", errno);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved_errno = errno;
    const int rc = ::close(fd);
    static_cast<void>(rc);
    fail(path, "stat", saved_errno);
  }
  file->size_ = static_cast<std::size_t>(st.st_size);
  if (file->size_ > 0) {
    void* addr = ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int saved_errno = errno;
      const int rc = ::close(fd);
      static_cast<void>(rc);
      fail(path, "mmap", saved_errno);
    }
    file->data_ = static_cast<const std::byte*>(addr);
  }
  const int rc = ::close(fd);  // the mapping survives the descriptor
  static_cast<void>(rc);
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

}  // namespace nas::util
