// Read-only memory-mapped files.
//
// The v2 binary snapshot path serves CSR arrays straight out of the page
// cache: a MappedFile pins one read-only mapping of the file, and every
// structure that points into it (graph::Csr views and the oracles serving
// them) keeps the mapping alive through a shared_ptr.  This is a real
// mmap — warmup is O(1) page-table work plus whatever the kernel faults in
// on demand.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace nas::util {

class MappedFile {
 public:
  /// Maps `path` read-only.  Throws std::runtime_error naming the path on
  /// open/stat/map failure.  An empty file maps to {nullptr, 0}.
  [[nodiscard]] static std::shared_ptr<const MappedFile> map(
      const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  MappedFile() = default;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace nas::util
