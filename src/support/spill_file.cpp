#include "support/spill_file.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "support/sharded_state_index_map.hpp"  // StateCapacityError

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

namespace tt {

SpillFile::SpillFile(const std::string& explicit_dir) {
  if (const char* cap = std::getenv("TTSTART_SPILL_FAIL_AFTER")) {
    fail_after_ = static_cast<std::uint64_t>(std::strtoull(cap, nullptr, 10));
  }
  const char* env = std::getenv("TTSTART_SPILL_DIR");
  const bool requested = !explicit_dir.empty() || (env != nullptr && *env != '\0');
  const char* dir = !explicit_dir.empty() ? explicit_dir.c_str() : requested ? env : nullptr;
  if (dir == nullptr) dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  const std::string path = std::string(dir) + "/ttstart-spill-XXXXXX";
  std::vector<char> buf(path.begin(), path.end());
  buf.push_back('\0');
  fd_ = ::mkstemp(buf.data());
  if (fd_ < 0) {
    const char* why = std::strerror(errno);
    throw StateCapacityError(requested ? "spill directory '" + std::string(dir) +
                                             "' is unwritable: " + why
                                       : "cannot create spill file under '" +
                                             std::string(dir) + "': " + why);
  }
  ::unlink(buf.data());  // anonymous: reclaimed on close, even on crash
}

SpillFile::~SpillFile() {
  if (base_ != nullptr) ::munmap(base_, mapped_);
  ::close(fd_);
}

std::uint64_t SpillFile::append(const std::uint8_t* data, std::uint32_t len) {
  if (size_ + len > fail_after_) {
    throw StateCapacityError(
        "spill write failed: No space left on device (injected by TTSTART_SPILL_FAIL_AFTER)");
  }
  for (std::uint32_t done = 0; done < len;) {
    const ::ssize_t w =
        ::pwrite(fd_, data + done, len - done, static_cast<::off_t>(size_ + done));
    if (w <= 0) {
      throw StateCapacityError(std::string("spill write failed: ") + std::strerror(errno));
    }
    done += static_cast<std::uint32_t>(w);
  }
  const std::uint64_t off = size_;
  size_ += len;
  return off;
}

void SpillFile::remap() {
  if (size_ == mapped_) return;
  void* m = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd_, 0);
  if (m == MAP_FAILED) {
    throw StateCapacityError(std::string("spill remap failed: ") + std::strerror(errno));
  }
  if (base_ != nullptr) ::munmap(base_, mapped_);
  base_ = static_cast<std::uint8_t*>(m);
  mapped_ = size_;
}

}  // namespace tt

#else  // no POSIX file mapping: the store never spills (TT_LFSIM_HAS_SPILL)

namespace tt {

SpillFile::SpillFile(const std::string&) {
  throw StateCapacityError("spill unsupported on this platform");
}
SpillFile::~SpillFile() = default;
std::uint64_t SpillFile::append(const std::uint8_t*, std::uint32_t) { return 0; }
void SpillFile::remap() {}

}  // namespace tt

#endif
