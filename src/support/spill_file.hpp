// SpillFile: the backing file of the out-of-core state store (DESIGN.md
// §3.9). One unlinked, append-only temp file per store: append() pwrites a
// page's bytes at the end of the file and returns once they are written;
// remap() maps the whole file read-only, so data() serves every offset
// appended before it.
//
// Contract:
//   * append()/remap() — one thread at a time (the store's quiescent
//     maintain step).
//   * data() — any number of readers, for offsets appended before the last
//     remap(); the mapping is only replaced by remap().
//
// Directory resolution: an explicit dir (from --spill-dir) wins, then
// TTSTART_SPILL_DIR, then TMPDIR, then /tmp. An explicitly requested (flag
// or env) directory that is unwritable is a hard error, never a silent
// fallback to /tmp.
//
// Every failure — unwritable directory, short write, mmap — throws
// StateCapacityError. A failed append() leaves earlier offsets valid.
//
// Failure injection for tests: TTSTART_SPILL_FAIL_AFTER=<bytes> makes every
// append past that many total bytes fail as if the device were full.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/assert.hpp"

namespace tt {

class SpillFile {
 public:
  /// Creates the file; `explicit_dir` overrides the TTSTART_SPILL_DIR /
  /// TMPDIR / /tmp fallback chain when non-empty.
  explicit SpillFile(const std::string& explicit_dir = {});
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Writes [data, data+len) at the end of the file and returns its offset.
  std::uint64_t append(const std::uint8_t* data, std::uint32_t len);

  /// Maps every appended byte for data(); a no-op when nothing was appended
  /// since the last call.
  void remap();

  /// Pointer to the bytes appended at `off`, valid until the next remap().
  [[nodiscard]] const std::uint8_t* data(std::uint64_t off) const {
    TT_ASSERT(off < mapped_);
    return base_ + off;
  }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;  ///< bytes appended so far
  std::uint8_t* base_ = nullptr;
  std::size_t mapped_ = 0;
  std::uint64_t fail_after_ = ~std::uint64_t{0};  ///< injected device-full cap
};

}  // namespace tt
