// SpillFile unit suite (DESIGN.md §3.9): the offsets append() assigns,
// read-back through the remapped file, the injected-ENOSPC failure path,
// and the hard error on a requested unwritable directory.
#include "support/spill_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "support/sharded_state_index_map.hpp"  // StateCapacityError

namespace tt {
namespace {

#if defined(__unix__) || defined(__APPLE__)

std::vector<std::uint8_t> make_page(std::size_t len, std::uint8_t seed) {
  std::vector<std::uint8_t> page(len);
  for (std::size_t i = 0; i < len; ++i) {
    page[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return page;
}

std::vector<std::uint8_t> read_back(const SpillFile& f, std::uint64_t off, std::size_t len) {
  const std::uint8_t* p = f.data(off);
  return {p, p + len};
}

/// The StateCapacityError message of constructing a SpillFile in `dir`.
std::string construction_error(const std::string& dir) {
  try {
    SpillFile f(dir);
  } catch (const StateCapacityError& e) {
    return e.what();
  }
  return {};
}

TEST(SpillFile, AppendAssignsConsecutiveOffsets) {
  SpillFile f;
  const auto a = make_page(100, 1);
  const auto b = make_page(200, 2);
  EXPECT_EQ(f.append(a.data(), 100), 0u);
  EXPECT_EQ(f.append(b.data(), 200), 100u);
  EXPECT_EQ(f.append(a.data(), 50), 300u);
  EXPECT_EQ(f.append(b.data(), 1), 350u);
}

TEST(SpillFile, DataReadsBackExactlyAfterRemap) {
  SpillFile f;
  const auto a = make_page(4096, 7);
  const auto b = make_page(1024, 42);
  const std::uint64_t off_a = f.append(a.data(), 4096);
  const std::uint64_t off_b = f.append(b.data(), 1024);
  f.remap();
  EXPECT_EQ(read_back(f, off_a, 4096), a);
  EXPECT_EQ(read_back(f, off_b, 1024), b);
}

TEST(SpillFile, EarlierOffsetsSurviveLaterRemaps) {
  SpillFile f;
  std::vector<std::vector<std::uint8_t>> pages;
  std::vector<std::uint64_t> offsets;
  for (int round = 0; round < 5; ++round) {
    pages.push_back(make_page(2000, static_cast<std::uint8_t>(round * 17)));
    offsets.push_back(f.append(pages.back().data(), 2000));
    f.remap();
    for (std::size_t i = 0; i < pages.size(); ++i) {
      ASSERT_EQ(read_back(f, offsets[i], 2000), pages[i]) << "round " << round;
    }
  }
}

TEST(SpillFile, InjectedDeviceFullSurfacesAsFailure) {
  ::setenv("TTSTART_SPILL_FAIL_AFTER", "1024", 1);
  SpillFile f;
  ::unsetenv("TTSTART_SPILL_FAIL_AFTER");
  const auto a = make_page(1024, 5);
  EXPECT_EQ(f.append(a.data(), 1024), 0u);  // fills the injected cap exactly
  try {
    f.append(a.data(), 1024);  // must fail as if the device were full
    ADD_FAILURE() << "append past the injected cap did not throw";
  } catch (const StateCapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("No space left on device"), std::string::npos)
        << e.what();
  }
  // The failed append left the earlier bytes readable.
  f.remap();
  EXPECT_EQ(read_back(f, 0, 1024), a);
}

TEST(SpillFile, ExplicitUnwritableDirectoryIsAHardError) {
  const std::string err = construction_error("/nonexistent-spill-dir-for-test");
  EXPECT_NE(err.find("unwritable"), std::string::npos) << err;
}

TEST(SpillFile, EnvRequestedUnwritableDirectoryIsAHardErrorToo) {
  // TTSTART_SPILL_DIR is a user request just like --spill-dir: falling
  // through to /tmp silently would hide a misconfiguration.
  ::setenv("TTSTART_SPILL_DIR", "/nonexistent-spill-dir-for-test", 1);
  const std::string err = construction_error({});
  ::unsetenv("TTSTART_SPILL_DIR");
  EXPECT_NE(err.find("unwritable"), std::string::npos) << err;
}

#endif

}  // namespace
}  // namespace tt
