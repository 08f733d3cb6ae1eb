// Exhaustive round-trip of the engine-name surface (mc/engine.hpp): every
// EngineKind survives to_string -> parse_engine, unknown names are rejected
// without touching the output, and the documented CLI spellings are exactly
// the accepted set. The StoreKind names (parse_store) get the same round
// trip. scripts/check_docs.py keeps README.md aligned with the same source
// of truth.
#include <gtest/gtest.h>

#include <string>

#include "mc/engine.hpp"

namespace {

using tt::mc::EngineKind;
using tt::mc::parse_engine;
using tt::mc::parse_store;
using tt::mc::StoreKind;
using tt::mc::to_string;

constexpr EngineKind kAllEngines[] = {
    EngineKind::kAuto,
    EngineKind::kSequential,
    EngineKind::kParallel,
    EngineKind::kSymbolic,
};

TEST(EngineTest, ToStringParseRoundTripIsExhaustive) {
  for (const EngineKind k : kAllEngines) {
    EngineKind parsed = EngineKind::kAuto;
    ASSERT_TRUE(parse_engine(to_string(k), parsed)) << to_string(k);
    EXPECT_EQ(parsed, k) << to_string(k);
  }
}

TEST(EngineTest, NamesAreTheDocumentedSpellings) {
  EXPECT_STREQ(to_string(EngineKind::kAuto), "auto");
  EXPECT_STREQ(to_string(EngineKind::kSequential), "seq");
  EXPECT_STREQ(to_string(EngineKind::kParallel), "par");
  EXPECT_STREQ(to_string(EngineKind::kSymbolic), "sym");
}

TEST(EngineTest, NamesAreDistinct) {
  for (const EngineKind a : kAllEngines) {
    for (const EngineKind b : kAllEngines) {
      if (a != b) EXPECT_STRNE(to_string(a), to_string(b));
    }
  }
}

TEST(EngineTest, UnknownNamesRejectedAndOutputUntouched) {
  for (const char* bad : {"", "?", "Auto", "SEQ", "seq ", " par", "symbolic",
                          "sequential", "parallel", "bdd", "sat"}) {
    EngineKind out = EngineKind::kParallel;
    EXPECT_FALSE(parse_engine(bad, out)) << "'" << bad << "'";
    EXPECT_EQ(out, EngineKind::kParallel) << "'" << bad << "'";
  }
}

TEST(EngineTest, StoreToStringParseRoundTripIsExhaustive) {
  for (const StoreKind k : {StoreKind::kShardedLocked, StoreKind::kLockFree}) {
    StoreKind parsed = k == StoreKind::kLockFree ? StoreKind::kShardedLocked
                                                 : StoreKind::kLockFree;
    ASSERT_TRUE(parse_store(to_string(k), parsed)) << to_string(k);
    EXPECT_EQ(parsed, k) << to_string(k);
  }
  EXPECT_STREQ(to_string(StoreKind::kShardedLocked), "locked");
  EXPECT_STREQ(to_string(StoreKind::kLockFree), "lockfree");
}

TEST(EngineTest, UnknownStoreNamesRejectedAndOutputUntouched) {
  for (const char* bad : {"", "?", "LOCKED", "Lockfree", "locked ", " lockfree", "lockfree-fp",
                          "lock-free", "sharded"}) {
    StoreKind out = StoreKind::kLockFree;
    EXPECT_FALSE(parse_store(bad, out)) << "'" << bad << "'";
    EXPECT_EQ(out, StoreKind::kLockFree) << "'" << bad << "'";
  }
}

TEST(EngineTest, ResolveThreadsPrefersExplicitCount) {
  EXPECT_EQ(tt::mc::resolve_threads(3), 3);
  EXPECT_GE(tt::mc::resolve_threads(0), 1);  // env or hardware, never zero
}

}  // namespace
