#include <gtest/gtest.h>

#include "common/bit_vector.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace feisu {
namespace {

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing file");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing file");
  EXPECT_EQ(s.ToString(), "NotFound: missing file");
}

TEST(StatusTest, AllFactoriesProduceMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    FEISU_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsInternal());
}

// ---------- Result ----------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto produce = []() -> Result<std::string> { return std::string("hi"); };
  auto consume = [&]() -> Result<size_t> {
    FEISU_ASSIGN_OR_RETURN(std::string s, produce());
    return s.size();
  };
  auto r = consume();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto produce = []() -> Result<std::string> {
    return Status::Corruption("bad");
  };
  auto consume = [&]() -> Result<size_t> {
    FEISU_ASSIGN_OR_RETURN(std::string s, produce());
    return s.size();
  };
  EXPECT_TRUE(consume().status().IsCorruption());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// ---------- SimClock ----------

TEST(SimClockTest, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.Advance(5 * kSimSecond);
  EXPECT_EQ(clock.Now(), 5 * kSimSecond);
}

TEST(SimClockTest, AdvanceToNeverGoesBackwards) {
  SimClock clock(10);
  clock.AdvanceTo(5);
  EXPECT_EQ(clock.Now(), 10);
  clock.AdvanceTo(20);
  EXPECT_EQ(clock.Now(), 20);
}

TEST(SimClockTest, UnitsCompose) {
  EXPECT_EQ(kSimSecond, 1000 * kSimMillisecond);
  EXPECT_EQ(kSimHour, 3600 * kSimSecond);
}

// ---------- Rng ----------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, BoundedUniform) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextUint64(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, IntRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt64(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardsLowRanks) {
  Rng rng(11);
  size_t low = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextZipf(100, 1.2) < 10) ++low;
  }
  // With s=1.2, the top-10 of 100 items should take well over half.
  EXPECT_GT(low, static_cast<size_t>(kDraws) / 2);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextZipf(17, 0.9), 17u);
  }
}

// ---------- BitVector ----------

TEST(BitVectorTest, ConstructAndAccess) {
  BitVector bits(10, false);
  EXPECT_EQ(bits.size(), 10u);
  EXPECT_EQ(bits.CountOnes(), 0u);
  bits.Set(3, true);
  bits.Set(9, true);
  EXPECT_TRUE(bits.Get(3));
  EXPECT_FALSE(bits.Get(4));
  EXPECT_EQ(bits.CountOnes(), 2u);
}

TEST(BitVectorTest, AllOnesConstruction) {
  BitVector bits(130, true);
  EXPECT_TRUE(bits.AllOnes());
  EXPECT_EQ(bits.CountOnes(), 130u);
}

TEST(BitVectorTest, PushBackGrows) {
  BitVector bits;
  for (int i = 0; i < 70; ++i) bits.PushBack(i % 2 == 0);
  EXPECT_EQ(bits.size(), 70u);
  EXPECT_EQ(bits.CountOnes(), 35u);
  EXPECT_TRUE(bits.Get(0));
  EXPECT_FALSE(bits.Get(69));
}

TEST(BitVectorTest, MovedFromIsEmpty) {
  BitVector bits(70, true);
  BitVector moved(std::move(bits));
  EXPECT_EQ(moved.size(), 70u);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is pinned
  EXPECT_EQ(bits.size(), 0u);
  BitVector assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.CountOnes(), 70u);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is pinned
  EXPECT_TRUE(moved.empty());
}

TEST(BitVectorTest, AndOrNot) {
  BitVector a(8, false);
  BitVector b(8, false);
  a.Set(1, true);
  a.Set(2, true);
  b.Set(2, true);
  b.Set(3, true);
  BitVector anded = BitVector::And(a, b);
  EXPECT_EQ(anded.ToString(), "00100000");
  BitVector ored = BitVector::Or(a, b);
  EXPECT_EQ(ored.ToString(), "01110000");
  BitVector notted = BitVector::Not(a);
  EXPECT_EQ(notted.ToString(), "10011111");
}

TEST(BitVectorTest, NotKeepsTrailingBitsClear) {
  BitVector bits(67, false);
  bits.Not();
  EXPECT_EQ(bits.CountOnes(), 67u);
  bits.Not();
  EXPECT_EQ(bits.CountOnes(), 0u);
}

TEST(BitVectorTest, DoubleNegationIdentity) {
  Rng rng(5);
  BitVector bits(200, false);
  for (size_t i = 0; i < 200; ++i) bits.Set(i, rng.NextBool(0.3));
  BitVector twice = BitVector::Not(BitVector::Not(bits));
  EXPECT_TRUE(bits == twice);
}

TEST(BitVectorTest, SetIndices) {
  BitVector bits(100, false);
  bits.Set(0, true);
  bits.Set(64, true);
  bits.Set(99, true);
  std::vector<uint32_t> idx = bits.SetIndices();
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 64u);
  EXPECT_EQ(idx[2], 99u);
}

TEST(BitVectorTest, RleRoundTripSparse) {
  BitVector bits(1000, false);
  bits.Set(17, true);
  bits.Set(900, true);
  std::string payload = bits.SerializeRle();
  BitVector decoded;
  ASSERT_TRUE(BitVector::DeserializeRle(payload, &decoded));
  EXPECT_TRUE(bits == decoded);
  // Sparse vectors compress far below the raw size.
  EXPECT_LT(payload.size(), bits.ByteSize());
}

TEST(BitVectorTest, RleRoundTripDense) {
  BitVector bits(1000, true);
  std::string payload = bits.SerializeRle();
  BitVector decoded;
  ASSERT_TRUE(BitVector::DeserializeRle(payload, &decoded));
  EXPECT_TRUE(bits == decoded);
}

TEST(BitVectorTest, CompressedByteSizeMatchesSerialized) {
  Rng rng(3);
  BitVector bits(4096, false);
  for (size_t i = 0; i < bits.size(); ++i) bits.Set(i, rng.NextBool(0.01));
  EXPECT_EQ(bits.CompressedByteSize(), bits.SerializeRle().size());
}

TEST(BitVectorTest, DeserializeRejectsGarbage) {
  BitVector out;
  EXPECT_FALSE(BitVector::DeserializeRle("", &out));
  EXPECT_FALSE(BitVector::DeserializeRle("abc", &out));
  // Valid header then truncated body.
  BitVector bits(128, true);
  std::string payload = bits.SerializeRle();
  payload.resize(payload.size() - 1);
  EXPECT_FALSE(BitVector::DeserializeRle(payload, &out));
}

TEST(BitVectorTest, EmptyVector) {
  BitVector bits;
  EXPECT_TRUE(bits.empty());
  std::string payload = bits.SerializeRle();
  BitVector decoded(5, true);
  ASSERT_TRUE(BitVector::DeserializeRle(payload, &decoded));
  EXPECT_EQ(decoded.size(), 0u);
}

// Property sweep: RLE round trip across densities and sizes.
class BitVectorRleProperty
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(BitVectorRleProperty, RoundTrip) {
  auto [size, density] = GetParam();
  Rng rng(size * 31 + static_cast<uint64_t>(density * 100));
  BitVector bits(size, false);
  for (size_t i = 0; i < size; ++i) bits.Set(i, rng.NextBool(density));
  BitVector decoded;
  ASSERT_TRUE(BitVector::DeserializeRle(bits.SerializeRle(), &decoded));
  EXPECT_TRUE(bits == decoded);
  EXPECT_EQ(decoded.CountOnes(), bits.CountOnes());
}

INSTANTIATE_TEST_SUITE_P(
    Densities, BitVectorRleProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 63, 64, 65, 1000, 4096),
                       ::testing::Values(0.0, 0.01, 0.5, 0.99, 1.0)));

// De Morgan property: NOT(a AND b) == NOT(a) OR NOT(b).
TEST(BitVectorTest, DeMorgan) {
  Rng rng(21);
  BitVector a(500, false);
  BitVector b(500, false);
  for (size_t i = 0; i < 500; ++i) {
    a.Set(i, rng.NextBool(0.4));
    b.Set(i, rng.NextBool(0.6));
  }
  BitVector lhs = BitVector::Not(BitVector::And(a, b));
  BitVector rhs = BitVector::Or(BitVector::Not(a), BitVector::Not(b));
  EXPECT_TRUE(lhs == rhs);
}

// ---------- Hash ----------

TEST(HashTest, StableAndDistinct) {
  EXPECT_EQ(HashString("feisu"), HashString("feisu"));
  EXPECT_NE(HashString("feisu"), HashString("feisv"));
  EXPECT_NE(HashInt64(1), HashInt64(2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ---------- Logging ----------

TEST(LoggingTest, LevelGate) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_FALSE(FEISU_LOG_ENABLED(kDebug));
  EXPECT_TRUE(FEISU_LOG_ENABLED(kError));
  SetLogLevel(LogLevel::kDebug);
  EXPECT_TRUE(FEISU_LOG_ENABLED(kInfo));
  SetLogLevel(old_level);
}

}  // namespace
}  // namespace feisu
