// Unit tests for the core foundation: Status/Result, strings, flags,
// deterministic RNG, math helpers, CRC32C.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/crc32c.h"
#include "core/flags.h"
#include "core/mathutil.h"
#include "core/random.h"
#include "core/result.h"
#include "core/status.h"
#include "core/strings.h"

namespace rangesyn {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad n");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad n");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad n");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return NotFoundError("gone"); };
  auto wrapper = [&]() -> Status {
    RANGESYN_RETURN_IF_ERROR(fails());
    return OkStatus();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMovesValue) {
  auto makes = []() -> Result<std::vector<int>> {
    return std::vector<int>{1, 2, 3};
  };
  auto wrapper = [&]() -> Result<int> {
    RANGESYN_ASSIGN_OR_RETURN(std::vector<int> v, makes());
    return static_cast<int>(v.size());
  };
  Result<int> r = wrapper();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 3);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto fails = []() -> Result<int> { return InternalError("boom"); };
  auto wrapper = [&]() -> Result<int> {
    RANGESYN_ASSIGN_OR_RETURN(int v, fails());
    return v + 1;
  };
  EXPECT_EQ(wrapper().status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, StrCatConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("n=", 42, " x=", 1.5), "n=42 x=1.5");
}

TEST(StringsTest, SplitAndJoinRoundTrip) {
  const std::vector<std::string> parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin(parts, ","), "a,b,,c");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-123", &v));
  EXPECT_EQ(v, -123);
  EXPECT_TRUE(ParseInt64("  77 ", &v));
  EXPECT_EQ(v, 77);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1.5e3", &v));
  EXPECT_DOUBLE_EQ(v, 1500.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllTypes) {
  FlagSet flags("t", "test");
  flags.DefineInt64("n", 10, "");
  flags.DefineDouble("alpha", 1.0, "");
  flags.DefineString("dist", "zipf", "");
  flags.DefineBool("verbose", false, "");
  const char* argv[] = {"prog", "--n=20", "--alpha", "2.5", "--verbose",
                        "--dist=uniform", "pos"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt64("n"), 20);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha"), 2.5);
  EXPECT_EQ(flags.GetString("dist"), "uniform");
  EXPECT_TRUE(flags.GetBool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagSet flags("t", "test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, RejectsMalformedValue) {
  FlagSet flags("t", "test");
  flags.DefineInt64("n", 1, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, DefaultsSurviveEmptyParse) {
  FlagSet flags("t", "test");
  flags.DefineInt64("n", 127, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt64("n"), 127);
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, BoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(RandomTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng forked = a.Fork();
  // The fork and the parent continue on different sequences.
  EXPECT_NE(a.NextUint64(), forked.NextUint64());
}

// ---------------------------------------------------------------- Math

TEST(MathTest, RoundHalfToEven) {
  EXPECT_EQ(RoundHalfToEven(2.5), 2);
  EXPECT_EQ(RoundHalfToEven(3.5), 4);
  EXPECT_EQ(RoundHalfToEven(-2.5), -2);
  EXPECT_EQ(RoundHalfToEven(2.4), 2);
  EXPECT_EQ(RoundHalfToEven(2.6), 3);
}

// RoundHalfToEven against the libm rounding it replaced, std::nearbyint
// in the default FE_TONEAREST mode, over every input class the
// add-and-subtract-2^52 form treats differently.
TEST(MathTest, RoundHalfToEvenMatchesNearbyint) {
  int64_t checked = 0;
  int64_t mismatches = 0;
  const auto check = [&](double x) {
    ++checked;
    const int64_t want = static_cast<int64_t>(std::nearbyint(x));
    if (RoundHalfToEven(x) != want && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << x << ": got " << RoundHalfToEven(x)
                    << " want " << want;
    }
  };
  const auto check_signed = [&](double x) {
    check(x);
    check(-x);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Every tie k + 0.5 for |k| <= 2^20, and both of its neighbours.
  for (int64_t k = 0; k <= (int64_t{1} << 20); ++k) {
    const double tie = static_cast<double>(k) + 0.5;
    check_signed(tie);
    check_signed(std::nextafter(tie, 0.0));
    check_signed(std::nextafter(tie, kInf));
  }

  check_signed(0.0);
  for (const double sub :
       {std::numeric_limits<double>::denorm_min(),
        3.0 * std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 2.0,
        std::nextafter(std::numeric_limits<double>::min(), 0.0)}) {
    check_signed(sub);
  }

  // 2^52 and 2^53 and the doubles within 8 ulps of them: below 2^52 the
  // spacing is 1/2, from 2^52 on every double is an integer.
  for (const double edge : {0x1p52, 0x1p53}) {
    double below = edge;
    double above = edge;
    check_signed(edge);
    for (int i = 0; i < 8; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, kInf);
      check_signed(below);
      check_signed(above);
    }
  }

  // The largest doubles below 2^63, where the int64 cast is still defined.
  double top = 0x1p63;
  for (int i = 0; i < 16; ++i) {
    top = std::nextafter(top, 0.0);
    check_signed(top);
  }

  // Random sign and mantissa bits under an exponent drawn uniformly over
  // every biased value below 2^63 (subnormals included).
  Rng rng(5252);
  constexpr uint64_t kMaxBiasedExponent = 1023 + 62;
  for (int i = 0; i < 4'000'000; ++i) {
    const uint64_t bits = rng.NextUint64();
    const uint64_t exponent = rng.NextBounded(kMaxBiasedExponent + 1);
    check(std::bit_cast<double>((bits & 0x800FFFFFFFFFFFFFull) |
                                (exponent << 52)));
  }

  EXPECT_EQ(mismatches, 0) << "of " << checked << " values";
}

TEST(MathTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(128));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(127));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(127), 128u);
  EXPECT_EQ(NextPowerOfTwo(128), 128u);
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(127), 6);
  EXPECT_EQ(FloorLog2(128), 7);
}

TEST(MathTest, NumRanges) {
  EXPECT_EQ(NumRanges(0), 0);
  EXPECT_EQ(NumRanges(1), 1);
  EXPECT_EQ(NumRanges(2), 3);
  EXPECT_EQ(NumRanges(3), 6);
  EXPECT_EQ(NumRanges(127), 127 * 128 / 2);
}

TEST(MathTest, NumRangesAvoidsIntermediateOverflow) {
  // n*(n+1) overflows int64_t from n ≈ 3.04e9 even where n*(n+1)/2 fits;
  // the even-factor-first form stays exact to the representable limit.
  EXPECT_EQ(NumRanges(int64_t{3037000500}), int64_t{4611686020018625250});
  EXPECT_EQ(NumRanges(int64_t{4000000000}), int64_t{8000000002000000000});
  EXPECT_EQ(NumRanges(int64_t{4000000001}), int64_t{8000000006000000001});
}

TEST(MathTest, FloorLog2AtEveryPowerOfTwoEdge) {
  EXPECT_EQ(FloorLog2(1), 0);
  for (int k = 1; k <= 63; ++k) {
    const uint64_t p = uint64_t{1} << k;
    EXPECT_EQ(FloorLog2(p - 1), k - 1) << "2^" << k << " - 1";
    EXPECT_EQ(FloorLog2(p), k) << "2^" << k;
    EXPECT_EQ(FloorLog2(p + 1), k) << "2^" << k << " + 1";
  }
  EXPECT_EQ(FloorLog2(UINT64_MAX), 63);
}

TEST(MathTest, FloorLog2OfZeroIsGuarded) {
  if (kDCheckIsOn) {
    EXPECT_DEATH((void)FloorLog2(0), "Check failed");
  } else {
    // Release builds define the out-of-contract call to return 0 rather
    // than loop or read garbage.
    EXPECT_EQ(FloorLog2(0), 0);
  }
}

TEST(MathTest, DCheckGateConstantMatchesBuildMode) {
#if defined(NDEBUG) && !defined(RANGESYN_AUDIT)
  EXPECT_FALSE(kDCheckIsOn);
#else
  EXPECT_TRUE(kDCheckIsOn);
#endif
}

TEST(MathTest, AlmostEqual) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.1));
  EXPECT_TRUE(AlmostEqual(0.0, 1e-12));
}

// ---------------------------------------------------------------- CRC32C

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 §B.4 test vectors plus the customary "123456789" check value.
  EXPECT_EQ(Crc32c(std::string(32, '\x00')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  for (const std::string_view v : {std::string_view("123456789"),
                                   std::string_view(ascending)}) {
    EXPECT_EQ(Crc32cExtendPortable(0, v), Crc32c(v));
  }
}

TEST(Crc32cTest, DispatchedPathMatchesPortableAtEveryLengthAndOffset) {
  // Random bytes, so every length and alignment exercises the hardware
  // path's 8-byte body and its byte tail against the table reference.
  Rng rng(3720);
  std::string bytes(1024 + 8, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextInt(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const std::string_view v = std::string_view(bytes).substr(offset, len);
      ASSERT_EQ(Crc32c(v), Crc32cExtendPortable(0, v))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ExtendAtAnySplitEqualsOneShot) {
  Rng rng(82);
  std::string bytes(300, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextInt(0, 255));
  const std::string_view all(bytes);
  const uint32_t whole = Crc32c(all);
  for (size_t split = 0; split <= all.size(); ++split) {
    const std::string_view head = all.substr(0, split);
    const std::string_view tail = all.substr(split);
    ASSERT_EQ(Crc32cExtend(Crc32c(head), tail), whole) << split;
    // The two implementations chain into each other.
    ASSERT_EQ(Crc32cExtendPortable(Crc32c(head), tail), whole) << split;
    ASSERT_EQ(Crc32cExtend(Crc32cExtendPortable(0, head), tail), whole)
        << split;
  }
}

TEST(Crc32cTest, InterleavedBlockEdgesMatchPortable) {
  // The x86-64 path picks three-stream long blocks, three-stream short
  // blocks or one stream by length. Probe every switch at +-8 bytes and
  // every alignment; the sweep above never reaches a long block.
  constexpr size_t kShortRun = 3 * kCrc32cShortBlock;
  constexpr size_t kLongRun = 3 * kCrc32cLongBlock;
  constexpr size_t kBulkBatchFrame = 65566;  // one 4096-range query frame
  std::vector<size_t> lengths = {kBulkBatchFrame};
  const auto around = [&lengths](size_t edge) {
    for (size_t d = 0; d <= 8; ++d) {
      lengths.push_back(edge + d);
      lengths.push_back(edge - d);
    }
  };
  for (size_t edge = kShortRun; edge < kLongRun; edge += kShortRun) {
    around(edge);
  }
  around(kLongRun);
  around(2 * kLongRun);
  Rng rng(20010521);
  std::string bytes(kBulkBatchFrame + 8, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextInt(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (const size_t len : lengths) {
      const std::string_view v = std::string_view(bytes).substr(offset, len);
      ASSERT_EQ(Crc32c(v), Crc32cExtendPortable(0, v))
          << "offset " << offset << " length " << len;
    }
  }

  // Chaining across splits that straddle the block edges of a 100 KiB
  // buffer: one step either side of every short run, and +-8 bytes
  // around every long run.
  std::string big(100 << 10, '\0');
  for (char& c : big) c = static_cast<char>(rng.NextInt(0, 255));
  const std::string_view all(big);
  const uint32_t whole = Crc32cExtendPortable(0, all);
  ASSERT_EQ(Crc32c(all), whole);
  std::vector<size_t> splits;
  for (size_t edge = kShortRun; edge < all.size(); edge += kShortRun) {
    splits.push_back(edge - 1);
    splits.push_back(edge + 1);
  }
  for (size_t edge = kLongRun; edge < all.size(); edge += kLongRun) {
    for (size_t d = 0; d <= 8; ++d) {
      splits.push_back(edge - d);
      splits.push_back(edge + d);
    }
  }
  EXPECT_GE(splits.size(), 300u);
  for (const size_t split : splits) {
    ASSERT_EQ(Crc32cExtend(Crc32c(all.substr(0, split)), all.substr(split)),
              whole)
        << split;
  }
}

}  // namespace
}  // namespace rangesyn
