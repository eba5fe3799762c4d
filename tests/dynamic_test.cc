// Tests for the dynamic maintenance of range-optimal wavelet statistics:
// O(log n) updates must track the from-scratch construction exactly.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "wavelet/dynamic.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 40) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

class DynamicPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicPropertyTest, UpdatesTrackFromScratchRebuild) {
  const int64_t n = 31;  // n+1 = 32
  std::vector<int64_t> data = RandomData(n, GetParam());
  auto maintainer = DynamicRangeSynopsisMaintainer::Create(data);
  ASSERT_TRUE(maintainer.ok());

  Rng rng(GetParam() + 100);
  for (int step = 0; step < 60; ++step) {
    const int64_t i = rng.NextInt(1, n);
    int64_t delta = rng.NextInt(-3, 8);
    if (data[static_cast<size_t>(i - 1)] + delta < 0) {
      delta = -data[static_cast<size_t>(i - 1)];
    }
    ASSERT_TRUE(maintainer->ApplyUpdate(i, delta).ok());
    data[static_cast<size_t>(i - 1)] += delta;
    EXPECT_EQ(maintainer->CountAt(i), data[static_cast<size_t>(i - 1)]);
  }
  EXPECT_EQ(maintainer->updates_applied(), 60);

  for (int64_t budget : {3, 8, 16}) {
    auto dynamic = maintainer->Snapshot(budget);
    auto rebuilt = BuildWaveRangeOpt(data, budget);
    ASSERT_TRUE(dynamic.ok());
    ASSERT_TRUE(rebuilt.ok());
    const auto dynamic_flat = dynamic->Compile().value();
    const auto rebuilt_flat = rebuilt->Compile().value();
    // Same selection rule on (numerically) identical coefficients -> the
    // same answers everywhere.
    for (int64_t a = 1; a <= n; a += 2) {
      for (int64_t b = a; b <= n; b += 3) {
        EXPECT_NEAR(dynamic_flat->EstimateOne(a, b),
                    rebuilt_flat->EstimateOne(a, b), 1e-6)
            << "budget=" << budget << " [" << a << "," << b << "]";
      }
    }
    auto sse_dyn = AllRangesSse(data, *dynamic_flat);
    auto sse_new = AllRangesSse(data, *rebuilt_flat);
    ASSERT_TRUE(sse_dyn.ok());
    ASSERT_TRUE(sse_new.ok());
    EXPECT_NEAR(sse_dyn.value(), sse_new.value(),
                1e-6 * (1.0 + sse_new.value()));
  }
}

TEST_P(DynamicPropertyTest, UpdateThenRevertIsIdentity) {
  const int64_t n = 15;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 7);
  auto maintainer = DynamicRangeSynopsisMaintainer::Create(data);
  ASSERT_TRUE(maintainer.ok());
  auto before = maintainer->Snapshot(6);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(maintainer->ApplyUpdate(5, 17).ok());
  ASSERT_TRUE(maintainer->ApplyUpdate(5, -17).ok());
  auto after = maintainer->Snapshot(6);
  ASSERT_TRUE(after.ok());
  const auto before_flat = before->Compile().value();
  const auto after_flat = after->Compile().value();
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      EXPECT_NEAR(before_flat->EstimateOne(a, b),
                  after_flat->EstimateOne(a, b), 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicPropertyTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(DynamicTest, RejectsInvalidUpdates) {
  auto maintainer =
      DynamicRangeSynopsisMaintainer::Create({5, 5, 5});
  ASSERT_TRUE(maintainer.ok());
  EXPECT_FALSE(maintainer->ApplyUpdate(0, 1).ok());
  EXPECT_FALSE(maintainer->ApplyUpdate(4, 1).ok());
  EXPECT_FALSE(maintainer->ApplyUpdate(2, -6).ok());  // would go negative
  EXPECT_TRUE(maintainer->ApplyUpdate(2, -5).ok());   // exactly to zero
  EXPECT_EQ(maintainer->CountAt(2), 0);
}

TEST(DynamicTest, RejectsBadConstruction) {
  EXPECT_FALSE(DynamicRangeSynopsisMaintainer::Create({}).ok());
  EXPECT_FALSE(DynamicRangeSynopsisMaintainer::Create({1, -1}).ok());
}

TEST(DynamicTest, SnapshotBudgetValidated) {
  auto maintainer = DynamicRangeSynopsisMaintainer::Create({1, 2, 3});
  ASSERT_TRUE(maintainer.ok());
  EXPECT_FALSE(maintainer->Snapshot(0).ok());
  EXPECT_TRUE(maintainer->Snapshot(100).ok());  // clamped to available
}

}  // namespace
}  // namespace rangesyn
