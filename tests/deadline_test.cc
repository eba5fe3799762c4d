// Tests for cooperative deadlines (core/deadline.h) and for the engine
// factory's graceful-degradation ladder (BuildSynopsisWithOptions). All
// deadline trips here use CancellationToken, not the clock, so the tests
// are deterministic on any machine.

#include "core/deadline.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/factory.h"
#include "histogram/builders.h"
#include "histogram/dp.h"
#include "histogram/opt_a_dp.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

std::vector<int64_t> StepData(int64_t n) {
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    data[static_cast<size_t>(i)] = (i * 37 + 11) % 23 + ((i / 50) % 4) * 40;
  }
  return data;
}

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.Check("anything").ok());
}

TEST(DeadlineTest, NonPositiveAfterIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(0.0).Expired());
  EXPECT_TRUE(Deadline::After(-1.0).Expired());
  const Status s = Deadline::After(-1.0).Check("OPT-A layer");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("OPT-A layer"), std::string::npos);
}

TEST(DeadlineTest, GenerousAfterIsLive) {
  const Deadline d = Deadline::After(3600.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.Check("x").ok());
}

TEST(DeadlineTest, TokenCancellationSharedAcrossCopies) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  const CancellationToken copy = token;
  const Deadline d = Deadline::FromToken(token);
  const Deadline d2 = d;  // copies observe the same flag
  EXPECT_FALSE(d.Expired());
  copy.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(d.Expired());
  EXPECT_TRUE(d2.Expired());
  EXPECT_EQ(d.Check("build").code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, AttachTokenToTimedDeadline) {
  CancellationToken token;
  Deadline d = Deadline::After(3600.0);
  d.AttachToken(token);
  EXPECT_FALSE(d.Expired());
  token.Cancel();
  EXPECT_TRUE(d.Expired());
}

// --- Builders observe the deadline -------------------------------------

TEST(DeadlineTest, DpBuildersReturnDeadlineExceeded) {
  const std::vector<int64_t> data = StepData(256);
  CancellationToken token;
  token.Cancel();
  const Deadline expired = Deadline::FromToken(token);

  const auto sap0 = BuildSap0(data, 4, expired);
  ASSERT_FALSE(sap0.ok());
  EXPECT_EQ(sap0.status().code(), StatusCode::kDeadlineExceeded);

  const auto vopt =
      BuildVOptimal(data, 4, PieceRounding::kPerPiece, expired);
  ASSERT_FALSE(vopt.ok());
  EXPECT_EQ(vopt.status().code(), StatusCode::kDeadlineExceeded);
}

// A token cancelled mid-solve, from inside the cost oracle once the fill
// reaches the second half of the end indices, must still stop the DP: the
// per-block poll observes it and the oracle is not run for every pair.
TEST(DeadlineTest, DpStopsWhenDeadlineExpiresMidSolve) {
  constexpr int64_t kN = 512;
  CancellationToken token;
  int64_t calls = 0;
  const BucketCostFn cost = [&](int64_t l, int64_t r) {
    ++calls;
    if (r >= kN / 2) token.Cancel();
    return static_cast<double>(r - l + 1);
  };
  const auto r = SolveIntervalDp(kN, 8, cost, /*exact_buckets=*/false,
                                 Deadline::FromToken(token));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(calls, kN * (kN + 1) / 2);
}

TEST(DeadlineTest, OptABuildReturnsDeadlineExceeded) {
  const std::vector<int64_t> data = StepData(64);
  CancellationToken token;
  token.Cancel();
  OptAOptions options;
  options.max_buckets = 4;
  options.deadline = Deadline::FromToken(token);
  const auto r = BuildOptA(data, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, WaveletBuildersReturnDeadlineExceeded) {
  const std::vector<int64_t> data = StepData(128);
  CancellationToken token;
  token.Cancel();
  const Deadline expired = Deadline::FromToken(token);
  const auto r = BuildWaveRangeOpt(data, 6, expired);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, UnlimitedDeadlineChangesNothing) {
  // A default Deadline must not perturb results: identical output with
  // and without the argument.
  const std::vector<int64_t> data = StepData(200);
  const auto a = BuildSap0(data, 5);
  const auto b = BuildSap0(data, 5, Deadline());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto view_a = a->Compile().value();
  const auto view_b = b->Compile().value();
  for (int64_t q = 1; q <= 200; q += 7) {
    EXPECT_EQ(view_a->EstimateOne(1, q), view_b->EstimateOne(1, q));
  }
}

// --- Factory degradation ladder ----------------------------------------

TEST(DeadlineTest, StrictBuildSynopsisIgnoresNoDeadlineAndSucceeds) {
  SynopsisSpec spec;
  spec.method = "opta";
  spec.budget_words = 12;
  const auto r = BuildSynopsis(spec, StepData(48));
  ASSERT_TRUE(r.ok());
}

TEST(DeadlineTest, ExpiredDeadlineOnOptaDegradesToUsableSynopsis) {
  const std::vector<int64_t> data = StepData(96);
  SynopsisSpec spec;
  spec.method = "opta";
  spec.budget_words = 12;

  CancellationToken token;
  token.Cancel();
  BuildOptions options;
  options.deadline = Deadline::FromToken(token);

  const auto r = BuildSynopsisWithOptions(spec, data, options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const BuildOutcome& out = r.value();
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degraded_from, "opta");
  // With the token permanently cancelled, every deadline-observing rung
  // fails and the ladder bottoms out at its deadline-free final rung.
  EXPECT_EQ(out.built_method, "equiwidth");
  EXPECT_NE(out.fallback_reason.find("deadline exceeded"), std::string::npos);
  // The fallback must be a real, queryable synopsis under the budget.
  ASSERT_NE(out.synopsis, nullptr);
  EXPECT_EQ(out.synopsis->n(), 96);
  EXPECT_LE(out.synopsis->StorageWords(), spec.budget_words);
  const double est = out.synopsis->EstimateOne(1, 96);
  EXPECT_GE(est, 0.0);
}

TEST(DeadlineTest, ExpiredDeadlineOnWaveletDegradesWithinFamily) {
  const std::vector<int64_t> data = StepData(128);
  SynopsisSpec spec;
  spec.method = "wave-range-opt";
  spec.budget_words = 12;

  CancellationToken token;
  token.Cancel();
  BuildOptions options;
  options.deadline = Deadline::FromToken(token);

  const auto r = BuildSynopsisWithOptions(spec, data, options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().degraded);
  EXPECT_EQ(r.value().degraded_from, "wave-range-opt");
  EXPECT_EQ(r.value().built_method, "topbb");
  ASSERT_NE(r.value().synopsis, nullptr);
  EXPECT_EQ(r.value().synopsis->n(), 128);
}

TEST(DeadlineTest, StateBudgetTripDegradesViaResourceExhausted) {
  const std::vector<int64_t> data = StepData(96);
  SynopsisSpec spec;
  spec.method = "opta";
  spec.budget_words = 12;
  BuildOptions options;
  options.max_states = 1;  // trips immediately, no deadline involved

  const auto r = BuildSynopsisWithOptions(spec, data, options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().degraded);
  EXPECT_EQ(r.value().degraded_from, "opta");
  // opta-rounded shares the state cap and also trips; sap0 has no state
  // cap and no deadline is set, so it is the first rung that succeeds.
  EXPECT_EQ(r.value().built_method, "sap0");
  EXPECT_NE(r.value().fallback_reason.find("state budget"),
            std::string::npos);
}

TEST(DeadlineTest, LiveDeadlineBuildsRequestedMethodUndegraded) {
  SynopsisSpec spec;
  spec.method = "vopt";
  spec.budget_words = 12;
  BuildOptions options;
  options.deadline = Deadline::After(3600.0);
  const auto r = BuildSynopsisWithOptions(spec, StepData(64), options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_FALSE(r.value().degraded);
  EXPECT_EQ(r.value().built_method, "vopt");
  EXPECT_TRUE(r.value().degraded_from.empty());
  EXPECT_TRUE(r.value().fallback_reason.empty());
}

TEST(DeadlineTest, NonRetryableErrorsPropagateUnchanged) {
  // Invalid budget is InvalidArgument — the ladder must not mask it.
  SynopsisSpec spec;
  spec.method = "opta";
  spec.budget_words = 0;
  CancellationToken token;
  token.Cancel();
  BuildOptions options;
  options.deadline = Deadline::FromToken(token);
  const auto r = BuildSynopsisWithOptions(spec, StepData(32), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeadlineTest, MethodsWithoutLadderFailCleanlyOnExpiredDeadline) {
  // naive/equi* never observe a deadline, so they succeed even expired.
  SynopsisSpec spec;
  spec.method = "equidepth";
  spec.budget_words = 12;
  CancellationToken token;
  token.Cancel();
  BuildOptions options;
  options.deadline = Deadline::FromToken(token);
  const auto r = BuildSynopsisWithOptions(spec, StepData(64), options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_FALSE(r.value().degraded);
  EXPECT_EQ(r.value().built_method, "equidepth");
}

}  // namespace
}  // namespace rangesyn
