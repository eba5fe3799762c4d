// Tests for the fault-injection registry (core/failpoint.h): spec
// parsing, rule matching and modes, deterministic probabilistic
// schedules, and injection through real code paths (file I/O, DP scratch
// allocation).

#include "core/failpoint.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fs.h"
#include "core/result.h"
#include "engine/factory.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

/// Clears failpoint configuration on entry and exit so tests cannot leak
/// active rules into each other (or into unrelated suites).
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
    }
    failpoint::Clear();
  }
  void TearDown() override { failpoint::Clear(); }
};

TEST_F(FailpointTest, InactiveByDefault) {
  EXPECT_FALSE(failpoint::ShouldFail("io.read"));
  EXPECT_TRUE(failpoint::Fire("io.read").ok());
}

TEST_F(FailpointTest, AlwaysMode) {
  ASSERT_TRUE(failpoint::Configure("io.read=always").ok());
  EXPECT_TRUE(failpoint::ShouldFail("io.read"));
  EXPECT_TRUE(failpoint::ShouldFail("io.read"));
  EXPECT_FALSE(failpoint::ShouldFail("io.write"));
  const Status s = failpoint::Fire("io.read");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("io.read"), std::string::npos);
}

TEST_F(FailpointTest, OnceMode) {
  ASSERT_TRUE(failpoint::Configure("a=once").ok());
  EXPECT_TRUE(failpoint::ShouldFail("a"));
  EXPECT_FALSE(failpoint::ShouldFail("a"));
  EXPECT_FALSE(failpoint::ShouldFail("a"));
}

TEST_F(FailpointTest, OnceNthMode) {
  ASSERT_TRUE(failpoint::Configure("a=once:3").ok());
  EXPECT_FALSE(failpoint::ShouldFail("a"));
  EXPECT_FALSE(failpoint::ShouldFail("a"));
  EXPECT_TRUE(failpoint::ShouldFail("a"));
  EXPECT_FALSE(failpoint::ShouldFail("a"));
}

TEST_F(FailpointTest, OffModeAndFirstMatchWins) {
  // The specific rule precedes the wildcard, so io.read stays healthy
  // while every other io.* site fails.
  ASSERT_TRUE(failpoint::Configure("io.read=off;io.*=always").ok());
  EXPECT_FALSE(failpoint::ShouldFail("io.read"));
  EXPECT_TRUE(failpoint::ShouldFail("io.write"));
  EXPECT_TRUE(failpoint::ShouldFail("io.atomic_write.fsync"));
  EXPECT_FALSE(failpoint::ShouldFail("alloc.interval_dp"));
}

TEST_F(FailpointTest, WildcardPrefixMatch) {
  ASSERT_TRUE(failpoint::Configure("alloc.*=always").ok());
  EXPECT_TRUE(failpoint::ShouldFail("alloc.interval_dp"));
  EXPECT_TRUE(failpoint::ShouldFail("alloc.opta_tables"));
  EXPECT_FALSE(failpoint::ShouldFail("io.read"));
}

TEST_F(FailpointTest, ProbabilisticScheduleIsDeterministic) {
  // Same spec + same evaluation sequence => identical decisions.
  std::vector<bool> first;
  ASSERT_TRUE(failpoint::Configure("p=prob:0.5:1234").ok());
  for (int i = 0; i < 200; ++i) first.push_back(failpoint::ShouldFail("p"));
  failpoint::Clear();
  ASSERT_TRUE(failpoint::Configure("p=prob:0.5:1234").ok());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(failpoint::ShouldFail("p"), first[static_cast<size_t>(i)])
        << "evaluation " << i;
  }
  // A p=0.5 schedule over 200 draws fires somewhere strictly between
  // never and always (probability of violating this is 2^-199).
  int fires = 0;
  for (const bool b : first) fires += b ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 200);
}

TEST_F(FailpointTest, ProbabilityZeroAndOne) {
  ASSERT_TRUE(failpoint::Configure("z=prob:0;o=prob:1").ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(failpoint::ShouldFail("z"));
    EXPECT_TRUE(failpoint::ShouldFail("o"));
  }
}

TEST_F(FailpointTest, DifferentSeedsGiveDifferentSchedules) {
  std::vector<bool> a, b;
  ASSERT_TRUE(failpoint::Configure("p=prob:0.5:1").ok());
  for (int i = 0; i < 200; ++i) a.push_back(failpoint::ShouldFail("p"));
  failpoint::Clear();
  ASSERT_TRUE(failpoint::Configure("p=prob:0.5:2").ok());
  for (int i = 0; i < 200; ++i) b.push_back(failpoint::ShouldFail("p"));
  EXPECT_NE(a, b);
}

TEST_F(FailpointTest, InvalidSpecsRejectedAndLeaveRulesUntouched) {
  ASSERT_TRUE(failpoint::Configure("a=always").ok());
  for (const char* bad :
       {"a", "=always", "a=bogus", "a=once:0", "a=once:x", "a=prob:2",
        "a=prob:-0.5", "a=prob:0.5:notanumber", "a=prob:"}) {
    EXPECT_FALSE(failpoint::Configure(bad).ok()) << bad;
    // The previous configuration must survive the failed update.
    EXPECT_TRUE(failpoint::ShouldFail("a")) << bad;
  }
  // An empty spec clears.
  ASSERT_TRUE(failpoint::Configure("").ok());
  EXPECT_FALSE(failpoint::ShouldFail("a"));
}

TEST_F(FailpointTest, CountersTrackEvaluationsAndFires) {
  ASSERT_TRUE(failpoint::Configure("a=once").ok());
  EXPECT_TRUE(failpoint::ShouldFail("a"));
  EXPECT_FALSE(failpoint::ShouldFail("a"));
  EXPECT_FALSE(failpoint::ShouldFail("a"));
  EXPECT_EQ(failpoint::EvaluationCount("a"), 3u);
  EXPECT_EQ(failpoint::FiredCount("a"), 1u);
  EXPECT_EQ(failpoint::ActiveRules().size(), 1u);
}

TEST_F(FailpointTest, CommaSeparatorAndWhitespaceAccepted) {
  ASSERT_TRUE(failpoint::Configure(" a = always , b = once ").ok());
  EXPECT_TRUE(failpoint::ShouldFail("a"));
  EXPECT_TRUE(failpoint::ShouldFail("b"));
  EXPECT_FALSE(failpoint::ShouldFail("b"));
}

// --- Injection through real code paths ---------------------------------

TEST_F(FailpointTest, InjectedReadFaultSurfacesAsStatus) {
  const std::string path = ::testing::TempDir() + "/fp_read.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "hello").ok());
  ASSERT_TRUE(failpoint::Configure("io.read=always").ok());
  const Result<std::string> r = ReadFileToString(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  failpoint::Clear();
  const Result<std::string> ok = ReadFileToString(path);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), "hello");
  std::remove(path.c_str());
}

TEST_F(FailpointTest, AtomicWriteFaultsLeaveNoPartialFile) {
  const std::string path = ::testing::TempDir() + "/fp_write.txt";
  std::remove(path.c_str());
  for (const char* site :
       {"io.atomic_write.open=always", "io.atomic_write.write=always",
        "io.atomic_write.fsync=always", "io.atomic_write.rename=always"}) {
    ASSERT_TRUE(failpoint::Configure(site).ok());
    EXPECT_FALSE(AtomicWriteFile(path, "payload").ok()) << site;
    // Neither the target nor the temp file may exist after the failure.
    EXPECT_FALSE(ReadFileToString(path).ok()) << site;
    failpoint::Clear();
    EXPECT_FALSE(ReadFileToString(path + ".tmp").ok()) << site;
  }
  // And with no faults the same write succeeds.
  ASSERT_TRUE(AtomicWriteFile(path, "payload").ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "payload");
  std::remove(path.c_str());
}

TEST_F(FailpointTest, AtomicWriteFaultPreservesPreviousContents) {
  const std::string path = ::testing::TempDir() + "/fp_keep.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "old").ok());
  ASSERT_TRUE(failpoint::Configure("io.atomic_write.rename=always").ok());
  EXPECT_FALSE(AtomicWriteFile(path, "new").ok());
  failpoint::Clear();
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "old") << "failed save must not clobber";
  std::remove(path.c_str());
}

TEST_F(FailpointTest, AtomicWriteRetriesTransientEintr) {
  // A handful of interrupted syscalls (a signal-handling daemon's normal
  // life) must be absorbed: the write retries and still lands atomically.
  const std::string path = ::testing::TempDir() + "/fp_eintr.txt";
  for (const char* spec :
       {"io.atomic_write.write_eintr=once",
        "io.atomic_write.write_eintr=prob:0.5:7",
        "io.atomic_write.fsync_eintr=once:2"}) {
    ASSERT_TRUE(failpoint::Configure(spec).ok());
    EXPECT_TRUE(AtomicWriteFile(path, "interrupted").ok()) << spec;
    failpoint::Clear();
    auto back = ReadFileToString(path);
    ASSERT_TRUE(back.ok()) << spec;
    EXPECT_EQ(back.value(), "interrupted") << spec;
  }
  std::remove(path.c_str());
}

TEST_F(FailpointTest, AtomicWriteEintrStormFailsCleanly) {
  // Unbounded EINTR (every write / every fsync interrupted forever) must
  // exhaust the bounded retry budget and fail with a clean Status — no
  // spin, no partial target file.
  const std::string path = ::testing::TempDir() + "/fp_storm.txt";
  std::remove(path.c_str());
  for (const char* spec : {"io.atomic_write.write_eintr=always",
                           "io.atomic_write.fsync_eintr=always"}) {
    ASSERT_TRUE(failpoint::Configure(spec).ok());
    const Status s = AtomicWriteFile(path, "storm");
    ASSERT_FALSE(s.ok()) << spec;
    EXPECT_EQ(s.code(), StatusCode::kInternal) << spec;
    EXPECT_NE(s.message().find("EINTR retry budget"), std::string::npos)
        << spec;
    failpoint::Clear();
    EXPECT_FALSE(ReadFileToString(path).ok()) << spec;
    EXPECT_FALSE(ReadFileToString(path + ".tmp").ok()) << spec;
  }
}

TEST_F(FailpointTest, AtomicWriteCloseEintrIsNotAnError) {
  // EINTR from close means closed on Linux; the save must succeed (and
  // never retry the close, which could hit a reused descriptor).
  const std::string path = ::testing::TempDir() + "/fp_close.txt";
  ASSERT_TRUE(
      failpoint::Configure("io.atomic_write.close_eintr=always").ok());
  EXPECT_TRUE(AtomicWriteFile(path, "closed is closed").ok());
  failpoint::Clear();
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "closed is closed");
  std::remove(path.c_str());
}

TEST_F(FailpointTest, DpAllocationFaultFailsBuildCleanly) {
  std::vector<int64_t> data(32);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<int64_t>(i % 7);
  }
  SynopsisSpec spec;
  spec.method = "sap0";
  spec.budget_words = 12;
  ASSERT_TRUE(failpoint::Configure("alloc.interval_dp=always").ok());
  const Result<std::shared_ptr<const FlatSynopsis>> r =
      BuildSynopsis(spec, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  failpoint::Clear();
  EXPECT_TRUE(BuildSynopsis(spec, data).ok());
}

TEST_F(FailpointTest, SaveSynopsisFaultReportsStatus) {
  std::vector<int64_t> data(16, 3);
  SynopsisSpec spec;
  spec.method = "equiwidth";
  spec.budget_words = 12;
  auto flat = BuildSynopsis(spec, data);
  ASSERT_TRUE(flat.ok());
  const std::string path = ::testing::TempDir() + "/fp_syn.rsn";
  ASSERT_TRUE(failpoint::Configure("engine.serialize.save=always").ok());
  EXPECT_FALSE(SaveFlatSynopsis(*flat.value(), path).ok());
  failpoint::Clear();
  ASSERT_TRUE(SaveFlatSynopsis(*flat.value(), path).ok());
  ASSERT_TRUE(failpoint::Configure("engine.serialize.load=always").ok());
  EXPECT_FALSE(OpenFlatMapped(path).ok());
  failpoint::Clear();
  EXPECT_TRUE(OpenFlatMapped(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rangesyn
