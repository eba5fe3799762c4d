// Unit tests for the flat query path itself: EstimateMany edge cases
// (empty batches, size mismatches, duplicates, unsorted input), the
// factory and catalog entry points, eviction lifetime of outstanding
// flat views (ASan-covered), and the CLI --flat / --flat-file /
// compile-flat surface.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "core/crc32c.h"
#include "core/fs.h"
#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/catalog.h"
#include "engine/factory.h"
#include "engine/table.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::string TempPath(const std::string& name) {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string prefix = info ? std::string(info->name()) + "_" : "";
  return ::testing::TempDir() + "/" + prefix + name;
}

std::vector<int64_t> Dataset(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto floats = MakeNamedDistribution("zipf", n, 900.0, &rng);
  EXPECT_TRUE(floats.ok()) << floats.status();
  auto data = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
  EXPECT_TRUE(data.ok()) << data.status();
  return data.value();
}

std::shared_ptr<const FlatSynopsis> BuildFlat(const std::string& method,
                                              int64_t budget, int64_t n,
                                              uint64_t seed = 11) {
  SynopsisSpec spec;
  spec.method = method;
  spec.budget_words = budget;
  auto flat = BuildFlatSynopsis(spec, Dataset(n, seed));
  EXPECT_TRUE(flat.ok()) << flat.status();
  return flat.value();
}

// --- EstimateMany edge cases ------------------------------------------

TEST(FlatBatchTest, EmptyBatchIsOk) {
  const auto flat = BuildFlat("sap0", 12, 32);
  std::vector<FlatQuery> queries;
  std::vector<double> out;
  EXPECT_TRUE(flat->EstimateMany(queries, out).ok());
}

TEST(FlatBatchTest, SizeMismatchIsRejected) {
  const auto flat = BuildFlat("sap0", 12, 32);
  const std::vector<FlatQuery> queries = {{1, 4}, {2, 9}};
  std::vector<double> out(3);
  const Status s = flat->EstimateMany(queries, out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// A batch of every single-point range plus the full domain, deliberately
// unsorted and with duplicates: each slot must match the one-shot path,
// and equal queries must produce equal answers regardless of position.
TEST(FlatBatchTest, UnsortedDuplicateAndDegenerateRanges) {
  for (const char* method : {"sap1", "wave-range-opt", "naive"}) {
    const int64_t n = 48;
    const auto flat = BuildFlat(method, 16, n);
    std::vector<FlatQuery> queries;
    for (int64_t i = n; i >= 1; --i) queries.push_back({i, i});
    queries.push_back({1, n});            // full domain
    queries.push_back({1, n});            // duplicate of the above
    queries.push_back({n / 2, n / 2});    // duplicate single point
    std::vector<double> out(queries.size());
    ASSERT_TRUE(flat->EstimateMany(queries, out).ok()) << method;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(Bits(flat->EstimateOne(queries[i].a, queries[i].b)),
                Bits(out[i]))
          << method << " slot " << i;
    }
    EXPECT_EQ(Bits(out[n]), Bits(out[n + 1]));  // duplicate full-domain
  }
}

// Batching is purely an execution strategy: a batch of N queries must
// return exactly what N independent EstimateOne calls return, and reusing
// one scratch across batches must not leak state between them.
TEST(FlatBatchTest, BatchEqualsSinglesAcrossScratchReuse) {
  const auto flat = BuildFlat("sap2", 21, 40);
  FlatSynopsis::BatchScratch scratch;
  Rng rng(404);
  for (int round = 0; round < 5; ++round) {
    std::vector<FlatQuery> queries;
    const int batch = 1 + static_cast<int>(rng.NextBounded(60));
    for (int i = 0; i < batch; ++i) {
      const int64_t a = rng.NextInt(1, 40);
      const int64_t b = rng.NextInt(a, 40);
      queries.push_back({a, b});
    }
    std::vector<double> out(queries.size());
    ASSERT_TRUE(flat->EstimateMany(queries, out, &scratch).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(Bits(flat->EstimateOne(queries[i].a, queries[i].b)),
                Bits(out[i]))
          << "round " << round << " slot " << i;
    }
  }
}

// --- Adapter and factory ----------------------------------------------

TEST(FlatSynopsisTest, AdapterReportsFlatNameAndDomain) {
  const auto flat = BuildFlat("equidepth", 12, 32);
  FlatRangeEstimator adapter(flat);
  EXPECT_EQ(adapter.domain_size(), 32);
  EXPECT_EQ(adapter.Name(), flat->Name());
  EXPECT_EQ(Bits(adapter.EstimateRange(3, 17)),
            Bits(flat->EstimateOne(3, 17)));
}

TEST(FlatFileTest, OpenMissingFileFails) {
  EXPECT_FALSE(OpenFlatMapped(TempPath("nope.rsf")).ok());
}

// RSF1 version 1 also stored an Eytzinger copy of the bucket ends. A
// version-1 file must be refused by its version byte, never misread. A
// naive synopsis has no i64 words, so its version-1 and version-2 bodies
// are the same bytes: only the version byte and the CRC differ.
TEST(FlatFileTest, VersionOneFileIsRefused) {
  auto encoded = EncodeFlatSynopsis(*BuildFlat("naive", 4, 32));
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  std::string bytes = encoded.value();
  ASSERT_EQ(bytes[4], 2);
  bytes[4] = 1;
  const size_t body = bytes.size() - sizeof(uint32_t);
  const uint32_t crc = Crc32c(std::string_view(bytes.data(), body));
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
  const std::string path = TempPath("v1.rsf");
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  auto opened = OpenFlatMapped(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("unsupported version"),
            std::string::npos)
      << opened.status();
  std::remove(path.c_str());
}

// --- Catalog flat views and eviction lifetime -------------------------

class CatalogFlatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Column c("v");
    Rng rng(29);
    for (int i = 0; i < 400; ++i) c.Append(rng.NextInt(0, 63));
    SynopsisSpec spec;
    spec.method = "sap1";
    spec.budget_words = 25;
    ASSERT_TRUE(catalog_.RegisterColumn("t.v", c, spec).ok());
  }
  SynopsisCatalog catalog_;
};

TEST_F(CatalogFlatTest, FlatViewIsCachedAndConsistent) {
  auto first = catalog_.FlatView("t.v");
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = catalog_.FlatView("t.v");
  ASSERT_TRUE(second.ok());
  // Same cached object, not a recompilation.
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_FALSE(catalog_.FlatView("absent").ok());
}

// The documented lifetime contract: a flat view handed out before
// eviction keeps answering queries afterwards (it shares ownership of
// its storage). Under ASan this also proves there is no dangling read.
TEST_F(CatalogFlatTest, EvictionLeavesOutstandingViewsValid) {
  auto view = catalog_.FlatView("t.v");
  ASSERT_TRUE(view.ok()) << view.status();
  const std::shared_ptr<const FlatSynopsis> flat = view.value();
  const int64_t n = flat->n();
  std::vector<double> before(static_cast<size_t>(n));
  for (int64_t a = 1; a <= n; ++a) {
    before[a - 1] = flat->EstimateOne(a, n);
  }
  ASSERT_TRUE(catalog_.Evict("t.v").ok());
  EXPECT_FALSE(catalog_.Contains("t.v"));
  EXPECT_FALSE(catalog_.FlatView("t.v").ok());
  EXPECT_EQ(catalog_.Evict("t.v").code(), StatusCode::kNotFound);
  // The evicted entry's view still serves, bit-identically.
  for (int64_t a = 1; a <= n; ++a) {
    EXPECT_EQ(Bits(before[a - 1]), Bits(flat->EstimateOne(a, n)));
  }
}

// --- CLI surface ------------------------------------------------------

class CliFlatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_path_ = TempPath("data.csv");
    synopsis_path_ = TempPath("syn.rsn");
    flat_path_ = TempPath("syn.rsf");
    auto gen = RunCliCommand({"generate", "--dist=spike", "--n=96",
                              "--volume=2500", "--seed=13",
                              "--out=" + data_path_});
    ASSERT_TRUE(gen.ok()) << gen.status();
    auto build = RunCliCommand({"build", "--data=" + data_path_,
                                "--method=sap2", "--budget=28",
                                "--out=" + synopsis_path_});
    ASSERT_TRUE(build.ok()) << build.status();
  }
  void TearDown() override {
    std::remove(data_path_.c_str());
    std::remove(synopsis_path_.c_str());
    std::remove(flat_path_.c_str());
  }
  std::string data_path_;
  std::string synopsis_path_;
  std::string flat_path_;
};

// estimate and evaluate must print byte-identical output whether served
// by the legacy path, --flat, or an mmap'd --flat-file: same doubles in,
// same formatting out.
TEST_F(CliFlatTest, FlatFlagsAreOutputInvisible) {
  auto compile = RunCliCommand({"compile-flat",
                                "--synopsis=" + synopsis_path_,
                                "--out=" + flat_path_});
  ASSERT_TRUE(compile.ok()) << compile.status();
  EXPECT_NE(compile->find("FLAT-SAP2"), std::string::npos);

  const std::vector<std::string> base = {"estimate",
                                         "--synopsis=" + synopsis_path_,
                                         "--a=7", "--b=61"};
  auto legacy = RunCliCommand(base);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  auto with_flat = base;
  with_flat.push_back("--flat");
  auto flat = RunCliCommand(with_flat);
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(legacy.value(), flat.value());
  auto mapped = RunCliCommand({"estimate", "--flat-file=" + flat_path_,
                               "--a=7", "--b=61"});
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(legacy.value(), mapped.value());

  auto eval_legacy = RunCliCommand({"evaluate",
                                    "--synopsis=" + synopsis_path_,
                                    "--data=" + data_path_});
  ASSERT_TRUE(eval_legacy.ok()) << eval_legacy.status();
  auto eval_flat = RunCliCommand({"evaluate",
                                  "--synopsis=" + synopsis_path_,
                                  "--data=" + data_path_, "--flat"});
  ASSERT_TRUE(eval_flat.ok()) << eval_flat.status();
  EXPECT_EQ(eval_legacy.value(), eval_flat.value());
  auto eval_mapped = RunCliCommand({"evaluate",
                                    "--flat-file=" + flat_path_,
                                    "--data=" + data_path_});
  ASSERT_TRUE(eval_mapped.ok()) << eval_mapped.status();
  EXPECT_EQ(eval_legacy.value(), eval_mapped.value());
}

TEST_F(CliFlatTest, EstimateRejectsBadFlatFile) {
  EXPECT_FALSE(RunCliCommand({"estimate",
                              "--flat-file=" + TempPath("missing.rsf"),
                              "--a=1", "--b=2"})
                   .ok());
  // An .rsn synopsis is not an RSF1 flat file; open must reject it.
  EXPECT_FALSE(RunCliCommand({"estimate", "--flat-file=" + synopsis_path_,
                              "--a=1", "--b=2"})
                   .ok());
}

}  // namespace
}  // namespace rangesyn
