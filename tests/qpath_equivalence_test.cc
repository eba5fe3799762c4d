// Bit-exact equivalence of the flat query path (src/qpath) with the
// answers the builders' records gave before it became the only query
// path: for 200+ seeded (family x n x budget x method) cases, every
// range estimate served by the factory's FlatSynopsis — one-at-a-time,
// batched through EstimateMany, or reloaded zero-copy from an mmap'd
// RSF1 file — must be *identical* as a 64-bit pattern (std::bit_cast,
// not EXPECT_DOUBLE_EQ) to what LegacyReference (qpath_flat_reference.h)
// computes from the same record. A corruption-fuzz leg checks that
// damaged RSF1 files are rejected at open time, never half-served.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/oracles.h"
#include "core/fs.h"
#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/factory.h"
#include "histogram/builders.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"
#include "qpath_flat_reference.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

const char* const kFamilies[] = {"zipf", "spike", "uniform"};

std::vector<int64_t> SeededDataset(int case_id, int64_t n, double volume) {
  Rng rng(0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(case_id));
  auto floats = MakeNamedDistribution(
      kFamilies[case_id % 3], n, volume, &rng);
  EXPECT_TRUE(floats.ok()) << floats.status();
  auto data = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
  EXPECT_TRUE(data.ok()) << data.status();
  return data.value();
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Method families covering every FlatKind kernel the factory builds:
/// AVG (equidepth/maxdiff/vopt/a0), SAP0, SAP1, SAP2, NAIVE, and WAVE in
/// both domains (wave-point/topbb are data-domain, wave-range-opt is
/// prefix-domain). W-SAP0 is no factory method; FlatEndTableTest and
/// weighted_sap0_test check its kernel.
const char* const kMethods[] = {
    "equidepth", "maxdiff", "vopt", "sap0", "a0",
    "sap1",      "sap2",    "naive", "wave-point", "topbb",
    "wave-range-opt",
};

/// The factory's view of `method` over `data` under `budget_words`, and
/// the legacy reference of the record the factory built it from (the
/// same builder call, rebuilt here).
struct Built {
  std::shared_ptr<const FlatSynopsis> flat;
  LegacyReference legacy;
};

Built BuildWithReference(const std::string& method,
                         const std::vector<int64_t>& data,
                         int64_t budget_words) {
  SynopsisSpec spec;
  spec.method = method;
  spec.budget_words = budget_words;
  auto flat = BuildSynopsis(spec, data);
  EXPECT_TRUE(flat.ok()) << method << ": " << flat.status();
  const int64_t units = budget_words / WordsPerUnit(method).value();
  const auto built = [&](auto record) {
    EXPECT_TRUE(record.ok()) << method << ": " << record.status();
    return Built{flat.value(), LegacyReference(record.value())};
  };
  const PieceRounding per_piece = PieceRounding::kPerPiece;
  if (method == "equidepth") return built(BuildEquiDepth(data, units));
  if (method == "maxdiff") return built(BuildMaxDiff(data, units));
  if (method == "vopt") return built(BuildVOptimal(data, units, per_piece));
  if (method == "a0") return built(BuildA0(data, units, per_piece));
  if (method == "sap0") return built(BuildSap0(data, units));
  if (method == "sap1") return built(BuildSap1(data, units));
  if (method == "sap2") return built(BuildSap2(data, units));
  if (method == "naive") return built(BuildNaive(data));
  if (method == "wave-point") return built(BuildWavePoint(data, units));
  if (method == "topbb") return built(BuildTopBB(data, units));
  EXPECT_EQ(method, "wave-range-opt");
  return built(BuildWaveRangeOpt(data, units));
}

/// All-ranges sweep: legacy vs flat one-shot, and legacy vs batched,
/// bit-for-bit. Adds the number of ranges compared to *ranges_compared.
void ExpectAllRangesBitIdentical(const LegacyReference& legacy,
                                 const FlatSynopsis& flat, int case_id,
                                 int64_t* ranges_compared) {
  const int64_t n = flat.n();
  std::vector<FlatQuery> queries;
  std::vector<double> expected;
  queries.reserve(n * (n + 1) / 2);
  expected.reserve(n * (n + 1) / 2);
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      const double want = legacy.EstimateRange(a, b);
      const double got = flat.EstimateOne(a, b);
      ASSERT_EQ(Bits(want), Bits(got))
          << "case " << case_id << " " << flat.Name() << " range [" << a
          << "," << b << "]: legacy " << want << " flat " << got;
      queries.push_back({a, b});
      expected.push_back(want);
    }
  }
  // Batched: shuffle so EstimateMany has to restore sorted order and
  // scatter results back to the caller's positions.
  std::vector<uint32_t> perm(queries.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<uint32_t>(i);
  }
  Rng rng(0xC0FFEE + static_cast<uint64_t>(case_id));
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextUint64() % i]);
  }
  std::vector<FlatQuery> shuffled(queries.size());
  for (size_t i = 0; i < perm.size(); ++i) shuffled[i] = queries[perm[i]];
  std::vector<double> out(shuffled.size(), -1.0);
  FlatSynopsis::BatchScratch scratch;
  ASSERT_TRUE(flat.EstimateMany(shuffled, out, &scratch).ok());
  for (size_t i = 0; i < perm.size(); ++i) {
    ASSERT_EQ(Bits(expected[perm[i]]), Bits(out[i]))
        << "case " << case_id << " " << flat.Name() << " batched range ["
        << shuffled[i].a << "," << shuffled[i].b << "]";
  }
  *ranges_compared += static_cast<int64_t>(queries.size());
}

// --- Seeded equivalence grid ------------------------------------------

// 264 cases: 11 methods x {8, 33, 64} n x reps, three distribution
// families cycling with case_id, budgets cycling 6..20 words. Every
// case sweeps all n(n+1)/2 ranges through both paths.
TEST(QpathEquivalenceTest, FlatMatchesLegacyBitForBitOnSeededGrid) {
  const int64_t sizes[] = {8, 33, 64};
  int case_id = 0;
  int64_t ranges_compared = 0;
  for (const char* method : kMethods) {
    for (int64_t n : sizes) {
      for (int rep = 0; rep < 8; ++rep, ++case_id) {
        const std::vector<int64_t> data = SeededDataset(case_id, n, 600.0);
        // sap2 costs 7 words/unit, so the cycle floor must be >= 7.
        const Built built =
            BuildWithReference(method, data, 8 + 2 * (case_id % 8));
        ASSERT_NE(built.flat, nullptr) << method << " case " << case_id;
        ExpectAllRangesBitIdentical(built.legacy, *built.flat, case_id,
                                    &ranges_compared);
      }
    }
  }
  EXPECT_EQ(case_id, 264);
  EXPECT_GT(ranges_compared, 200'000);
}

// The wavelet kernels at the serving benchmark's catalog shape (a Zipf
// column over n = 1000 values, 64-word synopses), where the Haar walks
// run ten levels deep instead of the grid's six at most. Every range,
// one at a time and batched.
TEST(QpathEquivalenceTest, ServingShapeWaveletsMatchLegacyOnEveryRange) {
  const int64_t n = 1000;
  int64_t ranges_compared = 0;
  int case_id = 300;  // case_id % 3 == 0 picks the zipf family
  for (const char* method : {"wave-range-opt", "wave-point", "topbb"}) {
    const std::vector<int64_t> data = SeededDataset(case_id, n, 100000.0);
    const Built built = BuildWithReference(method, data, 64);
    ASSERT_NE(built.flat, nullptr) << method;
    ExpectAllRangesBitIdentical(built.legacy, *built.flat, case_id,
                                &ranges_compared);
    case_id += 3;
  }
  EXPECT_EQ(ranges_compared, 3 * n * (n + 1) / 2);
}

// --- Oracle leg -------------------------------------------------------

// A wavelet synopsis that keeps *all* coefficients reconstructs the
// data exactly (up to FP noise), so the flat path must agree with the
// brute-force NaiveRangeSum oracle — this catches a flat kernel that is
// bit-faithful to a wrong reference walk. The flat-vs-reference
// comparison stays exact; only the oracle comparison is toleranced.
TEST(QpathEquivalenceTest, FullRetentionWaveletMatchesNaiveOracle) {
  for (int case_id = 0; case_id < 9; ++case_id) {
    const int64_t n = 16 + 8 * (case_id % 3);
    const std::vector<int64_t> data = SeededDataset(case_id, n, 300.0);
    // >= 2 words per coefficient, all kept.
    const Built built = BuildWithReference("wave-point", data, 2 * 64);
    ASSERT_NE(built.flat, nullptr);
    for (int64_t a = 1; a <= n; ++a) {
      for (int64_t b = a; b <= n; ++b) {
        const double oracle = audit::NaiveRangeSum(data, a, b);
        const double got = built.flat->EstimateOne(a, b);
        EXPECT_EQ(Bits(built.legacy.EstimateRange(a, b)), Bits(got));
        EXPECT_NEAR(got, oracle, 1e-6 * std::max(1.0, std::abs(oracle)))
            << "case " << case_id << " [" << a << "," << b << "]";
      }
    }
  }
}

// An equi-depth histogram with one bucket per point stores every value
// exactly; its estimates are exact range sums, so all three levels —
// oracle, legacy, flat — must agree, the latter two bit-for-bit.
TEST(QpathEquivalenceTest, LosslessHistogramMatchesNaiveOracle) {
  for (int case_id = 0; case_id < 6; ++case_id) {
    const int64_t n = 12;
    const std::vector<int64_t> data = SeededDataset(case_id, n, 200.0);
    // 2 words/bucket -> B = n.
    const Built built = BuildWithReference("equidepth", data, 2 * n);
    ASSERT_NE(built.flat, nullptr);
    for (int64_t a = 1; a <= n; ++a) {
      for (int64_t b = a; b <= n; ++b) {
        const double oracle = audit::NaiveRangeSum(data, a, b);
        const double got = built.flat->EstimateOne(a, b);
        EXPECT_EQ(Bits(built.legacy.EstimateRange(a, b)), Bits(got));
        EXPECT_NEAR(got, oracle, 1e-9 * std::max(1.0, std::abs(oracle)))
            << "case " << case_id << " [" << a << "," << b << "]";
      }
    }
  }
}

// --- Many buckets per hint block --------------------------------------

// Above FlatSynopsis::kMaxEndTableN a histogram view has no end tables;
// its bucket search reads a 4K-entry hint table and scans forward over
// the boundaries inside one block. The seeded grid's small n is tabled;
// here n = 100003 searches, and B > 4096 (block width 32, ~10 positions
// per bucket) puts several boundaries in most blocks, and the zipf
// equi-depth head puts a run of one-wide buckets in one block. Every
// range endpoint sits at a bucket boundary or one off it, answered
// one-shot and batched, bit for bit.
TEST(QpathEquivalenceTest, ManyBoundariesPerHintBlockMatchLegacy) {
  const int64_t n = 100'003;
  ASSERT_GT(n, FlatSynopsis::kMaxEndTableN);
  const int64_t buckets = 9'973;
  const std::vector<int64_t> data = SeededDataset(/*case_id=*/0, n, 5e6);
  auto equiwidth = BuildEquiWidth(data, buckets);
  ASSERT_TRUE(equiwidth.ok()) << equiwidth.status();
  auto equidepth = BuildEquiDepth(data, buckets);
  ASSERT_TRUE(equidepth.ok()) << equidepth.status();
  for (const AvgHistogram* hist : {&equiwidth.value(), &equidepth.value()}) {
    ASSERT_GT(hist->partition().num_buckets(), 4096);
    auto flat = hist->Compile();
    ASSERT_TRUE(flat.ok()) << flat.status();
    const LegacyReference legacy(*hist);
    std::vector<int64_t> points = {1, n};
    for (int64_t end : hist->partition().ends()) {
      for (int64_t p : {end - 1, end, end + 1}) {
        if (p >= 1 && p <= n) points.push_back(p);
      }
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    std::vector<FlatQuery> queries;
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i; j < std::min(points.size(), i + 4); ++j) {
        queries.push_back({points[i], points[j]});
      }
      queries.push_back({1, points[i]});
      queries.push_back({points[i], n});
    }
    std::vector<double> out(queries.size());
    ASSERT_TRUE(flat.value()->EstimateMany(queries, out).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      const FlatQuery q = queries[i];
      const uint64_t want = Bits(legacy.EstimateRange(q.a, q.b));
      ASSERT_EQ(want, Bits(flat.value()->EstimateOne(q.a, q.b)))
          << hist->Name() << " [" << q.a << "," << q.b << "]";
      ASSERT_EQ(want, Bits(out[i]))
          << hist->Name() << " batched [" << q.a << "," << q.b << "]";
    }
  }
}

// --- File round-trip: the mmap load is the same object ---------------

// Save every method's flat compilation to an RSF1 file, reopen it
// mmap'd, and sweep all ranges: the view must answer bit-identically to
// the in-memory original (it shares no storage with it, so this
// exercises the full encode -> validate -> re-slice path).
TEST(QpathEquivalenceTest, MappedReopenBitIdentical) {
  int case_id = 0;
  for (const char* method : kMethods) {
    const int64_t n = 33;
    const std::vector<int64_t> data = SeededDataset(case_id, n, 500.0);
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 14;
    auto flat = BuildSynopsis(spec, data);
    ASSERT_TRUE(flat.ok()) << method << ": " << flat.status();
    const std::string path = ::testing::TempDir() + "/qpath_rt_" +
                             std::to_string(case_id) + ".rsf";
    ASSERT_TRUE(SaveFlatSynopsis(*flat.value(), path).ok());
    auto mapped = OpenFlatMapped(path);
    ASSERT_TRUE(mapped.ok()) << method << ": " << mapped.status();
    EXPECT_EQ(flat.value()->Name(), mapped.value()->Name());
    for (int64_t a = 1; a <= n; ++a) {
      for (int64_t b = a; b <= n; ++b) {
        const uint64_t want = Bits(flat.value()->EstimateOne(a, b));
        ASSERT_EQ(want, Bits(mapped.value()->EstimateOne(a, b)))
            << method << " mmap [" << a << "," << b << "]";
      }
    }
    ++case_id;
  }
}

// --- Corruption fuzz: damaged files are rejected at open time ---------

// Truncations at every interesting boundary and 200 seeded single-bit
// flips. Every damaged file must fail OpenFlatMapped with a clean error
// — no crash, no Ok with garbage. (Every single-bit flip, the 4-byte CRC
// trailer included, is caught by the CRC32C, which covers the whole
// prefix and detects any single-bit error.)
TEST(QpathEquivalenceTest, CorruptFlatFilesAreRejectedAtOpen) {
  const std::vector<int64_t> data = SeededDataset(/*case_id=*/1, 64, 700.0);
  SynopsisSpec spec;
  spec.method = "sap1";
  spec.budget_words = 20;
  auto flat = BuildSynopsis(spec, data);
  ASSERT_TRUE(flat.ok()) << flat.status();
  auto encoded = EncodeFlatSynopsis(*flat.value());
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  const std::string& good = encoded.value();
  const std::string path = ::testing::TempDir() + "/qpath_fuzz.rsf";

  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& what) {
    ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
    auto mapped = OpenFlatMapped(path);
    EXPECT_FALSE(mapped.ok()) << what << ": mmap open accepted damage";
  };

  // Sanity: the pristine bytes do open.
  ASSERT_TRUE(AtomicWriteFile(path, good).ok());
  ASSERT_TRUE(OpenFlatMapped(path).ok());

  // Truncations: empty, mid-header, exactly header, mid-payload, and
  // one byte short of complete.
  const size_t cuts[] = {0, 1, 17, 63, 64, 64 + 9, good.size() / 2,
                         good.size() - 5, good.size() - 1};
  for (size_t cut : cuts) {
    if (cut >= good.size()) continue;
    expect_rejected(good.substr(0, cut),
                    "truncate to " + std::to_string(cut));
  }

  // Seeded single-bit flips across the whole file, trailer included.
  Rng rng(0xB1751712u);
  for (int i = 0; i < 200; ++i) {
    std::string bad = good;
    const size_t byte = rng.NextUint64() % bad.size();
    const int bit = static_cast<int>(rng.NextUint64() % 8);
    bad[byte] = static_cast<char>(bad[byte] ^ (1u << bit));
    expect_rejected(bad, "bit flip at byte " + std::to_string(byte) +
                             " bit " + std::to_string(bit));
  }

  // Appended garbage changes the announced-size equation.
  expect_rejected(good + std::string(8, '\0'), "trailing garbage");
}

}  // namespace
}  // namespace rangesyn
