// Unit tests for the flat query path itself: EstimateMany edge cases
// (empty batches, size mismatches, duplicates, unsorted input) and its
// bit identity with EstimateOne for every method and rounding, the
// factory and catalog entry points, eviction lifetime of outstanding
// flat views (ASan-covered), RSF1 version refusal, and the CLI's RSF1
// round trip (build, then inspect/estimate/evaluate on the file, against
// answers pinned from the legacy estimator path); and the flat Haar
// walks, bit for bit against reference copies of their branchy
// predecessors on every range, one at a time and batched, and across a
// mapped reopen.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "core/crc32c.h"
#include "core/fs.h"
#include "core/mathutil.h"
#include "core/random.h"
#include "core/strings.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/catalog.h"
#include "engine/factory.h"
#include "engine/table.h"
#include "histogram/histogram.h"
#include "histogram/partition.h"
#include "histogram/weighted_sap0.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"
#include "qpath_flat_reference.h"

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
  auto flat = BuildSynopsis(spec, Dataset(n, seed));
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

/// Every range of `flat` through EstimateMany against EstimateOne, bit
/// for bit. The ranges include every a == b, so every bucket is hit with
/// both ends inside it.
void ExpectBatchMatchesSingles(const FlatSynopsis& flat,
                               const std::string& label) {
  std::vector<FlatQuery> queries;
  for (int64_t a = 1; a <= flat.n(); ++a) {
    for (int64_t b = a; b <= flat.n(); ++b) queries.push_back({a, b});
  }
  std::vector<double> out(queries.size());
  ASSERT_TRUE(flat.EstimateMany(queries, out).ok()) << label;
  int64_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double one = flat.EstimateOne(queries[i].a, queries[i].b);
    if (Bits(one) != Bits(out[i]) && ++mismatches <= 5) {
      ADD_FAILURE() << label << " [" << queries[i].a << "," << queries[i].b
                    << "]: one " << one << " batch " << out[i];
    }
  }
}

// The batch runs one loop per kind; each must call the kernel
// EstimateOne calls. Every factory method, and every averaging histogram
// again under each PieceRounding, so each rounding arm of the averaging
// kernel runs in a batch.
TEST(FlatBatchTest, EveryMethodAndRoundingMatchesSingles) {
  const std::vector<int64_t> data = Dataset(64, 21);
  int64_t averaging = 0;
  for (const std::string& method : KnownSynopsisMethods()) {
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 21;
    auto flat = BuildSynopsis(spec, data);
    ASSERT_TRUE(flat.ok()) << method << ": " << flat.status();
    const FlatSynopsis& view = *flat.value();
    ExpectBatchMatchesSingles(view, method);
    if (view.kind() != FlatKind::kAvgHistogram) continue;
    ++averaging;
    // The same buckets and stored values under each rounding: the i64
    // section is the bucket ends, and the values follow the B + 1 cum
    // entries of the f64 section.
    auto partition = Partition::FromEnds(
        view.n(), std::vector<int64_t>(view.i64s().begin(), view.i64s().end()));
    ASSERT_TRUE(partition.ok()) << partition.status();
    const std::vector<double> values(
        view.f64s().begin() + view.num_buckets() + 1, view.f64s().end());
    for (const PieceRounding rounding :
         {PieceRounding::kNone, PieceRounding::kPerPiece,
          PieceRounding::kWhole}) {
      auto variant = AvgHistogram::Create(partition.value(), values,
                                          view.Name(), rounding);
      ASSERT_TRUE(variant.ok()) << variant.status();
      auto variant_flat = variant->Compile();
      ASSERT_TRUE(variant_flat.ok()) << variant_flat.status();
      ASSERT_EQ(variant_flat.value()->aux(), static_cast<uint8_t>(rounding));
      ExpectBatchMatchesSingles(
          *variant_flat.value(),
          StrCat(method, " rounding ", static_cast<int>(rounding)));
    }
  }
  EXPECT_GT(averaging, 0);
}

// --- Wavelet kernel bit identity ---------------------------------------

// The reference walks are in qpath_flat_reference.cc (see its header).

/// A wavelet view over `table` (dense Haar layout, padded entries),
/// assembled through FromBuffers as an mmap'd RSF1 file would be.
struct WaveletView {
  std::shared_ptr<const FlatSynopsis> flat;
  std::span<const double> heights;
  std::span<const double> table;
};

WaveletView MakeWaveletView(const std::vector<double>& table,
                            bool prefix_domain) {
  const int64_t padded = static_cast<int64_t>(table.size());
  const int levels = FloorLog2(static_cast<uint64_t>(padded));
  auto f64s = std::make_shared<std::vector<double>>();
  for (int j = 0; j <= levels; ++j) {
    f64s->push_back(1.0 / std::sqrt(static_cast<double>(padded >> j)));
  }
  f64s->insert(f64s->end(), table.begin(), table.end());
  auto flat = FlatSynopsis::FromBuffers(
      FlatKind::kWavelet, prefix_domain ? 1 : 0,
      prefix_domain ? padded - 1 : padded, 0, padded, {}, *f64s, f64s);
  EXPECT_TRUE(flat.ok()) << flat.status();
  const std::span<const double> all = flat.value()->f64s();
  return {flat.value(), all.first(static_cast<size_t>(levels) + 1),
          all.subspan(static_cast<size_t>(levels) + 1)};
}

/// Doubles the walks must carry through bit for bit: signed zeros,
/// subnormals, values whose products or sums overflow, infinities and
/// NaNs of both signs with distinct payloads.
const double kSpecials[] = {
    0.0,
    -0.0,
    std::numeric_limits<double>::denorm_min(),
    -3.0 * std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min() / 4.0,
    std::numeric_limits<double>::max(),
    -std::numeric_limits<double>::max(),
    std::nextafter(std::numeric_limits<double>::max(), 0.0),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN(),
    -std::numeric_limits<double>::quiet_NaN(),
    std::bit_cast<double>(uint64_t{0x7FF800000000BEEF}),
};

enum class TableShape { kDense, kSparse, kDenseSpecial, kSparseSpecial };

/// A random coefficient table of `padded` entries. Sparse tables keep
/// about one entry in eight nonzero; special tables draw about one
/// entry in six from kSpecials.
std::vector<double> MakeTable(int64_t padded, TableShape shape,
                              uint64_t seed) {
  Rng rng(seed);
  const bool sparse =
      shape == TableShape::kSparse || shape == TableShape::kSparseSpecial;
  const bool special = shape == TableShape::kDenseSpecial ||
                       shape == TableShape::kSparseSpecial;
  std::vector<double> table(static_cast<size_t>(padded), 0.0);
  for (double& c : table) {
    if (sparse && rng.NextBounded(8) != 0) continue;
    if (special && rng.NextBounded(6) == 0) {
      c = kSpecials[rng.NextBounded(std::size(kSpecials))];
    } else {
      c = std::ldexp(rng.NextDouble(-1.0, 1.0),
                     static_cast<int>(rng.NextInt(-30, 30)));
    }
  }
  return table;
}

constexpr TableShape kShapes[] = {TableShape::kDense, TableShape::kSparse,
                                  TableShape::kDenseSpecial,
                                  TableShape::kSparseSpecial};

/// Compares one row of answers, all ranges sharing their left end, with
/// `want`: first EstimateOne per range, then one EstimateMany over the
/// row. `to_range` maps a row slot to its 1-based range. Returns false
/// after the first mismatch.
template <typename ToRange>
bool ExpectRowBitIdentical(const FlatSynopsis& flat,
                           const std::vector<double>& want,
                           ToRange to_range, const char* domain) {
  std::vector<FlatQuery> queries(want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    queries[i] = to_range(static_cast<int64_t>(i));
    const double got = flat.EstimateOne(queries[i].a, queries[i].b);
    if (Bits(want[i]) != Bits(got)) {
      ADD_FAILURE() << domain << " padded " << flat.padded_size() << " ["
                    << queries[i].a << "," << queries[i].b
                    << "]: reference " << want[i] << " flat " << got;
      return false;
    }
  }
  std::vector<double> batch(want.size());
  EXPECT_TRUE(flat.EstimateMany(queries, batch).ok());
  for (size_t i = 0; i < want.size(); ++i) {
    if (Bits(want[i]) != Bits(batch[i])) {
      ADD_FAILURE() << domain << " padded " << flat.padded_size() << " ["
                    << queries[i].a << "," << queries[i].b
                    << "]: reference " << want[i] << " batch " << batch[i];
      return false;
    }
  }
  return true;
}

/// Every range of the data-domain view of `table` against the reference
/// range-sum walk, one at a time and batched by left end. Returns the
/// number of ranges compared.
int64_t ExpectDataDomainBitIdentical(const std::vector<double>& table) {
  const WaveletView view = MakeWaveletView(table, /*prefix_domain=*/false);
  const int64_t padded = static_cast<int64_t>(table.size());
  int64_t compared = 0;
  std::vector<double> want;
  for (int64_t lo = 0; lo < padded; ++lo) {
    want.clear();
    for (int64_t hi = lo; hi < padded; ++hi) {
      want.push_back(
          ReferenceRangeSum(view.heights, view.table, padded, lo, hi));
    }
    const auto to_range = [lo](int64_t i) {
      return FlatQuery{lo + 1, lo + 1 + i};
    };
    if (!ExpectRowBitIdentical(*view.flat, want, to_range, "data")) {
      return compared;
    }
    compared += static_cast<int64_t>(want.size());
  }
  return compared;
}

/// Every range of the prefix-domain view of `table` against the
/// reference point walk, s[a,b] = P[b] - P[a-1], one at a time and
/// batched by left end. Returns the number of ranges compared.
int64_t ExpectPrefixDomainBitIdentical(const std::vector<double>& table) {
  const WaveletView view = MakeWaveletView(table, /*prefix_domain=*/true);
  const int64_t padded = static_cast<int64_t>(table.size());
  std::vector<double> prefix(static_cast<size_t>(padded));
  for (int64_t t = 0; t < padded; ++t) {
    prefix[t] = ReferenceReconstructAt(view.heights, view.table, padded, t);
  }
  int64_t compared = 0;
  std::vector<double> want;
  for (int64_t a = 1; a < padded; ++a) {
    want.clear();
    for (int64_t b = a; b < padded; ++b) {
      want.push_back(prefix[b] - prefix[a - 1]);
    }
    const auto to_range = [a](int64_t i) { return FlatQuery{a, a + i}; };
    if (!ExpectRowBitIdentical(*view.flat, want, to_range, "prefix")) {
      return compared;
    }
    compared += static_cast<int64_t>(want.size());
  }
  return compared;
}

TEST(FlatWaveletKernelTest, SmallTablesMatchReferenceOnEveryRange) {
  uint64_t seed = 1;
  int64_t compared = 0;
  for (const int64_t padded : {1, 2, 4, 1024}) {
    for (const TableShape shape : kShapes) {
      const std::vector<double> table = MakeTable(padded, shape, seed++);
      compared += ExpectDataDomainBitIdentical(table);
      if (padded >= 2) compared += ExpectPrefixDomainBitIdentical(table);
    }
  }
  EXPECT_EQ(compared, 4 * (1 + 3 + 10 + 524800) + 4 * (1 + 6 + 523776));
}

// At 8192 slots every range is 33.5M comparisons per domain, so one
// dense and one special table stand for the four shapes.
TEST(FlatWaveletKernelTest, Padded8192MatchesReferenceOnEveryRange) {
  const int64_t padded = 8192;
  const std::vector<double> dense =
      MakeTable(padded, TableShape::kDense, 81);
  const std::vector<double> special =
      MakeTable(padded, TableShape::kSparseSpecial, 82);
  EXPECT_EQ(ExpectDataDomainBitIdentical(dense), padded * (padded + 1) / 2);
  EXPECT_EQ(ExpectPrefixDomainBitIdentical(special),
            (padded - 1) * padded / 2);
}

// The data-domain walk splits at bit_width(lo ^ hi). At a padded size
// too large to sweep, probe the ranges on either side of every split:
// lo == hi, lo = 0, hi = padded - 1, and lo ^ hi a power of two.
TEST(FlatWaveletKernelTest, SplitEdgesMatchReferenceAtLargePaddedSize) {
  const int64_t padded = int64_t{1} << 16;
  for (const TableShape shape : kShapes) {
    const std::vector<double> table =
        MakeTable(padded, shape, 160 + static_cast<uint64_t>(shape));
    const WaveletView data = MakeWaveletView(table, false);
    const WaveletView prefix = MakeWaveletView(table, true);
    Rng rng(static_cast<uint64_t>(shape) + 7);
    std::vector<std::pair<int64_t, int64_t>> ranges;  // 0-based [lo, hi]
    for (int i = 0; i < 64; ++i) {
      const int64_t x = rng.NextInt(0, padded - 1);
      ranges.push_back({x, x});
      ranges.push_back({0, x});
      ranges.push_back({x, padded - 1});
      for (int k = 0; k < 16; ++k) {
        const int64_t y = x ^ (int64_t{1} << k);
        ranges.push_back({std::min(x, y), std::max(x, y)});
      }
    }
    ranges.push_back({0, padded - 1});
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(Bits(ReferenceRangeSum(data.heights, data.table, padded, lo,
                                       hi)),
                Bits(data.flat->EstimateOne(lo + 1, hi + 1)))
          << "data domain [" << lo << "," << hi << "]";
      // Prefix slots run 0..padded-1, so [lo, hi] names P[hi] - P[lo].
      if (lo == hi) continue;
      EXPECT_EQ(
          Bits(ReferenceReconstructAt(prefix.heights, prefix.table, padded,
                                      hi) -
               ReferenceReconstructAt(prefix.heights, prefix.table, padded,
                                      lo)),
          Bits(prefix.flat->EstimateOne(lo + 1, hi)))
          << "prefix domain P[" << hi << "] - P[" << lo << "]";
    }
  }
}

// A prefix-domain wavelet derives its prefix table when it is opened, so
// a mapped RSF1 reopen builds it again from the file's coefficients. The
// reopened view must answer every range with the same bits, one at a
// time and batched, NaN payloads included.
TEST(FlatWaveletKernelTest, MappedPrefixReopenIsBitIdentical) {
  for (const auto& original :
       {BuildFlat("wave-range-opt", 64, 1000),
        MakeWaveletView(MakeTable(512, TableShape::kDenseSpecial, 90),
                        /*prefix_domain=*/true)
            .flat}) {
    ASSERT_EQ(original->kind(), FlatKind::kWavelet);
    ASSERT_EQ(original->aux(), 1);
    const std::string path = TempPath("prefix_wavelet.rsn");
    ASSERT_TRUE(SaveFlatSynopsis(*original, path).ok());
    auto mapped = OpenFlatMapped(path);
    std::remove(path.c_str());
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    const FlatSynopsis& reopened = *mapped.value();
    std::vector<FlatQuery> queries;
    for (int64_t a = 1; a <= original->n(); ++a) {
      for (int64_t b = a; b <= original->n(); ++b) queries.push_back({a, b});
    }
    std::vector<double> out(queries.size());
    ASSERT_TRUE(reopened.EstimateMany(queries, out).ok());
    int64_t mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const double want = original->EstimateOne(queries[i].a, queries[i].b);
      const double one = reopened.EstimateOne(queries[i].a, queries[i].b);
      if ((Bits(want) != Bits(one) || Bits(want) != Bits(out[i])) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "[" << queries[i].a << "," << queries[i].b
                      << "]: original " << want << " reopened " << one
                      << " batch " << out[i];
      }
    }
  }
}

// --- Histogram end tables against the legacy formulas -----------------

/// One histogram kind with its stored sections drawn at random.
enum class HistKind { kAvg, kSap0, kWeightedSap0, kSap1, kSap2 };

constexpr HistKind kHistKinds[] = {HistKind::kAvg, HistKind::kSap0,
                                   HistKind::kWeightedSap0, HistKind::kSap1,
                                   HistKind::kSap2};

/// How a view's stored values are drawn. Ordinary doubles keep every
/// answer finite, so each one is compared bit for bit; finite specials
/// (signed zeros, subnormals) keep them finite too; all specials turn
/// most spanning answers into infinities or NaNs, since one non-finite
/// bucket mass poisons every later cumulative sum.
enum class Draw { kOrdinary, kFiniteSpecials, kAllSpecials };

/// A stored value: ordinary doubles across 60 binades, with about one in
/// three drawn from kSpecials under the special draws. `int64_safe`
/// keeps to the specials below 1 in magnitude and to values far inside
/// int64, for paths that convert to int64 (a NaN, an infinity or a
/// value past 2^63 makes that conversion undefined).
double StoredValue(Rng& rng, Draw draw, bool int64_safe) {
  if (draw != Draw::kOrdinary && rng.NextBounded(3) == 0) {
    const double special = kSpecials[rng.NextBounded(std::size(kSpecials))];
    const bool small = std::isfinite(special) && std::fabs(special) < 1.0;
    if (small || (draw == Draw::kAllSpecials && !int64_safe)) return special;
  }
  return std::ldexp(rng.NextDouble(-1.0, 1.0),
                    static_cast<int>(rng.NextInt(-30, int64_safe ? 20 : 30)));
}

/// A record of `kind` over `partition`, every stored section drawn by
/// StoredValue, as its view and its legacy reference.
struct StoredValues {
  std::shared_ptr<const FlatSynopsis> flat;
  LegacyReference legacy;
};

/// StoredValues of `kind`. `rounding` applies to kAvg only.
StoredValues WithStoredValues(HistKind kind, const Partition& partition,
                              PieceRounding rounding, Draw draw,
                              uint64_t seed) {
  Rng rng(seed);
  const bool int64_safe =
      kind == HistKind::kAvg && rounding != PieceRounding::kNone;
  const auto section = [&] {
    std::vector<double> v(static_cast<size_t>(partition.num_buckets()));
    for (double& x : v) x = StoredValue(rng, draw, int64_safe);
    return v;
  };
  const auto models = [&] {
    std::vector<Sap2Histogram::Model> m(
        static_cast<size_t>(partition.num_buckets()));
    for (auto& model : m) {
      model = {StoredValue(rng, draw, false), StoredValue(rng, draw, false),
               StoredValue(rng, draw, false)};
    }
    return m;
  };
  const auto both = [](auto built) {
    EXPECT_TRUE(built.ok()) << built.status();
    auto flat = built->Compile();
    EXPECT_TRUE(flat.ok()) << flat.status();
    return StoredValues{flat.value(), LegacyReference(built.value())};
  };
  switch (kind) {
    case HistKind::kAvg:
      return both(AvgHistogram::Create(partition, section(), "AVG", rounding));
    case HistKind::kSap0:
      return both(Sap0Histogram::FromSummaries(partition, section(),
                                               section()));
    case HistKind::kWeightedSap0:
      return both(WeightedSap0Histogram::FromSummaries(
          partition, section(), section(), section()));
    case HistKind::kSap1:
      return both(Sap1Histogram::FromSummaries(
          partition, section(), section(), section(), section()));
    case HistKind::kSap2:
      break;
  }
  return both(Sap2Histogram::FromSummaries(partition, models(), models()));
}

/// True when `flat` carries `legacy`'s bits. Where two NaNs meet in an
/// add, which one the sum returns depends on the operand order the
/// compiler emits for that expression (DESIGN.md §11.1), so a NaN answer
/// must be a NaN on both sides and its sign and payload are not compared.
/// Every non-NaN answer, signed zeros and infinities included, is
/// independent of that order and must match bit for bit.
bool SameAnswer(double legacy, double flat) {
  if (std::isnan(legacy) || std::isnan(flat)) {
    return std::isnan(legacy) && std::isnan(flat);
  }
  return Bits(legacy) == Bits(flat);
}

/// Every range with both ends in `points` (ascending): the legacy
/// reference against the flat view one at a time, and the batch against
/// the single calls, both by SameAnswer (EstimateOne and
/// EstimateMany inline the kernel into different code, and a Debug or
/// sanitizer build orders the NaN operands differently in each).
/// Returns the number of ranges compared, and adds those whose legacy
/// answer is not a NaN to *bit_compared.
int64_t ExpectMatchesLegacy(const LegacyReference& legacy,
                            const FlatSynopsis& flat,
                            const std::vector<int64_t>& points,
                            const std::string& label,
                            int64_t* bit_compared) {
  std::vector<FlatQuery> queries;
  std::vector<double> want;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i; j < points.size(); ++j) {
      queries.push_back({points[i], points[j]});
      want.push_back(legacy.EstimateRange(points[i], points[j]));
    }
  }
  std::vector<double> batch(queries.size());
  EXPECT_TRUE(flat.EstimateMany(queries, batch).ok()) << label;
  int64_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double one = flat.EstimateOne(queries[i].a, queries[i].b);
    if (!std::isnan(want[i])) ++*bit_compared;
    if ((!SameAnswer(want[i], one) || !SameAnswer(one, batch[i])) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << label << " [" << queries[i].a << "," << queries[i].b
                    << "]: legacy " << want[i] << " one " << one
                    << " batch " << batch[i];
    }
  }
  return static_cast<int64_t>(queries.size());
}

/// Bucket ends with one-wide buckets, a two-wide one and wider ones, the
/// first and last buckets included; `n` closes the last bucket.
std::vector<int64_t> MixedEnds(int64_t n) {
  return {1, 2, 4, 9, 10, 16, 17, 30, 31, 45, 63, n};
}

// The end tables hold pieces computed once per position at open; the
// searching kernels compute them per query. Both must return the legacy
// estimator's answers for every stored double: signed zeros, subnormals,
// overflowing products, infinities and NaNs included (SameAnswer). At
// n = 64 the view is tabled and every range is checked; at
// n = kMaxEndTableN + 1 (the same buckets, the last one widened) it
// searches, and every range with both ends among the first 64 positions
// and the last three is checked. Each kind and rounding runs each Draw
// twice. The legacy answers are LegacyReference's copies of the records'
// former range formulas (qpath_flat_reference.h).
TEST(FlatEndTableTest, SpecialStoredValuesMatchLegacyOnEveryRange) {
  const int64_t big_n = FlatSynopsis::kMaxEndTableN + 1;
  std::vector<int64_t> big_points;
  for (int64_t p = 1; p <= 64; ++p) big_points.push_back(p);
  for (int64_t p = big_n - 2; p <= big_n; ++p) big_points.push_back(p);
  std::vector<int64_t> small_points(big_points.begin(),
                                    big_points.begin() + 64);
  int64_t compared = 0;
  int64_t bit_compared = 0;
  uint64_t seed = 500;
  for (const HistKind kind : kHistKinds) {
    for (const PieceRounding rounding :
         {PieceRounding::kNone, PieceRounding::kPerPiece,
          PieceRounding::kWhole}) {
      if (kind != HistKind::kAvg && rounding != PieceRounding::kNone) {
        continue;
      }
      for (int rep = 0; rep < 6; ++rep, ++seed) {
        for (const int64_t n : {int64_t{64}, big_n}) {
          auto partition = Partition::FromEnds(n, MixedEnds(n));
          ASSERT_TRUE(partition.ok()) << partition.status();
          const Draw draw = static_cast<Draw>(rep % 3);
          const StoredValues built = WithStoredValues(
              kind, partition.value(), rounding, draw, seed);
          ASSERT_NE(built.flat, nullptr);
          const bool tabled = n <= FlatSynopsis::kMaxEndTableN;
          EXPECT_EQ(built.flat->DerivedBytes() >= 24 * (n + 1), tabled);
          compared += ExpectMatchesLegacy(
              built.legacy, *built.flat, tabled ? small_points : big_points,
              StrCat(built.flat->Name(), " rounding ",
                     static_cast<int>(rounding),
                     " draw ", static_cast<int>(draw), " seed ", seed, " n ",
                     n),
              &bit_compared);
        }
      }
    }
  }
  // 7 kind/rounding pairs x 6 seeds x (2080 + 2278) ranges.
  EXPECT_EQ(compared, 7 * 6 * (64 * 65 / 2 + 67 * 68 / 2));
  // The ordinary and finite-special draws keep most answers to the bit
  // compare.
  EXPECT_GT(bit_compared, compared / 2);
}

/// A two-bucket averaging view over [1, n], assembled through
/// FromBuffers as an RSF1 file would be.
std::shared_ptr<const FlatSynopsis> TwoBucketView(int64_t n) {
  auto buffers = std::make_shared<std::pair<std::vector<int64_t>,
                                            std::vector<double>>>();
  buffers->first = {n / 2, n};
  buffers->second = {0.0, 3.0 * static_cast<double>(n / 2),
                     5.0 * static_cast<double>(n), 3.0, 2.0};
  auto flat = FlatSynopsis::FromBuffers(FlatKind::kAvgHistogram, 0, n, 2, 0,
                                        buffers->first, buffers->second,
                                        buffers);
  EXPECT_TRUE(flat.ok()) << flat.status();
  return flat.ok() ? flat.value() : nullptr;
}

// DerivedBytes is the whole heap a view derives at open. A tabled view
// holds 24 bytes per position (the end table, plus its unused entry 0);
// a histogram view above the bound holds only the 4K-entry hint table,
// so even n = 2^40 opens without a large allocation.
TEST(FlatEndTableTest, DerivedBytesStayWithinTheBound) {
  for (const char* method : {"equidepth", "sap0", "a0", "sap1", "sap2"}) {
    for (const int64_t n : {int64_t{1}, int64_t{64}, int64_t{1000}}) {
      const auto flat = BuildFlat(method, 12, n);
      ASSERT_NE(flat, nullptr);
      EXPECT_EQ(flat->DerivedBytes(), 24 * (n + 1)) << method << " n " << n;
    }
  }
  const int64_t hint_cap = 4 * 4097;
  for (const int64_t n :
       {FlatSynopsis::kMaxEndTableN, FlatSynopsis::kMaxEndTableN + 1,
        int64_t{1} << 40}) {
    const auto flat = TwoBucketView(n);
    ASSERT_NE(flat, nullptr);
    if (n <= FlatSynopsis::kMaxEndTableN) {
      EXPECT_EQ(flat->DerivedBytes(), 24 * (n + 1));
    } else {
      EXPECT_LE(flat->DerivedBytes(), hint_cap) << "n " << n;
    }
    // Both buckets answer: the left piece 3 per position, the right 2.
    EXPECT_EQ(flat->EstimateOne(1, n), 3.0 * static_cast<double>(n / 2) +
                                           2.0 * static_cast<double>(n - n / 2))
        << "n " << n;
  }
  // Naive and data-domain wavelets derive nothing; a prefix-domain
  // wavelet derives its n + 1 prefix sums.
  EXPECT_EQ(BuildFlat("naive", 4, 1000)->DerivedBytes(), 0);
  EXPECT_EQ(BuildFlat("wave-point", 16, 1000)->DerivedBytes(), 0);
  EXPECT_EQ(BuildFlat("wave-range-opt", 16, 1000)->DerivedBytes(),
            8 * 1001);
}

// EstimateMany checks 1 <= a <= b <= n per range and refuses the first
// range outside it, wherever it sits in the batch, naming it; the ranges
// before it are answered. Covers every kernel loop: a tabled histogram, a
// histogram above the bound, naive, and both wavelet domains.
TEST(FlatBatchTest, OutOfDomainRangesAreRefused) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<std::pair<const char*, std::shared_ptr<const FlatSynopsis>>>
      views = {{"tabled sap1", BuildFlat("sap1", 16, 64)},
               {"searched avg",
                TwoBucketView(FlatSynopsis::kMaxEndTableN + 1)},
               {"naive", BuildFlat("naive", 4, 64)},
               {"data wavelet", BuildFlat("wave-point", 16, 64)},
               {"prefix wavelet", BuildFlat("wave-range-opt", 16, 64)}};
  for (const auto& [label, flat] : views) {
    ASSERT_NE(flat, nullptr) << label;
    const int64_t n = flat->n();
    const std::vector<FlatQuery> bad = {
        {0, 5},       {5, 3},       {1, n + 1},   {0, 0},
        {-1, -1},     {n + 1, n + 1}, {kMin, 1},  {1, kMax},
        {kMin, kMin}, {kMax, kMax}, {kMin, kMax}, {kMax, kMin}};
    std::vector<FlatQuery> good;
    for (int64_t i = 1; i <= 8; ++i) good.push_back({i, n - i + 1});
    good.push_back({n, n});
    for (const FlatQuery& b : bad) {
      for (const size_t at : {size_t{0}, good.size() / 2, good.size()}) {
        std::vector<FlatQuery> queries = good;
        queries.insert(queries.begin() + static_cast<ptrdiff_t>(at), b);
        queries.push_back({0, 1});  // a later bad range is not the one named
        std::vector<double> out(queries.size());
        const Status s = flat->EstimateMany(queries, out);
        const std::string where =
            StrCat(label, " [", b.a, ", ", b.b, "] at ", at);
        ASSERT_EQ(s.code(), StatusCode::kInvalidArgument) << where;
        EXPECT_EQ(s.message(), StrCat("range [", b.a, ", ", b.b,
                                      "] outside domain [1, ", n, "]"))
            << where;
        for (size_t i = 0; i < at; ++i) {
          EXPECT_EQ(Bits(out[i]),
                    Bits(flat->EstimateOne(queries[i].a, queries[i].b)))
              << where << " slot " << i;
        }
      }
    }
    // The same batch without the bad ranges is answered.
    std::vector<double> out(good.size());
    EXPECT_TRUE(flat->EstimateMany(good, out).ok()) << label;
  }
}

// --- Files --------------------------------------------------------------

TEST(FlatFileTest, OpenMissingFileFails) {
  EXPECT_FALSE(OpenFlatMapped(TempPath("nope.rsf")).ok());
}

/// A naive synopsis' RSF1 file as an older writer laid it out: version 1
/// and 2 had no name and no storage words (those header words were zero)
/// and, with no i64 words, a naive synopsis' two older bodies are the same
/// bytes: header and f64 section, then the CRC.
std::string NaiveFileAtVersion(uint8_t version) {
  auto encoded = EncodeFlatSynopsis(*BuildFlat("naive", 4, 32));
  EXPECT_TRUE(encoded.ok()) << encoded.status();
  const std::string& v3 = encoded.value();
  EXPECT_EQ(v3[4], 3);
  std::string bytes = v3.substr(0, 64 + 8);  // header + avg[1]
  bytes[4] = static_cast<char>(version);
  std::fill(bytes.begin() + 48, bytes.begin() + 64, '\0');
  const uint32_t crc = Crc32c(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes;
}

void ExpectFileRefusedAsUnsupported(const std::string& bytes,
                                    const std::string& path) {
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  auto opened = OpenFlatMapped(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("unsupported version"),
            std::string::npos)
      << opened.status();
  auto decoded = DecodeFlatSynopsis(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unsupported version"),
            std::string::npos)
      << decoded.status();
  std::remove(path.c_str());
}

// RSF1 version 1 also stored an Eytzinger copy of the bucket ends. A
// version-1 file must be refused by its version byte, never misread.
TEST(FlatFileTest, VersionOneFileIsRefused) {
  ExpectFileRefusedAsUnsupported(NaiveFileAtVersion(1), TempPath("v1.rsf"));
}

// Version 2 carried no name or storage words, so a reopened synopsis
// could not report what its builder did; such files are refused too.
TEST(FlatFileTest, VersionTwoFileIsRefused) {
  ExpectFileRefusedAsUnsupported(NaiveFileAtVersion(2), TempPath("v2.rsf"));
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
    auto gen = RunCliCommand({"generate", "--dist=spike", "--n=96",
                              "--volume=2500", "--seed=13",
                              "--out=" + data_path_});
    ASSERT_TRUE(gen.ok()) << gen.status();
  }
  void TearDown() override {
    std::remove(data_path_.c_str());
    std::remove(synopsis_path_.c_str());
  }
  std::string data_path_;
  std::string synopsis_path_;
};

/// What `estimate --a=7 --b=61` and `evaluate` printed for each method
/// (budget 28, the fixture's data) when both commands answered through
/// the legacy estimator read back from the v2 stream format.
struct LegacyCliOutput {
  const char* method;
  const char* estimate;
  const char* sse;
  const char* rmse;
  const char* max_abs;
};

constexpr LegacyCliOutput kLegacyOutputs[] = {
    {"naive", "556.3020833", "64706840.96", "117.888", "303.51"},
    {"equiwidth", "706", "6939540", "38.6064", "229"},
    {"equidepth", "706", "7652884", "40.5421", "156"},
    {"maxdiff", "707", "12138", "1.61461", "5"},
    {"vopt", "706", "1949", "0.646993", "2"},
    {"pointopt", "705.0823137", "2765.195525", "0.770649", "2.08139"},
    {"a0", "706", "1630", "0.591681", "2"},
    {"sap0", "742.3333333", "5449774.652", "34.2123", "224.1"},
    {"sap1", "705.6636984", "146236.0125", "5.60429", "56.6667"},
    {"sap2", "705.6407394", "457003.7037", "9.90726", "135.5"},
    {"prefixopt", "706", "1630", "0.591681", "2"},
    {"opta", "706", "1255", "0.519177", "2"},
    {"opta-rounded", "706", "1356", "0.539664", "2"},
    {"equidepth-reopt", "707.9120324", "2526180.833", "23.293", "166.565"},
    {"a0-reopt", "705.664041", "1064.698718", "0.478197", "1.61405"},
    {"opta-reopt", "705.6543263", "1049.997028", "0.474884", "1.71242"},
    {"wave-point", "705.90625", "32095.29687", "2.62551", "6.78125"},
    {"topbb", "706.375", "17661.29688", "1.94762", "11.5"},
    {"wave-range-opt", "711.625", "3814925.125", "28.6244", "96"},
};

/// The text between `prefix` and the next `stop` character in `text`.
std::string Field(const std::string& text, const std::string& prefix,
                  char stop) {
  const size_t at = text.find(prefix);
  if (at == std::string::npos) return "<missing " + prefix + ">";
  const size_t from = at + prefix.size();
  return text.substr(from, text.find(stop, from) - from);
}

// For every factory method: `build` writes RSF1, `inspect` reads back the
// name and paper storage words `build` reported, and `estimate` and
// `evaluate` on the file print exactly the bytes the legacy path did.
TEST_F(CliFlatTest, EveryMethodRoundTripsThroughTheFile) {
  const std::vector<std::string> methods = KnownSynopsisMethods();
  ASSERT_EQ(methods.size(), std::size(kLegacyOutputs));
  for (const std::string& method : methods) {
    const auto golden = std::find_if(
        std::begin(kLegacyOutputs), std::end(kLegacyOutputs),
        [&](const LegacyCliOutput& g) { return method == g.method; });
    ASSERT_NE(golden, std::end(kLegacyOutputs)) << method;
    auto build = RunCliCommand({"build", "--data=" + data_path_,
                                "--method=" + method, "--budget=28",
                                "--out=" + synopsis_path_});
    ASSERT_TRUE(build.ok()) << method << ": " << build.status();
    auto inspect = RunCliCommand({"inspect", "--synopsis=" + synopsis_path_});
    ASSERT_TRUE(inspect.ok()) << method << ": " << inspect.status();
    EXPECT_EQ(Field(*inspect, "name:    ", '\n'),
              Field(*build, "built ", ' '))
        << method;
    EXPECT_EQ(Field(*inspect, "storage: ", ' '), Field(*build, " (", ' '))
        << method;
    EXPECT_NE(inspect->find("domain:  1..96\n"), std::string::npos) << method;

    auto estimate = RunCliCommand({"estimate", "--synopsis=" + synopsis_path_,
                                   "--a=7", "--b=61"});
    ASSERT_TRUE(estimate.ok()) << method << ": " << estimate.status();
    EXPECT_EQ(*estimate, StrCat("s[7,61] ~= ", golden->estimate, "\n"))
        << method;
    auto evaluate = RunCliCommand({"evaluate",
                                   "--synopsis=" + synopsis_path_,
                                   "--data=" + data_path_});
    ASSERT_TRUE(evaluate.ok()) << method << ": " << evaluate.status();
    EXPECT_EQ(*evaluate,
              StrCat("queries:  4656\nSSE:      ", golden->sse,
                     "\nRMSE:     ", golden->rmse, "\nmax|err|: ",
                     golden->max_abs, "\n"))
        << method;
  }
}

TEST_F(CliFlatTest, EstimateRejectsBadFlatFile) {
  EXPECT_FALSE(RunCliCommand({"estimate",
                              "--synopsis=" + TempPath("missing.rsn"),
                              "--a=1", "--b=2"})
                   .ok());
  // A CSV is not an RSF1 synopsis; open must reject it.
  EXPECT_FALSE(RunCliCommand({"estimate", "--synopsis=" + data_path_,
                              "--a=1", "--b=2"})
                   .ok());
}

}  // namespace
}  // namespace rangesyn
