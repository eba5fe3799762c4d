// Integration tests for the query-engine substrate: table/column storage,
// attribute-value distribution extraction, the synopsis factory, and the
// catalog's approximate query answers against the exact executor.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bytes.h"
#include "core/crc32c.h"
#include "core/random.h"
#include "engine/catalog.h"
#include "engine/factory.h"
#include "engine/table.h"
#include "eval/metrics.h"

namespace rangesyn {
namespace {

TEST(ColumnTest, CountAndSumRange) {
  Column c("price");
  c.AppendBatch({5, 10, 15, 10, 20});
  EXPECT_EQ(c.num_rows(), 5);
  EXPECT_EQ(c.CountRange(10, 15), 3);
  EXPECT_EQ(c.SumRange(10, 15), 35);
  EXPECT_EQ(c.CountRange(100, 200), 0);
  auto bounds = c.ValueBounds();
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds->first, 5);
  EXPECT_EQ(bounds->second, 20);
}

TEST(ColumnTest, EmptyColumnHasNoBounds) {
  Column c("empty");
  EXPECT_FALSE(c.ValueBounds().ok());
}

TEST(DistributionTest, CountsMatchColumn) {
  Column c("v");
  c.AppendBatch({3, 3, 5, 7, 7, 7});
  auto d = BuildDistribution(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->domain_lo, 3);
  EXPECT_EQ(d->domain_size(), 5);  // 3..7
  EXPECT_EQ(d->counts[0], 2);      // value 3
  EXPECT_EQ(d->counts[2], 1);      // value 5
  EXPECT_EQ(d->counts[4], 3);      // value 7
  EXPECT_EQ(d->PositionOf(3), 1);
  EXPECT_EQ(d->PositionOf(7), 5);
  EXPECT_EQ(d->PositionOf(100), 5);  // clamped
}

TEST(DistributionTest, DomainCapEnforced) {
  Column c("v");
  c.AppendBatch({0, 1'000'000});
  EXPECT_FALSE(BuildDistribution(c, /*max_domain=*/1000).ok());
}

TEST(TableTest, SchemaAndRows) {
  Table t("orders");
  ASSERT_TRUE(t.AddColumn("price").ok());
  ASSERT_TRUE(t.AddColumn("qty").ok());
  EXPECT_FALSE(t.AddColumn("price").ok());  // duplicate
  ASSERT_TRUE(t.AppendRow({10, 2}).ok());
  ASSERT_TRUE(t.AppendRow({20, 1}).ok());
  EXPECT_FALSE(t.AppendRow({1}).ok());  // arity mismatch
  EXPECT_FALSE(t.AddColumn("late").ok());  // after rows
  EXPECT_EQ(t.num_rows(), 2);
  auto col = t.GetColumn("price");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col.value()).values()[1], 20);
  EXPECT_FALSE(t.GetColumn("nope").ok());
  EXPECT_EQ(t.ColumnNames().size(), 2u);
}

TEST(FactoryTest, AllKnownMethodsBuildAndRespectBudget) {
  Rng rng(21);
  std::vector<int64_t> data(64);
  for (auto& v : data) v = rng.NextInt(0, 40);
  for (const std::string& method : KnownSynopsisMethods()) {
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 16;
    auto built = BuildSynopsis(spec, data);
    ASSERT_TRUE(built.ok()) << method << ": " << built.status();
    EXPECT_LE((*built)->StorageWords(), 16) << method;
    EXPECT_EQ((*built)->n(), 64) << method;
    // Every synopsis must produce finite estimates.
    const double est = (*built)->EstimateOne(5, 40);
    EXPECT_TRUE(std::isfinite(est)) << method;
  }
}

TEST(FactoryTest, UnknownMethodRejected) {
  SynopsisSpec spec;
  spec.method = "nope";
  EXPECT_FALSE(BuildSynopsis(spec, {1, 2, 3}).ok());
  EXPECT_FALSE(WordsPerUnit("nope").ok());
}

TEST(FactoryTest, WordsPerUnitMatchesRepresentations) {
  EXPECT_EQ(WordsPerUnit("naive").value(), 1);
  EXPECT_EQ(WordsPerUnit("opta").value(), 2);
  EXPECT_EQ(WordsPerUnit("sap0").value(), 3);
  EXPECT_EQ(WordsPerUnit("sap1").value(), 5);
  EXPECT_EQ(WordsPerUnit("wave-range-opt").value(), 2);
}

TEST(CatalogTest, EstimatesTrackExactCounts) {
  // Records concentrated between 100 and 160.
  Rng rng(31);
  Column c("price");
  for (int i = 0; i < 5000; ++i) {
    c.Append(100 + rng.NextInt(0, 60));
  }
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "sap1";
  spec.budget_words = 40;
  ASSERT_TRUE(catalog.RegisterColumn("t.price", c, spec).ok());
  EXPECT_TRUE(catalog.Contains("t.price"));

  for (const auto& [lo, hi] :
       std::vector<std::pair<int64_t, int64_t>>{
           {100, 160}, {110, 120}, {100, 105}, {155, 160}}) {
    auto est = catalog.EstimateCountBetween("t.price", lo, hi);
    ASSERT_TRUE(est.ok());
    const double exact = static_cast<double>(c.CountRange(lo, hi));
    EXPECT_NEAR(est.value(), exact, 0.15 * exact + 40.0)
        << "[" << lo << "," << hi << "]";
  }
}

TEST(CatalogTest, ClipsQueriesToDomain) {
  Column c("v");
  c.AppendBatch({10, 11, 12});
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "naive";
  ASSERT_TRUE(catalog.RegisterColumn("k", c, spec).ok());
  auto below = catalog.EstimateCountBetween("k", 0, 5);
  ASSERT_TRUE(below.ok());
  EXPECT_DOUBLE_EQ(below.value(), 0.0);
  auto spanning = catalog.EstimateCountBetween("k", 0, 100);
  ASSERT_TRUE(spanning.ok());
  EXPECT_NEAR(spanning.value(), 3.0, 1e-6);
}

TEST(CatalogTest, SelectivityInUnitInterval) {
  Column c("v");
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) c.Append(rng.NextInt(0, 99));
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "equidepth";
  spec.budget_words = 20;
  ASSERT_TRUE(catalog.RegisterColumn("k", c, spec).ok());
  auto sel = catalog.EstimateSelectivity("k", 0, 49);
  ASSERT_TRUE(sel.ok());
  EXPECT_GE(sel.value(), 0.0);
  EXPECT_LE(sel.value(), 1.0);
  EXPECT_NEAR(sel.value(), 0.5, 0.1);
}

TEST(CatalogTest, DuplicateAndMissingKeys) {
  Column c("v");
  c.AppendBatch({1, 2, 3});
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "naive";
  ASSERT_TRUE(catalog.RegisterColumn("k", c, spec).ok());
  EXPECT_FALSE(catalog.RegisterColumn("k", c, spec).ok());
  EXPECT_FALSE(catalog.EstimateCountBetween("missing", 1, 2).ok());
  EXPECT_FALSE(catalog.StorageWords("missing").ok());
}

TEST(CatalogTest, SerializationRoundTrip) {
  Column c("v");
  Rng rng(61);
  for (int i = 0; i < 800; ++i) c.Append(rng.NextInt(-20, 79));
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "sap1";
  spec.budget_words = 25;
  ASSERT_TRUE(catalog.RegisterColumn("t.a", c, spec).ok());
  spec.method = "wave-range-opt";
  spec.budget_words = 16;
  ASSERT_TRUE(catalog.RegisterColumn("t.b", c, spec).ok());

  auto bytes = catalog.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = SynopsisCatalog::Deserialize(bytes.value());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ListEntries().size(), 2u);
  EXPECT_EQ(restored->TotalStorageWords(), catalog.TotalStorageWords());
  for (const auto& [lo, hi] :
       std::vector<std::pair<int64_t, int64_t>>{{-20, 79}, {0, 10},
                                                {50, 60}}) {
    auto a = catalog.EstimateCountBetween("t.a", lo, hi);
    auto b = restored->EstimateCountBetween("t.a", lo, hi);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a.value(), b.value(), 1e-9);
  }
  // Corrupt inputs fail cleanly.
  EXPECT_FALSE(SynopsisCatalog::Deserialize("junk").ok());
  EXPECT_FALSE(SynopsisCatalog::Deserialize(
                   std::string_view(*bytes).substr(0, bytes->size() / 2))
                   .ok());
}

TEST(CatalogTest, FileRoundTrip) {
  Column c("v");
  Rng rng(67);
  for (int i = 0; i < 300; ++i) c.Append(rng.NextInt(0, 49));
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "equidepth";
  spec.budget_words = 12;
  ASSERT_TRUE(catalog.RegisterColumn("k", c, spec).ok());
  const std::string path = ::testing::TempDir() + "/catalog.rsc";
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  auto loaded = SynopsisCatalog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->Contains("k"));
  std::remove(path.c_str());
  EXPECT_FALSE(SynopsisCatalog::LoadFromFile(path).ok());
}

TEST(CatalogTest, StorageAccounting) {
  Column c("v");
  Rng rng(51);
  for (int i = 0; i < 500; ++i) c.Append(rng.NextInt(0, 63));
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "sap0";
  spec.budget_words = 30;
  ASSERT_TRUE(catalog.RegisterColumn("a", c, spec).ok());
  spec.method = "wave-point";
  spec.budget_words = 12;
  ASSERT_TRUE(catalog.RegisterColumn("b", c, spec).ok());
  auto a_words = catalog.StorageWords("a");
  auto b_words = catalog.StorageWords("b");
  ASSERT_TRUE(a_words.ok());
  ASSERT_TRUE(b_words.ok());
  EXPECT_EQ(catalog.TotalStorageWords(), a_words.value() + b_words.value());
  EXPECT_EQ(catalog.ListEntries().size(), 2u);
}

TEST(FactoryTest, InvalidBudgetRejected) {
  std::vector<int64_t> data(32, 5);
  SynopsisSpec spec;
  spec.method = "equiwidth";
  for (const int64_t bad : {int64_t{0}, int64_t{-5}}) {
    spec.budget_words = bad;
    const auto r = BuildSynopsis(spec, data);
    ASSERT_FALSE(r.ok()) << "budget=" << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // A positive budget too small to fund a single unit is also an error,
  // not a silent clamp to one bucket the budget cannot pay for.
  spec.method = "sap0";  // 3 words per unit
  spec.budget_words = 2;
  const auto r = BuildSynopsis(spec, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("cannot fund"), std::string::npos);
  // The smallest viable budget for the same method works.
  spec.budget_words = 3;
  EXPECT_TRUE(BuildSynopsis(spec, data).ok());
}

// --------------------------------- catalog corruption and quarantine

/// A small three-entry catalog plus its v2 serialization.
void BuildThreeEntryCatalog(SynopsisCatalog* catalog, std::string* bytes) {
  Rng rng(71);
  for (const char* key : {"t.a", "t.b", "t.c"}) {
    Column c(key);
    for (int i = 0; i < 200; ++i) c.Append(rng.NextInt(0, 40));
    SynopsisSpec spec;
    spec.method = "sap0";
    spec.budget_words = 12;
    ASSERT_TRUE(catalog->RegisterColumn(key, c, spec).ok());
  }
  auto serialized = catalog->Serialize();
  ASSERT_TRUE(serialized.ok());
  *bytes = std::move(serialized.value());
}

TEST(CatalogTest, EveryPrefixTruncationRejected) {
  SynopsisCatalog catalog;
  std::string bytes;
  ASSERT_NO_FATAL_FAILURE(BuildThreeEntryCatalog(&catalog, &bytes));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        SynopsisCatalog::Deserialize(std::string_view(bytes).substr(0, cut))
            .ok())
        << "cut=" << cut;
  }
}

TEST(CatalogTest, EverySingleBitFlipRejectedStrict) {
  // The whole-buffer CRC32C trailer detects every single-bit error, so
  // strict deserialization must reject every flipped buffer.
  SynopsisCatalog catalog;
  std::string bytes;
  ASSERT_NO_FATAL_FAILURE(BuildThreeEntryCatalog(&catalog, &bytes));
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      EXPECT_FALSE(SynopsisCatalog::Deserialize(mutated).ok())
          << "pos=" << pos << " bit=" << bit;
    }
  }
}

TEST(CatalogTest, CorruptEntryQuarantinedWhileOthersLoad) {
  SynopsisCatalog catalog;
  std::string bytes;
  ASSERT_NO_FATAL_FAILURE(BuildThreeEntryCatalog(&catalog, &bytes));

  // Locate the second entry's blob ("t.b" — std::map orders keys) and
  // corrupt its final byte, deep in the synopsis payload so the key stays
  // readable for the quarantine report.
  ByteReader r(bytes);
  ASSERT_TRUE(r.ReadU32().ok());  // magic
  ASSERT_TRUE(r.ReadU8().ok());   // version
  ASSERT_TRUE(r.ReadU32().ok());  // count
  ASSERT_TRUE(r.ReadString().ok());  // blob 1
  ASSERT_TRUE(r.ReadU32().ok());     // entry 1 CRC
  ASSERT_TRUE(r.ReadString().ok());  // blob 2
  const size_t blob2_end = bytes.size() - r.remaining();
  std::string corrupted = bytes;
  corrupted[blob2_end - 1] =
      static_cast<char>(corrupted[blob2_end - 1] ^ 0xff);

  // Strict load rejects the whole buffer.
  EXPECT_FALSE(SynopsisCatalog::Deserialize(corrupted).ok());

  // Lenient load quarantines t.b and keeps t.a / t.c intact.
  SynopsisCatalog::LoadReport report;
  auto lenient = SynopsisCatalog::DeserializeWithReport(corrupted, &report);
  ASSERT_TRUE(lenient.ok()) << lenient.status();
  EXPECT_EQ(report.entries_total, 3);
  EXPECT_EQ(report.entries_loaded, 2);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].key, "t.b");
  EXPECT_NE(report.quarantined[0].error.find("CRC32C"), std::string::npos);
  EXPECT_TRUE(lenient->Contains("t.a"));
  EXPECT_FALSE(lenient->Contains("t.b"));
  EXPECT_TRUE(lenient->Contains("t.c"));
  for (const char* key : {"t.a", "t.c"}) {
    auto want = catalog.EstimateCountBetween(key, 5, 30);
    auto got = lenient->EstimateCountBetween(key, 5, 30);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_NEAR(want.value(), got.value(), 1e-9) << key;
  }

  // The same corrupted bytes through the file path also quarantine.
  const std::string path = ::testing::TempDir() + "/corrupt_catalog.rsc";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(corrupted.data(), 1, corrupted.size(), f),
              corrupted.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
  EXPECT_FALSE(SynopsisCatalog::LoadFromFile(path).ok());
  SynopsisCatalog::LoadReport file_report;
  auto from_file =
      SynopsisCatalog::LoadFromFileWithReport(path, &file_report);
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  EXPECT_EQ(file_report.entries_loaded, 2);
  std::remove(path.c_str());
}

/// A one-entry catalog as the version 1 and 2 writers laid it out: a
/// naive synopsis over 1..8 in the stream format ("RSN1", version, kind 4,
/// n, average), entries inline at v1, length-prefixed with per-entry and
/// whole-buffer CRC32Cs at v2.
std::string OlderCatalogBuffer(uint8_t version) {
  ByteWriter synopsis;
  synopsis.WriteU32(0x52534e31);  // "RSN1"
  synopsis.WriteU8(version);
  synopsis.WriteU8(4);  // naive
  synopsis.WriteI64(8);
  synopsis.WriteDouble(2.5);
  std::string synopsis_bytes = synopsis.Release();
  if (version == 2) {
    ByteWriter crc;
    crc.WriteU32(Crc32c(synopsis_bytes));
    synopsis_bytes += crc.Release();
  }
  ByteWriter entry;
  entry.WriteString("t.a");
  entry.WriteI64(1);  // domain_lo
  entry.WriteI64(8);  // domain_size
  entry.WriteString("naive");
  entry.WriteString(synopsis_bytes);
  const std::string blob = entry.Release();
  ByteWriter w;
  w.WriteU32(0x52534343);  // "RSCC"
  w.WriteU8(version);
  w.WriteU32(1);
  if (version == 1) {
    std::string v1 = w.Release();
    return v1 + blob;
  }
  w.WriteString(blob);
  w.WriteU32(Crc32c(blob));
  std::string v2 = w.Release();
  ByteWriter trailer;
  trailer.WriteU32(Crc32c(v2));
  return v2 + trailer.Release();
}

TEST(CatalogTest, OlderVersionsAreRefused) {
  for (const uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    const std::string bytes = OlderCatalogBuffer(version);
    auto strict = SynopsisCatalog::Deserialize(bytes);
    ASSERT_FALSE(strict.ok()) << "v" << int{version};
    EXPECT_NE(strict.status().message().find("unsupported version"),
              std::string::npos)
        << strict.status();
    SynopsisCatalog::LoadReport report;
    auto lenient = SynopsisCatalog::DeserializeWithReport(bytes, &report);
    ASSERT_FALSE(lenient.ok()) << "v" << int{version};
    EXPECT_NE(lenient.status().message().find("unsupported version"),
              std::string::npos)
        << lenient.status();
  }
}

}  // namespace
}  // namespace rangesyn
