// Tests for synopsis persistence in RSF1 (qpath/flat_file.h): byte-level
// primitives, full round-trips for every factory method, randomly-
// constructed synopsis fuzzing with bitwise re-encoding equality,
// corruption handling, file I/O.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bytes.h"
#include "core/crc32c.h"
#include "core/random.h"
#include "engine/factory.h"
#include "histogram/histogram.h"
#include "histogram/partition.h"
#include "histogram/weighted_sap0.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"
#include "wavelet/synopsis.h"

namespace rangesyn {
namespace {

TEST(BytesTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteDouble(3.141592653589793);
  w.WriteString("hello");
  w.WriteI64Vector({1, -2, 3});
  w.WriteDoubleVector({0.5, -1.5});
  const std::string buf = w.Release();

  ByteReader r(buf);
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.141592653589793);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadI64Vector().value(), (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(r.ReadDoubleVector().value(), (std::vector<double>{0.5, -1.5}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncationIsReportedNotCrashed) {
  ByteWriter w;
  w.WriteU64(7);
  const std::string buf = w.Release();
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(std::string_view(buf).substr(0, cut));
    EXPECT_FALSE(r.ReadU64().ok()) << "cut=" << cut;
  }
}

TEST(BytesTest, CorruptLengthPrefixRejected) {
  ByteWriter w;
  w.WriteU32(0xffffffffu);  // absurd string length
  const std::string buf = w.Release();
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadString().ok());
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Compiles a builder's `record` to its flat form and encodes that as
/// RSF1.
template <typename Record>
Result<std::string> EncodeRsf1(const Record& record) {
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> flat,
                            record.Compile());
  return EncodeFlatSynopsis(*flat);
}

class SerializeRoundTripTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SerializeRoundTripTest, EstimatesSurviveRoundTrip) {
  Rng rng(17);
  std::vector<int64_t> data(63);
  for (auto& v : data) v = rng.NextInt(0, 50);

  SynopsisSpec spec;
  spec.method = GetParam();
  spec.budget_words = 21;
  auto original = BuildSynopsis(spec, data);
  ASSERT_TRUE(original.ok()) << original.status();

  auto bytes = EncodeFlatSynopsis(*original.value());
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = DecodeFlatSynopsis(bytes.value());
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ((*restored)->Name(), (*original)->Name());
  EXPECT_EQ((*restored)->StorageWords(), (*original)->StorageWords());
  EXPECT_EQ((*restored)->n(), (*original)->n());
  for (int64_t a = 1; a <= 63; a += 2) {
    for (int64_t b = a; b <= 63; b += 5) {
      EXPECT_EQ(Bits((*restored)->EstimateOne(a, b)),
                Bits((*original)->EstimateOne(a, b)))
          << "[" << a << "," << b << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, SerializeRoundTripTest,
    ::testing::Values("naive", "equiwidth", "equidepth", "maxdiff", "vopt",
                      "pointopt", "a0", "sap0", "sap1", "sap2", "prefixopt", "opta",
                      "a0-reopt", "wave-point", "topbb", "wave-range-opt"));

// ------------------------------------------ random-construction fuzzing

Partition RandomPartition(Rng* rng, int64_t max_n) {
  const int64_t n = rng->NextInt(1, max_n);
  std::vector<int64_t> ends;
  for (int64_t e = 1; e < n; ++e) {
    if (rng->NextBool(0.3)) ends.push_back(e);
  }
  ends.push_back(n);
  auto p = Partition::FromEnds(n, std::move(ends));
  EXPECT_TRUE(p.ok());
  return p.value();
}

std::vector<double> RandomDoubles(Rng* rng, size_t count) {
  std::vector<double> out(count);
  for (auto& v : out) v = rng->NextDouble(-1e6, 1e6);
  return out;
}

/// The round-trip contract on arbitrary (not builder-produced) synopses:
/// decoding and re-encoding must reproduce the *exact* bytes — every
/// stored word survives bitwise — and estimates must be identical, not
/// merely close.
template <typename Record>
void ExpectExactRoundTrip(const Record& original) {
  auto original_flat = original.Compile();
  ASSERT_TRUE(original_flat.ok()) << original_flat.status();
  auto bytes = EncodeFlatSynopsis(*original_flat.value());
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = DecodeFlatSynopsis(bytes.value());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->Name(), original.Name());
  EXPECT_EQ((*restored)->n(), original.domain_size());
  EXPECT_EQ((*restored)->StorageWords(), original.StorageWords());
  auto bytes2 = EncodeFlatSynopsis(*restored.value());
  ASSERT_TRUE(bytes2.ok()) << bytes2.status();
  EXPECT_EQ(bytes2.value(), bytes.value())
      << original.Name() << ": re-encoding not byte-identical";
  const int64_t n = original.domain_size();
  for (int64_t a = 1; a <= n; ++a) {
    EXPECT_EQ(Bits((*restored)->EstimateOne(a, n)),
              Bits((*original_flat)->EstimateOne(a, n)));
    EXPECT_EQ(Bits((*restored)->EstimateOne(1, a)),
              Bits((*original_flat)->EstimateOne(1, a)));
  }
}

TEST(SerializeFuzzTest, RandomAvgHistograms) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    Partition p = RandomPartition(&rng, 32);
    const size_t b = static_cast<size_t>(p.num_buckets());
    const auto rounding = static_cast<PieceRounding>(rng.NextInt(0, 2));
    auto hist = AvgHistogram::Create(std::move(p), RandomDoubles(&rng, b),
                                     "FUZZ-AVG", rounding);
    ASSERT_TRUE(hist.ok()) << hist.status();
    ExpectExactRoundTrip(hist.value());
  }
}

TEST(SerializeFuzzTest, RandomSapHistograms) {
  Rng rng(103);
  for (int trial = 0; trial < 50; ++trial) {
    Partition p = RandomPartition(&rng, 32);
    const size_t b = static_cast<size_t>(p.num_buckets());
    auto sap0 = Sap0Histogram::FromSummaries(p, RandomDoubles(&rng, b),
                                             RandomDoubles(&rng, b));
    ASSERT_TRUE(sap0.ok()) << sap0.status();
    ExpectExactRoundTrip(sap0.value());

    auto sap1 = Sap1Histogram::FromSummaries(
        p, RandomDoubles(&rng, b), RandomDoubles(&rng, b),
        RandomDoubles(&rng, b), RandomDoubles(&rng, b));
    ASSERT_TRUE(sap1.ok()) << sap1.status();
    ExpectExactRoundTrip(sap1.value());

    auto models = [&rng](size_t count) {
      std::vector<Sap2Histogram::Model> out(count);
      for (auto& m : out) {
        m = {rng.NextDouble(-100.0, 100.0), rng.NextDouble(-10.0, 10.0),
             rng.NextDouble(-1.0, 1.0)};
      }
      return out;
    };
    auto sap2 = Sap2Histogram::FromSummaries(p, models(b), models(b));
    ASSERT_TRUE(sap2.ok()) << sap2.status();
    ExpectExactRoundTrip(sap2.value());

    auto wsap0 = WeightedSap0Histogram::FromSummaries(
        p, RandomDoubles(&rng, b), RandomDoubles(&rng, b),
        RandomDoubles(&rng, b));
    ASSERT_TRUE(wsap0.ok()) << wsap0.status();
    ExpectExactRoundTrip(wsap0.value());
  }
}

TEST(SerializeFuzzTest, RandomNaiveEstimators) {
  Rng rng(107);
  for (int trial = 0; trial < 20; ++trial) {
    auto naive = NaiveEstimator::FromAverage(rng.NextInt(1, 1000),
                                             rng.NextDouble(-1e9, 1e9));
    ASSERT_TRUE(naive.ok()) << naive.status();
    ExpectExactRoundTrip(naive.value());
  }
}

TEST(SerializeFuzzTest, RandomWaveletSynopses) {
  Rng rng(109);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t padded = int64_t{1} << rng.NextInt(0, 6);
    const bool prefix = padded > 1 && rng.NextBool();
    const auto domain =
        prefix ? WaveletDomain::kPrefix : WaveletDomain::kData;
    const int64_t n =
        prefix ? rng.NextInt(1, padded - 1) : rng.NextInt(1, padded);
    // Unique random subset of coefficient indices.
    std::vector<int64_t> indices;
    for (int64_t k = 0; k < padded; ++k) {
      if (rng.NextBool(0.4)) indices.push_back(k);
    }
    if (indices.empty()) indices.push_back(rng.NextInt(0, padded - 1));
    std::vector<WaveletCoefficient> coeffs;
    coeffs.reserve(indices.size());
    for (int64_t k : indices) {
      coeffs.push_back({k, rng.NextDouble(-1e6, 1e6)});
    }
    auto synopsis = WaveletSynopsis::Create(std::move(coeffs), padded, n,
                                            domain, "FUZZ-WAVE");
    ASSERT_TRUE(synopsis.ok()) << synopsis.status();
    ExpectExactRoundTrip(synopsis.value());
  }
}

/// `bytes` with byte `pos` set to `value` and the CRC32C trailer
/// recomputed, so only the structural checks can reject it.
std::string Reseal(std::string bytes, size_t pos, char value) {
  bytes[pos] = value;
  const size_t body = bytes.size() - sizeof(uint32_t);
  const uint32_t crc = Crc32c(std::string_view(bytes.data(), body));
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
  return bytes;
}

TEST(SerializeTest, RejectsCorruptHeader) {
  EXPECT_FALSE(DecodeFlatSynopsis("").ok());
  EXPECT_FALSE(DecodeFlatSynopsis("garbage-bytes").ok());
  auto naive = NaiveEstimator::FromAverage(8, 2.5);
  ASSERT_TRUE(naive.ok());
  auto bytes = EncodeRsf1(naive.value());
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_TRUE(DecodeFlatSynopsis(*bytes).ok());
  // Right magic and CRC, bad kind.
  EXPECT_FALSE(DecodeFlatSynopsis(Reseal(*bytes, 5, 99)).ok());
  // Bad version.
  EXPECT_FALSE(DecodeFlatSynopsis(Reseal(*bytes, 4, 42)).ok());
  // Bad magic.
  EXPECT_FALSE(DecodeFlatSynopsis(Reseal(*bytes, 0, 'X')).ok());
}

TEST(SerializeTest, TruncatedPayloadsRejected) {
  Rng rng(23);
  std::vector<int64_t> data(32);
  for (auto& v : data) v = rng.NextInt(0, 20);
  SynopsisSpec spec;
  spec.method = "sap1";
  spec.budget_words = 15;
  auto est = BuildSynopsis(spec, data);
  ASSERT_TRUE(est.ok());
  auto bytes = EncodeFlatSynopsis(*est.value());
  ASSERT_TRUE(bytes.ok());
  // Every strict prefix must fail cleanly.
  for (size_t cut = 0; cut < bytes->size(); cut += 3) {
    EXPECT_FALSE(
        DecodeFlatSynopsis(std::string_view(*bytes).substr(0, cut)).ok())
        << "cut=" << cut;
  }
}

TEST(SerializeTest, RandomByteCorruptionNeverCrashes) {
  // Fuzz-style robustness: flip random bytes in valid buffers; the
  // decoder must either reject cleanly or produce a structurally valid
  // synopsis — never crash or read out of bounds.
  Rng rng(31);
  std::vector<int64_t> data(48);
  for (auto& v : data) v = rng.NextInt(0, 25);
  for (const char* method : {"sap1", "wave-range-opt", "opta", "sap2"}) {
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 14;
    auto est = BuildSynopsis(spec, data);
    ASSERT_TRUE(est.ok());
    auto bytes = EncodeFlatSynopsis(*est.value());
    ASSERT_TRUE(bytes.ok());
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = bytes.value();
      const size_t pos =
          static_cast<size_t>(rng.NextBounded(mutated.size()));
      mutated[pos] = static_cast<char>(rng.NextUint64());
      auto parsed = DecodeFlatSynopsis(mutated);
      if (parsed.ok()) {
        // If it parsed, it must behave like a valid synopsis.
        const int64_t n = (*parsed)->n();
        ASSERT_GE(n, 1);
        (void)(*parsed)->EstimateOne(1, n);
        (void)(*parsed)->StorageWords();
      }
    }
  }
}

// ------------------------------------- exhaustive corruption sweeps

/// One encoded buffer per concrete synopsis kind the format supports.
std::vector<std::pair<std::string, std::string>> BuffersForAllKinds() {
  Rng rng(211);
  std::vector<int64_t> data(32);
  for (auto& v : data) v = rng.NextInt(0, 25);
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* method :
       {"naive", "equiwidth", "sap0", "sap1", "sap2", "topbb"}) {
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 21;
    auto est = BuildSynopsis(spec, data);
    EXPECT_TRUE(est.ok()) << method << ": " << est.status();
    if (!est.ok()) continue;
    auto bytes = EncodeFlatSynopsis(*est.value());
    EXPECT_TRUE(bytes.ok()) << method;
    if (bytes.ok()) out.emplace_back(method, std::move(bytes.value()));
  }
  // WeightedSap0 is not reachable through the factory; construct directly.
  auto p = Partition::FromEnds(8, {3, 8});
  EXPECT_TRUE(p.ok());
  auto wsap0 = WeightedSap0Histogram::FromSummaries(
      p.value(), {1.0, 2.0}, {0.5, 0.25}, {4.0, 8.0});
  EXPECT_TRUE(wsap0.ok());
  if (wsap0.ok()) {
    auto bytes = EncodeRsf1(wsap0.value());
    EXPECT_TRUE(bytes.ok());
    if (bytes.ok()) out.emplace_back("wsap0", std::move(bytes.value()));
  }
  return out;
}

TEST(SerializeTest, EveryPrefixTruncationRejectedForEveryKind) {
  for (const auto& [kind, bytes] : BuffersForAllKinds()) {
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(
          DecodeFlatSynopsis(std::string_view(bytes).substr(0, cut)).ok())
          << kind << " cut=" << cut;
    }
  }
}

TEST(SerializeTest, EverySingleBitFlipRejectedForEveryKind) {
  // The CRC32C trailer detects every single-bit error anywhere in the
  // buffer (including in the trailer itself), so *no* flipped buffer may
  // parse — this is strictly stronger than "never crashes".
  for (const auto& [kind, bytes] : BuffersForAllKinds()) {
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
        EXPECT_FALSE(DecodeFlatSynopsis(mutated).ok())
            << kind << " pos=" << pos << " bit=" << bit;
      }
    }
  }
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(29);
  std::vector<int64_t> data(40);
  for (auto& v : data) v = rng.NextInt(0, 30);
  SynopsisSpec spec;
  spec.method = "sap0";
  spec.budget_words = 12;
  auto est = BuildSynopsis(spec, data);
  ASSERT_TRUE(est.ok());

  const std::string path = ::testing::TempDir() + "/synopsis.rsn";
  ASSERT_TRUE(SaveFlatSynopsis(*est.value(), path).ok());
  auto loaded = OpenFlatMapped(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->Name(), "SAP0");
  EXPECT_EQ((*loaded)->StorageWords(), (*est)->StorageWords());
  EXPECT_EQ(Bits((*loaded)->EstimateOne(3, 30)),
            Bits((*est)->EstimateOne(3, 30)));
  std::remove(path.c_str());
  EXPECT_FALSE(OpenFlatMapped(path + ".missing").ok());
}

}  // namespace
}  // namespace rangesyn
