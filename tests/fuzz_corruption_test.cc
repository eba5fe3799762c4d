// Structure-aware corruption and fault-schedule fuzzing. Two families:
//
//  1. Seeded failpoint soak: >= 1000 deterministic fault schedules
//     (RANGESYN_FUZZ_SCHEDULES overrides the count) driven through the
//     full build -> RSF1 save -> mmap open -> catalog pipeline on tiny
//     inputs.
//     Every step must either succeed with a valid, queryable synopsis or
//     fail with a clean Status — never crash, hang, or corrupt state
//     observed by later schedules.
//
//  2. Mutation fuzz: RSF1 synopsis and catalog buffers mutated by
//     seeded byte flips, truncations, extensions and splices must always
//     produce a Status or a parseable object — never undefined behavior
//     (the CI fuzz-faults job runs this binary under ASan).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/random.h"
#include "engine/catalog.h"
#include "engine/factory.h"
#include "engine/table.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

/// Schedule count for the failpoint soak: 1000 by default (the ISSUE's
/// acceptance floor); the CI soak job raises it via the environment.
int ScheduleCount() {
  if (const char* env = std::getenv("RANGESYN_FUZZ_SCHEDULES")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 1000;
}

std::vector<int64_t> TinyData(uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(rng.NextInt(16, 32)));
  for (auto& v : data) v = rng.NextInt(0, 30);
  return data;
}

/// A synopsis that parsed must behave like one: basic queries in-range.
void ExpectQueryable(const FlatSynopsis& synopsis) {
  const int64_t n = synopsis.n();
  ASSERT_GE(n, 1);
  const double full = synopsis.EstimateOne(1, n);
  EXPECT_FALSE(std::isnan(full)) << "NaN estimate";
  (void)synopsis.EstimateOne(1, 1);
  (void)synopsis.StorageWords();
  (void)synopsis.Name();
}

class FuzzCorruptionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (failpoint::kCompiledIn) failpoint::Clear();
  }
};

TEST_F(FuzzCorruptionTest, SeededFailpointSchedulesNeverCrash) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
  }
  const int schedules = ScheduleCount();
  const std::vector<std::string> methods = {"equiwidth", "sap0", "vopt",
                                            "topbb"};
  const std::string syn_path = ::testing::TempDir() + "/fuzz_syn.rsn";
  const std::string cat_path = ::testing::TempDir() + "/fuzz_cat.rsc";
  std::remove(syn_path.c_str());
  std::remove(cat_path.c_str());

  int64_t ok_builds = 0, failed_steps = 0;
  for (int i = 0; i < schedules; ++i) {
    // Each schedule arms *every* failpoint site with an independent,
    // seed-indexed probabilistic rule, so faults land at varying depths
    // of the pipeline (alloc, threadpool tasks, fsync, rename, read...).
    const std::string spec_str = "*=prob:0.25:" + std::to_string(i);
    ASSERT_TRUE(failpoint::Configure(spec_str).ok());

    const std::vector<int64_t> data = TinyData(static_cast<uint64_t>(i));
    SynopsisSpec spec;
    spec.method = methods[static_cast<size_t>(i) % methods.size()];
    spec.budget_words = 12;

    const auto built = BuildSynopsis(spec, data);
    if (!built.ok()) {
      ++failed_steps;
    } else {
      ++ok_builds;
      ExpectQueryable(*built.value());
      const Status saved = SaveFlatSynopsis(*built.value(), syn_path);
      if (!saved.ok()) ++failed_steps;
    }

    // The file only ever holds a complete save from this or an earlier
    // schedule (atomic replace), so a fault-free read must parse.
    const auto loaded = OpenFlatMapped(syn_path);
    if (loaded.ok()) {
      ExpectQueryable(*loaded.value());
    }

    if (i % 4 == 0) {
      Column c("v");
      for (const int64_t v : data) c.Append(v);
      SynopsisCatalog catalog;
      SynopsisSpec cat_spec;
      cat_spec.method = "equiwidth";
      cat_spec.budget_words = 12;
      if (catalog.RegisterColumn("t.v", c, cat_spec).ok()) {
        if (!catalog.SaveToFile(cat_path).ok()) ++failed_steps;
        const auto back = SynopsisCatalog::LoadFromFile(cat_path);
        if (back.ok()) {
          (void)back.value().EstimateCountBetween("t.v", 0, 30);
        }
      } else {
        ++failed_steps;
      }
    }
  }
  failpoint::Clear();

  // With p=0.25 per site over >= 1000 schedules both outcomes must occur;
  // all-success or all-failure means the injection isn't reaching the
  // pipeline (or is tripping something it shouldn't).
  EXPECT_GT(ok_builds, 0);
  EXPECT_GT(failed_steps, 0);

  // No schedule may leave persistent state that breaks a healthy run.
  const std::vector<int64_t> data = TinyData(7);
  SynopsisSpec spec;
  spec.method = "sap0";
  spec.budget_words = 12;
  const auto clean = BuildSynopsis(spec, data);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  ASSERT_TRUE(SaveFlatSynopsis(*clean.value(), syn_path).ok());
  const auto reload = OpenFlatMapped(syn_path);
  ASSERT_TRUE(reload.ok()) << reload.status().message();
  ExpectQueryable(*reload.value());
  std::remove(syn_path.c_str());
  std::remove(cat_path.c_str());
}

/// Applies 1-4 seeded structure-agnostic mutations to `bytes`.
std::string Mutate(Rng* rng, std::string bytes) {
  const int rounds = static_cast<int>(rng->NextInt(1, 4));
  for (int i = 0; i < rounds && !bytes.empty(); ++i) {
    switch (rng->NextInt(0, 3)) {
      case 0: {  // flip one byte
        const auto pos = static_cast<size_t>(
            rng->NextInt(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<char>(rng->NextInt(0, 255));
        break;
      }
      case 1: {  // truncate to a prefix
        bytes.resize(static_cast<size_t>(
            rng->NextInt(0, static_cast<int64_t>(bytes.size()))));
        break;
      }
      case 2: {  // append garbage
        const int64_t extra = rng->NextInt(1, 16);
        for (int64_t e = 0; e < extra; ++e) {
          bytes.push_back(static_cast<char>(rng->NextInt(0, 255)));
        }
        break;
      }
      default: {  // splice: duplicate an internal window
        const auto pos = static_cast<size_t>(
            rng->NextInt(0, static_cast<int64_t>(bytes.size()) - 1));
        const size_t len =
            std::min(bytes.size() - pos,
                     static_cast<size_t>(rng->NextInt(1, 8)));
        bytes.insert(pos, bytes.substr(pos, len));
        break;
      }
    }
  }
  return bytes;
}

TEST_F(FuzzCorruptionTest, MutatedSynopsisBuffersNeverCrash) {
  Rng data_rng(401);
  std::vector<int64_t> data(96);
  for (auto& v : data) v = data_rng.NextInt(0, 60);

  std::vector<std::string> buffers;
  for (const char* method :
       {"naive", "equiwidth", "sap0", "sap1", "sap2", "opta", "topbb",
        "wave-range-opt"}) {
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 21;
    auto flat = BuildSynopsis(spec, data);
    ASSERT_TRUE(flat.ok()) << method << ": " << flat.status().message();
    auto bytes = EncodeFlatSynopsis(*flat.value());
    ASSERT_TRUE(bytes.ok()) << method;
    buffers.push_back(std::move(bytes.value()));
  }

  Rng rng(402);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string& base = buffers[static_cast<size_t>(iter) %
                                      buffers.size()];
    const std::string mutated = Mutate(&rng, base);
    const auto r = DecodeFlatSynopsis(mutated);
    if (r.ok()) {
      ++parsed;
      ExpectQueryable(*r.value());
    } else {
      ++rejected;
      EXPECT_FALSE(r.status().message().empty());
    }
  }
  // The CRC trailer makes surviving a mutation vanishingly rare, but a
  // mutation round can no-op (flip to the same value); the invariant is
  // "never crash", so only rejection being common is asserted.
  EXPECT_GT(rejected, 1000);
  (void)parsed;
}

TEST_F(FuzzCorruptionTest, MutatedCatalogBuffersNeverCrash) {
  Rng data_rng(501);
  SynopsisCatalog catalog;
  for (const char* key : {"t.a", "t.b", "t.c"}) {
    Column c(key);
    for (int i = 0; i < 300; ++i) c.Append(data_rng.NextInt(0, 50));
    SynopsisSpec spec;
    spec.method = "sap0";
    spec.budget_words = 12;
    ASSERT_TRUE(catalog.RegisterColumn(key, c, spec).ok());
  }
  auto bytes = catalog.Serialize();
  ASSERT_TRUE(bytes.ok());

  Rng rng(502);
  int strict_ok = 0, lenient_ok = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const std::string mutated = Mutate(&rng, bytes.value());

    const auto strict = SynopsisCatalog::Deserialize(mutated);
    if (strict.ok()) {
      ++strict_ok;
      (void)strict.value().ListEntries();
    }

    SynopsisCatalog::LoadReport report;
    const auto lenient =
        SynopsisCatalog::DeserializeWithReport(mutated, &report);
    if (lenient.ok()) {
      ++lenient_ok;
      // Whatever loaded must answer estimates without crashing.
      const auto entries = lenient.value().ListEntries();
      for (const auto& e : entries) {
        (void)lenient.value().EstimateCountBetween(e.key, e.domain_lo,
                                                   e.domain_hi);
      }
      // Accounting: the report counts what actually loaded, and never
      // claims more entries than the (possibly mutated) header promised.
      EXPECT_EQ(report.entries_loaded,
                static_cast<int64_t>(entries.size()));
      EXPECT_LE(report.entries_loaded, report.entries_total);
    }
  }
  // Lenient mode tolerates at least as much as strict mode.
  EXPECT_GE(lenient_ok, strict_ok);
}

}  // namespace
}  // namespace rangesyn
