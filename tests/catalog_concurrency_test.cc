// Concurrency hammer for SynopsisCatalog: FlatView's lazy
// compile-and-cache racing Evict/re-register, plus concurrent
// estimators. The interesting interleavings only surface under TSan
// (the `CatalogConcurrency` term of the CI tsan ctest regex); under a
// plain build this still checks the lifetime contract — views handed
// out before an eviction answer queries after it.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "engine/catalog.h"
#include "engine/table.h"

namespace rangesyn {
namespace {

Column MakeColumn(uint64_t seed) {
  Rng rng(seed);
  Column c("v");
  for (int i = 0; i < 512; ++i) c.Append(rng.NextInt(0, 199));
  return c;
}

SynopsisSpec FastSpec() {
  SynopsisSpec spec;
  spec.method = "equidepth";
  spec.budget_words = 16;
  return spec;
}

TEST(CatalogConcurrency, FlatViewRacesEvictAndReregister) {
  SynopsisCatalog catalog;
  const std::vector<std::string> keys = {"t.a", "t.b", "t.c"};
  const Column column = MakeColumn(7);
  for (const std::string& key : keys) {
    ASSERT_TRUE(catalog.RegisterColumn(key, column, FastSpec()).ok());
  }

  constexpr int kReaders = 4;
  constexpr int kIterations = 400;
  std::atomic<int64_t> views_served{0};
  std::vector<std::thread> threads;

  // Readers: look up flat views (compiled at registration) and query
  // whatever they get. A NotFound during an eviction window is
  // expected; a torn entry or dangling storage is not, and TSan plus the
  // view's own CRC-checked storage would catch it.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string& key = keys[(r + i) % keys.size()];
        auto view = catalog.FlatView(key);
        if (!view.ok()) continue;
        const std::shared_ptr<const FlatSynopsis> flat = view.value();
        const double est = flat->EstimateOne(10, 150);
        EXPECT_GE(est, 0.0);
        views_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Churner: evict and re-register each key in rotation, invalidating
  // the cached flat view so readers keep hitting the lazy-compile path.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      const std::string& key = keys[i % keys.size()];
      if (catalog.Evict(key).ok()) {
        ASSERT_TRUE(catalog.RegisterColumn(key, column, FastSpec()).ok());
      }
    }
  });

  // Estimator traffic shares the same lock as the structural churn.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      const std::string& key = keys[i % keys.size()];
      auto est = catalog.EstimateCountBetween(key, 20, 120);
      if (est.ok()) {
        EXPECT_GE(est.value(), 0.0);
      }
      (void)catalog.TotalStorageWords();
      (void)catalog.Contains(key);
    }
  });

  for (std::thread& t : threads) t.join();
  EXPECT_GT(views_served.load(), 0);
  for (const std::string& key : keys) {
    EXPECT_TRUE(catalog.Contains(key)) << key;
  }
}

// The serving daemon's exact access pattern (src/serve/server.cc): worker
// threads answer batched queries through FlatView handles resolved
// earlier, while the catalog itself is concurrently evicted/re-registered
// and snapshotted-with-quarantine. Batches through a held view must stay
// bit-identical to that view's baseline no matter what the catalog does,
// and a lenient load of a (possibly corrupted) snapshot must account for
// every entry as loaded or quarantined — never torn, never dropped.
TEST(CatalogConcurrency, ServingPatternBatchedEstimateEvictQuarantine) {
  SynopsisCatalog catalog;
  const std::vector<std::string> keys = {"s.a", "s.b", "s.c", "s.d"};
  const Column column = MakeColumn(23);
  for (const std::string& key : keys) {
    ASSERT_TRUE(catalog.RegisterColumn(key, column, FastSpec()).ok());
  }

  // Server-style query plan: a fixed batch evaluated in chunks, with the
  // expected answers taken from a freshly resolved view up front. Builds
  // are deterministic, so a re-registered entry serves the same bits.
  std::vector<FlatQuery> batch;
  {
    Rng rng(41);
    auto seed_view = catalog.FlatView(keys[0]);
    ASSERT_TRUE(seed_view.ok());
    const int64_t n = seed_view.value()->n();
    for (int i = 0; i < 64; ++i) {
      FlatQuery q;
      q.a = rng.NextInt(1, n);
      q.b = rng.NextInt(q.a, n);
      batch.push_back(q);
    }
  }
  std::vector<double> baseline(batch.size());
  {
    auto view = catalog.FlatView(keys[0]);
    ASSERT_TRUE(view.ok());
    FlatSynopsis::BatchScratch scratch;
    ASSERT_TRUE(
        view.value()->EstimateMany(batch, baseline, &scratch).ok());
  }

  constexpr int kWorkers = 4;
  constexpr int kIterations = 300;
  constexpr size_t kChunk = 16;  // mirrors ServerOptions::eval_chunk
  std::atomic<int64_t> batches_served{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      FlatSynopsis::BatchScratch scratch;
      std::vector<double> out(batch.size());
      for (int i = 0; i < kIterations; ++i) {
        const std::string& key = keys[(w + i) % keys.size()];
        auto view = catalog.FlatView(key);
        if (!view.ok()) continue;  // eviction window
        const std::shared_ptr<const FlatSynopsis> flat = view.value();
        bool ok = true;
        for (size_t off = 0; off < batch.size() && ok; off += kChunk) {
          const size_t len = std::min(kChunk, batch.size() - off);
          const std::span<const FlatQuery> qs(batch);
          const std::span<double> os(out);
          ok = flat->EstimateMany(qs.subspan(off, len),
                                  os.subspan(off, len), &scratch)
                   .ok();
        }
        ASSERT_TRUE(ok);
        EXPECT_EQ(out, baseline) << "view served different bits";
        batches_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Structural churn: the eviction/re-registration the views must survive.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      const std::string& key = keys[i % keys.size()];
      if (catalog.Evict(key).ok()) {
        ASSERT_TRUE(catalog.RegisterColumn(key, column, FastSpec()).ok());
      }
    }
  });

  // Quarantine traffic: snapshot the live catalog mid-churn, sometimes
  // corrupt a byte, and load leniently. Every entry must be accounted
  // loaded or quarantined; loaded entries must answer queries.
  threads.emplace_back([&] {
    Rng rng(67);
    for (int i = 0; i < 40; ++i) {
      auto bytes = catalog.Serialize();
      ASSERT_TRUE(bytes.ok());
      std::string buf = *std::move(bytes);
      if (i % 2 == 1 && buf.size() > 64) {
        buf[static_cast<size_t>(
            rng.NextInt(32, static_cast<int64_t>(buf.size()) - 1))] ^= 0x41;
      }
      SynopsisCatalog::LoadReport report;
      auto loaded = SynopsisCatalog::DeserializeWithReport(buf, &report);
      if (!loaded.ok()) continue;  // framing damage: strict rejection
      EXPECT_EQ(report.entries_loaded +
                    static_cast<int64_t>(report.quarantined.size()),
                report.entries_total);
      for (const auto& info : loaded.value().ListEntries()) {
        auto est = loaded.value().EstimateCountBetween(info.key, 20, 120);
        ASSERT_TRUE(est.ok());
        EXPECT_GE(est.value(), 0.0);
      }
    }
  });

  for (std::thread& t : threads) t.join();
  EXPECT_GT(batches_served.load(), 0);
}

TEST(CatalogConcurrency, OutstandingViewsSurviveConcurrentEviction) {
  SynopsisCatalog catalog;
  const Column column = MakeColumn(11);
  ASSERT_TRUE(catalog.RegisterColumn("t.v", column, FastSpec()).ok());

  auto view = catalog.FlatView("t.v");
  ASSERT_TRUE(view.ok());
  const std::shared_ptr<const FlatSynopsis> held = view.value();
  const double before = held->EstimateOne(1, 180);

  // Queries against the held view race the eviction that drops the
  // catalog's reference to its storage.
  std::thread evictor([&] { EXPECT_TRUE(catalog.Evict("t.v").ok()); });
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(held->EstimateOne(1, 180), before);
  }
  evictor.join();

  // The catalog no longer serves the key, but the lent view stays valid.
  EXPECT_FALSE(catalog.FlatView("t.v").ok());
  EXPECT_EQ(held->EstimateOne(1, 180), before);
}

}  // namespace
}  // namespace rangesyn
