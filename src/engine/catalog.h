#ifndef RANGESYN_ENGINE_CATALOG_H_
#define RANGESYN_ENGINE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/mutex.h"
#include "core/result.h"
#include "engine/factory.h"
#include "engine/table.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// Statistics catalog: one synopsis per registered column, with storage
/// accounting. This is the component a query optimizer or approximate
/// query processor would consult instead of scanning the table.
///
/// Each entry holds its synopsis in the flat form (src/qpath), compiled
/// once at registration: estimates, storage accounting and persistence
/// all read that one view, and the persisted form of an entry is its
/// RSF1 bytes (qpath/flat_file.h).
///
/// Thread safety: all operations are safe to call concurrently on one
/// catalog — `mu_` serializes every access to the entry map. Moving a
/// catalog concurrently with any other use of either operand is not
/// supported (the standard C++ move contract).
class SynopsisCatalog {
 public:
  SynopsisCatalog() = default;

  // Move-only (owns its entries). Hand-written because Mutex is neither
  // movable nor copyable: a move transfers the entries under both locks
  // and leaves each catalog with its own mutex.
  SynopsisCatalog(SynopsisCatalog&& other) noexcept;
  SynopsisCatalog& operator=(SynopsisCatalog&& other) noexcept;
  SynopsisCatalog(const SynopsisCatalog&) = delete;
  SynopsisCatalog& operator=(const SynopsisCatalog&) = delete;

  /// Builds and registers a synopsis for `column` under `key` (e.g.
  /// "orders.price"). The distribution is derived from the column's own
  /// value bounds.
  Status RegisterColumn(const std::string& key, const Column& column,
                        const SynopsisSpec& spec);

  /// Registers a synopsis over an explicit, pre-built distribution. The
  /// build and the flat compile run outside the lock.
  Status RegisterDistribution(const std::string& key,
                              AttributeDistribution distribution,
                              const SynopsisSpec& spec);

  bool Contains(const std::string& key) const {
    MutexLock lock(mu_);
    return entries_.contains(key);
  }

  /// Estimated COUNT(*) WHERE lo <= value <= hi against the synopsis for
  /// `key`. Value ranges are clipped to the registered domain; a range
  /// entirely outside it estimates 0.
  Result<double> EstimateCountBetween(const std::string& key, int64_t lo,
                                      int64_t hi) const;

  /// Estimated number of records with value exactly `v`.
  Result<double> EstimateEquals(const std::string& key, int64_t v) const;

  /// Estimated selectivity (fraction of rows) of lo <= value <= hi, using
  /// the synopsis' own estimate of the total row count as denominator.
  Result<double> EstimateSelectivity(const std::string& key, int64_t lo,
                                     int64_t hi) const;

  /// One range predicate of a conjunction.
  struct Predicate {
    std::string key;
    int64_t lo = 0;
    int64_t hi = 0;
  };

  /// Estimated selectivity of a conjunction of range predicates over
  /// distinct columns under the classical attribute-value-independence
  /// assumption: the product of per-column selectivities. (The standard
  /// optimizer heuristic; correlated columns need joint statistics, which
  /// single-column synopses cannot provide.)
  Result<double> EstimateConjunctionSelectivity(
      const std::vector<Predicate>& predicates) const;

  /// Storage (words) of one entry / of the whole catalog.
  Result<int64_t> StorageWords(const std::string& key) const;
  int64_t TotalStorageWords() const;

  /// Serializes every entry (keys, domain metadata, synopsis bytes) into
  /// one buffer; Deserialize restores an equivalent catalog. This is what
  /// a database would persist across restarts instead of rebuilding
  /// statistics from table scans.
  ///
  /// Format v3 length-prefixes each entry (key, domain_lo, method, then
  /// the synopsis' RSF1 bytes) and protects it with its own CRC32C, plus a
  /// whole-buffer CRC32C trailer. Versions 1 and 2 are refused.
  /// Deserialize is strict: any checksum or parse failure rejects the
  /// whole buffer.
  Result<std::string> Serialize() const;
  static Result<SynopsisCatalog> Deserialize(std::string_view bytes);

  /// Outcome of a lenient load: how many entries were quarantined and why.
  struct LoadReport {
    int64_t entries_total = 0;
    int64_t entries_loaded = 0;
    struct Quarantined {
      /// Best-effort: empty when the entry was too damaged to name.
      std::string key;
      std::string error;
    };
    std::vector<Quarantined> quarantined;
  };

  /// Lenient variant: an entry whose CRC or parse fails is *quarantined* —
  /// skipped and recorded in `report` — while the remaining entries load
  /// normally (the per-entry checksums localize the damage). Fails
  /// outright only when the header or entry framing is unusable.
  /// `report` may be null.
  static Result<SynopsisCatalog> DeserializeWithReport(
      std::string_view bytes, LoadReport* report);

  /// File convenience wrappers around Serialize/Deserialize. Save writes
  /// atomically (temp file + rename + fsync). LoadFromFile is strict;
  /// LoadFromFileWithReport quarantines corrupt entries as above.
  Status SaveToFile(const std::string& path) const;
  static Result<SynopsisCatalog> LoadFromFile(const std::string& path);
  static Result<SynopsisCatalog> LoadFromFileWithReport(
      const std::string& path, LoadReport* report);

  /// Flat (structure-of-arrays) view of `key`'s synopsis for the serving
  /// hot path: the entry's own view, compiled at registration, so every
  /// call returns the same object. It answers queries bit-identically to
  /// the estimator it was compiled from (tests/qpath_equivalence_test.cc).
  /// Lends a view: the returned shared_ptr is the keep-alive handle for
  /// the flat storage.
  RANGESYN_LENDS_VIEW Result<std::shared_ptr<const FlatSynopsis>> FlatView(
      const std::string& key) const;

  /// Removes `key` from the catalog. Lifetime contract: flat views handed
  /// out earlier stay valid — they share ownership of their storage — so
  /// eviction never dangles an outstanding reader; only future lookups
  /// fail. NotFound when the key is absent.
  Status Evict(const std::string& key);

  /// Registered keys with method names, for introspection.
  struct EntryInfo {
    std::string key;
    std::string method;
    int64_t storage_words = 0;
    int64_t domain_lo = 0;
    int64_t domain_hi = 0;
  };
  std::vector<EntryInfo> ListEntries() const;

 private:
  struct Entry {
    int64_t domain_lo = 0;
    std::string method;
    /// The synopsis; its n() is the domain size. Shared with FlatView
    /// callers so eviction cannot invalidate an outstanding reader.
    std::shared_ptr<const FlatSynopsis> flat;
  };

  // Lock-held helpers (thread_annotations.h conventions): callers hold
  // `mu_`. The public Estimate* entry points lock once and delegate so
  // the composite estimators (selectivity, conjunctions) never re-enter
  // the non-reentrant mutex.
  Result<const Entry*> FindLocked(const std::string& key) const
      RANGESYN_REQUIRES(mu_);
  Result<double> EstimateCountBetweenLocked(const std::string& key,
                                            int64_t lo, int64_t hi) const
      RANGESYN_REQUIRES(mu_);
  Result<double> EstimateSelectivityLocked(const std::string& key,
                                           int64_t lo, int64_t hi) const
      RANGESYN_REQUIRES(mu_);

  /// Serializes every access to `entries_`.
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ RANGESYN_GUARDED_BY(mu_);
};

}  // namespace rangesyn

#endif  // RANGESYN_ENGINE_CATALOG_H_
