#include "engine/catalog.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/bytes.h"
#include "core/crc32c.h"
#include "core/failpoint.h"
#include "core/fs.h"
#include "core/strings.h"
#include "obs/obs.h"
#include "qpath/flat_file.h"

namespace rangesyn {

SynopsisCatalog::SynopsisCatalog(SynopsisCatalog&& other) noexcept {
  MutexLock other_lock(other.mu_);
  MutexLock self_lock(mu_);
  entries_ = std::move(other.entries_);
}

SynopsisCatalog& SynopsisCatalog::operator=(
    SynopsisCatalog&& other) noexcept {
  if (this != &other) {
    // Self first, then source: a freshly constructed target is never
    // contended, and moves are excluded from concurrent use anyway (see
    // the class comment) — the locks here keep the guarded-by contract
    // honest rather than order a cross-catalog protocol.
    MutexLock self_lock(mu_);
    MutexLock other_lock(other.mu_);
    entries_ = std::move(other.entries_);
  }
  return *this;
}

Status SynopsisCatalog::RegisterColumn(const std::string& key,
                                       const Column& column,
                                       const SynopsisSpec& spec) {
  RANGESYN_ASSIGN_OR_RETURN(AttributeDistribution dist,
                            BuildDistribution(column));
  return RegisterDistribution(key, std::move(dist), spec);
}

Status SynopsisCatalog::RegisterDistribution(const std::string& key,
                                             AttributeDistribution dist,
                                             const SynopsisSpec& spec) {
  {
    // Fast-fail on duplicates before the build; re-checked at insert.
    MutexLock lock(mu_);
    if (entries_.contains(key)) {
      return AlreadyExistsError(StrCat("catalog entry '", key, "' exists"));
    }
  }
  // The synopsis build (which ends in its flat compile) is the expensive
  // part; run
  // them outside the lock so concurrent registrations of different keys
  // build in parallel. The raw counts are not retained — the synopsis is
  // the point.
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> flat,
                            BuildSynopsis(spec, dist.counts));
  MutexLock lock(mu_);
  if (!entries_.emplace(key, Entry{dist.domain_lo, spec.method,
                                   std::move(flat)})
           .second) {
    return AlreadyExistsError(StrCat("catalog entry '", key, "' exists"));
  }
  return OkStatus();
}

Result<const SynopsisCatalog::Entry*> SynopsisCatalog::FindLocked(
    const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("no catalog entry '", key, "'"));
  }
  return &it->second;
}

Result<std::shared_ptr<const FlatSynopsis>> SynopsisCatalog::FlatView(
    const std::string& key) const {
  MutexLock lock(mu_);
  RANGESYN_ASSIGN_OR_RETURN(const Entry* entry, FindLocked(key));
  return entry->flat;
}

Status SynopsisCatalog::Evict(const std::string& key) {
  // Outstanding FlatView holders keep their (shared) storage alive; this
  // only drops the catalog's references, so later lookups fail NotFound.
  MutexLock lock(mu_);
  if (entries_.erase(key) == 0) {
    return NotFoundError(StrCat("no catalog entry '", key, "'"));
  }
  return OkStatus();
}

Result<double> SynopsisCatalog::EstimateCountBetweenLocked(
    const std::string& key, int64_t lo, int64_t hi) const {
  if (hi < lo) return InvalidArgumentError("EstimateCountBetween: hi < lo");
  RANGESYN_ASSIGN_OR_RETURN(const Entry* entry, FindLocked(key));
  // Clip the value range to the registered domain.
  const int64_t d_lo = entry->domain_lo;
  const int64_t d_hi = entry->domain_lo + entry->flat->n() - 1;
  const int64_t c_lo = std::max(lo, d_lo);
  const int64_t c_hi = std::min(hi, d_hi);
  if (c_lo > c_hi) return 0.0;
  const int64_t a = c_lo - d_lo + 1;
  const int64_t b = c_hi - d_lo + 1;
  return entry->flat->EstimateOne(a, b);
}

Result<double> SynopsisCatalog::EstimateCountBetween(const std::string& key,
                                                     int64_t lo,
                                                     int64_t hi) const {
  MutexLock lock(mu_);
  return EstimateCountBetweenLocked(key, lo, hi);
}

Result<double> SynopsisCatalog::EstimateEquals(const std::string& key,
                                               int64_t v) const {
  return EstimateCountBetween(key, v, v);
}

Result<double> SynopsisCatalog::EstimateSelectivityLocked(
    const std::string& key, int64_t lo, int64_t hi) const {
  RANGESYN_ASSIGN_OR_RETURN(const Entry* entry, FindLocked(key));
  const int64_t d_lo = entry->domain_lo;
  const int64_t d_hi = entry->domain_lo + entry->flat->n() - 1;
  RANGESYN_ASSIGN_OR_RETURN(double total,
                            EstimateCountBetweenLocked(key, d_lo, d_hi));
  if (total <= 0.0) return 0.0;
  RANGESYN_ASSIGN_OR_RETURN(double hits,
                            EstimateCountBetweenLocked(key, lo, hi));
  return std::clamp(hits / total, 0.0, 1.0);
}

Result<double> SynopsisCatalog::EstimateSelectivity(const std::string& key,
                                                    int64_t lo,
                                                    int64_t hi) const {
  MutexLock lock(mu_);
  return EstimateSelectivityLocked(key, lo, hi);
}

Result<double> SynopsisCatalog::EstimateConjunctionSelectivity(
    const std::vector<Predicate>& predicates) const {
  if (predicates.empty()) {
    return InvalidArgumentError(
        "EstimateConjunctionSelectivity: empty conjunction");
  }
  MutexLock lock(mu_);
  double selectivity = 1.0;
  for (const Predicate& p : predicates) {
    RANGESYN_ASSIGN_OR_RETURN(double s,
                              EstimateSelectivityLocked(p.key, p.lo, p.hi));
    selectivity *= s;
  }
  return selectivity;
}

Result<int64_t> SynopsisCatalog::StorageWords(const std::string& key) const {
  MutexLock lock(mu_);
  RANGESYN_ASSIGN_OR_RETURN(const Entry* entry, FindLocked(key));
  return entry->flat->StorageWords();
}

int64_t SynopsisCatalog::TotalStorageWords() const {
  MutexLock lock(mu_);
  int64_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry.flat->StorageWords();
  }
  return total;
}

namespace {

constexpr uint32_t kCatalogMagic = 0x52534343;  // "RSCC"
// v3: magic, version, count, then per entry a length-prefixed blob
//     followed by its own CRC32C, and finally a CRC32C trailer over the
//     whole preceding buffer. A blob is the key, domain_lo and method,
//     then the synopsis' RSF1 bytes to the blob's end. The per-entry
//     checksums are what make quarantine possible: damage stays localized
//     to one blob. v1 (inline entries) and v2 (stream-format synopses)
//     are refused.
constexpr uint8_t kCatalogVersion = 3;
constexpr size_t kCatalogHeaderSize = 9;  // magic + version + count
constexpr size_t kCatalogTrailerSize = 4;

/// Best-effort key of a blob that failed its CRC, for the quarantine
/// report; garbage keys are acceptable.
std::string BlobKeyOrEmpty(std::string_view blob) {
  ByteReader r(blob);
  Result<std::string> key = r.ReadString();
  return key.ok() ? std::move(key.value()) : std::string();
}

}  // namespace

Result<std::string> SynopsisCatalog::Serialize() const {
  MutexLock lock(mu_);
  ByteWriter w;
  w.WriteU32(kCatalogMagic);
  w.WriteU8(kCatalogVersion);
  w.WriteU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [key, entry] : entries_) {
    ByteWriter ew;
    ew.WriteString(key);
    ew.WriteI64(entry.domain_lo);
    ew.WriteString(entry.method);
    RANGESYN_ASSIGN_OR_RETURN(const std::string synopsis,
                              EncodeFlatSynopsis(*entry.flat));
    std::string blob = ew.Release();
    blob += synopsis;
    w.WriteString(blob);
    w.WriteU32(Crc32c(blob));
  }
  std::string body = w.Release();
  ByteWriter trailer;
  trailer.WriteU32(Crc32c(body));
  body += trailer.Release();
  return body;
}

Result<SynopsisCatalog> SynopsisCatalog::Deserialize(
    std::string_view bytes) {
  return DeserializeWithReport(bytes, nullptr);
}

Result<SynopsisCatalog> SynopsisCatalog::DeserializeWithReport(
    std::string_view bytes, LoadReport* report) {
  // Null report <=> strict mode: the first entry-level failure rejects the
  // whole buffer instead of quarantining it.
  const bool strict = report == nullptr;
  if (bytes.size() < kCatalogHeaderSize + kCatalogTrailerSize) {
    return InvalidArgumentError("catalog deserialize: truncated");
  }
  const std::string_view body =
      bytes.substr(0, bytes.size() - kCatalogTrailerSize);
  ByteReader r(body);
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t magic, r.ReadU32());
  if (magic != kCatalogMagic) {
    return InvalidArgumentError("catalog deserialize: bad magic");
  }
  RANGESYN_ASSIGN_OR_RETURN(const uint8_t version, r.ReadU8());
  if (version != kCatalogVersion) {
    return InvalidArgumentError(
        StrCat("catalog deserialize: unsupported version ", version));
  }
  ByteReader tr(bytes.substr(body.size()));
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t stored, tr.ReadU32());
  if (Crc32c(body) != stored && strict) {
    return InvalidArgumentError(
        "catalog deserialize: CRC32C mismatch (corrupt catalog)");
  }
  // Lenient mode proceeds on a trailer mismatch: the per-entry checksums
  // below localize the damage to individual blobs.
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t count, r.ReadU32());
  if (report != nullptr) {
    report->entries_total = static_cast<int64_t>(count);
    report->entries_loaded = 0;
    report->quarantined.clear();
  }
  SynopsisCatalog catalog;
  uint64_t quarantined = 0;
  for (uint32_t i = 0; i < count; ++i) {
    // The framing (length prefix + CRC word) must parse even when the
    // blob inside is garbage; a framing failure is unrecoverable because
    // the stream position is lost.
    RANGESYN_ASSIGN_OR_RETURN(const std::string blob, r.ReadString());
    RANGESYN_ASSIGN_OR_RETURN(const uint32_t blob_crc, r.ReadU32());
    std::string key;
    Entry entry;
    const auto parse = [&]() -> Status {
      if (Crc32c(blob) != blob_crc) {
        key = BlobKeyOrEmpty(blob);
        return InvalidArgumentError(
            "catalog entry: CRC32C mismatch (corrupt entry)");
      }
      ByteReader er(blob);
      RANGESYN_ASSIGN_OR_RETURN(key, er.ReadString());
      RANGESYN_ASSIGN_OR_RETURN(entry.domain_lo, er.ReadI64());
      RANGESYN_ASSIGN_OR_RETURN(entry.method, er.ReadString());
      RANGESYN_ASSIGN_OR_RETURN(
          entry.flat,
          DecodeFlatSynopsis(std::string_view(blob).substr(
              blob.size() - er.remaining())));
      if (entry.domain_lo >
          std::numeric_limits<int64_t>::max() - (entry.flat->n() - 1)) {
        return InvalidArgumentError(StrCat(
            "catalog deserialize: domain overflows for '", key, "'"));
      }
      // `catalog` is function-local, but its map is guarded: take its
      // lock for the insert so the capability contract holds everywhere.
      MutexLock lock(catalog.mu_);
      if (!catalog.entries_.emplace(key, std::move(entry)).second) {
        return InvalidArgumentError(
            StrCat("duplicate catalog key '", key, "'"));
      }
      return OkStatus();
    };
    const Status entry_status = parse();
    if (!entry_status.ok()) {
      if (strict) return entry_status;
      ++quarantined;
      RANGESYN_LOG_EVENT(Warning, "engine.catalog.entry_quarantined")
          .Arg("index", static_cast<int64_t>(i))
          .Arg("key", key)
          .Arg("reason", entry_status.message());
      report->quarantined.push_back(
          {std::move(key), std::string(entry_status.message())});
      continue;
    }
    if (report != nullptr) ++report->entries_loaded;
  }
  if (!r.AtEnd()) {
    if (strict) {
      return InvalidArgumentError(
          "catalog deserialize: trailing bytes after entries");
    }
    report->quarantined.push_back(
        {std::string(), "trailing bytes after entries"});
  }
  RANGESYN_OBS_COUNTER_ADD("engine.catalog.quarantined", quarantined);
#if RANGESYN_OBS_ENABLED
  if (quarantined > 0) {
    // Quarantine is trigger class 4 (flight.h): one dump per load carrying
    // the per-entry quarantine events above plus a metrics snapshot.
    ::rangesyn::obs::FlightRecorder::Get().AutoDump("catalog_quarantine");
  }
#endif
  return catalog;
}

Status SynopsisCatalog::SaveToFile(const std::string& path) const {
  RANGESYN_FAILPOINT("engine.catalog.save");
  RANGESYN_ASSIGN_OR_RETURN(std::string bytes, Serialize());
  return AtomicWriteFile(path, bytes);
}

Result<SynopsisCatalog> SynopsisCatalog::LoadFromFile(
    const std::string& path) {
  return LoadFromFileWithReport(path, nullptr);
}

Result<SynopsisCatalog> SynopsisCatalog::LoadFromFileWithReport(
    const std::string& path, LoadReport* report) {
  RANGESYN_FAILPOINT("engine.catalog.load");
  RANGESYN_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return DeserializeWithReport(bytes, report);
}

std::vector<SynopsisCatalog::EntryInfo> SynopsisCatalog::ListEntries() const {
  MutexLock lock(mu_);
  std::vector<EntryInfo> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    out.push_back({key, entry.method, entry.flat->StorageWords(),
                   entry.domain_lo, entry.domain_lo + entry.flat->n() - 1});
  }
  return out;
}

}  // namespace rangesyn
