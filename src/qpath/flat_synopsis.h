#ifndef RANGESYN_QPATH_FLAT_SYNOPSIS_H_
#define RANGESYN_QPATH_FLAT_SYNOPSIS_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/result.h"

namespace rangesyn {

/// How an averaging histogram rounds its answers (kAvgHistogram's aux
/// tag). The paper's eq. (1) rounds "to a nearby integer in an arbitrary
/// way"; the OPT-A dynamic program in this library instantiates that
/// freedom by rounding each partial end piece separately (kPerPiece),
/// which keeps the per-piece errors integral (DESIGN.md §3.1).
enum class PieceRounding {
  kNone,      // return the exact real-valued formula
  kPerPiece,  // round each partial end piece to nearest (ties to even)
  kWhole,     // round the final sum once
};

/// Kind tag of a flat-compiled synopsis, stored in the RSF1 header
/// (qpath/flat_file.h). The values are part of the on-disk format.
enum class FlatKind : uint8_t {
  kAvgHistogram = 1,
  kSap0 = 2,
  kSap1 = 3,
  kNaive = 4,
  kWavelet = 5,
  kSap2 = 6,
  kWeightedSap0 = 7,
};

/// One range query 1 <= a <= b <= n, for the batched entry point.
struct FlatQuery {
  int64_t a = 0;
  int64_t b = 0;
};

/// The one query path of the library (DESIGN.md §11): an immutable
/// structure-of-arrays view of a built synopsis that answers range-sum
/// queries s[a,b] = sum of A[a..b] (1-based, inclusive). Every builder's
/// record (AvgHistogram, Sap0Histogram, WaveletSynopsis, ...) compiles
/// itself into one through FromVectors; evaluation, the catalog, the CLI
/// and the server all answer through it. All state lives in exactly two
/// contiguous buffers — one of int64 words, one of doubles — held alive
/// by one `backing` handle: the heap vectors a record's Compile filled,
/// an mmap'd RSF1 file, or a decoded copy of RSF1 bytes. Queries behave
/// identically over each.
///
/// Beside the two buffers a synopsis carries its builder's name and
/// paper storage words (one word per stored boundary or summary value,
/// the x-axis of the paper's Figure 1), stored in the RSF1 header, so a
/// reopened synopsis reports what its builder did.
///
/// Layouts (B = num_buckets, P = padded_size, L = log2(P)):
///
///   histogram kinds — i64 buffer:
///     [0, B)         ends        sorted 1-based bucket right endpoints
///
///   f64 buffer by kind (cum = cumulative bucket mass, B+1 entries):
///     kAvgHistogram   cum | values[B]                      aux = rounding
///     kSap0           cum | suff[B] | pref[B] | avg[B]
///     kWeightedSap0   cum | suff[B] | pref[B] | avg[B]
///     kSap1           cum | ss[B] | si[B] | ps[B] | pi[B] | avg[B]
///     kSap2           cum | suff c0,c1,c2 ×B | pref c0,c1,c2 ×B | avg[B]
///     kNaive          avg[1]                   (no i64 words, B = 0)
///     kWavelet        heights[L+1] | table[P]  aux = domain, no i64 words
///
/// The wavelet table is the *dense* coefficient vector (absent
/// coefficients are 0.0), indexed by the Haar layout position, so each
/// ancestor of a Haar walk is one direct load. Adding a 0.0-weighted term
/// cannot change any IEEE-754 sum that a skip-if-absent walk over the
/// retained coefficients produces, so the dense walk answers what the
/// sparse one would.
///
/// Three tables are derived at construction and are not part of RSF1:
///   - a histogram view with n <= kMaxEndTableN holds, per position i,
///     i's bucket and the kind's left piece (a range starting at i) and
///     right piece (a range ending at i) (see `end_`), so a range that
///     spans buckets is table loads plus the `cum` subtraction;
///   - a histogram view above that bound searches its buckets through a
///     hint table (see `hint_`) and a short forward scan over `ends`,
///     returning the same lower_bound index Partition::BucketOf computes;
///   - a prefix-domain wavelet (aux = 1) holds its n + 1 reconstructed
///     prefix sums (see `prefix_`), so a range is one subtraction
///     instead of two Haar walks.
/// Every derived entry is computed by the expression the kernel would
/// otherwise evaluate per query, so answers keep their bits.
///
/// Lifetime contract (machine-checked, DESIGN.md §6.4): FlatSynopsis is
/// a RANGESYN_OWNER_TYPE — it keeps alive via `backing_` every byte its
/// spans and section pointers reference, so caching them in its own
/// members is sanctioned. The factories are RANGESYN_LENDS_VIEW: the
/// shared_ptr they hand out is the keep-alive handle, and callers must
/// hold it for as long as any span obtained from the synopsis.
class RANGESYN_OWNER_TYPE FlatSynopsis {
 public:
  /// Assembles a view over buffers that `backing` keeps alive for the
  /// synopsis' lifetime (a record's compiled vectors, an mmap'd file, or
  /// a copy of RSF1 bytes). The buffers are structurally validated (counts,
  /// strictly increasing ends reaching n, the wavelet height table) so a
  /// malformed file can never cause an out-of-bounds query-time access.
  /// `name` and `storage_words` are the builder's (class comment).
  RANGESYN_LENDS_VIEW static Result<std::shared_ptr<const FlatSynopsis>>
  FromBuffers(
      FlatKind kind, uint8_t aux, int64_t n, int64_t num_buckets,
      int64_t padded_size, std::span<const int64_t> i64s,
      std::span<const double> f64s, std::shared_ptr<const void> backing,
      std::string name = {}, int64_t storage_words = 0);

  /// FromBuffers over sections the view takes ownership of: how a
  /// builder's record compiles itself (e.g. AvgHistogram::Compile).
  RANGESYN_LENDS_VIEW static Result<std::shared_ptr<const FlatSynopsis>>
  FromVectors(FlatKind kind, uint8_t aux, int64_t n, int64_t num_buckets,
              int64_t padded_size, std::vector<int64_t> i64s,
              std::vector<double> f64s, std::string name,
              int64_t storage_words);

  /// FromVectors for a histogram record: `ends` is the i64 section; the
  /// f64 section is the `cum` table of `mass_values` (cum[k] = sum over
  /// buckets j < k of width_j * mass_values[j]) followed by `tail`, the
  /// kind's other sections in layout order.
  RANGESYN_LENDS_VIEW static Result<std::shared_ptr<const FlatSynopsis>>
  FromHistogram(FlatKind kind, uint8_t aux, int64_t n,
                std::vector<int64_t> ends, std::span<const double> mass_values,
                std::initializer_list<std::span<const double>> tail,
                std::string name, int64_t storage_words);

  /// The wavelet f64 section's leading per-level basis heights:
  /// heights[j] = 1/sqrt(padded_size >> j) for j = 0..log2(padded_size).
  static std::vector<double> LevelHeights(int64_t padded_size);

  /// Largest n whose histogram view derives per-position end tables
  /// (DESIGN.md §11.1). Above it a view searches its buckets per query.
  static constexpr int64_t kMaxEndTableN = int64_t{1} << 16;

  /// Answer for one range query; a point query A[i] is EstimateOne(i, i).
  /// Requires 1 <= a <= b <= n (DCHECK'd only).
  RANGESYN_HOT_PATH double EstimateOne(int64_t a, int64_t b) const;

  /// Per-caller batch state. EstimateMany needs none: every table it
  /// reads is derived at construction. The type stays so batch callers
  /// keep their signature.
  struct BatchScratch {};

  /// Batched queries: answers queries[i] into out[i], in input order.
  /// Dispatches on the kind once and runs one loop over that kind's
  /// kernel, the same kernel EstimateOne calls, so a batch is
  /// bit-identical to the matching single-query calls. `out.size()` must
  /// equal `queries.size()`. Each range is checked against
  /// 1 <= a <= b <= n in the loop; the first one outside it fails the
  /// batch with InvalidArgument "range [a, b] outside domain [1, n]"
  /// (slots before it hold their answers, the rest are unspecified).
  RANGESYN_HOT_PATH Status EstimateMany(std::span<const FlatQuery> queries,
                                        std::span<double> out,
                                        BatchScratch* scratch) const;

  /// Convenience overload without a scratch.
  Status EstimateMany(std::span<const FlatQuery> queries,
                      std::span<double> out) const;

  FlatKind kind() const { return kind_; }
  uint8_t aux() const { return aux_; }
  int64_t n() const { return n_; }
  int64_t num_buckets() const { return num_buckets_; }
  int64_t padded_size() const { return padded_size_; }
  /// Heap bytes of the derived tables (class comment): the end tables,
  /// the bucket-hint table and the wavelet prefix sums.
  int64_t DerivedBytes() const;
  /// The raw buffers; valid only while this synopsis (or a shared_ptr
  /// to it) is alive.
  RANGESYN_LENDS_VIEW std::span<const int64_t> i64s() const { return i64_; }
  RANGESYN_LENDS_VIEW std::span<const double> f64s() const { return f64_; }

  /// The builder's name (e.g. "OPT-A" or "SAP0") and paper storage
  /// accounting (not the size of the flat buffers).
  const std::string& Name() const { return name_; }
  int64_t StorageWords() const { return storage_words_; }

 private:
  FlatSynopsis() = default;

  /// Validates the layout described in the class comment, wires the
  /// per-kind raw pointers and derives the bucket-hint and prefix tables.
  /// Called once per construction; cold.
  RANGESYN_COLD_PATH Status InitAndValidate();

  // The query kernels, shared by EstimateOne and EstimateMany's per-kind
  // loops. A histogram kernel takes its buckets and end pieces from the
  // end tables (kTabled) or from the hint search and the piece formulas
  // below, the ones the tables are filled with. The kernels are always
  // inlined, so a batch loop makes no call per range.
  template <bool kTabled>
  RANGESYN_HOT_PATH double EstimateWith(int64_t a, int64_t b) const;
  template <typename Kernel>
  RANGESYN_HOT_PATH Status AnswerAll(std::span<const FlatQuery> queries,
                                     std::span<double> out,
                                     Kernel kernel) const;
  template <bool kTabled>
  RANGESYN_HOT_PATH Status AnswerHistogram(std::span<const FlatQuery> queries,
                                           std::span<double> out) const;

  template <bool kTabled>
  [[gnu::always_inline]] RANGESYN_HOT_PATH int64_t BucketAt(int64_t i) const {
    return kTabled ? end_[static_cast<size_t>(i)].bucket : BucketOfFlat(i);
  }
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline int64_t BucketOfFlat(
      int64_t i) const;
  RANGESYN_COLD_PATH void BuildBucketHint();
  RANGESYN_COLD_PATH void BuildEndTable();
  RANGESYN_HOT_PATH int64_t BucketStart(int64_t k) const {
    return k == 0 ? 1 : ends_[k - 1] + 1;
  }
  RANGESYN_HOT_PATH int64_t BucketEnd(int64_t k) const { return ends_[k]; }

  // End pieces of a range [a, b] with a in bucket ka and b in bucket kb,
  // ka < kb. The kernels add them in one fixed order per kind, the order
  // every stored answer and golden was computed in: AVG left + middle +
  // right; SAP0 left + middle + right; SAP1 left + right + pi[kb] +
  // middle; SAP2 left + right + middle.
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double AvgLeft(
      int64_t a, int64_t ka) const;
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double AvgRight(
      int64_t b, int64_t kb) const;
  RANGESYN_HOT_PATH double Sap0Left(int64_t /*a*/, int64_t ka) const {
    return f_a_[ka];
  }
  RANGESYN_HOT_PATH double Sap0Right(int64_t /*b*/, int64_t kb) const {
    return f_b_[kb];
  }
  RANGESYN_HOT_PATH double Sap1Left(int64_t a, int64_t ka) const {
    return static_cast<double>(BucketEnd(ka) - a + 1) * f_a_[ka] + f_b_[ka];
  }
  RANGESYN_HOT_PATH double Sap1Right(int64_t b, int64_t kb) const {
    return static_cast<double>(b - BucketStart(kb) + 1) * f_c_[kb];
  }
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double Sap2Left(
      int64_t a, int64_t ka) const;
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double Sap2Right(
      int64_t b, int64_t kb) const;

  RANGESYN_HOT_PATH double EstimateNaive(int64_t a, int64_t b) const {
    return static_cast<double>(b - a + 1) * avg_[0];
  }
  template <bool kTabled>
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double EstimateAvg(
      int64_t a, int64_t b) const;
  template <bool kTabled>
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double EstimateSap0(
      int64_t a, int64_t b) const;
  template <bool kTabled>
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double EstimateSap1(
      int64_t a, int64_t b) const;
  template <bool kTabled>
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double EstimateSap2(
      int64_t a, int64_t b) const;
  [[gnu::always_inline]] RANGESYN_HOT_PATH inline double EstimateWavelet(
      int64_t a, int64_t b) const;
  double WaveReconstructAt(int64_t t) const;
  RANGESYN_HOT_PATH double WaveReconstructRangeSum(int64_t lo,
                                                   int64_t hi) const;

  // Keep-alive handle for the storage the spans below point into.
  std::shared_ptr<const void> backing_;
  std::span<const int64_t> i64_;
  std::span<const double> f64_;

  FlatKind kind_ = FlatKind::kNaive;
  uint8_t aux_ = 0;
  int64_t n_ = 0;
  int64_t num_buckets_ = 0;
  int64_t padded_size_ = 0;
  std::string name_;
  int64_t storage_words_ = 0;

  // Derived section pointers (into i64_/f64_), set by InitAndValidate.
  const int64_t* ends_ = nullptr;
  const double* cum_ = nullptr;
  const double* f_a_ = nullptr;  // values / suff / ss / suff models
  const double* f_b_ = nullptr;  // pref / si / pref models
  const double* f_c_ = nullptr;  // ps
  const double* f_d_ = nullptr;  // pi
  const double* avg_ = nullptr;  // bucket averages (or the naive average)
  const double* heights_ = nullptr;  // wavelet per-level basis heights
  const double* table_ = nullptr;    // dense Haar coefficient table
  int levels_ = 0;                   // wavelet levels: log2(padded_size_)

  // Histogram views with n <= kMaxEndTableN only: end_[i] for i = 1..n
  // holds i's bucket, the kind's left piece of a range starting at i and
  // its right piece of a range ending at i (entry 0 is unused). Derived
  // at construction (not part of the on-disk format) by the piece
  // functions above, so each entry is the double the formula returns. A
  // left piece in the last bucket and a right piece in the first are
  // never read and hold 0.0. 24(n + 1) bytes.
  struct EndPieces {
    double left = 0.0;
    double right = 0.0;
    int64_t bucket = 0;
  };
  std::vector<EndPieces> end_;

  // Bucket-search accelerator for histogram views above kMaxEndTableN,
  // derived at construction (not part of the on-disk format):
  // hint_[i >> hint_shift_] is the bucket of the first domain position
  // in that block, so a search is one table load plus a short forward
  // scan over the boundaries the block spans. The table is capped at 4K
  // entries to stay cache-resident; InitAndValidate caps the bucket
  // count so every index fits a uint32.
  std::vector<uint32_t> hint_;
  int hint_shift_ = 0;

  // Prefix-domain wavelets only: prefix_[t] = WaveReconstructAt(t) for
  // t = 0..n, derived at construction (not part of the on-disk format).
  // Each entry is the very double the walk returns, so P[b] - P[a-1]
  // read from it is bit-identical to walking both prefixes per query.
  // 8(n + 1) bytes, at most the size of the coefficient table.
  std::vector<double> prefix_;
};

}  // namespace rangesyn

#endif  // RANGESYN_QPATH_FLAT_SYNOPSIS_H_
