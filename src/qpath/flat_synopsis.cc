#include "qpath/flat_synopsis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <utility>

#include "core/logging.h"
#include "core/mathutil.h"
#include "core/strings.h"

namespace rangesyn {
namespace {

/// A SAP2 quadratic model c0 + c1*x + c2*x² in the piece length x.
RANGESYN_HOT_PATH inline double ModelAt(const double* m, double x) {
  return m[0] + m[1] * x + m[2] * x * x;
}

/// EstimateMany's error for its first range outside 1 <= a <= b <= n.
/// The server sends the message as its MALFORMED reply text.
RANGESYN_COLD_PATH [[gnu::cold, gnu::noinline]] Status RangeOutsideDomain(
    int64_t a, int64_t b, int64_t n) {
  return InvalidArgumentError(
      StrCat("range [", a, ", ", b, "] outside domain [1, ", n, "]"));
}

/// Bucket indices live in the uint32 hint table.
constexpr int64_t kMaxFlatBuckets = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMaxFlatPadded = int64_t{1} << 40;

/// Heap storage of a compiled synopsis. FromVectors holds it as its
/// `backing`, the same keep-alive an mmap'd RSF1 file uses.
struct FlatBuffers {
  std::vector<int64_t> i64s;
  std::vector<double> f64s;
};

}  // namespace

Result<std::shared_ptr<const FlatSynopsis>> FlatSynopsis::FromBuffers(
    FlatKind kind, uint8_t aux, int64_t n, int64_t num_buckets,
    int64_t padded_size, std::span<const int64_t> i64s,
    std::span<const double> f64s, std::shared_ptr<const void> backing,
    std::string name, int64_t storage_words) {
  // make_shared cannot reach the private constructor; the raw new is
  // immediately owned.
  std::shared_ptr<FlatSynopsis> s(new FlatSynopsis());  // lint: waive(LINT-004)
  s->kind_ = kind;
  s->aux_ = aux;
  s->n_ = n;
  s->num_buckets_ = num_buckets;
  s->padded_size_ = padded_size;
  s->name_ = std::move(name);
  s->storage_words_ = storage_words;
  s->backing_ = std::move(backing);
  s->i64_ = i64s;
  s->f64_ = f64s;
  RANGESYN_RETURN_IF_ERROR(s->InitAndValidate());
  return std::shared_ptr<const FlatSynopsis>(std::move(s));
}

Result<std::shared_ptr<const FlatSynopsis>> FlatSynopsis::FromVectors(
    FlatKind kind, uint8_t aux, int64_t n, int64_t num_buckets,
    int64_t padded_size, std::vector<int64_t> i64s, std::vector<double> f64s,
    std::string name, int64_t storage_words) {
  auto owned = std::make_shared<const FlatBuffers>(
      FlatBuffers{std::move(i64s), std::move(f64s)});
  return FromBuffers(kind, aux, n, num_buckets, padded_size, owned->i64s,
                     owned->f64s, owned, std::move(name), storage_words);
}

Result<std::shared_ptr<const FlatSynopsis>> FlatSynopsis::FromHistogram(
    FlatKind kind, uint8_t aux, int64_t n, std::vector<int64_t> ends,
    std::span<const double> mass_values,
    std::initializer_list<std::span<const double>> tail, std::string name,
    int64_t storage_words) {
  size_t f64_size = ends.size() + 1;
  for (std::span<const double> section : tail) f64_size += section.size();
  std::vector<double> f64s;
  f64s.reserve(f64_size);
  f64s.push_back(0.0);
  int64_t start = 1;
  for (size_t k = 0; k < ends.size() && k < mass_values.size(); ++k) {
    const int64_t width = ends[k] - start + 1;
    f64s.push_back(f64s.back() + static_cast<double>(width) * mass_values[k]);
    start = ends[k] + 1;
  }
  for (std::span<const double> section : tail) {
    f64s.insert(f64s.end(), section.begin(), section.end());
  }
  const int64_t num_buckets = static_cast<int64_t>(ends.size());
  return FromVectors(kind, aux, n, num_buckets, 0, std::move(ends),
                     std::move(f64s), std::move(name), storage_words);
}

std::vector<double> FlatSynopsis::LevelHeights(int64_t padded_size) {
  // The expression haar.h's DescribeBasis evaluates per call, hoisted to
  // one evaluation per level (identical IEEE-754 result).
  const int levels = FloorLog2(static_cast<uint64_t>(padded_size));
  std::vector<double> heights(static_cast<size_t>(levels) + 1);
  for (int j = 0; j <= levels; ++j) {
    heights[static_cast<size_t>(j)] =
        1.0 / std::sqrt(static_cast<double>(padded_size >> j));
  }
  return heights;
}

Status FlatSynopsis::InitAndValidate() {
  const int64_t buckets = num_buckets_;
  const bool histogram_kind =
      kind_ == FlatKind::kAvgHistogram || kind_ == FlatKind::kSap0 ||
      kind_ == FlatKind::kSap1 || kind_ == FlatKind::kSap2 ||
      kind_ == FlatKind::kWeightedSap0;
  if (n_ < 1) return InvalidArgumentError("FlatSynopsis: n must be >= 1");
  if (storage_words_ < 0) {
    return InvalidArgumentError("FlatSynopsis: negative storage words");
  }

  if (histogram_kind) {
    if (padded_size_ != 0) {
      return InvalidArgumentError(
          "FlatSynopsis: padded_size must be 0 for histogram kinds");
    }
    if (buckets < 1 || buckets > n_ || buckets > kMaxFlatBuckets) {
      return InvalidArgumentError("FlatSynopsis: bad bucket count");
    }
    if (static_cast<int64_t>(i64_.size()) != buckets) {
      return InvalidArgumentError("FlatSynopsis: bad i64 section size");
    }
    int64_t expected_f64 = 0;
    switch (kind_) {
      case FlatKind::kAvgHistogram:
        if (aux_ > 2) {
          return InvalidArgumentError("FlatSynopsis: bad rounding tag");
        }
        expected_f64 = 2 * buckets + 1;
        break;
      case FlatKind::kSap0:
      case FlatKind::kWeightedSap0:
        if (aux_ != 0) return InvalidArgumentError("FlatSynopsis: bad aux");
        expected_f64 = 4 * buckets + 1;
        break;
      case FlatKind::kSap1:
        if (aux_ != 0) return InvalidArgumentError("FlatSynopsis: bad aux");
        expected_f64 = 6 * buckets + 1;
        break;
      case FlatKind::kSap2:
        if (aux_ != 0) return InvalidArgumentError("FlatSynopsis: bad aux");
        expected_f64 = 8 * buckets + 1;
        break;
      default:
        return InvalidArgumentError("FlatSynopsis: unreachable kind");
    }
    if (static_cast<int64_t>(f64_.size()) != expected_f64) {
      return InvalidArgumentError("FlatSynopsis: bad f64 section size");
    }

    // Boundaries must be strictly increasing 1-based endpoints covering
    // 1..n, so every bucket search stops inside the ends section.
    const int64_t* ends = i64_.data();
    int64_t prev = 0;
    for (int64_t k = 0; k < buckets; ++k) {
      if (ends[k] <= prev || ends[k] > n_) {
        return InvalidArgumentError("FlatSynopsis: boundaries not sorted");
      }
      prev = ends[k];
    }
    if (ends[buckets - 1] != n_) {
      return InvalidArgumentError("FlatSynopsis: last boundary != n");
    }
    ends_ = i64_.data();
    cum_ = f64_.data();
    const double* after_cum = f64_.data() + buckets + 1;
    switch (kind_) {
      case FlatKind::kAvgHistogram:
        f_a_ = after_cum;  // stored values
        avg_ = after_cum;
        break;
      case FlatKind::kSap0:
      case FlatKind::kWeightedSap0:
        f_a_ = after_cum;                // suffix values
        f_b_ = after_cum + buckets;      // prefix values
        avg_ = after_cum + 2 * buckets;  // bucket averages
        break;
      case FlatKind::kSap1:
        f_a_ = after_cum;                // suffix slopes
        f_b_ = after_cum + buckets;      // suffix intercepts
        f_c_ = after_cum + 2 * buckets;  // prefix slopes
        f_d_ = after_cum + 3 * buckets;  // prefix intercepts
        avg_ = after_cum + 4 * buckets;
        break;
      case FlatKind::kSap2:
        f_a_ = after_cum;                    // suffix models, 3 per bucket
        f_b_ = after_cum + 3 * buckets;      // prefix models, 3 per bucket
        avg_ = after_cum + 6 * buckets;
        break;
      default:
        return InvalidArgumentError("FlatSynopsis: unreachable kind");
    }
    if (n_ <= kMaxEndTableN) {
      BuildEndTable();
    } else {
      BuildBucketHint();
    }
    return OkStatus();
  }

  if (kind_ == FlatKind::kNaive) {
    if (buckets != 0 || padded_size_ != 0 || aux_ != 0 || !i64_.empty() ||
        f64_.size() != 1) {
      return InvalidArgumentError("FlatSynopsis: bad naive layout");
    }
    avg_ = f64_.data();
    return OkStatus();
  }

  if (kind_ == FlatKind::kWavelet) {
    if (buckets != 0 || !i64_.empty()) {
      return InvalidArgumentError("FlatSynopsis: bad wavelet layout");
    }
    if (aux_ > 1) return InvalidArgumentError("FlatSynopsis: bad domain");
    if (padded_size_ < 1 || padded_size_ > kMaxFlatPadded ||
        !IsPowerOfTwo(static_cast<uint64_t>(padded_size_))) {
      return InvalidArgumentError("FlatSynopsis: bad padded_size");
    }
    const bool data_domain = aux_ == 0;
    if ((data_domain && n_ > padded_size_) ||
        (!data_domain && n_ + 1 > padded_size_)) {
      return InvalidArgumentError("FlatSynopsis: n exceeds padded_size");
    }
    levels_ = FloorLog2(static_cast<uint64_t>(padded_size_));
    if (static_cast<int64_t>(f64_.size()) != levels_ + 1 + padded_size_) {
      return InvalidArgumentError("FlatSynopsis: bad f64 section size");
    }
    // The per-level heights are a pure function of padded_size; recompute
    // and compare bitwise so a damaged file cannot skew every answer.
    const std::vector<double> expected = LevelHeights(padded_size_);
    if (std::memcmp(expected.data(), f64_.data(),
                    expected.size() * sizeof(double)) != 0) {
      return InvalidArgumentError(
          "FlatSynopsis: height table disagrees with padded_size");
    }
    heights_ = f64_.data();
    table_ = f64_.data() + levels_ + 1;
    if (!data_domain) {
      // One walk per prefix at open instead of two per query; every entry
      // is the double the walk returns (class comment).
      prefix_.resize(static_cast<size_t>(n_) + 1);
      for (int64_t t = 0; t <= n_; ++t) {
        prefix_[static_cast<size_t>(t)] = WaveReconstructAt(t);
      }
    }
    return OkStatus();
  }

  return InvalidArgumentError("FlatSynopsis: unknown kind tag");
}

void FlatSynopsis::BuildBucketHint() {
  constexpr int kHintBits = 12;  // <= 4096 entries, 16 KiB: L2-resident
  const int n_bits =
      64 - static_cast<int>(std::countl_zero(static_cast<uint64_t>(n_)));
  hint_shift_ = std::max(0, n_bits - kHintBits);
  const size_t blocks = static_cast<size_t>(n_ >> hint_shift_) + 1;
  hint_.resize(blocks);
  // Block starts ascend, so one forward sweep over the ends computes each
  // block's lower_bound; the last end is n, so the sweep stays in range.
  int64_t k = 0;
  for (size_t blk = 0; blk < blocks; ++blk) {
    const int64_t first = std::min(
        n_, std::max<int64_t>(1, static_cast<int64_t>(blk) << hint_shift_));
    while (ends_[k] < first) ++k;
    hint_[blk] = static_cast<uint32_t>(k);
  }
}

void FlatSynopsis::BuildEndTable() {
  end_.resize(static_cast<size_t>(n_) + 1);
  const int64_t last = num_buckets_ - 1;
  // Each entry is computed by the piece function the searching kernel
  // calls, so a table load returns the double that call would.
  const auto fill = [&](auto left, auto right) {
    int64_t k = 0;
    for (int64_t i = 1; i <= n_; ++i) {
      if (ends_[k] < i) ++k;  // strictly increasing ends: one step at most
      EndPieces& e = end_[static_cast<size_t>(i)];
      e.bucket = k;
      if (k < last) e.left = (this->*left)(i, k);
      if (k > 0) e.right = (this->*right)(i, k);
    }
  };
  switch (kind_) {
    case FlatKind::kAvgHistogram:
      fill(&FlatSynopsis::AvgLeft, &FlatSynopsis::AvgRight);
      break;
    case FlatKind::kSap0:
    case FlatKind::kWeightedSap0:
      fill(&FlatSynopsis::Sap0Left, &FlatSynopsis::Sap0Right);
      break;
    case FlatKind::kSap1:
      fill(&FlatSynopsis::Sap1Left, &FlatSynopsis::Sap1Right);
      break;
    case FlatKind::kSap2:
      fill(&FlatSynopsis::Sap2Left, &FlatSynopsis::Sap2Right);
      break;
    default:
      RANGESYN_DCHECK(false);
  }
}

int64_t FlatSynopsis::DerivedBytes() const {
  return static_cast<int64_t>(end_.size() * sizeof(EndPieces) +
                              hint_.size() * sizeof(uint32_t) +
                              prefix_.size() * sizeof(double));
}

int64_t FlatSynopsis::BucketOfFlat(int64_t i) const {
  // One cache-resident load gives the bucket of the block's first
  // position — a lower bound on the answer — then a forward scan over
  // the (strictly increasing) boundaries the block spans finishes the
  // lower_bound. Scan length is the number of buckets starting inside
  // one block: ~B / 4096 on average, 0 for most queries.
  int64_t k = hint_[i >> hint_shift_];
  while (ends_[k] < i) ++k;
  return k;
}

double FlatSynopsis::AvgLeft(int64_t a, int64_t ka) const {
  const double left = static_cast<double>(BucketEnd(ka) - a + 1) * f_a_[ka];
  if (static_cast<PieceRounding>(aux_) != PieceRounding::kPerPiece) {
    return left;
  }
  return static_cast<double>(RoundHalfToEven(left));
}

double FlatSynopsis::AvgRight(int64_t b, int64_t kb) const {
  const double right =
      static_cast<double>(b - BucketStart(kb) + 1) * f_a_[kb];
  if (static_cast<PieceRounding>(aux_) != PieceRounding::kPerPiece) {
    return right;
  }
  return static_cast<double>(RoundHalfToEven(right));
}

double FlatSynopsis::Sap2Left(int64_t a, int64_t ka) const {
  return ModelAt(f_a_ + 3 * ka, static_cast<double>(BucketEnd(ka) - a + 1));
}

double FlatSynopsis::Sap2Right(int64_t b, int64_t kb) const {
  return ModelAt(f_b_ + 3 * kb, static_cast<double>(b - BucketStart(kb) + 1));
}

template <bool kTabled>
double FlatSynopsis::EstimateAvg(int64_t a, int64_t b) const {
  const int64_t ka = BucketAt<kTabled>(a);
  const int64_t kb = BucketAt<kTabled>(b);
  const auto rounding = static_cast<PieceRounding>(aux_);
  if (ka == kb) {
    const double whole = static_cast<double>(b - a + 1) * f_a_[ka];
    if (rounding == PieceRounding::kNone) return whole;
    return static_cast<double>(RoundHalfToEven(whole));
  }
  const double left =
      kTabled ? end_[static_cast<size_t>(a)].left : AvgLeft(a, ka);
  const double right =
      kTabled ? end_[static_cast<size_t>(b)].right : AvgRight(b, kb);
  const double total = left + (cum_[kb] - cum_[ka + 1]) + right;
  if (rounding == PieceRounding::kWhole) {
    return static_cast<double>(RoundHalfToEven(total));
  }
  return total;
}

template <bool kTabled>
double FlatSynopsis::EstimateSap0(int64_t a, int64_t b) const {
  const int64_t ka = BucketAt<kTabled>(a);
  const int64_t kb = BucketAt<kTabled>(b);
  if (ka == kb) {
    return static_cast<double>(b - a + 1) * avg_[ka];
  }
  const double left =
      kTabled ? end_[static_cast<size_t>(a)].left : Sap0Left(a, ka);
  const double right =
      kTabled ? end_[static_cast<size_t>(b)].right : Sap0Right(b, kb);
  return left + (cum_[kb] - cum_[ka + 1]) + right;
}

template <bool kTabled>
double FlatSynopsis::EstimateSap1(int64_t a, int64_t b) const {
  const int64_t ka = BucketAt<kTabled>(a);
  const int64_t kb = BucketAt<kTabled>(b);
  if (ka == kb) {
    return static_cast<double>(b - a + 1) * avg_[ka];
  }
  const double left =
      kTabled ? end_[static_cast<size_t>(a)].left : Sap1Left(a, ka);
  const double right =
      kTabled ? end_[static_cast<size_t>(b)].right : Sap1Right(b, kb);
  return left + right + f_d_[kb] + (cum_[kb] - cum_[ka + 1]);
}

template <bool kTabled>
double FlatSynopsis::EstimateSap2(int64_t a, int64_t b) const {
  const int64_t ka = BucketAt<kTabled>(a);
  const int64_t kb = BucketAt<kTabled>(b);
  if (ka == kb) {
    return static_cast<double>(b - a + 1) * avg_[ka];
  }
  const double left =
      kTabled ? end_[static_cast<size_t>(a)].left : Sap2Left(a, ka);
  const double right =
      kTabled ? end_[static_cast<size_t>(b)].right : Sap2Right(b, kb);
  return left + right + (cum_[kb] - cum_[ka + 1]);
}

double FlatSynopsis::WaveReconstructAt(int64_t t) const {
  RANGESYN_DCHECK(t >= 0 && t < padded_size_);
  // The value at t is the sum, from the DC down, of each ancestor's
  // coefficient times its Haar basis value at t (haar.h's BasisValue),
  // read from the dense table: absent coefficients hold 0.0, and adding
  // a 0.0 * basis term never changes the running IEEE-754 sum. Every
  // level size is a power of two, so the node index and span arithmetic
  // are exact shifts.
  //
  // A node weighs t by +h when t lies in its left half and by -h
  // otherwise, i.e. by bit (shift - 1) of t. Negation is exactly a
  // sign-bit flip, so XOR-ing that bit into the sign of h gives the same
  // operand as a `t < mid ? h : -h` select, without a data-dependent
  // branch (which mispredicts on half the levels).
  double v = 0.0;
  v += table_[0] * heights_[0];  // DC: BasisValue is the height
  const uint64_t u = static_cast<uint64_t>(t);
  for (int shift = levels_, j = 0; shift > 0; --shift, ++j) {
    const int64_t k = (padded_size_ >> shift) + (t >> shift);
    const uint64_t sign = ((u >> (shift - 1)) & 1) << 63;
    const double h = std::bit_cast<double>(
        std::bit_cast<uint64_t>(heights_[j]) ^ sign);
    v += table_[k] * h;
  }
  return v;
}

double FlatSynopsis::WaveReconstructRangeSum(int64_t lo, int64_t hi) const {
  RANGESYN_DCHECK(lo >= 0 && lo <= hi && hi < padded_size_);
  // Only the DC and the ancestors of lo and hi have a nonzero sum over
  // [lo, hi] (haar.h's ForEachAncestorPair); each adds its coefficient
  // times its basis sum over the range (BasisRangeSum, inlined), coarse
  // to fine, the lo node's term before the hi node's. As in
  // WaveReconstructAt, every division/multiplication by a level size is
  // an exact shift.
  //
  // lo and hi share their ancestor at every level coarser than the
  // highest bit where they differ, and have distinct ancestors at every
  // finer one, so the walk splits there instead of testing a_hi != a_lo
  // per level. Below the split the lo node's overlap with [lo, hi] runs
  // from lo to the node's end and the hi node's from the node's start to
  // hi, so no span needs clamping. The counts are exact integers either
  // way, so every term and its order are those of the clamped walk.
  double v = 0.0;
  v += table_[0] *
       (static_cast<double>(hi - lo + 1) * heights_[0]);  // DC term
  const int split =
      static_cast<int>(std::bit_width(static_cast<uint64_t>(lo ^ hi)));
  int shift = levels_;
  int j = 0;
  // Coarse levels: one node holds both ends.
  for (; shift >= std::max(split, 1); --shift, ++j) {
    const int64_t start = (lo >> shift) << shift;
    const int64_t mid = start + (int64_t{1} << (shift - 1));
    const int64_t plus = std::max<int64_t>(0, std::min(hi, mid - 1) - lo + 1);
    const int64_t minus = std::max<int64_t>(0, hi - std::max(lo, mid) + 1);
    v += table_[(padded_size_ >> shift) + (lo >> shift)] *
         (static_cast<double>(plus - minus) * heights_[j]);
  }
  // Finer levels: the lo-node term, then the hi-node term.
  for (; shift > 0; --shift, ++j) {
    const int64_t base = padded_size_ >> shift;
    const int64_t half = int64_t{1} << (shift - 1);
    const double h = heights_[j];
    const int64_t lo_mid = ((lo >> shift) << shift) + half;
    const int64_t lo_plus = std::max<int64_t>(0, lo_mid - lo);
    const int64_t lo_minus = lo_mid + half - std::max(lo, lo_mid);
    v += table_[base + (lo >> shift)] *
         (static_cast<double>(lo_plus - lo_minus) * h);
    const int64_t hi_start = (hi >> shift) << shift;
    const int64_t hi_mid = hi_start + half;
    const int64_t hi_plus = std::min(hi, hi_mid - 1) - hi_start + 1;
    const int64_t hi_minus = std::max<int64_t>(0, hi - hi_mid + 1);
    v += table_[base + (hi >> shift)] *
         (static_cast<double>(hi_plus - hi_minus) * h);
  }
  return v;
}

double FlatSynopsis::EstimateWavelet(int64_t a, int64_t b) const {
  if (aux_ == 0) {  // data domain
    return WaveReconstructRangeSum(a - 1, b - 1);
  }
  // Prefix domain: s[a,b] = P[b] - P[a-1], from the derived table.
  return prefix_[static_cast<size_t>(b)] - prefix_[static_cast<size_t>(a - 1)];
}

template <bool kTabled>
double FlatSynopsis::EstimateWith(int64_t a, int64_t b) const {
  switch (kind_) {
    case FlatKind::kAvgHistogram:
      return EstimateAvg<kTabled>(a, b);
    case FlatKind::kSap0:
    case FlatKind::kWeightedSap0:
      return EstimateSap0<kTabled>(a, b);
    case FlatKind::kSap1:
      return EstimateSap1<kTabled>(a, b);
    case FlatKind::kSap2:
      return EstimateSap2<kTabled>(a, b);
    case FlatKind::kNaive:
      return EstimateNaive(a, b);
    case FlatKind::kWavelet:
      return EstimateWavelet(a, b);
  }
  RANGESYN_DCHECK(false);
  return 0.0;
}

double FlatSynopsis::EstimateOne(int64_t a, int64_t b) const {
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= n_);
  return end_.empty() ? EstimateWith<false>(a, b) : EstimateWith<true>(a, b);
}

template <typename Kernel>
Status FlatSynopsis::AnswerAll(std::span<const FlatQuery> queries,
                               std::span<double> out, Kernel kernel) const {
  const uint64_t n = static_cast<uint64_t>(n_);
  size_t first_bad = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    int64_t a = queries[i].a;
    int64_t b = queries[i].b;
    // 1 <= a <= b <= n in two unsigned compares: a negative b wraps above
    // n, and a < 1 makes a - 1 wrap above every b <= n.
    const bool in_domain = (static_cast<uint64_t>(b) <= n) &
                           (static_cast<uint64_t>(a) - 1 <
                            static_cast<uint64_t>(b));
    // The loop has no exit but its end, so the kernel's loads of this
    // view's section pointers stay hoisted out of it; a bad range is
    // answered as [1, 1] and reported after the loop.
    if (!in_domain) [[unlikely]] {
      first_bad = std::min(first_bad, i);
      a = 1;
      b = 1;
    }
    out[i] = kernel(a, b);
  }
  if (first_bad != queries.size()) [[unlikely]] {
    return RangeOutsideDomain(queries[first_bad].a, queries[first_bad].b, n_);
  }
  return OkStatus();
}

template <bool kTabled>
Status FlatSynopsis::AnswerHistogram(std::span<const FlatQuery> queries,
                                     std::span<double> out) const {
  switch (kind_) {
    case FlatKind::kAvgHistogram:
      return AnswerAll(queries, out, [this](int64_t a, int64_t b) {
        return EstimateAvg<kTabled>(a, b);
      });
    case FlatKind::kSap0:
    case FlatKind::kWeightedSap0:
      return AnswerAll(queries, out, [this](int64_t a, int64_t b) {
        return EstimateSap0<kTabled>(a, b);
      });
    case FlatKind::kSap1:
      return AnswerAll(queries, out, [this](int64_t a, int64_t b) {
        return EstimateSap1<kTabled>(a, b);
      });
    case FlatKind::kSap2:
      return AnswerAll(queries, out, [this](int64_t a, int64_t b) {
        return EstimateSap2<kTabled>(a, b);
      });
    default:
      RANGESYN_DCHECK(false);
      return OkStatus();
  }
}

Status FlatSynopsis::EstimateMany(std::span<const FlatQuery> queries,
                                  std::span<double> out,
                                  BatchScratch* /*scratch*/) const {
  if (out.size() != queries.size()) {
    return InvalidArgumentError(
        "FlatSynopsis::EstimateMany: out.size() != queries.size()");
  }
  // One dispatch per batch, then a loop the kind's kernel inlines into.
  switch (kind_) {
    case FlatKind::kNaive:
      return AnswerAll(queries, out, [this](int64_t a, int64_t b) {
        return EstimateNaive(a, b);
      });
    case FlatKind::kWavelet:
      return AnswerAll(queries, out, [this](int64_t a, int64_t b) {
        return EstimateWavelet(a, b);
      });
    default:
      return end_.empty() ? AnswerHistogram<false>(queries, out)
                          : AnswerHistogram<true>(queries, out);
  }
}

Status FlatSynopsis::EstimateMany(std::span<const FlatQuery> queries,
                                  std::span<double> out) const {
  return EstimateMany(queries, out, nullptr);
}

}  // namespace rangesyn
