#ifndef RANGESYN_WAVELET_SYNOPSIS_H_
#define RANGESYN_WAVELET_SYNOPSIS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// One retained wavelet coefficient.
struct WaveletCoefficient {
  int64_t index = 0;  // position in the Haar coefficient layout
  double value = 0.0;
};

/// Which vector the retained coefficients transform.
enum class WaveletDomain {
  /// Coefficients of the data vector A itself (padded with zeros to a
  /// power of two). Range queries sum the reconstruction over [a,b] —
  /// the approach of the prior wavelet literature the paper cites.
  kData,
  /// Coefficients of the prefix-sum vector P[0..n] (padded by repeating
  /// P[n]). Range queries are answered as P̂[b] - P̂[a-1]; the DC
  /// coefficient cancels in the difference, which is what makes the top-B
  /// selection provably range-optimal (paper Theorem 9; DESIGN.md §3.5).
  kPrefix,
};

/// Sparse Haar synopsis, the wavelet builders' record: the retained
/// coefficients of one domain. Compile() turns it into the FlatSynopsis
/// that answers queries in O(log n) using the error-tree structure: only
/// coefficients whose support straddles a query endpoint contribute.
/// Storage: 2 words per retained coefficient (index + value).
class WaveletSynopsis {
 public:
  /// `padded_size` is the power-of-two transform length; `domain_size` the
  /// true n of the underlying distribution. Coefficient indices must be
  /// unique and in [0, padded_size).
  static Result<WaveletSynopsis> Create(
      std::vector<WaveletCoefficient> coefficients, int64_t padded_size,
      int64_t domain_size, WaveletDomain domain, std::string name);

  /// The view holding the dense coefficient table: FlatKind::kWavelet.
  Result<std::shared_ptr<const FlatSynopsis>> Compile() const;

  int64_t StorageWords() const {
    return 2 * static_cast<int64_t>(coefficients_.size());
  }
  int64_t domain_size() const { return n_; }
  const std::string& Name() const { return name_; }

  WaveletDomain domain() const { return domain_; }
  int64_t padded_size() const { return padded_size_; }
  const std::vector<WaveletCoefficient>& coefficients() const {
    return coefficients_;
  }

 private:
  WaveletSynopsis(std::vector<WaveletCoefficient> coefficients,
                  int64_t padded_size, int64_t domain_size,
                  WaveletDomain domain, std::string name);

  std::vector<WaveletCoefficient> coefficients_;
  int64_t padded_size_;
  int64_t n_;
  WaveletDomain domain_;
  std::string name_;
};

}  // namespace rangesyn

#endif  // RANGESYN_WAVELET_SYNOPSIS_H_
