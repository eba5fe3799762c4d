#include "wavelet/synopsis.h"

#include <algorithm>

#include "core/mathutil.h"
#include "core/strings.h"

namespace rangesyn {

WaveletSynopsis::WaveletSynopsis(
    std::vector<WaveletCoefficient> coefficients, int64_t padded_size,
    int64_t domain_size, WaveletDomain domain, std::string name)
    : coefficients_(std::move(coefficients)),
      padded_size_(padded_size),
      n_(domain_size),
      domain_(domain),
      name_(std::move(name)) {}

Result<WaveletSynopsis> WaveletSynopsis::Create(
    std::vector<WaveletCoefficient> coefficients, int64_t padded_size,
    int64_t domain_size, WaveletDomain domain, std::string name) {
  if (padded_size < 1 || !IsPowerOfTwo(static_cast<uint64_t>(padded_size))) {
    return InvalidArgumentError("WaveletSynopsis: bad padded_size");
  }
  if (domain_size < 1 ||
      (domain == WaveletDomain::kData && domain_size > padded_size) ||
      (domain == WaveletDomain::kPrefix && domain_size + 1 > padded_size)) {
    return InvalidArgumentError("WaveletSynopsis: bad domain_size");
  }
  std::vector<int64_t> indices;
  indices.reserve(coefficients.size());
  for (const WaveletCoefficient& c : coefficients) {
    if (c.index < 0 || c.index >= padded_size) {
      return InvalidArgumentError(
          StrCat("WaveletSynopsis: coefficient index ", c.index,
                 " out of range"));
    }
    indices.push_back(c.index);
  }
  std::sort(indices.begin(), indices.end());
  if (std::adjacent_find(indices.begin(), indices.end()) != indices.end()) {
    return InvalidArgumentError(
        "WaveletSynopsis: duplicate coefficient indices");
  }
  return WaveletSynopsis(std::move(coefficients), padded_size, domain_size,
                         domain, std::move(name));
}

Result<std::shared_ptr<const FlatSynopsis>> WaveletSynopsis::Compile() const {
  std::vector<double> f64s = FlatSynopsis::LevelHeights(padded_size_);
  const size_t table_off = f64s.size();
  f64s.resize(table_off + static_cast<size_t>(padded_size_), 0.0);
  for (const WaveletCoefficient& c : coefficients_) {
    f64s[table_off + static_cast<size_t>(c.index)] = c.value;
  }
  const uint8_t aux = domain_ == WaveletDomain::kData ? 0 : 1;
  return FlatSynopsis::FromVectors(FlatKind::kWavelet, aux, n_, 0,
                                   padded_size_, {}, std::move(f64s), name_,
                                   StorageWords());
}

}  // namespace rangesyn
