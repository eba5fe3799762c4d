#ifndef RANGESYN_CORE_BYTES_H_
#define RANGESYN_CORE_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/result.h"

namespace rangesyn {

/// Little-endian binary writer backing the catalog snapshot format and
/// the RSP1 wire codec.
/// All writes append to an internal buffer retrievable with Release().
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Writes into `buffer`'s storage: its contents are dropped and its
  /// capacity kept, so a caller that hands back what Release returned
  /// writes the next message without reallocating.
  explicit ByteWriter(std::string buffer) : buffer_(std::move(buffer)) {
    buffer_.clear();
  }

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);

  /// Length-prefixed (u32) string.
  void WriteString(std::string_view v);

  /// Raw bytes, no length prefix.
  void WriteBytes(std::string_view v) { buffer_.append(v); }

  /// Reserves room for `bytes` bytes in total, so a writer sized up front
  /// never reallocates.
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  /// Length-prefixed vectors.
  void WriteI64Vector(const std::vector<int64_t>& v);
  void WriteDoubleVector(const std::vector<double>& v);

  size_t size() const { return buffer_.size(); }
  std::string Release() { return std::move(buffer_); }
  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Matching reader. Every method fails with OutOfRange when the buffer is
/// exhausted — truncated inputs are reported, never read past.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// ReadString without the copy: a view into the reader's data.
  Result<std::string_view> ReadStringView();
  Result<std::vector<int64_t>> ReadI64Vector();
  Result<std::vector<double>> ReadDoubleVector();

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t bytes);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace rangesyn

#endif  // RANGESYN_CORE_BYTES_H_
