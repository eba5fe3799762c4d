#include "core/bytes.h"

#include <cstring>

#include "core/strings.h"

namespace rangesyn {
namespace {

// Sanity cap on length prefixes so corrupt inputs cannot trigger huge
// allocations: 1 GiB of payload.
constexpr uint32_t kMaxLength = 1u << 30;

}  // namespace

void ByteWriter::WriteU8(uint8_t v) {
  buffer_.push_back(static_cast<char>(v));
}

void ByteWriter::WriteU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buffer_.append(bytes, 4);
}

void ByteWriter::WriteU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buffer_.append(bytes, 8);
}

void ByteWriter::WriteI64(int64_t v) {
  WriteU64(static_cast<uint64_t>(v));
}

void ByteWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteString(std::string_view v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  buffer_.append(v.data(), v.size());
}

void ByteWriter::WriteI64Vector(const std::vector<int64_t>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  for (int64_t x : v) WriteI64(x);
}

void ByteWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  for (double x : v) WriteDouble(x);
}

Status ByteReader::Need(size_t bytes) {
  if (pos_ + bytes > data_.size()) {
    return OutOfRangeError(
        StrCat("ByteReader: need ", bytes, " bytes, have ", remaining()));
  }
  return OkStatus();
}

Result<uint8_t> ByteReader::ReadU8() {
  RANGESYN_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::ReadU32() {
  RANGESYN_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  RANGESYN_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  RANGESYN_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::ReadDouble() {
  RANGESYN_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> ByteReader::ReadString() {
  RANGESYN_ASSIGN_OR_RETURN(std::string_view view, ReadStringView());
  return std::string(view);
}

Result<std::string_view> ByteReader::ReadStringView() {
  RANGESYN_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (len > kMaxLength) {
    return InvalidArgumentError("ByteReader: corrupt string length");
  }
  RANGESYN_RETURN_IF_ERROR(Need(len));
  const std::string_view out = data_.substr(pos_, len);
  pos_ += len;
  return out;
}

Result<std::vector<int64_t>> ByteReader::ReadI64Vector() {
  RANGESYN_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (len > kMaxLength / 8) {
    return InvalidArgumentError("ByteReader: corrupt vector length");
  }
  std::vector<int64_t> out;
  out.reserve(len);
  for (uint32_t i = 0; i < len; ++i) {
    RANGESYN_ASSIGN_OR_RETURN(int64_t v, ReadI64());
    out.push_back(v);
  }
  return out;
}

Result<std::vector<double>> ByteReader::ReadDoubleVector() {
  RANGESYN_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (len > kMaxLength / 8) {
    return InvalidArgumentError("ByteReader: corrupt vector length");
  }
  std::vector<double> out;
  out.reserve(len);
  for (uint32_t i = 0; i < len; ++i) {
    RANGESYN_ASSIGN_OR_RETURN(double v, ReadDouble());
    out.push_back(v);
  }
  return out;
}

}  // namespace rangesyn
