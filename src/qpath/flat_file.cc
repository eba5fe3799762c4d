#include "qpath/flat_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/crc32c.h"
#include "core/failpoint.h"
#include "core/fs.h"
#include "core/strings.h"

namespace rangesyn {
namespace {

constexpr uint32_t kFlatMagic = 0x31465352;  // "RSF1" little-endian
// Version 1 held a longer histogram i64 section; version 2 carried no name
// or storage accounting. Both are refused.
constexpr uint8_t kFlatVersion = 3;
constexpr size_t kHeaderBytes = 64;
constexpr size_t kTrailerBytes = sizeof(uint32_t);

struct FlatHeader {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t kind = 0;
  uint8_t aux = 0;
  uint8_t zero = 0;
  int64_t n = 0;
  int64_t num_buckets = 0;
  int64_t padded_size = 0;
  int64_t i64_count = 0;
  int64_t f64_count = 0;
  int64_t storage_words = 0;
  int64_t name_bytes = 0;
};
static_assert(sizeof(FlatHeader) == kHeaderBytes);

/// The name is zero-padded so the trailer follows an 8-byte boundary.
uint64_t PaddedNameBytes(uint64_t name_bytes) {
  return (name_bytes + 7) & ~uint64_t{7};
}

Status CheckHostEndianness() {
  if constexpr (std::endian::native != std::endian::little) {
    return FailedPreconditionError(
        "RSF1 flat files are little-endian; this host is not");
  }
  return OkStatus();
}

/// The one RSF1 reader: validates `bytes` (8-byte aligned, kept alive by
/// `backing`) — size arithmetic, CRC, magic/version, name padding — and
/// assembles a synopsis whose sections point into them. `what` names the
/// source in errors.
Result<std::shared_ptr<const FlatSynopsis>> DecodeOver(
    std::string_view bytes, std::shared_ptr<const void> backing,
    const std::string& what) {
  RANGESYN_RETURN_IF_ERROR(CheckHostEndianness());
  if (reinterpret_cast<uintptr_t>(bytes.data()) % alignof(int64_t) != 0) {
    return InternalError(StrCat(what, ": buffer is not 8-byte aligned"));
  }
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return InvalidArgumentError(
        StrCat(what, ": truncated (", bytes.size(), " bytes)"));
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - kTrailerBytes,
              kTrailerBytes);
  const uint32_t actual_crc =
      Crc32c(bytes.substr(0, bytes.size() - kTrailerBytes));
  if (stored_crc != actual_crc) {
    return InvalidArgumentError(
        StrCat(what, ": CRC32C mismatch (stored ", stored_crc,
               ", computed ", actual_crc, ")"));
  }
  FlatHeader header;
  std::memcpy(&header, bytes.data(), kHeaderBytes);
  if (header.magic != kFlatMagic) {
    return InvalidArgumentError(StrCat(what, ": bad magic"));
  }
  if (header.version != kFlatVersion) {
    return InvalidArgumentError(
        StrCat(what, ": unsupported version ", header.version));
  }
  if (header.zero != 0) {
    return InvalidArgumentError(StrCat(what, ": nonzero reserved field"));
  }
  if (header.i64_count < 0 || header.f64_count < 0 ||
      header.name_bytes < 0) {
    return InvalidArgumentError(StrCat(what, ": negative section count"));
  }
  // Overflow-safe size check: every count is bounded by the buffer size
  // before the multiply.
  const uint64_t size = bytes.size();
  const uint64_t i64_count = static_cast<uint64_t>(header.i64_count);
  const uint64_t f64_count = static_cast<uint64_t>(header.f64_count);
  const uint64_t name_bytes = static_cast<uint64_t>(header.name_bytes);
  if (i64_count > size / 8 || f64_count > size / 8 || name_bytes > size ||
      size != kHeaderBytes + 8 * (i64_count + f64_count) +
                  PaddedNameBytes(name_bytes) + kTrailerBytes) {
    return InvalidArgumentError(
        StrCat(what, ": section counts disagree with the size"));
  }
  const char* i64_at = bytes.data() + kHeaderBytes;
  const char* f64_at = i64_at + 8 * i64_count;
  const char* name_at = f64_at + 8 * f64_count;
  // Zero padding keeps the encoding unique: re-encoding a decoded
  // synopsis reproduces its bytes.
  for (uint64_t k = name_bytes; k < PaddedNameBytes(name_bytes); ++k) {
    if (name_at[k] != 0) {
      return InvalidArgumentError(StrCat(what, ": nonzero name padding"));
    }
  }
  // Both sections start at 8-byte offsets of an 8-byte-aligned buffer, so
  // the reinterpret casts below are aligned loads.
  return FlatSynopsis::FromBuffers(
      static_cast<FlatKind>(header.kind), header.aux, header.n,
      header.num_buckets, header.padded_size,
      std::span<const int64_t>(reinterpret_cast<const int64_t*>(i64_at),
                               i64_count),
      std::span<const double>(reinterpret_cast<const double*>(f64_at),
                              f64_count),
      std::move(backing), std::string(name_at, name_bytes),
      header.storage_words);
}

/// mmap'd read-only file region; the FlatSynopsis holds one of these as
/// its backing so the mapping outlives every outstanding view. Owner
/// type: data() lends an interior pointer that is valid exactly as long
/// as the MappedFile (the destructor munmaps).
class RANGESYN_OWNER_TYPE MappedFile {
 public:
  static Result<std::shared_ptr<MappedFile>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return NotFoundError(
          StrCat("cannot open '", path, "': ", std::strerror(errno)));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return InternalError(
          StrCat("cannot stat '", path, "': ", std::strerror(err)));
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return InvalidArgumentError(StrCat("flat file '", path, "': empty"));
    }
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (addr == MAP_FAILED) {
      return InternalError(
          StrCat("cannot mmap '", path, "': ", std::strerror(errno)));
    }
    return std::make_shared<MappedFile>(addr, size);
  }

  MappedFile(void* addr, size_t size) : addr_(addr), size_(size) {}
  ~MappedFile() { ::munmap(addr_, size_); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  RANGESYN_LENDS_VIEW const char* data() const {
    return static_cast<const char*>(addr_);
  }
  size_t size() const { return size_; }

 private:
  void* addr_;
  size_t size_;
};

}  // namespace

Result<std::string> EncodeFlatSynopsis(const FlatSynopsis& flat) {
  RANGESYN_RETURN_IF_ERROR(CheckHostEndianness());
  const std::span<const int64_t> i64s = flat.i64s();
  const std::span<const double> f64s = flat.f64s();
  const std::string& name = flat.Name();
  FlatHeader header;
  header.magic = kFlatMagic;
  header.version = kFlatVersion;
  header.kind = static_cast<uint8_t>(flat.kind());
  header.aux = flat.aux();
  header.n = flat.n();
  header.num_buckets = flat.num_buckets();
  header.padded_size = flat.padded_size();
  header.i64_count = static_cast<int64_t>(i64s.size());
  header.f64_count = static_cast<int64_t>(f64s.size());
  header.storage_words = flat.StorageWords();
  header.name_bytes = static_cast<int64_t>(name.size());
  std::string out(kHeaderBytes + 8 * (i64s.size() + f64s.size()) +
                      PaddedNameBytes(name.size()) + kTrailerBytes,
                  '\0');
  char* p = out.data();
  // An empty section (the naive and wavelet kinds have no i64 words) may
  // have a null data(), which memcpy must never be handed.
  const auto append = [&p](const void* src, size_t count) {
    if (count != 0) std::memcpy(p, src, count);
    p += count;
  };
  append(&header, kHeaderBytes);
  append(i64s.data(), 8 * i64s.size());
  append(f64s.data(), 8 * f64s.size());
  append(name.data(), name.size());
  const size_t body = out.size() - kTrailerBytes;
  const uint32_t crc = Crc32c(std::string_view(out.data(), body));
  std::memcpy(out.data() + body, &crc, kTrailerBytes);
  return out;
}

Result<std::shared_ptr<const FlatSynopsis>> DecodeFlatSynopsis(
    std::string_view bytes) {
  // The sections are read in place, so they need 8-byte alignment: a heap
  // array from operator new has it, a caller's string need not.
  auto copy = std::make_shared<const std::vector<char>>(bytes.begin(),
                                                        bytes.end());
  const std::string_view aligned(copy->data(), copy->size());
  return DecodeOver(aligned, std::move(copy), "RSF1 buffer");
}

Status SaveFlatSynopsis(const FlatSynopsis& flat, const std::string& path) {
  RANGESYN_FAILPOINT("engine.serialize.save");
  RANGESYN_ASSIGN_OR_RETURN(const std::string bytes,
                            EncodeFlatSynopsis(flat));
  return AtomicWriteFile(path, bytes);
}

Result<std::shared_ptr<const FlatSynopsis>> OpenFlatMapped(
    const std::string& path) {
  RANGESYN_FAILPOINT("engine.serialize.load");
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                            MappedFile::Open(path));
  // mmap returns page-aligned storage.
  const std::string_view bytes(file->data(), file->size());
  return DecodeOver(bytes, std::move(file), StrCat("flat file '", path, "'"));
}

}  // namespace rangesyn
