#include "qpath/flat_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "core/crc32c.h"
#include "core/fs.h"
#include "core/strings.h"

namespace rangesyn {
namespace {

constexpr uint32_t kFlatMagic = 0x31465352;  // "RSF1" little-endian
// Version 1 held a longer histogram i64 section; such files are refused.
constexpr uint8_t kFlatVersion = 2;
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
  int64_t reserved0 = 0;
  int64_t reserved1 = 0;
};
static_assert(sizeof(FlatHeader) == kHeaderBytes);

Status CheckHostEndianness() {
  if constexpr (std::endian::native != std::endian::little) {
    return FailedPreconditionError(
        "RSF1 flat files are little-endian; this host is not");
  }
  return OkStatus();
}

/// Open-time validation: size arithmetic, magic/version, CRC. Returns
/// the header; the caller slices the sections.
Result<FlatHeader> ParseAndCheck(std::string_view bytes,
                                 const std::string& path) {
  RANGESYN_RETURN_IF_ERROR(CheckHostEndianness());
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return InvalidArgumentError(
        StrCat("flat file '", path, "': truncated (", bytes.size(),
               " bytes)"));
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - kTrailerBytes,
              kTrailerBytes);
  const uint32_t actual_crc =
      Crc32c(bytes.substr(0, bytes.size() - kTrailerBytes));
  if (stored_crc != actual_crc) {
    return InvalidArgumentError(
        StrCat("flat file '", path, "': CRC32C mismatch (stored ",
               stored_crc, ", computed ", actual_crc, ")"));
  }
  FlatHeader header;
  std::memcpy(&header, bytes.data(), kHeaderBytes);
  if (header.magic != kFlatMagic) {
    return InvalidArgumentError(
        StrCat("flat file '", path, "': bad magic"));
  }
  if (header.version != kFlatVersion) {
    return InvalidArgumentError(
        StrCat("flat file '", path, "': unsupported version ",
               header.version));
  }
  if (header.zero != 0 || header.reserved0 != 0 || header.reserved1 != 0) {
    return InvalidArgumentError(
        StrCat("flat file '", path, "': nonzero reserved fields"));
  }
  if (header.i64_count < 0 || header.f64_count < 0) {
    return InvalidArgumentError(
        StrCat("flat file '", path, "': negative section count"));
  }
  // Overflow-safe size check: counts are bounded by the actual file size
  // before the multiply.
  const uint64_t payload_words =
      static_cast<uint64_t>(header.i64_count) +
      static_cast<uint64_t>(header.f64_count);
  const uint64_t expected =
      kHeaderBytes + kTrailerBytes + payload_words * 8;
  if (payload_words > bytes.size() / 8 || bytes.size() != expected) {
    return InvalidArgumentError(
        StrCat("flat file '", path, "': section counts disagree with file "
               "size"));
  }
  return header;
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
  FlatHeader header;
  header.magic = kFlatMagic;
  header.version = kFlatVersion;
  header.kind = static_cast<uint8_t>(flat.kind());
  header.aux = flat.aux();
  header.n = flat.n();
  header.num_buckets = flat.num_buckets();
  header.padded_size = flat.padded_size();
  header.i64_count = static_cast<int64_t>(flat.i64s().size());
  header.f64_count = static_cast<int64_t>(flat.f64s().size());
  std::string out;
  out.resize(kHeaderBytes + 8 * (flat.i64s().size() + flat.f64s().size()) +
             kTrailerBytes);
  char* p = out.data();
  std::memcpy(p, &header, kHeaderBytes);
  p += kHeaderBytes;
  std::memcpy(p, flat.i64s().data(), 8 * flat.i64s().size());
  p += 8 * flat.i64s().size();
  std::memcpy(p, flat.f64s().data(), 8 * flat.f64s().size());
  p += 8 * flat.f64s().size();
  const uint32_t crc = Crc32c(
      std::string_view(out.data(), out.size() - kTrailerBytes));
  std::memcpy(p, &crc, kTrailerBytes);
  return out;
}

Status SaveFlatSynopsis(const FlatSynopsis& flat, const std::string& path) {
  RANGESYN_ASSIGN_OR_RETURN(const std::string bytes,
                            EncodeFlatSynopsis(flat));
  return AtomicWriteFile(path, bytes);
}

Result<std::shared_ptr<const FlatSynopsis>> OpenFlatMapped(
    const std::string& path) {
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                            MappedFile::Open(path));
  const std::string_view bytes(file->data(), file->size());
  RANGESYN_ASSIGN_OR_RETURN(const FlatHeader header,
                            ParseAndCheck(bytes, path));
  // mmap returns page-aligned storage and both sections start at 8-byte
  // offsets, so the reinterpret casts below are aligned loads.
  const auto* i64s =
      reinterpret_cast<const int64_t*>(file->data() + kHeaderBytes);
  const auto* f64s = reinterpret_cast<const double*>(
      file->data() + kHeaderBytes + 8 * header.i64_count);
  return FlatSynopsis::FromBuffers(
      static_cast<FlatKind>(header.kind), header.aux, header.n,
      header.num_buckets, header.padded_size,
      std::span<const int64_t>(i64s,
                               static_cast<size_t>(header.i64_count)),
      std::span<const double>(f64s, static_cast<size_t>(header.f64_count)),
      std::move(file));
}

}  // namespace rangesyn
