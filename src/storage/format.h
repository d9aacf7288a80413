// On-disk snapshot format primitives (DESIGN.md §4e).
//
// A snapshot is one file holding a whole integration world — interned
// value dictionary, relations as dense value-id matrices, MT/NMT,
// derivation provenance and the rule program — laid out so a reader can
// mmap it and hand out views without parsing row text. Layout:
//
//   [header 48 B][section table][section payloads ...]
//
// All integers are little-endian fixed-width; the header carries an
// endianness sentinel and readers reject foreign byte order instead of
// swapping (the serving fleet is homogeneous; a portable swap pass can
// come later without a format break). Every section records an FNV-1a
// checksum of its payload, and the header checksums itself and the
// section table, so truncation and bit flips surface as clean Status
// errors — never UB — before any payload is interpreted.
//
// Versioning policy: `kSnapshotVersion` bumps on any layout change;
// readers reject other versions outright (no in-place migration —
// snapshots are rebuildable artifacts, not databases of record).

#ifndef EID_STORAGE_FORMAT_H_
#define EID_STORAGE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "relational/status.h"

namespace eid {
namespace storage {

inline constexpr char kSnapshotMagic[8] = {'E', 'I', 'D', 'S',
                                           'N', 'A', 'P', '\0'};
/// Version 2 dropped version 1's posting-list and fingerprint sections.
inline constexpr uint32_t kSnapshotVersion = 2;
/// Written as the literal 0x01020304; a reader on a foreign-endian host
/// sees the bytes reversed and rejects the file.
inline constexpr uint32_t kEndianSentinel = 0x01020304u;

/// What one section payload holds.
enum class SectionKind : uint32_t {
  kDictionary = 1,    // interned Value table (dense ids, append order)
  kRelation = 2,      // one relation: schema, keys, value-id row matrix
  // 3 and 4 were version 1's posting lists and fingerprint index; the
  // numbers stay retired.
  kMatchTables = 5,   // MT and NMT row-index pairs
  kProvenance = 6,    // per-row derivation traces for R' and S'
  kRuleProgram = 7,   // ILFDs, correspondence, extended key
};

/// "dictionary", "relation", ... (diagnostics, `eid_snapshot inspect`).
const char* SectionKindName(SectionKind kind);

/// Which persisted relation a kRelation section describes.
enum class RelationRole : uint32_t {
  kSourceR = 0,
  kSourceS = 1,
  kExtendedR = 2,
  kExtendedS = 3,
};

const char* RelationRoleName(RelationRole role);

/// One entry of the section table.
struct SectionEntry {
  uint32_t kind = 0;
  uint32_t role = 0;  // RelationRole for relation-scoped kinds, else 0
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;  // Fnv64 of the payload bytes
};

/// Fixed-size header at file offset 0. The section table (section_count ×
/// 32-byte entries) follows immediately at offset kHeaderSize.
struct SnapshotHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t endian = 0;
  uint64_t file_size = 0;
  uint32_t section_count = 0;
  uint32_t flags = 0;
  uint64_t toc_checksum = 0;     // Fnv64 over the section-table bytes
  uint64_t header_checksum = 0;  // Fnv64 over the 40 bytes before this field
};

inline constexpr size_t kHeaderSize = 48;
inline constexpr size_t kSectionEntrySize = 32;

static_assert(sizeof(SnapshotHeader) == kHeaderSize,
              "header must serialize without padding");
static_assert(sizeof(SectionEntry) == kSectionEntrySize,
              "section entry must serialize without padding");

/// The snapshot checksum: four interleaved FNV-1a streams over 32-byte
/// blocks, folded into one state for the tail (see format.cc for why).
/// Word loads are host-order, so the value is shared only between
/// same-endian hosts — exactly the set the endianness sentinel already
/// restricts the format to. Not plain FNV-1a; the value is only
/// meaningful to this format.
uint64_t Fnv64(const void* data, size_t len);

/// Append-only little-endian byte sink backing SnapshotWriter. Cheap to
/// move; the final buffer is written to disk in one pass.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLe(v); }
  void PutU64(uint64_t v) { PutLe(v); }
  void PutBytes(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  /// u32 length prefix + raw bytes.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }
  /// Pads with zero bytes to the next 8-byte boundary.
  void Align8() {
    while (buf_.size() % 8 != 0) buf_.push_back('\0');
  }

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string&& Take() { return std::move(buf_); }

 private:
  template <typename T>
  void PutLe(T v) {
    // Snapshot sections put one integer per relation cell; the byte-loop
    // form paid a capacity check per byte. On a little-endian host the
    // in-memory representation already is the wire form.
    if constexpr (std::endian::native == std::endian::little) {
      char tmp[sizeof(T)];
      std::memcpy(tmp, &v, sizeof(T));
      buf_.append(tmp, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
      }
    }
  }

  std::string buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte range (the
/// mmap'd section payload). Every Get returns false on overrun instead of
/// reading past the mapping — the caller converts that into a corrupt-file
/// Status with context. The success flags are [[nodiscard]]: ignoring one
/// and using the output anyway is exactly the decode-past-truncation bug
/// the reader exists to prevent, so the compiler rejects it.
class ByteReader {
 public:
  ByteReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}

  [[nodiscard]] bool GetU8(uint8_t* out) {
    if (pos_ + 1 > len_) return false;
    *out = data_[pos_++];
    return true;
  }
  [[nodiscard]] bool GetU32(uint32_t* out) { return GetLe(out); }
  [[nodiscard]] bool GetU64(uint64_t* out) { return GetLe(out); }
  [[nodiscard]] bool GetString(std::string* out) {
    uint32_t n = 0;
    if (!GetU32(&n) || pos_ + n > len_) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  /// Borrows `len` raw bytes without copying; nullptr on overrun.
  [[nodiscard]] const uint8_t* GetBytes(size_t len) {
    if (pos_ + len > len_) return nullptr;
    const uint8_t* p = data_ + pos_;
    pos_ += len;
    return p;
  }
  [[nodiscard]] bool SkipAlign8() {
    while (pos_ % 8 != 0) {
      if (pos_ >= len_) return false;
      ++pos_;
    }
    return true;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  template <typename T>
  [[nodiscard]] bool GetLe(T* out) {
    if (pos_ + sizeof(T) > len_) return false;
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    *out = v;
    return true;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// The standard corrupt-snapshot error: InvalidArgument with a stable
/// "snapshot corrupt:" prefix the tests and CLI match on.
Status CorruptError(const std::string& what);

/// A read-only byte view of a snapshot file: mmap'd when the platform
/// allows, else read into an owned buffer (same interface either way).
/// Move-only; unmaps/frees on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Maps `path` read-only. NotFound when the file does not exist,
  /// InvalidArgument on open/map failures.
  static Result<MappedFile> Open(const std::string& path);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool mapped() const { return mapped_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;       // true: munmap on destroy; false: delete[]
};

}  // namespace storage
}  // namespace eid

#endif  // EID_STORAGE_FORMAT_H_
