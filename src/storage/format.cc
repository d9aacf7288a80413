#include "storage/format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace eid {
namespace storage {

const char* SectionKindName(SectionKind kind) {
  switch (kind) {
    case SectionKind::kDictionary: return "dictionary";
    case SectionKind::kRelation: return "relation";
    case SectionKind::kMatchTables: return "match_tables";
    case SectionKind::kProvenance: return "provenance";
    case SectionKind::kRuleProgram: return "rule_program";
  }
  return "?";
}

const char* RelationRoleName(RelationRole role) {
  switch (role) {
    case RelationRole::kSourceR: return "R";
    case RelationRole::kSourceS: return "S";
    case RelationRole::kExtendedR: return "R_extended";
    case RelationRole::kExtendedS: return "S_extended";
  }
  return "?";
}

uint64_t Fnv64(const void* data, size_t len) {
  // Four interleaved FNV-1a streams over 32-byte blocks, folded into one
  // state for the tail. A multi-megabyte snapshot pays this once per
  // section at Open, and a single FNV chain is limited by the latency of
  // its serial xor-multiply dependency (~one multiply per 8 bytes);
  // four independent chains keep the multiplier pipeline full. Any single
  // bit flip perturbs exactly one lane, and the fold (xor then multiply
  // per lane) diffuses it into the result, so the any-single-bit-flip
  // detection of the word-wise variant is preserved. Reads go through
  // memcpy: `data` is an arbitrary mmap offset, so direct uint64_t loads
  // would be UB.
  constexpr uint64_t kBasis = 1469598103934665603ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h0 = kBasis, h1 = kBasis + 1, h2 = kBasis + 2, h3 = kBasis + 3;
  while (len >= 32) {
    uint64_t w[4];
    std::memcpy(w, p, sizeof(w));
    h0 = (h0 ^ w[0]) * kPrime;
    h1 = (h1 ^ w[1]) * kPrime;
    h2 = (h2 ^ w[2]) * kPrime;
    h3 = (h3 ^ w[3]) * kPrime;
    p += 32;
    len -= 32;
  }
  uint64_t h = h0;
  h = (h ^ h1) * kPrime;
  h = (h ^ h2) * kPrime;
  h = (h ^ h3) * kPrime;
  while (len >= sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    h = (h ^ word) * kPrime;
    p += sizeof(word);
    len -= sizeof(word);
  }
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * kPrime;
  }
  return h;
}

Status CorruptError(const std::string& what) {
  return Status::InvalidArgument("snapshot corrupt: " + what);
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ == nullptr) return;
  if (mapped_) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  } else {
    delete[] data_;
  }
  data_ = nullptr;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("snapshot file not found: " + path);
    }
    return Status::InvalidArgument("cannot open snapshot '" + path +
                                   "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::InvalidArgument("cannot stat snapshot '" + path + "'");
  }
  MappedFile out;
  out.size_ = static_cast<size_t>(st.st_size);
  if (out.size_ == 0) {
    ::close(fd);
    return CorruptError("empty file '" + path + "'");
  }
  void* map = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map != MAP_FAILED) {
    out.data_ = static_cast<const uint8_t*>(map);
    out.mapped_ = true;
    ::close(fd);
    return out;
  }
  // Fallback: read into an owned buffer (e.g. filesystems without mmap).
  uint8_t* buf = new uint8_t[out.size_];
  size_t done = 0;
  while (done < out.size_) {
    ssize_t n = ::read(fd, buf + done, out.size_ - done);
    if (n <= 0) {
      delete[] buf;
      ::close(fd);
      return Status::InvalidArgument("cannot read snapshot '" + path + "'");
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  out.data_ = buf;
  out.mapped_ = false;
  return out;
}

}  // namespace storage
}  // namespace eid
