// World snapshots: save/load a full integration world in one file.
//
// A snapshot persists everything an identification run consumed and
// produced — source R and S, the extended R' and S', derivation
// provenance, MT/NMT, and the rule program (ILFDs, correspondence,
// extended key) — over one interned-value dictionary
// (storage/dictionary.h) whose dense ids every relation section uses.
// Loading seeds the session's columnar world straight from the file: the
// dictionary and the source relations' id matrices, so a seeded Identify
// re-interns nothing. Blocking indexes are not persisted — the world
// builds the few an Identify probes with one counting pass over an id
// column each (DESIGN.md §4e).
//
// File layout and integrity rules are in storage/format.h; every decode
// failure (truncation, bit flip, wrong magic/version/endianness) is a
// clean Status with the "snapshot corrupt:" prefix, never UB.

#ifndef EID_STORAGE_SNAPSHOT_H_
#define EID_STORAGE_SNAPSHOT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eid/identifier.h"
#include "storage/format.h"

namespace eid {
namespace storage {

/// Borrowed views of everything WriteSnapshot persists. The four
/// relations are required; tables, traces and the rule program may be
/// null/empty (saved as empty sections).
struct WorldImage {
  const Relation* r = nullptr;
  const Relation* s = nullptr;
  const Relation* r_extended = nullptr;
  const Relation* s_extended = nullptr;
  /// Provenance over `ilfds`' atoms, which the image must then carry.
  const Provenance* r_traces = nullptr;
  const Provenance* s_traces = nullptr;
  const MatchTable* matching = nullptr;
  const MatchTable* negative = nullptr;
  const IlfdSet* ilfds = nullptr;
  const AttributeCorrespondence* correspondence = nullptr;
  const ExtendedKey* extended_key = nullptr;
};

/// Convenience image over an identification run and its inputs.
WorldImage ImageOf(const Relation& r, const Relation& s,
                   const IdentifierConfig& config,
                   const IdentificationResult& result);

/// Serializes `image` to `path` (single pass, whole file buffered then
/// written). Errors: null required relations, unwritable path.
Status WriteSnapshot(const WorldImage& image, const std::string& path);

/// Validated access to a snapshot file: header, section table and every
/// section checksum are verified in Open, so section payloads handed out
/// afterwards are exactly the bytes that were written.
class SnapshotReader {
 public:
  /// Maps and validates. NotFound for a missing file; otherwise any
  /// malformed structure yields a "snapshot corrupt:" InvalidArgument.
  static Result<SnapshotReader> Open(const std::string& path);

  const std::vector<SectionEntry>& sections() const { return sections_; }
  size_t file_size() const { return file_.size(); }
  bool mapped() const { return file_.mapped(); }

  /// Reader over the payload of the first section matching (kind, role);
  /// NotFound when the snapshot has no such section.
  Result<ByteReader> Section(SectionKind kind, uint32_t role = 0) const;

 private:
  SnapshotReader() = default;

  MappedFile file_;
  std::vector<SectionEntry> sections_;
};

/// A fully decoded world plus the cold-start accelerators.
struct LoadedWorld {
  Relation r, s, r_extended, s_extended;
  /// Provenance over `ilfds`' atoms.
  Provenance r_traces, s_traces;
  MatchTable matching{/*negative=*/false};
  MatchTable negative{/*negative=*/true};
  IlfdSet ilfds;
  AttributeCorrespondence correspondence;
  std::optional<ExtendedKey> extended_key;

  /// Interned values in id order (dictionary section).
  std::vector<Value> dictionary;
  /// Columnar-world seed (exec/columnar_world.h): the dictionary plus the
  /// source R/S id matrices captured during relation decode (NULL cells
  /// mapped to ColumnarWorld::kNullId), ready to hand to
  /// MatcherOptions::columnar_seeds — a snapshot-loaded session then
  /// starts with every base column encoded and re-interns nothing.
  /// EID_SHARED_IMMUTABLE: decoded once at load, then read-only by every
  /// engine run seeded from this world (the shared_ptr is aliased, never
  /// mutated through).
  EID_SHARED_IMMUTABLE std::shared_ptr<exec::ColumnarSeeds> columnar_seeds;
  /// stage="snapshot_load": wall_ms/snapshot_load_ms = map + decode +
  /// checksum time, dict_values = dictionary size, items = rows decoded.
  exec::StageStats load_stats;

  /// Identification config over the loaded rule program, with
  /// columnar_seeds wired into the matcher options. Identify on the
  /// loaded sources is bit-identical to a fresh build (tests/storage/
  /// enforce this).
  IdentifierConfig ToConfig() const;
};

/// Opens, validates and decodes a whole snapshot.
Result<LoadedWorld> LoadSnapshot(const std::string& path);

}  // namespace storage
}  // namespace eid

#endif  // EID_STORAGE_SNAPSHOT_H_
