// Snapshot save/load: a full world (paper Example 3) round-trips exactly
// — sources, extended relations, provenance, MT/NMT and the rule program
// — and every corruption we can inject (wrong magic, wrong version,
// foreign endianness, bit flips, truncation at any length, a forged
// contradictory ILFD, a forged row count, a layout the writer never
// writes, trailing section bytes, a provenance step outside its ILFD)
// comes back as a "snapshot corrupt:" Status, never a crash. The
// asan/ubsan presets run this suite to prove "never UB".

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "eid.h"
#include "exec/columnar_world.h"
#include "workload/fixtures.h"

namespace eid {
namespace storage {
namespace {

struct SavedWorld {
  Relation r, s;
  IdentifierConfig config;
  IdentificationResult result;
  std::string path;
};

SavedWorld SaveExample3(const std::string& filename) {
  SavedWorld world;
  world.r = fixtures::Example3R();
  world.s = fixtures::Example3S();
  world.config.correspondence =
      AttributeCorrespondence::Identity(world.r, world.s);
  world.config.extended_key = fixtures::Example3ExtendedKey();
  world.config.ilfds = fixtures::Example3Ilfds();
  world.config.distinctness_from_ilfds = true;
  Result<IdentificationResult> result =
      EntityIdentifier(world.config).Identify(world.r, world.s);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  world.result = std::move(result).value();
  world.path = ::testing::TempDir() + "/" + filename;
  Status st = WriteSnapshot(
      ImageOf(world.r, world.s, world.config, world.result), world.path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return world;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

void PatchU64(std::string* bytes, size_t offset, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PatchU32(std::string* bytes, size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint32_t ReadU32(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

uint64_t ReadU64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

/// Recomputes the header checksum (over the first 40 bytes) after a
/// deliberate header edit, so the test reaches the targeted validation
/// step instead of the checksum wall in front of it.
void ResealHeader(std::string* bytes) {
  PatchU64(bytes, 40, Fnv64(bytes->data(), 40));
}

/// The table index of the first section of `kind` (and `role`).
size_t SectionIndex(const std::string& bytes, SectionKind kind,
                    uint32_t role = 0) {
  const uint32_t count = ReadU32(bytes, 24);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t at = kHeaderSize + static_cast<size_t>(i) * kSectionEntrySize;
    if (ReadU32(bytes, at) == static_cast<uint32_t>(kind) &&
        ReadU32(bytes, at + 4) == role) {
      return i;
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<uint32_t>(kind);
  return 0;
}

/// Section `index`'s payload bytes.
std::string SectionPayload(const std::string& bytes, size_t index) {
  const size_t entry = kHeaderSize + index * kSectionEntrySize;
  return bytes.substr(static_cast<size_t>(ReadU64(bytes, entry + 8)),
                      static_cast<size_t>(ReadU64(bytes, entry + 16)));
}

/// `bytes` with section `index`'s payload replaced by `payload`, laid out
/// as the writer lays sections out — contiguous in table order, each
/// zero-padded to 8 bytes — with entries, file size and checksums
/// resealed, so only the forged payload is left for the decoder to judge.
std::string ReplaceSection(const std::string& bytes, size_t index,
                           const std::string& payload) {
  const uint32_t count = ReadU32(bytes, 24);
  std::string out = bytes.substr(
      0, kHeaderSize + static_cast<size_t>(count) * kSectionEntrySize);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry =
        kHeaderSize + static_cast<size_t>(i) * kSectionEntrySize;
    const std::string body = i == index ? payload : SectionPayload(bytes, i);
    PatchU64(&out, entry + 8, out.size());
    PatchU64(&out, entry + 16, body.size());
    PatchU64(&out, entry + 24, Fnv64(body.data(), body.size()));
    out += body;
    out.resize((out.size() + 7) / 8 * 8, '\0');
  }
  PatchU64(&out, 16, out.size());  // file size
  PatchU64(&out, 32,
           Fnv64(out.data() + kHeaderSize,
                 static_cast<size_t>(count) * kSectionEntrySize));
  ResealHeader(&out);
  return out;
}

void ExpectCorrupt(const std::string& path, const std::string& needle) {
  Result<LoadedWorld> world = LoadSnapshot(path);
  ASSERT_FALSE(world.ok()) << "expected corruption for " << needle;
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(world.status().message().find("snapshot corrupt:"),
            std::string::npos)
      << world.status().message();
  EXPECT_NE(world.status().message().find(needle), std::string::npos)
      << "wanted '" << needle << "' in: " << world.status().message();
}

TEST(SnapshotTest, RoundTripExample3) {
  SavedWorld saved = SaveExample3("rt.eidsnap");
  Result<LoadedWorld> loaded = LoadSnapshot(saved.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Sources and extended relations: schema, names, keys, rows.
  for (const auto& [fresh, from_disk] :
       {std::pair<const Relation*, const Relation*>{&saved.r, &loaded->r},
        {&saved.s, &loaded->s},
        {&saved.result.r_extended, &loaded->r_extended},
        {&saved.result.s_extended, &loaded->s_extended}}) {
    EXPECT_EQ(fresh->name(), from_disk->name());
    ASSERT_EQ(fresh->schema().size(), from_disk->schema().size());
    for (size_t c = 0; c < fresh->schema().size(); ++c) {
      EXPECT_EQ(fresh->schema().attribute(c).name,
                from_disk->schema().attribute(c).name);
      EXPECT_EQ(fresh->schema().attribute(c).type,
                from_disk->schema().attribute(c).type);
    }
    EXPECT_EQ(fresh->keys().size(), from_disk->keys().size());
    ASSERT_EQ(fresh->size(), from_disk->size());
    for (size_t r = 0; r < fresh->size(); ++r) {
      ASSERT_EQ(fresh->row(r).size(), from_disk->row(r).size());
      for (size_t c = 0; c < fresh->row(r).size(); ++c) {
        EXPECT_TRUE(fresh->row(r)[c] == from_disk->row(r)[c])
            << "row " << r << " col " << c;
      }
    }
  }

  // Match tables, pair for pair in order.
  EXPECT_EQ(loaded->matching.pairs(), saved.result.matching.pairs());
  EXPECT_EQ(loaded->negative.pairs(), saved.result.negative.table.pairs());

  // Provenance: derivation traces survive including conflict provenance.
  // Each side views its rows over its own rule program.
  ASSERT_EQ(loaded->r_traces.rows(), saved.result.r_traces.rows());
  for (size_t i = 0; i < loaded->r_traces.rows(); ++i) {
    const Derivation from_disk =
        loaded->r_traces.DerivationOf(i, loaded->ilfds);
    const Derivation fresh =
        saved.result.r_traces.DerivationOf(i, saved.config.ilfds);
    EXPECT_EQ(from_disk.derived.size(), fresh.derived.size());
    EXPECT_EQ(from_disk.steps.size(), fresh.steps.size());
    EXPECT_EQ(from_disk.conflicts.size(), fresh.conflicts.size());
    for (size_t k = 0; k < from_disk.steps.size(); ++k) {
      EXPECT_EQ(from_disk.steps[k].attribute, fresh.steps[k].attribute);
      EXPECT_EQ(from_disk.steps[k].ilfd_index, fresh.steps[k].ilfd_index);
    }
  }
  EXPECT_EQ(loaded->s_traces.rows(), saved.result.s_traces.rows());

  // Rule program: ILFDs, correspondence, extended key.
  EXPECT_EQ(loaded->ilfds.size(), saved.config.ilfds.size());
  EXPECT_EQ(loaded->ilfds.ToString(), saved.config.ilfds.ToString());
  EXPECT_EQ(loaded->correspondence.mappings().size(),
            saved.config.correspondence.mappings().size());
  ASSERT_TRUE(loaded->extended_key.has_value());
  EXPECT_EQ(loaded->extended_key->attributes(),
            saved.config.extended_key->attributes());

  // Accelerators and stats are populated.
  EXPECT_GT(loaded->dictionary.size(), 0u);
  ASSERT_NE(loaded->columnar_seeds, nullptr);
  EXPECT_EQ(loaded->columnar_seeds->r_columns.size(),
            loaded->r.schema().size());
  EXPECT_EQ(loaded->load_stats.stage, "snapshot_load");
  EXPECT_EQ(loaded->load_stats.dict_values, loaded->dictionary.size());
  EXPECT_GT(loaded->load_stats.snapshot_load_ms, 0.0);
}

TEST(SnapshotTest, LoadedKeysStillEnforced) {
  // AdoptRows defers key-set construction; the first Insert after a load
  // must still reject a duplicate key.
  SavedWorld saved = SaveExample3("keys.eidsnap");
  Result<LoadedWorld> loaded = LoadSnapshot(saved.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->r.has_keys());
  Row duplicate = loaded->r.row(0);
  Status st = loaded->r.Insert(duplicate);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST(SnapshotTest, PreloadedIndexesMatchBuiltIndexes) {
  // A world seeded from the snapshot indexes the preloaded source id
  // columns; a world that encodes the same rows itself must list the
  // same rows under every value. The two dictionaries need not agree on
  // ids, so the probes go through each world's own dictionary.
  SavedWorld saved = SaveExample3("idx.eidsnap");
  Result<LoadedWorld> loaded = LoadSnapshot(saved.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->columnar_seeds, nullptr);

  exec::ColumnarWorld preloaded;
  preloaded.Seed(*loaded->columnar_seeds);
  exec::ColumnarWorld built;
  const std::pair<exec::WorldRel, const Relation*> sources[] = {
      {exec::WorldRel::kR, &loaded->r}, {exec::WorldRel::kS, &loaded->s}};
  for (const auto& [slot, rel] : sources) {
    for (size_t c = 0; c < rel->schema().size(); ++c) {
      const std::string& attr = rel->schema().attribute(c).name;
      const exec::ColumnIndex& from_seeds = preloaded.Index(slot, *rel, c);
      const exec::ColumnIndex& from_rows = built.Index(slot, *rel, c);
      EXPECT_EQ(from_seeds.distinct(), from_rows.distinct()) << attr;
      for (size_t r = 0; r < rel->size(); ++r) {
        const Value& v = rel->row(r)[c];
        if (v.is_null()) continue;
        exec::PostingRange a = from_seeds.Find(preloaded.dict().Find(v));
        exec::PostingRange b = from_rows.Find(built.dict().Find(v));
        ASSERT_FALSE(a.empty()) << attr << " value " << v.ToString();
        EXPECT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
                  std::vector<uint32_t>(b.begin(), b.end()))
            << attr << " value " << v.ToString();
      }
    }
  }
}

TEST(SnapshotTest, WritesOnlyVersionTwoSections) {
  // Version 2 persists no blocking accelerators: the dictionary, four
  // relations, the match tables, provenance and the rule program — and
  // none of version 1's retired section kinds 3 and 4.
  SavedWorld saved = SaveExample3("sections.eidsnap");
  Result<SnapshotReader> reader = SnapshotReader::Open(saved.path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<uint32_t> kinds;
  for (const SectionEntry& e : reader->sections()) kinds.push_back(e.kind);
  EXPECT_EQ(kinds, (std::vector<uint32_t>{1, 2, 2, 2, 2, 5, 6, 7}));
}

// What `eid_snapshot inspect` prints: the file's size and how it was
// read, and each relation section's role by name.
TEST(SnapshotTest, ReaderReportsMappingAndRelationRoles) {
  SavedWorld saved = SaveExample3("inspect.eidsnap");
  const std::string bytes = ReadFile(saved.path);
  Result<SnapshotReader> reader = SnapshotReader::Open(saved.path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->file_size(), bytes.size());
  EXPECT_TRUE(reader->mapped());  // a regular file maps
  Result<MappedFile> file = MappedFile::Open(saved.path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_TRUE(file->mapped());
  ASSERT_EQ(file->size(), bytes.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(file->data()),
                        file->size()),
            bytes);
  std::vector<std::string> roles;
  for (const SectionEntry& e : reader->sections()) {
    if (e.kind == static_cast<uint32_t>(SectionKind::kRelation)) {
      roles.push_back(RelationRoleName(static_cast<RelationRole>(e.role)));
    }
  }
  EXPECT_EQ(roles, (std::vector<std::string>{"R", "S", "R_extended",
                                             "S_extended"}));
  EXPECT_STREQ(RelationRoleName(static_cast<RelationRole>(99)), "?");
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  Result<LoadedWorld> world = LoadSnapshot("/nonexistent/nope.eidsnap");
  ASSERT_FALSE(world.ok());
  EXPECT_EQ(world.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, EmptyFileIsCorrupt) {
  const std::string path = ::testing::TempDir() + "/empty.eidsnap";
  WriteFile(path, "");
  Result<LoadedWorld> world = LoadSnapshot(path);
  ASSERT_FALSE(world.ok());
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, WrongMagicIsCorrupt) {
  SavedWorld saved = SaveExample3("magic.eidsnap");
  std::string bytes = ReadFile(saved.path);
  bytes[0] = 'X';
  WriteFile(saved.path, bytes);
  ExpectCorrupt(saved.path, "magic");
}

TEST(SnapshotTest, WrongVersionIsCorrupt) {
  SavedWorld saved = SaveExample3("version.eidsnap");
  std::string bytes = ReadFile(saved.path);
  PatchU32(&bytes, 8, kSnapshotVersion + 1);
  ResealHeader(&bytes);
  WriteFile(saved.path, bytes);
  ExpectCorrupt(saved.path, "version");
}

TEST(SnapshotTest, VersionOneFileIsRejected) {
  // Version-1 files carried posting and fingerprint sections this build
  // no longer reads; they are refused outright, not half-decoded.
  ASSERT_EQ(kSnapshotVersion, 2u);
  SavedWorld saved = SaveExample3("version1.eidsnap");
  std::string bytes = ReadFile(saved.path);
  PatchU32(&bytes, 8, 1);
  ResealHeader(&bytes);
  WriteFile(saved.path, bytes);
  ExpectCorrupt(saved.path, "unsupported snapshot version 1");
}

TEST(SnapshotTest, ForeignEndiannessIsCorrupt) {
  SavedWorld saved = SaveExample3("endian.eidsnap");
  std::string bytes = ReadFile(saved.path);
  PatchU32(&bytes, 12, 0x04030201);  // byte-swapped sentinel
  ResealHeader(&bytes);
  WriteFile(saved.path, bytes);
  ExpectCorrupt(saved.path, "endian");
}

TEST(SnapshotTest, BitFlippedHeaderIsCorrupt) {
  SavedWorld saved = SaveExample3("hdrflip.eidsnap");
  const std::string pristine = ReadFile(saved.path);
  // Flip one bit in each header byte (first 40: fields; 40-47: the
  // checksum itself). Every mutant must fail.
  for (size_t offset = 8; offset < kHeaderSize; ++offset) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    WriteFile(saved.path, bytes);
    Result<LoadedWorld> world = LoadSnapshot(saved.path);
    ASSERT_FALSE(world.ok()) << "header byte " << offset;
    EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotTest, BitFlipAnywhereNeverCrashes) {
  SavedWorld saved = SaveExample3("flip.eidsnap");
  const std::string pristine = ReadFile(saved.path);
  size_t rejected = 0;
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x04);
    WriteFile(saved.path, bytes);
    Result<LoadedWorld> world = LoadSnapshot(saved.path);
    // Checksummed regions must reject, and so must the zero padding
    // between sections, which no checksum covers.
    if (!world.ok()) {
      ++rejected;
      EXPECT_NE(world.status().message().find("snapshot corrupt:"),
                std::string::npos)
          << world.status().message();
    }
  }
  EXPECT_EQ(rejected, pristine.size());
}

TEST(SnapshotTest, TruncationAtEveryLengthIsCorrupt) {
  SavedWorld saved = SaveExample3("trunc.eidsnap");
  const std::string pristine = ReadFile(saved.path);
  for (size_t len = 0; len < pristine.size(); len += 7) {
    WriteFile(saved.path, pristine.substr(0, len));
    Result<LoadedWorld> world = LoadSnapshot(saved.path);
    ASSERT_FALSE(world.ok()) << "length " << len;
    EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument)
        << "length " << len;
  }
}

TEST(SnapshotTest, ContradictoryIlfdIsCorruptNotAbort) {
  // The decoder validates ILFD atoms before constructing an Ilfd, whose
  // constructor aborts on them. Forge a checksummed rule program (the
  // last section) holding `a=<value 0> -> a=<value 1>`.
  SavedWorld saved = SaveExample3("ilfd.eidsnap");
  std::string bytes = ReadFile(saved.path);
  const uint32_t section_count = ReadU32(bytes, 24);
  const size_t entry =
      kHeaderSize + static_cast<size_t>(section_count - 1) * kSectionEntrySize;
  ASSERT_EQ(ReadU32(bytes, entry),
            static_cast<uint32_t>(SectionKind::kRuleProgram));
  const uint64_t offset = ReadU64(bytes, entry + 8);
  ByteWriter w;
  w.PutU32(1);  // one ILFD
  w.PutU32(1);  // antecedent: a = value 0
  w.PutString("a");
  w.PutU32(0);
  w.PutU32(1);  // consequent: a = value 1
  w.PutString("a");
  w.PutU32(1);
  w.PutU32(0);  // no correspondence mappings
  w.PutU8(0);   // no extended key
  const std::string payload = std::move(w).Take();
  bytes.resize(static_cast<size_t>(offset));
  bytes += payload;
  bytes.resize((bytes.size() + 7) / 8 * 8, '\0');
  PatchU64(&bytes, entry + 16, payload.size());
  PatchU64(&bytes, entry + 24, Fnv64(payload.data(), payload.size()));
  PatchU64(&bytes, 16, bytes.size());  // file size
  PatchU64(&bytes, 32,
           Fnv64(bytes.data() + kHeaderSize,
                 static_cast<size_t>(section_count) * kSectionEntrySize));
  ResealHeader(&bytes);
  WriteFile(saved.path, bytes);
  ExpectCorrupt(saved.path, "ILFD consequent contradicts its antecedent");
}

TEST(SnapshotTest, RowCountWithoutAttributesIsCorruptNotAllocated) {
  // Rows of a relation without attributes occupy no bytes, so the row
  // matrix bound cannot limit their count. Forge a checksummed source-R
  // section with no attributes and 2^32 - 1 rows (about 100 GB of empty
  // rows if allocated) in place of R's, the file re-laid out and resealed
  // around it; the decoder must refuse it before allocating.
  SavedWorld saved = SaveExample3("widthless.eidsnap");
  const std::string bytes = ReadFile(saved.path);
  ByteWriter w;
  w.PutString("R");
  w.PutU32(0);            // no attributes
  w.PutU32(0);            // no keys
  w.PutU32(0xFFFFFFFFu);  // row count
  WriteFile(saved.path,
            ReplaceSection(bytes,
                           SectionIndex(bytes, SectionKind::kRelation,
                                        static_cast<uint32_t>(
                                            RelationRole::kSourceR)),
                           std::move(w).Take()));
  ExpectCorrupt(saved.path, "relation without attributes has rows");
}

TEST(SnapshotTest, AppendedPayloadWithRepointedEntryIsCorrupt) {
  // A layout the writer never produces: source R's payload appended past
  // the last section and its table entry pointed there, every checksum
  // resealed. Sections must be contiguous in table order.
  SavedWorld saved = SaveExample3("repointed.eidsnap");
  std::string bytes = ReadFile(saved.path);
  const uint32_t section_count = ReadU32(bytes, 24);
  const size_t index = SectionIndex(
      bytes, SectionKind::kRelation,
      static_cast<uint32_t>(RelationRole::kSourceR));
  const size_t entry = kHeaderSize + index * kSectionEntrySize;
  const std::string payload = SectionPayload(bytes, index);
  const uint64_t offset = bytes.size();
  bytes += payload;
  bytes.resize((bytes.size() + 7) / 8 * 8, '\0');
  PatchU64(&bytes, entry + 8, offset);
  PatchU64(&bytes, 16, bytes.size());  // file size
  PatchU64(&bytes, 32,
           Fnv64(bytes.data() + kHeaderSize,
                 static_cast<size_t>(section_count) * kSectionEntrySize));
  ResealHeader(&bytes);
  WriteFile(saved.path, bytes);
  ExpectCorrupt(saved.path, "does not start where its predecessor ends");
}

TEST(SnapshotTest, PaddingBitFlipIsCorrupt) {
  // Padding is the one part of the file no checksum covers; the reader
  // requires it zero, so flipping any bit of any padding byte is caught.
  SavedWorld saved = SaveExample3("padding.eidsnap");
  const std::string pristine = ReadFile(saved.path);
  const uint32_t section_count = ReadU32(pristine, 24);
  size_t padding_bytes = 0;
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t entry =
        kHeaderSize + static_cast<size_t>(i) * kSectionEntrySize;
    const size_t end = static_cast<size_t>(ReadU64(pristine, entry + 8) +
                                           ReadU64(pristine, entry + 16));
    for (size_t at = end; at < (end + 7) / 8 * 8; ++at) {
      ++padding_bytes;
      for (int bit = 0; bit < 8; ++bit) {
        std::string bytes = pristine;
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
        WriteFile(saved.path, bytes);
        ExpectCorrupt(saved.path, "padding is not zero");
      }
    }
  }
  EXPECT_GT(padding_bytes, 0u);
}

TEST(SnapshotTest, TrailingSectionBytesAreCorrupt) {
  // Every decoder must consume its payload exactly: one extra byte after
  // any section's record is corruption, not slack.
  SavedWorld saved = SaveExample3("trailing.eidsnap");
  const std::string pristine = ReadFile(saved.path);
  const uint32_t section_count = ReadU32(pristine, 24);
  for (uint32_t i = 0; i < section_count; ++i) {
    SCOPED_TRACE("section " + std::to_string(i));
    WriteFile(saved.path, ReplaceSection(pristine, i,
                                         SectionPayload(pristine, i) + '\1'));
    ExpectCorrupt(saved.path, "section has 1 trailing bytes");
  }
}

TEST(SnapshotTest, ProvenanceStepOutsideItsIlfdIsCorrupt) {
  // A provenance step names its ILFD; its (attribute, value) must be one
  // of that ILFD's consequent atoms. Forge R's only row with a step
  // county=Ramsey (I7's consequent) credited to I1.
  SavedWorld saved = SaveExample3("step.eidsnap");
  Result<LoadedWorld> world = LoadSnapshot(saved.path);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  const std::vector<Value>& dict = world->dictionary;
  const auto ramsey =
      std::find(dict.begin(), dict.end(), Value::String("Ramsey"));
  ASSERT_NE(ramsey, dict.end());
  ByteWriter w;
  w.PutU32(1);  // one R row
  w.PutU32(0);  // empty derived map
  w.PutU32(1);  // one step
  w.PutString("county");
  w.PutU32(static_cast<uint32_t>(ramsey - dict.begin()));
  w.PutU64(0);  // I1: speciality=Hunan -> cuisine=Chinese
  w.PutU32(0);  // no conflicts
  w.PutU32(0);  // no S rows
  const std::string bytes = ReadFile(saved.path);
  WriteFile(saved.path,
            ReplaceSection(bytes, SectionIndex(bytes, SectionKind::kProvenance),
                           std::move(w).Take()));
  ExpectCorrupt(saved.path, "county=Ramsey is not a consequent of ILFD 0");
}

TEST(SnapshotTest, RoundTripKeepsConflictsAndDerivedBits) {
  // Example 3 plus an ILFD contradicting I7, under both recording
  // policies: the conflicts, and the county steps left out of the derived
  // map, must come back exactly.
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kNullOut}) {
    SCOPED_TRACE(policy == ConflictPolicy::kKeepFirst ? "keep_first"
                                                      : "null_out");
    const Relation r = fixtures::Example3R();
    const Relation s = fixtures::Example3S();
    IdentifierConfig config;
    config.correspondence = AttributeCorrespondence::Identity(r, s);
    config.extended_key = fixtures::Example3ExtendedKey();
    config.ilfds = fixtures::Example3Ilfds();
    ASSERT_TRUE(config.ilfds.AddText("street=FrontAve. -> county=Hennepin")
                    .ok());
    config.matcher_options.extension.derivation.conflict_policy = policy;
    Result<IdentificationResult> result =
        EntityIdentifier(config).Identify(r, s);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Provenance& fresh = result->r_traces;
    ASSERT_GT(fresh.conflicts().size(), 0u);
    ASSERT_LT(fresh.derived_count(), fresh.step_count());

    const std::string path = ::testing::TempDir() + "/conflicts.eidsnap";
    ASSERT_TRUE(WriteSnapshot(ImageOf(r, s, config, *result), path).ok());
    Result<LoadedWorld> loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ::eid::testing::ExpectProvenanceEqual(loaded->r_traces, fresh);
    ::eid::testing::ExpectProvenanceEqual(loaded->s_traces, result->s_traces);
    for (size_t i = 0; i < fresh.rows(); ++i) {
      EXPECT_TRUE(loaded->r_traces.DerivationOf(i, loaded->ilfds).conflicts ==
                  fresh.DerivationOf(i, config.ilfds).conflicts)
          << "row " << i;
    }
  }
}

TEST(SnapshotTest, RoundTripOrdersDerivedMapsByAttribute) {
  // Without an extended key every derivable attribute is derived, so a row
  // derives several values; zeta is derived before alpha but the record's
  // derived map lists them by name, as DeriveTuple's map iterates.
  const Relation r = fixtures::Example3R();
  const Relation s = fixtures::Example3S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.ilfds = fixtures::Example3Ilfds();
  ASSERT_TRUE(config.ilfds.AddText("street=FrontAve. -> zeta=7").ok());
  ASSERT_TRUE(config.ilfds.AddText("zeta=7 -> alpha=1").ok());
  Result<IdentificationResult> result = EntityIdentifier(config).Identify(r, s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string path = ::testing::TempDir() + "/derive_all.eidsnap";
  ASSERT_TRUE(WriteSnapshot(ImageOf(r, s, config, *result), path).ok());
  Result<LoadedWorld> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ::eid::testing::ExpectProvenanceEqual(loaded->r_traces, result->r_traces);
  ::eid::testing::ExpectProvenanceEqual(loaded->s_traces, result->s_traces);
  std::vector<std::string> derived;
  for (const auto& [attribute, value] :
       loaded->r_traces.DerivationOf(2, loaded->ilfds).derived) {
    derived.push_back(attribute);
  }
  EXPECT_EQ(derived, (std::vector<std::string>{"alpha", "county",
                                               "speciality", "zeta"}));
}

TEST(SnapshotTest, WriteRefusesRowsWithoutAttributes) {
  // The writer's side of the same rule: a file it writes always loads.
  SavedWorld saved = SaveExample3("widthless_write.eidsnap");
  Relation widthless("Z", Schema(std::vector<Attribute>{}));
  ASSERT_TRUE(widthless.Insert(Row{}).ok());
  WorldImage image = ImageOf(saved.r, saved.s, saved.config, saved.result);
  image.r = &widthless;
  const Status st = WriteSnapshot(image, saved.path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("no attributes"), std::string::npos)
      << st.message();
}

TEST(SnapshotTest, WriteRequiresRelations) {
  WorldImage image;  // all null
  Status st = WriteSnapshot(image, ::testing::TempDir() + "/never.eidsnap");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, WriteToUnwritablePathFails) {
  SavedWorld saved = SaveExample3("unwritable.eidsnap");
  Status st = WriteSnapshot(
      ImageOf(saved.r, saved.s, saved.config, saved.result),
      "/nonexistent-dir/x.eidsnap");
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace storage
}  // namespace eid
