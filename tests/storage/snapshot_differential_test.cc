// Snapshot round-trip differential: build a generated world, identify,
// save, load, and re-identify from the loaded sources with the loaded
// rule program — through eid::reference and through the engine at thread
// counts {1, 8}, with and without the snapshot's columnar seeds. Every
// run must reproduce the saved MT/NMT pair lists, certificates and
// partition counts bit-identically: the snapshot is a faithful world
// image, not an approximation. A world seeded from the snapshot indexes its source
// columns from the saved ids, without re-encoding a row.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "eid.h"
#include "eid/reference.h"
#include "exec/columnar_world.h"
#include "storage/snapshot.h"
#include "workload/generator.h"

// WriteSnapshot returns Status; keep the assertion next to the use site.
#define EID_ASSERT_WRITE(expr)                    \
  do {                                            \
    ::eid::Status _st = (expr);                   \
    ASSERT_TRUE(_st.ok()) << _st.ToString();      \
  } while (0)

namespace eid {
namespace storage {
namespace {

GeneratedWorld MakeWorld(size_t per_side) {
  GeneratorConfig gen;
  gen.seed = 1234;
  gen.overlap_entities = per_side / 2;
  gen.r_only_entities = per_side / 2;
  gen.s_only_entities = per_side / 2;
  gen.name_pool = per_side * 2;
  gen.street_pool = per_side * 3;
  gen.cities = 32;
  gen.speciality_pool = 128;
  gen.cuisines = 16;
  gen.ilfd_coverage = 1.0;
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  return std::move(world).value();
}

IdentifierConfig ConfigOf(const GeneratedWorld& world) {
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  config.distinctness_from_ilfds = true;
  return config;
}

void ExpectSameOutcome(const IdentificationResult& expected,
                       const IdentificationResult& actual,
                       const std::string& label) {
  EXPECT_EQ(actual.matching.pairs(), expected.matching.pairs()) << label;
  EXPECT_EQ(actual.negative.table.pairs(), expected.negative.table.pairs())
      << label;
  EXPECT_EQ(actual.partition.total, expected.partition.total) << label;
  EXPECT_EQ(actual.partition.matched, expected.partition.matched) << label;
  EXPECT_EQ(actual.partition.non_matched, expected.partition.non_matched)
      << label;
  EXPECT_EQ(actual.partition.undetermined, expected.partition.undetermined)
      << label;
}

TEST(SnapshotDifferentialTest, LoadedWorldIdentifiesBitIdentically) {
  GeneratedWorld world = MakeWorld(128);
  IdentifierConfig config = ConfigOf(world);
  Result<IdentificationResult> fresh =
      EntityIdentifier(config).Identify(world.r, world.s);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const std::string path =
      ::testing::TempDir() + "/differential.eidsnap";
  EID_ASSERT_WRITE(
      WriteSnapshot(ImageOf(world.r, world.s, config, *fresh), path));
  Result<LoadedWorld> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The persisted tables equal the fresh run's.
  EXPECT_EQ(loaded->matching.pairs(), fresh->matching.pairs());
  EXPECT_EQ(loaded->negative.pairs(), fresh->negative.table.pairs());

  // The paper-literal reference over the loaded sources and rule program
  // reproduces the saved run; the engine does at every thread count,
  // seeded from the snapshot's dictionary or encoding from the rows.
  IdentifierConfig again_config = loaded->ToConfig();
  again_config.distinctness_from_ilfds = true;
  Result<IdentificationResult> reference =
      reference::Identify(again_config, loaded->r, loaded->s);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectSameOutcome(*fresh, *reference, "reference");
  EXPECT_EQ(reference->negative.table.certificates(),
            fresh->negative.table.certificates());
  const auto seeds = again_config.matcher_options.columnar_seeds;
  ASSERT_NE(seeds, nullptr);
  for (int threads : {1, 8}) {
    for (bool seeded : {true, false}) {
      again_config.matcher_options.threads = threads;
      again_config.matcher_options.columnar_seeds = seeded ? seeds : nullptr;
      Result<IdentificationResult> again =
          EntityIdentifier(again_config).Identify(loaded->r, loaded->s);
      const std::string label = "threads=" + std::to_string(threads) +
                                " seeded=" + std::to_string(seeded);
      ASSERT_TRUE(again.ok()) << label << ": " << again.status().ToString();
      ExpectSameOutcome(*reference, *again, label);
      EXPECT_EQ(again->negative.table.certificates(),
                reference->negative.table.certificates())
          << label;
    }
  }
}

TEST(SnapshotDifferentialTest, SaveLoadSaveIsByteStable) {
  // Determinism of the writer: saving a loaded world again produces the
  // same sections (same checksums), so snapshots are reproducible
  // artifacts.
  GeneratedWorld world = MakeWorld(64);
  IdentifierConfig config = ConfigOf(world);
  Result<IdentificationResult> fresh =
      EntityIdentifier(config).Identify(world.r, world.s);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const std::string path1 = ::testing::TempDir() + "/stable1.eidsnap";
  const std::string path2 = ::testing::TempDir() + "/stable2.eidsnap";
  EID_ASSERT_WRITE(
      WriteSnapshot(ImageOf(world.r, world.s, config, *fresh), path1));

  Result<LoadedWorld> loaded = LoadSnapshot(path1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  WorldImage image;
  image.r = &loaded->r;
  image.s = &loaded->s;
  image.r_extended = &loaded->r_extended;
  image.s_extended = &loaded->s_extended;
  image.r_traces = &loaded->r_traces;
  image.s_traces = &loaded->s_traces;
  image.matching = &loaded->matching;
  image.negative = &loaded->negative;
  image.ilfds = &loaded->ilfds;
  image.correspondence = &loaded->correspondence;
  image.extended_key =
      loaded->extended_key.has_value() ? &*loaded->extended_key : nullptr;
  EID_ASSERT_WRITE(WriteSnapshot(image, path2));

  Result<SnapshotReader> r1 = SnapshotReader::Open(path1);
  Result<SnapshotReader> r2 = SnapshotReader::Open(path2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->sections().size(), r2->sections().size());
  ASSERT_EQ(r1->file_size(), r2->file_size());
  for (size_t i = 0; i < r1->sections().size(); ++i) {
    EXPECT_EQ(r1->sections()[i].kind, r2->sections()[i].kind) << i;
    EXPECT_EQ(r1->sections()[i].checksum, r2->sections()[i].checksum) << i;
  }
}

TEST(SnapshotDifferentialTest, ColdStartUsesPostingsNotRowScans) {
  // A cold start seeds the session world with the snapshot's source id
  // matrices. Its posting indexes are then counted from those ids: no
  // row is re-encoded, no value is interned, and every index has as
  // many distinct values as one built by encoding the rows.
  GeneratedWorld world = MakeWorld(64);
  IdentifierConfig config = ConfigOf(world);
  Result<IdentificationResult> fresh =
      EntityIdentifier(config).Identify(world.r, world.s);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const std::string path = ::testing::TempDir() + "/coldstart.eidsnap";
  EID_ASSERT_WRITE(
      WriteSnapshot(ImageOf(world.r, world.s, config, *fresh), path));
  Result<LoadedWorld> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->columnar_seeds, nullptr);

  exec::ColumnarWorld cold;
  cold.Seed(*loaded->columnar_seeds);
  const size_t seeded_hits = cold.reuse_hits();
  exec::ColumnarWorld scanned;
  const std::pair<exec::WorldRel, const Relation*> sources[] = {
      {exec::WorldRel::kR, &loaded->r}, {exec::WorldRel::kS, &loaded->s}};
  for (const auto& [slot, rel] : sources) {
    for (size_t c = 0; c < rel->schema().size(); ++c) {
      EXPECT_EQ(cold.Index(slot, *rel, c).distinct(),
                scanned.Index(slot, *rel, c).distinct())
          << rel->schema().attribute(c).name;
    }
  }
  EXPECT_EQ(cold.encode_ms(), 0.0);
  EXPECT_EQ(cold.reuse_hits(), seeded_hits);
  EXPECT_EQ(cold.dict().size(), loaded->dictionary.size());
}

}  // namespace
}  // namespace storage
}  // namespace eid
