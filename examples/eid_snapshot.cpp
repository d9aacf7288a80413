// Snapshot CLI: save, load, inspect and verify world snapshot files
// (src/storage/snapshot.h).
//
//   eid_snapshot save <path> [n]     build a world (paper Example 3, or a
//                                    generated one with n entities per
//                                    side), identify, write the snapshot
//   eid_snapshot load <path>         load + print world summary and stats
//   eid_snapshot inspect <path>      print header fields + section table
//   eid_snapshot verify <path>       validate checksums and fully decode;
//                                    exit 1 with the corruption message
//   eid_snapshot roundtrip [n]       save to a temp file, load it back,
//                                    re-identify through the engine and
//                                    the reference, and require
//                                    bit-identical MT/NMT and certificates
//
// Build & run:  ./build/examples/eid_snapshot roundtrip

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "eid.h"
#include "eid/reference.h"
#include "storage/snapshot.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace {

using namespace eid;
using storage::LoadedWorld;
using storage::SnapshotReader;

struct World {
  Relation r, s;
  IdentifierConfig config;
};

World BuildWorld(size_t per_side) {
  World world;
  if (per_side == 0) {
    world.r = fixtures::Example3R();
    world.s = fixtures::Example3S();
    world.config.correspondence =
        AttributeCorrespondence::Identity(world.r, world.s);
    world.config.extended_key = fixtures::Example3ExtendedKey();
    world.config.ilfds = fixtures::Example3Ilfds();
  } else {
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
    GeneratedWorld generated = GenerateWorld(gen).value();
    world.r = std::move(generated.r);
    world.s = std::move(generated.s);
    world.config.correspondence = std::move(generated.correspondence);
    world.config.extended_key = std::move(generated.extended_key);
    world.config.ilfds = std::move(generated.ilfds);
  }
  world.config.distinctness_from_ilfds = true;
  return world;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status.message() << "\n";
  return 1;
}

int Save(const std::string& path, size_t per_side) {
  World world = BuildWorld(per_side);
  Result<IdentificationResult> result =
      EntityIdentifier(world.config).Identify(world.r, world.s);
  if (!result.ok()) return Fail(result.status());
  Status st = storage::WriteSnapshot(
      storage::ImageOf(world.r, world.s, world.config, *result), path);
  if (!st.ok()) return Fail(st);
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  if (!reader.ok()) return Fail(reader.status());
  std::cout << "saved " << path << " (" << reader->file_size() << " bytes, "
            << reader->sections().size() << " sections)\n"
            << "  R " << world.r.size() << " rows, S " << world.s.size()
            << " rows, MT " << result->matching.size() << ", NMT "
            << result->negative.table.size() << "\n";
  return 0;
}

void PrintWorld(const LoadedWorld& world) {
  std::cout << "  R  " << world.r.name() << ": " << world.r.size()
            << " rows | S  " << world.s.name() << ": " << world.s.size()
            << " rows\n"
            << "  R' " << world.r_extended.size() << " rows | S' "
            << world.s_extended.size() << " rows\n"
            << "  MT " << world.matching.size() << " pairs, NMT "
            << world.negative.size() << " pairs\n"
            << "  ILFDs " << world.ilfds.size() << ", dictionary "
            << world.dictionary.size() << " values\n"
            << "  traces R " << world.r_traces.size() << ", S "
            << world.s_traces.size() << "\n"
            << "  stats: " << world.load_stats.ToString() << "\n";
}

int Load(const std::string& path) {
  Result<LoadedWorld> world = storage::LoadSnapshot(path);
  if (!world.ok()) return Fail(world.status());
  std::cout << "loaded " << path << "\n";
  PrintWorld(*world);
  return 0;
}

int Inspect(const std::string& path) {
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  if (!reader.ok()) return Fail(reader.status());
  std::cout << path << ": version " << storage::kSnapshotVersion << ", "
            << reader->file_size() << " bytes"
            << (reader->mapped() ? " (mmap)" : " (read)") << ", "
            << reader->sections().size() << " sections\n";
  std::printf("  %-14s %-10s %10s %10s  %s\n", "kind", "role", "offset",
              "bytes", "checksum");
  for (const storage::SectionEntry& e : reader->sections()) {
    std::printf("  %-14s %-10s %10llu %10llu  %016llx\n",
                storage::SectionKindName(
                    static_cast<storage::SectionKind>(e.kind)),
                e.kind == static_cast<uint32_t>(storage::SectionKind::kRelation)
                    ? storage::RelationRoleName(
                          static_cast<storage::RelationRole>(e.role))
                    : "-",
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.length),
                static_cast<unsigned long long>(e.checksum));
  }
  return 0;
}

int Verify(const std::string& path) {
  // Open validates magic/version/endianness and every checksum;
  // LoadSnapshot additionally proves each section decodes.
  Result<LoadedWorld> world = storage::LoadSnapshot(path);
  if (!world.ok()) return Fail(world.status());
  std::cout << path << ": ok\n";
  PrintWorld(*world);
  return 0;
}

bool SamePairs(const MatchTable& a, const MatchTable& b) {
  return a.pairs() == b.pairs();
}

int RoundTrip(size_t per_side) {
  const std::string path = "/tmp/eid_snapshot_roundtrip.eidsnap";
  World world = BuildWorld(per_side);
  Result<IdentificationResult> fresh =
      EntityIdentifier(world.config).Identify(world.r, world.s);
  if (!fresh.ok()) return Fail(fresh.status());
  Status st = storage::WriteSnapshot(
      storage::ImageOf(world.r, world.s, world.config, *fresh), path);
  if (!st.ok()) return Fail(st);
  Result<LoadedWorld> loaded = storage::LoadSnapshot(path);
  if (!loaded.ok()) return Fail(loaded.status());

  if (!SamePairs(loaded->matching, fresh->matching) ||
      !SamePairs(loaded->negative, fresh->negative.table)) {
    std::cerr << "FAIL: loaded tables differ from the saved run\n";
    return 1;
  }
  // Re-identify from the loaded sources, with the loaded rule program,
  // through the engine and through the paper-literal reference: both
  // must reproduce the saved tables bit-identically.
  IdentifierConfig config = loaded->ToConfig();
  config.distinctness_from_ilfds = true;
  Result<IdentificationResult> engine =
      EntityIdentifier(config).Identify(loaded->r, loaded->s);
  if (!engine.ok()) return Fail(engine.status());
  Result<IdentificationResult> oracle =
      reference::Identify(config, loaded->r, loaded->s);
  if (!oracle.ok()) return Fail(oracle.status());
  for (const IdentificationResult* again : {&*engine, &*oracle}) {
    if (!SamePairs(again->matching, fresh->matching) ||
        !SamePairs(again->negative.table, fresh->negative.table) ||
        again->negative.evidence != fresh->negative.evidence) {
      std::cerr << "FAIL: re-identify ("
                << (again == &*engine ? "engine" : "reference")
                << ") diverged from the saved run\n";
      return 1;
    }
  }
  std::cout << "roundtrip ok: " << loaded->matching.size() << " MT / "
            << loaded->negative.size() << " NMT pairs reproduced "
            << "bit-identically (engine and reference)\n"
            << "  " << loaded->load_stats.ToString() << "\n";
  std::remove(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr
        << "usage: eid_snapshot save <path> [n] | load <path> | "
           "inspect <path> | verify <path> | roundtrip [n]\n"
           "  n: entities per side for a generated world (default: the\n"
           "     paper's Example 3 fixture)\n";
    return 1;
  }
  const std::string& command = args[0];
  if (command == "save" && (args.size() == 2 || args.size() == 3)) {
    return Save(args[1], args.size() == 3 ? std::stoul(args[2]) : 0);
  }
  if (command == "load" && args.size() == 2) return Load(args[1]);
  if (command == "inspect" && args.size() == 2) return Inspect(args[1]);
  if (command == "verify" && args.size() == 2) return Verify(args[1]);
  if (command == "roundtrip" && args.size() <= 2) {
    return RoundTrip(args.size() == 2 ? std::stoul(args[1]) : 0);
  }
  std::cerr << "eid_snapshot: bad arguments for '" << command << "'\n";
  return 1;
}
