// Experiment S7 — snapshot save/load vs rebuild-from-rows cold start.
//
// For each world size the harness identifies once, then measures:
//   * save_ms     — WriteSnapshot of the full world image;
//   * load_ms     — LoadSnapshot: map, checksum, decode dictionary +
//                   relations + MT/NMT + provenance + rule program;
//   * rebuild_ms  — the path a process without a snapshot must take to
//                   reach the same state, starting from durable bytes
//                   only: read the source relations from disk (CSV), parse
//                   the ILFD rule file, build the IlfdSet, compile the
//                   rule session into a fresh EntityIdentifier, and re-run
//                   Identify (extension, derivation, joins, rule sweeps).
//                   The durable inputs are written once outside the timed
//                   region; everything a restarted process would execute
//                   is inside it. This mirrors what load_ms pays: the
//                   snapshot's timed region includes rule-program decode
//                   and IlfdSet construction, so the baseline's includes
//                   their from-text equivalents.
//
// The speedup column (rebuild_ms / load_ms) is the cold-start win the
// snapshot subsystem exists for; EXPERIMENTS.md S7 records the --full
// n=65536 row. file_bytes vs ram_bytes shows what the dictionary
// encoding buys over the in-memory representation.
//
// Output: BENCH_snapshot.json ($EID_BENCH_JSON overrides), merged per
// (name, n) so smoke runs refresh small-n records without disturbing
// committed full-sweep ones.
//
// Usage:  bench_snapshot [--full]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eid.h"
#include "relational/csv.h"
#include "storage/snapshot.h"
#include "workload/generator.h"

namespace eid {
namespace {

GeneratedWorld MakeWorld(size_t per_side) {
  GeneratorConfig gen;
  gen.seed = 1234;
  gen.overlap_entities = per_side / 2;
  gen.r_only_entities = per_side / 2;
  gen.s_only_entities = per_side / 2;
  // Names are shared by ~3 entities on average — the paper's motivating
  // regime (homonyms force real identity/distinctness work; near-unique
  // names would make identification trivial and the rebuild baseline
  // meaninglessly cheap).
  gen.name_pool = per_side / 2;
  gen.street_pool = per_side * 3;
  gen.cities = 32;
  gen.speciality_pool = 128;
  gen.cuisines = 16;
  // The rule program is domain knowledge (speciality→cuisine taxonomies,
  // per-restaurant facts a curator wrote down); it does not grow linearly
  // with the row count the way the pools above must (pool size drives key
  // uniqueness and blocking selectivity). Cap it at a fixed budget so the
  // large-n worlds carry a realistic rules-to-rows ratio. At per_side ≤
  // 1024 the caps are above the natural counts and change nothing.
  const size_t entities =
      gen.overlap_entities + gen.r_only_entities + gen.s_only_entities;
  gen.max_street_rules = 4096;
  gen.ilfd_coverage = std::min(1.0, 4096.0 / static_cast<double>(entities));
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  bench::RequireCleanWorld("snapshot per_side=" + std::to_string(per_side),
                           *world);
  return std::move(world).value();
}

size_t ValueRamBytes(const Value& v) {
  size_t bytes = sizeof(Value);
  if (v.type() == ValueType::kString) bytes += v.AsString().size();
  return bytes;
}

size_t RelationRamBytes(const Relation& rel) {
  size_t bytes = 0;
  for (const Row& row : rel.rows()) {
    for (const Value& v : row) bytes += ValueRamBytes(v);
  }
  return bytes;
}

/// In-memory footprint of what the snapshot persists: the four
/// relations, both pair lists, and the provenance values.
size_t WorldRamBytes(const storage::LoadedWorld& world) {
  size_t bytes = RelationRamBytes(world.r) + RelationRamBytes(world.s) +
                 RelationRamBytes(world.r_extended) +
                 RelationRamBytes(world.s_extended);
  bytes += (world.matching.size() + world.negative.size()) *
           sizeof(TuplePair);
  for (const std::vector<Derivation>* traces :
       {&world.r_traces, &world.s_traces}) {
    for (const Derivation& d : *traces) {
      for (const auto& [attribute, value] : d.derived) {
        bytes += attribute.size() + ValueRamBytes(value);
      }
      bytes += d.steps.size() * sizeof(DerivationStep);
      bytes += d.conflicts.size() * sizeof(DerivationConflict);
    }
  }
  return bytes;
}

struct Row7 {
  size_t n = 0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double rebuild_ms = 0.0;
  size_t file_bytes = 0;
  size_t ram_bytes = 0;
  size_t dict_values = 0;
};

std::string ToLine(const Row7& r) {
  std::ostringstream out;
  out << "  {\"name\": \"snapshot\", \"n\": " << r.n
      << ", \"save_ms\": " << r.save_ms << ", \"load_ms\": " << r.load_ms
      << ", \"rebuild_ms\": " << r.rebuild_ms << ", \"speedup\": "
      << (r.load_ms > 0.0 ? r.rebuild_ms / r.load_ms : 0.0)
      << ", \"file_bytes\": " << r.file_bytes
      << ", \"ram_bytes\": " << r.ram_bytes
      << ", \"dict_values\": " << r.dict_values << "}";
  return out.str();
}

/// Merge-on-key writer in the BENCH_*.json house style: existing records
/// with the same (name, n) prefix are replaced, others preserved.
bool WriteJson(const std::string& path, const std::vector<Row7>& rows) {
  std::map<std::string, std::string> lines;
  std::vector<std::string> order;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  {\"name\"", 0) != 0) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    std::string key = line.substr(0, line.find("\"save_ms\""));
    if (lines.emplace(key, line).second) order.push_back(key);
  }
  in.close();
  for (const Row7& r : rows) {
    std::string full = ToLine(r);
    std::string key = full.substr(0, full.find("\"save_ms\""));
    if (lines.emplace(key, full).second) {
      order.push_back(key);
    } else {
      lines[key] = full;
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < order.size(); ++i) {
    out << lines[order[i]] << (i + 1 < order.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

/// The identification session, paper-faithful (§6 drives matching with
/// name/city/speciality comparisons): three identity rules and the three
/// same-name distinctness complements. Every non-name attribute is native
/// to exactly one side, so each rule forces derivation — cuisine reaches
/// S' only through the speciality→cuisine taxonomy (full coverage, the
/// extension sweep touches every S row), city and speciality reach R'
/// through the capped street→city and per-entity rules. Selective join
/// rules rather than the Θ(n²)-output Prop-1 NMT keep the tables
/// near-linear so n reaches 65536 (same reasoning as
/// BM_ParallelIdentifyBlocked). Distinctness via != is sound here because
/// each generated entity has exactly one street/city/speciality.
IdentifierConfig MakeSession(const Relation& r, const Relation& s,
                             IlfdSet ilfds) {
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = ExtendedKey({"name", "speciality"});
  config.ilfds = std::move(ilfds);
  const std::pair<const char*, const char*> kIdentity[] = {
      {"name_cuisine_eq", "e1.name = e2.name & e1.cuisine = e2.cuisine"},
      {"name_city_eq", "e1.name = e2.name & e1.city = e2.city"},
      {"name_speciality_eq",
       "e1.name = e2.name & e1.speciality = e2.speciality"},
  };
  for (const auto& [name, text] : kIdentity) {
    Result<IdentityRule> rule = ParseIdentityRule(name, text);
    EID_CHECK(rule.ok());
    config.identity_rules.push_back(*rule);
  }
  const std::pair<const char*, const char*> kDistinct[] = {
      {"same_name_other_cuisine",
       "e1.name = e2.name & e1.cuisine != e2.cuisine"},
      {"same_name_other_city", "e1.name = e2.name & e1.city != e2.city"},
      {"same_name_other_speciality",
       "e1.name = e2.name & e1.speciality != e2.speciality"},
  };
  for (const auto& [name, text] : kDistinct) {
    Result<DistinctnessRule> rule = ParseDistinctnessRule(name, text);
    EID_CHECK(rule.ok());
    config.distinctness_rules.push_back(*rule);
  }
  config.distinctness_from_ilfds = false;
  return config;
}

Row7 Measure(size_t per_side, int repeats) {
  GeneratedWorld world = MakeWorld(per_side);
  IdentifierConfig config = MakeSession(world.r, world.s, world.ilfds);

  Row7 row;
  row.n = per_side;

  EntityIdentifier identifier(config);
  Result<IdentificationResult> result = identifier.Identify(world.r, world.s);
  EID_CHECK(result.ok());

  const std::string path = "/tmp/bench_snapshot.eidsnap";
  storage::WorldImage image =
      storage::ImageOf(world.r, world.s, config, *result);

  // The rebuild baseline starts from durable storage, like the snapshot
  // does: a process that lost its memory has neither the source rows nor
  // the parsed rule program in RAM. Written once here; reading them back
  // is part of rebuild.
  const std::string r_csv = "/tmp/bench_snapshot_r.csv";
  const std::string s_csv = "/tmp/bench_snapshot_s.csv";
  const std::string ilfd_path = "/tmp/bench_snapshot.ilfds";
  EID_CHECK(WriteCsvFile(world.r, r_csv).ok());
  EID_CHECK(WriteCsvFile(world.s, s_csv).ok());
  {
    // One `antecedent -> consequent` line per ILFD — the text form
    // ParseIlfdList reads back (IlfdSet::ToString adds display labels).
    std::ofstream ilfd_out(ilfd_path, std::ios::trunc);
    for (size_t i = 0; i < world.ilfds.size(); ++i) {
      ilfd_out << world.ilfds.ilfd(i).ToString() << "\n";
    }
    EID_CHECK(ilfd_out.good());
  }

  row.save_ms = 1e30;
  row.load_ms = 1e30;
  row.rebuild_ms = 1e30;
  for (int rep = 0; rep < repeats; ++rep) {
    {
      bench::WallTimer timer;
      Status st = storage::WriteSnapshot(image, path);
      EID_CHECK(st.ok());
      row.save_ms = std::min(row.save_ms, timer.ElapsedMs());
    }
    {
      bench::WallTimer timer;
      Result<storage::LoadedWorld> loaded = storage::LoadSnapshot(path);
      EID_CHECK(loaded.ok());
      row.load_ms = std::min(row.load_ms, timer.ElapsedMs());
      if (rep == 0) {
        row.dict_values = loaded->dictionary.size();
        row.ram_bytes = WorldRamBytes(*loaded);
        // The loaded tables must equal the saved run — a bench that
        // measures a wrong answer measures nothing.
        EID_CHECK(loaded->matching.pairs() == result->matching.pairs());
        EID_CHECK(loaded->negative.pairs() ==
                  result->negative.table.pairs());
      }
    }
    {
      // Rebuild baseline: everything the load replaces, from durable
      // bytes only — re-reading the sources, re-parsing the rule file,
      // rebuilding the IlfdSet, compiling a *fresh* identifier (a
      // restarted process has no warm rule programs or column indexes), and re-deriving the extended relations, MT/NMT
      // and provenance.
      bench::WallTimer timer;
      Result<Relation> r_rows = ReadCsvFile(r_csv, "R");
      EID_CHECK(r_rows.ok());
      Result<Relation> s_rows = ReadCsvFile(s_csv, "S");
      EID_CHECK(s_rows.ok());
      // The source catalogs declare candidate keys (R: (name, street);
      // S: (name, city)); CSV carries rows only, so re-apply the
      // declarations. The paper's key-based reasoning consumes them, and
      // the snapshot restores them too — a keyless baseline would rebuild
      // a weaker world than the one the snapshot loads.
      Relation r("R", r_rows->schema());
      EID_CHECK(r.DeclareKey({"name", "street"}).ok());
      {
        std::vector<Row> rows(r_rows->rows().begin(), r_rows->rows().end());
        r.AdoptRows(std::move(rows));
      }
      Relation s("S", s_rows->schema());
      EID_CHECK(s.DeclareKey({"name", "city"}).ok());
      {
        std::vector<Row> rows(s_rows->rows().begin(), s_rows->rows().end());
        s.AdoptRows(std::move(rows));
      }
      std::ifstream ilfd_in(ilfd_path);
      std::stringstream ilfd_text;
      ilfd_text << ilfd_in.rdbuf();
      Result<std::vector<Ilfd>> parsed = ParseIlfdList(ilfd_text.str());
      EID_CHECK(parsed.ok());
      IlfdSet rebuilt_ilfds;
      for (Ilfd& f : *parsed) rebuilt_ilfds.Add(std::move(f));
      EntityIdentifier cold(MakeSession(r, s, std::move(rebuilt_ilfds)));
      Result<IdentificationResult> again = cold.Identify(r, s);
      EID_CHECK(again.ok());
      row.rebuild_ms = std::min(row.rebuild_ms, timer.ElapsedMs());
      if (rep == 0) {
        EID_CHECK(again->matching.pairs() == result->matching.pairs());
        EID_CHECK(again->negative.table.pairs() ==
                  result->negative.table.pairs());
      }
    }
  }
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    row.file_bytes = static_cast<size_t>(f.tellg());
  }
  std::remove(path.c_str());
  std::remove(r_csv.c_str());
  std::remove(s_csv.c_str());
  std::remove(ilfd_path.c_str());
  return row;
}

}  // namespace
}  // namespace eid

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::string(argv[1]) == "--full";
  eid::bench::Banner("S7", "snapshot cold start vs rebuild-from-rows");

  std::vector<size_t> sizes = full
      ? std::vector<size_t>{1024, 4096, 16384, 65536}
      : std::vector<size_t>{256, 1024};
  const int repeats = full ? 3 : 2;

  std::printf("%8s %10s %10s %12s %9s %12s %12s\n", "n", "save_ms",
              "load_ms", "rebuild_ms", "speedup", "file_bytes", "ram_bytes");
  std::vector<eid::Row7> rows;
  for (size_t n : sizes) {
    eid::Row7 row = eid::Measure(n, repeats);
    rows.push_back(row);
    std::printf("%8zu %10.2f %10.2f %12.2f %8.1fx %12zu %12zu\n", row.n,
                row.save_ms, row.load_ms, row.rebuild_ms,
                row.rebuild_ms / row.load_ms, row.file_bytes, row.ram_bytes);
  }

  const char* env = std::getenv("EID_BENCH_JSON");
  const std::string path =
      env != nullptr && *env != '\0' ? env : "BENCH_snapshot.json";
  if (!eid::WriteJson(path, rows)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
