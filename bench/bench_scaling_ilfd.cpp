// Experiment S2 — ILFD reasoning scaling (google-benchmark).
//
// The paper notes (§5.2) that computing the full closure F⁺ is expensive
// (it can be exponentially large) while the symbol closure X⁺_F is cheap —
// "the algorithm for computing X⁺_F is the same as that for computing the
// closure of a set of attributes with respect to a set of FDs". Measured
// here:
//   * X⁺_F (forward closure) vs |F| — linear in total ILFD size;
//   * chain-depth sweeps (derivations through k intermediate attributes);
//   * per-tuple derivation (exhaustive vs first-match);
//   * Armstrong proof construction + verification.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "compile/derivation_program.h"
#include "eid.h"
#include "eid/reference.h"
#include "workload/generator.h"
#include "workload/rng.h"

namespace eid {
namespace {

/// F with `chains` independent chains of length `depth`:
/// a_c0=1 -> a_c1=1 -> ... -> a_c(depth)=1.
IlfdSet ChainSet(size_t chains, size_t depth) {
  IlfdSet set;
  for (size_t c = 0; c < chains; ++c) {
    for (size_t d = 0; d < depth; ++d) {
      std::string from = "a" + std::to_string(c) + "_" + std::to_string(d);
      std::string to = "a" + std::to_string(c) + "_" + std::to_string(d + 1);
      set.Add(Ilfd::Implies({Atom{from, Value::Int(1)}},
                            Atom{to, Value::Int(1)}));
    }
  }
  return set;
}

void BM_ConditionClosure(benchmark::State& state) {
  size_t chains = static_cast<size_t>(state.range(0));
  IlfdSet set = ChainSet(chains, 8);
  std::vector<Atom> seed;
  for (size_t c = 0; c < chains; ++c) {
    seed.push_back(Atom{"a" + std::to_string(c) + "_0", Value::Int(1)});
  }
  for (auto _ : state) {
    std::vector<Atom> closure = set.ConditionClosure(seed);
    benchmark::DoNotOptimize(closure.size());
  }
  state.SetComplexityN(static_cast<int64_t>(set.size()));
  state.counters["ilfds"] = static_cast<double>(set.size());
}
BENCHMARK(BM_ConditionClosure)->Range(8, 512)->Complexity(benchmark::oN);

void BM_DerivationChainDepth(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  IlfdSet set = ChainSet(/*chains=*/1, depth);
  Relation r("R", Schema({Attribute{"a0_0", ValueType::kInt}}));
  EID_CHECK(r.Insert(Row{Value::Int(1)}).ok());
  for (auto _ : state) {
    Result<Derivation> d = DeriveTuple(r.tuple(0), set);
    EID_CHECK(d.ok());
    benchmark::DoNotOptimize(d->derived.size());
  }
  state.counters["derived"] = static_cast<double>(depth);
}
BENCHMARK(BM_DerivationChainDepth)->RangeMultiplier(4)->Range(4, 256);

void BM_DerivationFirstMatchChainDepth(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  IlfdSet set = ChainSet(/*chains=*/1, depth);
  Relation r("R", Schema({Attribute{"a0_0", ValueType::kInt}}));
  EID_CHECK(r.Insert(Row{Value::Int(1)}).ok());
  DerivationOptions opts;
  opts.mode = DerivationMode::kFirstMatch;
  opts.target_attributes = {"a0_" + std::to_string(depth)};
  for (auto _ : state) {
    Result<Derivation> d = DeriveTuple(r.tuple(0), set, opts);
    EID_CHECK(d.ok());
    benchmark::DoNotOptimize(d->derived.size());
  }
}
BENCHMARK(BM_DerivationFirstMatchChainDepth)
    ->RangeMultiplier(4)
    ->Range(4, 256);

void BM_ImpliesQuery(benchmark::State& state) {
  size_t chains = static_cast<size_t>(state.range(0));
  IlfdSet set = ChainSet(chains, 8);
  Ilfd query = Ilfd::Implies({Atom{"a0_0", Value::Int(1)}},
                             Atom{"a0_8", Value::Int(1)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.Implies(query));
  }
  state.counters["ilfds"] = static_cast<double>(set.size());
}
BENCHMARK(BM_ImpliesQuery)->Range(8, 512);

void BM_ArmstrongProofBuildAndVerify(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  IlfdSet set = ChainSet(/*chains=*/1, depth);
  Ilfd target = Ilfd::Implies({Atom{"a0_0", Value::Int(1)}},
                              Atom{"a0_" + std::to_string(depth),
                                   Value::Int(1)});
  AtomTable table;
  for (auto _ : state) {
    Result<Proof> proof = set.Prove(target, &table);
    EID_CHECK(proof.ok());
    AtomTable scratch = set.atoms();
    Implication imp = set.ToImplication(target, &scratch);
    Status verified = VerifyProof(set.kb(), *proof, imp);
    EID_CHECK(verified.ok());
    benchmark::DoNotOptimize(proof->steps.size());
  }
  state.counters["proof_steps"] = static_cast<double>(3 * depth + 2);
}
BENCHMARK(BM_ArmstrongProofBuildAndVerify)->RangeMultiplier(4)->Range(4, 64);

void BM_MinimalCover(benchmark::State& state) {
  // Redundancy removal is quadratic in |F| times closure cost — the
  // expensive operation the paper alludes to for F⁺-style reasoning.
  size_t chains = static_cast<size_t>(state.range(0));
  IlfdSet set = ChainSet(chains, 4);
  // Add one redundant (transitively implied) ILFD per chain.
  for (size_t c = 0; c < chains; ++c) {
    set.Add(Ilfd::Implies({Atom{"a" + std::to_string(c) + "_0",
                                Value::Int(1)}},
                          Atom{"a" + std::to_string(c) + "_4",
                               Value::Int(1)}));
  }
  for (auto _ : state) {
    IlfdSet cover = set.MinimalCover();
    benchmark::DoNotOptimize(cover.size());
  }
  state.counters["ilfds"] = static_cast<double>(set.size());
}
BENCHMARK(BM_MinimalCover)->RangeMultiplier(4)->Range(4, 64);

void BM_ViolationScan(benchmark::State& state) {
  // Tuple-at-a-time ILFD violation checking over a relation.
  size_t rows = static_cast<size_t>(state.range(0));
  IlfdSet set;
  for (int v = 0; v < 32; ++v) {
    set.Add(Ilfd::Implies({Atom{"speciality", Value::Int(v)}},
                          Atom{"cuisine", Value::Int(v % 7)}));
  }
  Relation r("R", Schema({Attribute{"speciality", ValueType::kInt},
                          Attribute{"cuisine", ValueType::kInt}}));
  Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    int64_t sp = static_cast<int64_t>(rng.Below(32));
    EID_CHECK(r.Insert(Row{Value::Int(sp), Value::Int(sp % 7)}).ok());
  }
  for (auto _ : state) {
    std::vector<IlfdViolation> v = CheckViolations(r, set);
    benchmark::DoNotOptimize(v.size());
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_ViolationScan)->Range(64, 4096)->Complexity(benchmark::oN);

// --- Thread sweep: per-tuple derivation via parallel extension ----------
// The derivation workload the pool shards in ExtendRelation; ns/op per
// (n, threads) lands in BENCH_scaling.json via the custom main.

void BM_ParallelExtension(benchmark::State& state) {
  size_t per_side = static_cast<size_t>(state.range(0));
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
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  bench::RequireCleanWorld(
      "scaling_ilfd per_side=" + std::to_string(per_side), *world);
  ExtensionOptions options;
  options.threads = static_cast<int>(state.range(1));
  double total_ms = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    bench::WallTimer timer;
    Result<ExtensionResult> rx =
        ExtendRelation(world->r, Side::kR, world->correspondence,
                       world->extended_key, world->ilfds, options);
    EID_CHECK(rx.ok());
    total_ms += timer.ElapsedMs();
    ++iterations;
    benchmark::DoNotOptimize(rx->extended.size());
  }
  state.counters["threads"] = static_cast<double>(options.threads);
  bench::GlobalJson().Record("extension", per_side, options.threads,
                             total_ms * 1e6 / static_cast<double>(iterations));
}
BENCHMARK(BM_ParallelExtension)->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}});

// --- Engine comparison: compiled vs per-tuple interpreter ---------------
// CPU time (CpuTimer), single-threaded, so the reported ratio survives
// shared single-core CI runners (see README "Performance"). ns/op per
// (engine, n) lands in the JSON via the custom main; EXPERIMENTS.md
// records the n=4096 ratio.

/// A taxonomy workload: street determines city, city determines county —
/// bounded domains shared by many tuples, the shape of the paper's
/// restaurant ILFDs.
struct TaxonomyWorkload {
  Schema schema{std::vector<Attribute>{}};
  std::vector<Row> rows;
  IlfdSet ilfds;
};

TaxonomyWorkload MakeTaxonomy(size_t rows) {
  constexpr size_t kStreets = 128;
  constexpr size_t kCities = 32;
  TaxonomyWorkload w;
  w.schema = Schema::OfStrings({"name", "street", "city", "county"});
  for (size_t t = 0; t < kStreets; ++t) {
    w.ilfds.Add(Ilfd::Implies(
        {Atom{"street", Value::String("Street" + std::to_string(t))}},
        Atom{"city", Value::String("City" + std::to_string(t % kCities))}));
  }
  for (size_t c = 0; c < kCities; ++c) {
    w.ilfds.Add(Ilfd::Implies(
        {Atom{"city", Value::String("City" + std::to_string(c))}},
        Atom{"county", Value::String("County" + std::to_string(c % 8))}));
  }
  w.rows.reserve(rows);
  Rng rng(77);
  for (size_t i = 0; i < rows; ++i) {
    std::string street = "Street" + std::to_string(rng.Below(kStreets));
    w.rows.push_back(Row{Value::String("Name" + std::to_string(i)),
                         Value::String(std::move(street)), Value::Null(),
                         Value::Null()});
  }
  return w;
}

void RunDerivationEngine(benchmark::State& state, bool compile) {
  TaxonomyWorkload w = MakeTaxonomy(static_cast<size_t>(state.range(0)));
  DerivationOptions opts;  // kExhaustive, kError
  // Target the attributes the extension stage actually fills, as
  // ExtendRelation does — both engines filter to the same write set.
  opts.target_attributes = {"city", "county"};
  double total_ms = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    bench::CpuTimer timer;
    size_t derived = 0;
    if (compile) {
      // Lowering happens inside the timed region: the compile cost is
      // part of every session, exactly as in ExtendRelation.
      compile::DerivationProgram program =
          compile::DerivationProgram::Compile(w.schema, w.ilfds, opts);
      ClosureEvaluator evaluator(&program.kb());
      std::vector<compile::DerivationWrite> writes;
      for (const Row& row : w.rows) {
        Result<Derivation> d = program.Derive(row, evaluator, &writes);
        EID_CHECK(d.ok());
        derived += d->derived.size();
      }
    } else {
      ClosureEvaluator evaluator(&w.ilfds.kb());
      for (const Row& row : w.rows) {
        TupleView view(&w.schema, &row);
        Result<Derivation> d = DeriveTuple(view, w.ilfds, opts, &evaluator);
        EID_CHECK(d.ok());
        derived += d->derived.size();
      }
    }
    total_ms += timer.ElapsedMs();
    ++iterations;
    benchmark::DoNotOptimize(derived);
  }
  bench::GlobalJson().Record(
      compile ? "derivation_compiled" : "derivation_interpreter",
      static_cast<size_t>(state.range(0)), /*threads=*/1,
      total_ms * 1e6 / static_cast<double>(iterations));
}

void BM_DerivationCompiled(benchmark::State& state) {
  RunDerivationEngine(state, /*compile=*/true);
}
void BM_DerivationInterpreter(benchmark::State& state) {
  RunDerivationEngine(state, /*compile=*/false);
}
BENCHMARK(BM_DerivationCompiled)->RangeMultiplier(4)->Range(256, 4096);
BENCHMARK(BM_DerivationInterpreter)->RangeMultiplier(4)->Range(256, 4096);

/// End-to-end extension on the generated world (per-entity ILFDs mention
/// `name`). The interpreter row is eid::reference::ExtendRelation.
void RunExtensionEngine(benchmark::State& state, bool compile) {
  size_t per_side = static_cast<size_t>(state.range(0));
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
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  bench::RequireCleanWorld(
      "scaling_ilfd per_side=" + std::to_string(per_side), *world);
  ExtensionOptions options;
  options.threads = 1;
  double total_ms = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    bench::CpuTimer timer;
    Result<ExtensionResult> rx =
        compile ? ExtendRelation(world->r, Side::kR, world->correspondence,
                                 world->extended_key, world->ilfds, options)
                : reference::ExtendRelation(
                      world->r, Side::kR, world->correspondence,
                      world->extended_key, world->ilfds, options);
    EID_CHECK(rx.ok());
    total_ms += timer.ElapsedMs();
    ++iterations;
    benchmark::DoNotOptimize(rx->extended.size());
  }
  bench::GlobalJson().Record(
      compile ? "extension_compiled" : "extension_interpreter", per_side,
      /*threads=*/1, total_ms * 1e6 / static_cast<double>(iterations));
}

void BM_ExtensionCompiled(benchmark::State& state) {
  RunExtensionEngine(state, /*compile=*/true);
}
void BM_ExtensionInterpreter(benchmark::State& state) {
  RunExtensionEngine(state, /*compile=*/false);
}
BENCHMARK(BM_ExtensionCompiled)->Arg(1024)->Arg(4096);
BENCHMARK(BM_ExtensionInterpreter)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace eid

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string path = eid::bench::ScalingJsonPath();
  if (!eid::bench::GlobalJson().records().empty() &&
      !eid::bench::GlobalJson().WriteFile(path)) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  return 0;
}
