// Experiment S1 — matching-table construction scaling (google-benchmark).
//
// Sweeps |R| = |S| and compares:
//   * the direct pipeline (extension + hash join) — near-linear;
//   * the §4.2 relational-expression pipeline (IM-table joins) — also
//     hash-join based but with materialisation overhead per stage;
//   * a naive nested-loop pairwise matcher — quadratic.
//
// Absolute numbers are machine-dependent; the paper-relevant *shape* is
// that sound extended-key matching costs roughly a constant factor over a
// plain join, far from the quadratic pairwise comparison some §2.2
// baselines require.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "eid.h"
#include "eid/reference.h"
#include "workload/generator.h"

namespace eid {
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
  EID_CHECK(world.ok());
  bench::RequireCleanWorld(
      "scaling_matcher per_side=" + std::to_string(per_side), *world);
  return std::move(world).value();
}

void BM_DirectMatcher(benchmark::State& state) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Result<MatcherResult> result =
        BuildMatchingTable(world.r, world.s, world.correspondence,
                           world.extended_key, world.ilfds);
    EID_CHECK(result.ok());
    benchmark::DoNotOptimize(result->matching.size());
  }
  state.SetComplexityN(state.range(0));
  state.counters["pairs_matched"] = static_cast<double>(world.truth.size());
}
BENCHMARK(BM_DirectMatcher)->Range(256, 8192)->Complexity(benchmark::oN);

void BM_AlgebraPipeline(benchmark::State& state) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  Result<std::vector<IlfdTable>> tables =
      IlfdTable::Partition(world.ilfds.ilfds());
  EID_CHECK(tables.ok());
  for (auto _ : state) {
    Result<AlgebraPipelineResult> result = BuildMatchingTableAlgebraically(
        world.r, world.s, world.correspondence, world.extended_key, *tables);
    EID_CHECK(result.ok());
    benchmark::DoNotOptimize(result->matching.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AlgebraPipeline)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_NaivePairwiseMatcher(benchmark::State& state) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  // Extend once (shared cost), then measure the quadratic pair scan the
  // §2.2 pairwise techniques need.
  Result<ExtensionResult> rx =
      ExtendRelation(world.r, Side::kR, world.correspondence,
                     world.extended_key, world.ilfds);
  Result<ExtensionResult> sx =
      ExtendRelation(world.s, Side::kS, world.correspondence,
                     world.extended_key, world.ilfds);
  EID_CHECK(rx.ok() && sx.ok());
  const Relation& re = rx->extended;
  const Relation& se = sx->extended;
  std::vector<size_t> r_idx, s_idx;
  for (const std::string& a : world.extended_key.attributes()) {
    r_idx.push_back(*re.schema().IndexOf(a));
    s_idx.push_back(*se.schema().IndexOf(a));
  }
  for (auto _ : state) {
    size_t matches = 0;
    for (size_t i = 0; i < re.size(); ++i) {
      for (size_t j = 0; j < se.size(); ++j) {
        bool all = true;
        for (size_t k = 0; k < r_idx.size(); ++k) {
          if (!NonNullEq(re.row(i)[r_idx[k]], se.row(j)[s_idx[k]])) {
            all = false;
            break;
          }
        }
        if (all) ++matches;
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaivePairwiseMatcher)
    ->Range(256, 4096)
    ->Complexity(benchmark::oNSquared);

void BM_ExtensionOnly(benchmark::State& state) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Result<ExtensionResult> rx =
        ExtendRelation(world.r, Side::kR, world.correspondence,
                       world.extended_key, world.ilfds);
    EID_CHECK(rx.ok());
    benchmark::DoNotOptimize(rx->extended.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExtensionOnly)->Range(256, 8192)->Complexity(benchmark::oN);

void BM_IntegratedTable(benchmark::State& state) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  Result<MatcherResult> matcher =
      BuildMatchingTable(world.r, world.s, world.correspondence,
                         world.extended_key, world.ilfds);
  EID_CHECK(matcher.ok());
  IdentificationResult assembled;
  assembled.r_extended = std::move(matcher->r_extension.extended);
  assembled.s_extended = std::move(matcher->s_extension.extended);
  assembled.matching = std::move(matcher->matching);
  for (auto _ : state) {
    Result<Relation> t =
        BuildIntegratedTable(assembled, IntegrationLayout::kMerged);
    EID_CHECK(t.ok());
    benchmark::DoNotOptimize(t->size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IntegratedTable)->Range(256, 8192)->Complexity(benchmark::oN);

// --- Thread sweeps (exec layer) -----------------------------------------
// ns/op per (n, threads) lands in BENCH_scaling.json via the custom main.

void BM_ParallelMatcher(benchmark::State& state) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  MatcherOptions options;
  options.threads = static_cast<int>(state.range(1));
  double total_ms = 0;
  size_t iterations = 0;
  bench::ColumnarCounters columnar;
  for (auto _ : state) {
    bench::WallTimer timer;
    Result<MatcherResult> result =
        BuildMatchingTable(world.r, world.s, world.correspondence,
                           world.extended_key, world.ilfds, options);
    EID_CHECK(result.ok());
    total_ms += timer.ElapsedMs();
    ++iterations;
    columnar = bench::ColumnarCounters::Sum(result->stats.stages());
    benchmark::DoNotOptimize(result->matching.size());
  }
  state.counters["threads"] = static_cast<double>(options.threads);
  bench::GlobalJson().Record("matcher", static_cast<size_t>(state.range(0)),
                             options.threads,
                             total_ms * 1e6 / static_cast<double>(iterations),
                             columnar);
}
BENCHMARK(BM_ParallelMatcher)
    ->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}});

/// Sums the pair-sweep counters (identity + distinctness stages) of one
/// identification run.
void SumPairSweep(const IdentificationResult& result, size_t* candidate_pairs,
                  size_t* cross_product) {
  *candidate_pairs = 0;
  *cross_product = 0;
  for (const exec::StageStats& stage : result.stats.stages()) {
    if (stage.stage == "identity_rules" ||
        stage.stage == "distinctness_rules") {
      *candidate_pairs += stage.candidate_pairs;
      *cross_product += stage.cross_product;
    }
  }
}

void BM_ParallelIdentify(benchmark::State& state) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  config.distinctness_from_ilfds = true;
  config.matcher_options.threads = static_cast<int>(state.range(1));
  EntityIdentifier identifier(config);
  double total_ms = 0;
  size_t iterations = 0;
  size_t candidate_pairs = 0, cross_product = 0;
  for (auto _ : state) {
    bench::WallTimer timer;
    Result<IdentificationResult> result = identifier.Identify(world.r,
                                                              world.s);
    EID_CHECK(result.ok());
    total_ms += timer.ElapsedMs();
    ++iterations;
    SumPairSweep(*result, &candidate_pairs, &cross_product);
    benchmark::DoNotOptimize(result->partition.undetermined);
  }
  state.counters["threads"] =
      static_cast<double>(config.matcher_options.threads);
  state.counters["candidate_pairs"] = static_cast<double>(candidate_pairs);
  bench::GlobalJson().Record("identify", static_cast<size_t>(state.range(0)),
                             config.matcher_options.threads,
                             total_ms * 1e6 / static_cast<double>(iterations),
                             candidate_pairs, cross_product);
}
// Identify sweeps the full Prop-1 distinctness rule set (one rule per
// covered entity); the NMT it certifies is Θ(n²) pairs, almost all of
// them in complement rows. Fixed iterations and repetitions: one n=4096
// op outlasts any minimum time, and the JSON record is the median of the
// repetitions' means.
BENCHMARK(BM_ParallelIdentify)
    ->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}})
    ->Iterations(3)
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelIdentifyBlocked(benchmark::State& state) {
  // Selective join rules instead of the Θ(n²)-output Prop-1 NMT: every
  // rule blocks on a near-unique name, so both output and — through the
  // staged candidate generator — work stay near-linear, which is what
  // lets n reach 65536. CPU time (not wall) is recorded; see CpuTimer.
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  Result<IdentityRule> identity = ParseIdentityRule(
      "name_spec_eq", "e1.name = e2.name & e1.speciality = e2.speciality");
  EID_CHECK(identity.ok());
  config.identity_rules.push_back(*identity);
  Result<DistinctnessRule> distinct = ParseDistinctnessRule(
      "same_name_other_spec",
      "e1.name = e2.name & e1.speciality != e2.speciality");
  EID_CHECK(distinct.ok());
  config.distinctness_rules.push_back(*distinct);
  config.distinctness_from_ilfds = false;
  config.matcher_options.threads = static_cast<int>(state.range(1));
  EntityIdentifier identifier(config);
  double total_ms = 0;
  size_t iterations = 0;
  size_t candidate_pairs = 0, cross_product = 0;
  for (auto _ : state) {
    bench::CpuTimer timer;
    Result<IdentificationResult> result = identifier.Identify(world.r,
                                                              world.s);
    EID_CHECK(result.ok());
    total_ms += timer.ElapsedMs();
    ++iterations;
    SumPairSweep(*result, &candidate_pairs, &cross_product);
    // Quadratic-fallback guard: if blocking collapses, the bench itself
    // fails loudly instead of quietly recording a quadratic sweep.
    EID_CHECK(candidate_pairs < cross_product);
    benchmark::DoNotOptimize(result->partition.undetermined);
  }
  state.counters["threads"] =
      static_cast<double>(config.matcher_options.threads);
  state.counters["candidate_pairs"] = static_cast<double>(candidate_pairs);
  bench::GlobalJson().Record("identify_blocked",
                             static_cast<size_t>(state.range(0)),
                             config.matcher_options.threads,
                             total_ms * 1e6 / static_cast<double>(iterations),
                             candidate_pairs, cross_product);
}
BENCHMARK(BM_ParallelIdentifyBlocked)
    ->ArgsProduct({{4096, 16384, 65536}, {1, 8}})
    ->Unit(benchmark::kMillisecond);

// --- Engine comparison: production vs the paper-literal reference -------
// Full matching-table build, single-threaded, CPU time (see README
// "Performance"): derivation programs in extension plus the id-keyed
// extended-key join, against eid::reference's per-tuple
// interpreter extension and string-fingerprint join.

void RunMatcherEngine(benchmark::State& state, bool reference) {
  GeneratedWorld world = MakeWorld(static_cast<size_t>(state.range(0)));
  MatcherOptions options;
  options.threads = 1;
  double total_ms = 0;
  size_t iterations = 0;
  bench::ColumnarCounters columnar;
  for (auto _ : state) {
    bench::CpuTimer timer;
    Result<MatcherResult> result =
        reference ? reference::BuildMatchingTable(
                        world.r, world.s, world.correspondence,
                        world.extended_key, world.ilfds, options)
                  : BuildMatchingTable(world.r, world.s, world.correspondence,
                                       world.extended_key, world.ilfds,
                                       options);
    EID_CHECK(result.ok());
    total_ms += timer.ElapsedMs();
    ++iterations;
    columnar = bench::ColumnarCounters::Sum(result->stats.stages());
    benchmark::DoNotOptimize(result->matching.size());
  }
  const double ns_op = total_ms * 1e6 / static_cast<double>(iterations);
  if (reference) {
    // The reference row stays in the plain form: the reference never
    // touches a columnar world, so zero counters would only mislead.
    bench::GlobalJson().Record("matcher_interpreter",
                               static_cast<size_t>(state.range(0)),
                               /*threads=*/1, ns_op);
  } else {
    bench::GlobalJson().Record("matcher_compiled",
                               static_cast<size_t>(state.range(0)),
                               /*threads=*/1, ns_op, columnar);
  }
}

void BM_MatcherCompiled(benchmark::State& state) {
  RunMatcherEngine(state, /*reference=*/false);
}
void BM_MatcherInterpreter(benchmark::State& state) {
  RunMatcherEngine(state, /*reference=*/true);
}
// Fixed iterations and repetitions, like BM_ParallelIdentify: the guard
// in scripts/bench.sh compares the medians of the two engines' records.
BENCHMARK(BM_MatcherCompiled)
    ->Arg(1024)
    ->Arg(4096)
    ->Iterations(10)
    ->Repetitions(5);
BENCHMARK(BM_MatcherInterpreter)
    ->Arg(1024)
    ->Arg(4096)
    ->Iterations(10)
    ->Repetitions(5);

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
