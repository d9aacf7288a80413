// The four workloads: world generation, set-up, the timed loops at
// threads=1 and threads=min(nproc, 4), and the answer checks.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include "analysis/analyzer.h"
#include "bench.h"
#include "eid/incremental.h"
#include "eid/integrate.h"
#include "storage/snapshot.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace eid {
namespace perfbench {
namespace {

/// Set-up runs at least kMinSetupReps times and until kSetupBudgetS of
/// set-up has run (at most kMaxSetupReps times); setup_s is the median.
/// A 0.1 s set-up needs more repetitions than three for a steady median.
constexpr size_t kMinSetupReps = 3;
constexpr size_t kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 2.0;
/// Ops run at least at each thread count, so the threads=1 tail has ten
/// samples beyond it.
constexpr size_t kMinOps = 11;
/// Churn cycles run back to back on one session before switching, and
/// cycles in one churn session: every session starts from the same preload
/// and replays the same write stream.
constexpr int kChurnBlock = 32;
constexpr size_t kChurnSession = 128;
/// Write streams the churn set-up tries before it keeps the last one.
constexpr int kMaxChurnStreams = 8;
/// The calibration kernel's median on the 4-vCPU VM the bounds were set
/// on. Gated times are scaled by this over the run's own median, so they
/// read as that host's milliseconds and a host that is slower for the
/// whole run (shared machines drift by 30-45% over minutes) does not read
/// as a regression.
constexpr double kReferenceCalibrationMs = 20.0;
/// The same for RebuildCalibrationMs, the kernel incremental_churn is
/// scaled by: its deletes rebuild a relation through thousands of small
/// allocations, which slow down on a busy host about twice as much as
/// CalibrationMs does.
constexpr double kReferenceRebuildMs = 15.0;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}

// --- Worlds and rule programs -------------------------------------------

/// bench_scaling_matcher's world: near-unique names, full ILFD coverage.
GeneratedWorld ScalingWorld(size_t per_side, uint64_t seed) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.overlap_entities = per_side / 2;
  gen.r_only_entities = per_side / 2;
  gen.s_only_entities = per_side / 2;
  gen.name_pool = per_side * 2;
  gen.street_pool = per_side * 3;
  gen.cities = 32;
  gen.speciality_pool = 128;
  gen.cuisines = 16;
  gen.ilfd_coverage = 1.0;
  return Take(GenerateWorld(gen), "generate scaling world");
}

/// bench_snapshot's world: names shared by ~3 entities (homonyms) and a
/// rule program capped at a fixed budget.
GeneratedWorld SnapshotWorld(size_t per_side, uint64_t seed) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.overlap_entities = per_side / 2;
  gen.r_only_entities = per_side / 2;
  gen.s_only_entities = per_side / 2;
  gen.name_pool = per_side / 2;
  gen.street_pool = per_side * 3;
  gen.cities = 32;
  gen.speciality_pool = 128;
  gen.cuisines = 16;
  const size_t entities =
      gen.overlap_entities + gen.r_only_entities + gen.s_only_entities;
  gen.max_street_rules = 4096;
  gen.ilfd_coverage = std::min(1.0, 4096.0 / static_cast<double>(entities));
  return Take(GenerateWorld(gen), "generate snapshot world");
}

/// bench_snapshot's session: three identity rules and their three
/// same-name distinctness complements.
void AddSessionRules(IdentifierConfig* config) {
  const std::pair<const char*, const char*> kIdentity[] = {
      {"name_cuisine_eq", "e1.name = e2.name & e1.cuisine = e2.cuisine"},
      {"name_city_eq", "e1.name = e2.name & e1.city = e2.city"},
      {"name_speciality_eq",
       "e1.name = e2.name & e1.speciality = e2.speciality"},
  };
  for (const auto& [name, text] : kIdentity) {
    config->identity_rules.push_back(
        Take(ParseIdentityRule(name, text), "parse identity rule"));
  }
  const std::pair<const char*, const char*> kDistinct[] = {
      {"same_name_other_cuisine",
       "e1.name = e2.name & e1.cuisine != e2.cuisine"},
      {"same_name_other_city", "e1.name = e2.name & e1.city != e2.city"},
      {"same_name_other_speciality",
       "e1.name = e2.name & e1.speciality != e2.speciality"},
  };
  for (const auto& [name, text] : kDistinct) {
    config->distinctness_rules.push_back(
        Take(ParseDistinctnessRule(name, text), "parse distinctness rule"));
  }
  config->distinctness_from_ilfds = false;
}

IdentifierConfig SessionConfig(const GeneratedWorld& world) {
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(world.r, world.s);
  config.extended_key = ExtendedKey({"name", "speciality"});
  config.ilfds = world.ilfds;
  AddSessionRules(&config);
  return config;
}

std::string Lint(const Relation& r, const Relation& s,
                 const IdentifierConfig& config) {
  analysis::AnalysisReport report = analysis::AnalyzeRuleProgram(r, s, config);
  return report.HasErrors() ? "rule-program lint: " + report.ToString() : "";
}

/// The paper's Example 3 must reproduce Table 7: TwinCities/Chinese with
/// Hunan, It'sGreek and Anjuman matched, everything else unmatched.
std::string CheckExample3() {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  config.matcher_options.threads = 1;
  Result<IdentificationResult> result =
      EntityIdentifier(config).Identify(r, s);
  if (!result.ok()) return "example 3: " + result.status().ToString();
  std::vector<TuplePair> got = result->matching.pairs();
  std::sort(got.begin(), got.end());
  const std::vector<TuplePair> table7 = {{0, 0}, {2, 2}, {3, 3}};
  if (got != table7 || !result->Sound()) return "example 3: MT is not Table 7";
  return "";
}

// --- Answer checks --------------------------------------------------------

uint64_t Pack(const TuplePair& p) {
  return (static_cast<uint64_t>(p.r_index) << 32) | p.s_index;
}

std::vector<uint64_t> SortedTruth(const GeneratedWorld& world) {
  std::vector<uint64_t> truth;
  truth.reserve(world.truth.size());
  for (const TuplePair& p : world.truth) truth.push_back(Pack(p));
  std::sort(truth.begin(), truth.end());
  return truth;
}

/// Digest equal to `reference`, both verdicts OK, MT ∩ NMT = ∅, and (when
/// `truth` is given) MT ⊆ truth — the paper's §3 soundness.
std::string CheckAnswer(const IdentificationResult& result,
                        uint64_t reference,
                        const std::vector<uint64_t>* truth) {
  if (Digest(result) != reference) return "answer digest differs";
  if (!result.Sound()) return "uniqueness or consistency verdict failed";
  for (const TuplePair& p : result.matching.pairs()) {
    if (result.negative.table.Contains(p)) return "pair in both MT and NMT";
    if (truth != nullptr &&
        !std::binary_search(truth->begin(), truth->end(), Pack(p))) {
      return "MT pair outside the ground truth";
    }
  }
  return "";
}

// --- Shared loop and metrics ------------------------------------------------

/// Samples of the ops run at one thread count.
struct Phase {
  int threads = 1;
  std::vector<double> wall_ms, cpu_ms;
  std::vector<double> traced_ms, untraced_ms;
  /// Per-stage (and per-call) wall time of each op, keyed by metric
  /// prefix.
  std::map<std::string, std::vector<double>> stage_ms;
  std::vector<double> consistency_ms;
};

/// Runs `op(i, traced)` for --seconds, and at least kMinOps times, and
/// returns the calibration `kernel`'s time after each call. Each call runs
/// the op once per thread count, so both counts sample the whole run: a
/// shared machine's speed drifts over seconds, and interleaving keeps the
/// drift out of the threads=1 vs threads=N comparison. In a traced run
/// every other iteration records spans, so the untraced ones give the
/// tracing overhead.
template <typename Op>
std::vector<double> Loop(const Options& options, Op op,
                         double (*kernel)() = CalibrationMs) {
  std::vector<double> calibration_ms;
  const double start = NowMs();
  for (size_t i = 0; i < kMinOps || NowMs() - start < options.seconds * 1e3;
       ++i) {
    op(static_cast<int>(i), options.trace && i % 2 == 0);
    calibration_ms.push_back(kernel());
  }
  return calibration_ms;
}

void Record(Phase* phase, bool traced, double wall_ms, double cpu_ms) {
  phase->wall_ms.push_back(wall_ms);
  phase->cpu_ms.push_back(cpu_ms);
  (traced ? phase->traced_ms : phase->untraced_ms).push_back(wall_ms);
}

/// Folds one Identify's StageStats into `phase`.
void CollectStages(const IdentificationResult& result, double identify_ms,
                   Phase* phase) {
  std::map<std::string, double> ms = {{"extend", 0.0},   {"key_join", 0.0},
                                      {"identity", 0.0}, {"distinct", 0.0},
                                      {"encode", 0.0},   {"self", identify_ms}};
  for (const exec::StageStats& stage : result.stats.stages()) {
    const std::string& name = stage.stage;
    const std::string key = name == "extend_r" || name == "extend_s"
                                ? "extend"
                            : name == "identity_rules"     ? "identity"
                            : name == "distinctness_rules" ? "distinct"
                                                           : name;
    ms[key] += stage.wall_ms;
    ms["encode"] += stage.columnar_encode_ms;
    ms["self"] -= stage.wall_ms;
  }
  for (const auto& [key, value] : ms) phase->stage_ms[key].push_back(value);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics from the Identify stages: times from `serial`,
/// speedups against `parallel`, counters from `last` (deterministic).
void StageMetrics(const Phase& serial, const Phase& parallel,
                  const IdentificationResult& last, Report* report) {
  auto med = [](const Phase& p, const std::string& key) {
    auto it = p.stage_ms.find(key);
    return it == p.stage_ms.end() ? 0.0 : Median(it->second);
  };
  report->Set("extend.ms", med(serial, "extend"));
  report->Set("key_join.ms", med(serial, "key_join"));
  report->Set("identity.ms", med(serial, "identity"));
  report->Set("distinct.ms", med(serial, "distinct"));
  report->Set("columnar.encode_ms", med(serial, "encode"));
  report->Set("identify.self_ms", med(serial, "self"));
  for (const char* key : {"extend", "key_join", "identity", "distinct"}) {
    report->Set(std::string(key) + ".speedup",
                Ratio(med(serial, key), med(parallel, key)));
  }
  report->Set("consistency.ms", Median(serial.consistency_ms));

  size_t derived = 0, hits = 0, misses = 0, reuse = 0, blocks = 0, exits = 0,
         fallbacks = 0;
  for (const exec::StageStats& stage : last.stats.stages()) {
    if (stage.stage == "extend_r" || stage.stage == "extend_s") {
      derived += stage.values_derived;
      hits += stage.memo_hits;
      misses += stage.memo_misses;
    }
    reuse += stage.interner_reuse_hits;
    blocks += stage.pair_blocks;
    exits += stage.block_early_exits;
    fallbacks += stage.block_scalar_fallbacks;
    const double candidates = static_cast<double>(stage.candidate_pairs);
    if (stage.stage == "key_join") {
      report->Set("key_join.pairs", static_cast<double>(stage.items));
      report->Set("key_join.probe_batches",
                  static_cast<double>(stage.probe_batches));
    } else if (stage.stage == "identity_rules") {
      report->Set("identity.candidate_pairs", candidates);
      report->Set("identity.fired_per_candidate",
                  Ratio(static_cast<double>(stage.items), candidates));
      report->Set("identity.amq_reject_rate",
                  Ratio(static_cast<double>(stage.amq_rejects),
                        static_cast<double>(stage.amq_rejects) + candidates));
    } else if (stage.stage == "distinctness_rules") {
      report->Set("distinct.candidate_pairs", candidates);
      report->Set("distinct.fired_per_candidate",
                  Ratio(static_cast<double>(stage.items), candidates));
    }
  }
  report->Set("distinct.nmt_pairs",
              static_cast<double>(last.negative.table.size()));
  report->Set("extend.values_derived", static_cast<double>(derived));
  report->Set("extend.memo_hit_rate",
              Ratio(static_cast<double>(hits),
                    static_cast<double>(hits + misses)));
  report->Set("columnar.reuse_hits", static_cast<double>(reuse));
  report->Set("residual.pair_blocks", static_cast<double>(blocks));
  report->Set("residual.early_exit_rate",
              Ratio(static_cast<double>(exits), static_cast<double>(blocks)));
  report->Set("residual.scalar_fallback_lanes",
              static_cast<double>(fallbacks));
}

/// Durations of each set-up repetition, in seconds.
struct Setup {
  std::vector<double> total_s, generate_s, lint_s, snapshot_write_s;

  /// Whether to run another repetition.
  bool More() const {
    return total_s.size() < kMinSetupReps ||
           (Sum(total_s) < kSetupBudgetS && total_s.size() < kMaxSetupReps);
  }
};

/// The end-to-end metrics every workload reports, plus the set-up,
/// parallelism and tracing per-layer numbers. Gated times are scaled to
/// the reference host speed by the run's calibration median.
void CommonMetrics(const Options& options, const Setup& setup,
                   const Phase& serial, const Phase& parallel,
                   const std::vector<double>& calibration_ms,
                   Report* report,
                   double reference_ms = kReferenceCalibrationMs) {
  const Tail tail = TailOf(serial.wall_ms);
  const double calibration = Median(calibration_ms);
  const double scale = reference_ms / calibration;
  report->Set("setup_s", Median(setup.total_s) * scale);
  report->Set("op_norm_ms", Median(serial.wall_ms) * scale);
  report->Set("par_cpu_norm_ms", Median(parallel.cpu_ms) * scale);
  report->Set("host.calibration_ms", calibration);
  report->Set("setup.raw_s", Median(setup.total_s));
  report->Set("op_ms", Median(serial.wall_ms));
  report->Set("op_tail_ms", tail.value);
  report->Set("op.samples", static_cast<double>(tail.samples));
  report->Set("op_tail.percentile", tail.percentile);
  report->Set("par_op_ms", Median(parallel.wall_ms));
  report->Set("par_cpu_ms", Median(parallel.cpu_ms));
  report->Set("par.cpu_per_wall",
              Ratio(Sum(parallel.cpu_ms), Sum(parallel.wall_ms)));
  report->Set("setup.generate_s", Median(setup.generate_s));
  report->Set("setup.lint_s", Median(setup.lint_s));
  report->Set("setup.snapshot_write_s", Median(setup.snapshot_write_s));
  if (options.trace) {
    report->Set("trace.overhead_pct",
                100.0 * (Ratio(Median(serial.traced_ms),
                               Median(serial.untraced_ms)) -
                         1.0));
  }
  report->sizes.emplace_back("threads",
                             "1," + std::to_string(parallel.threads));
  report->sizes.emplace_back("setup_reps",
                             std::to_string(setup.total_s.size()));
}

// --- dense_prop1 / blocked_65k -------------------------------------------

void RunIdentifyWorkload(const Options& options, size_t per_side,
                         bool blocked, Trace* trace, Report* report) {
  Setup setup;
  std::unique_ptr<GeneratedWorld> world;
  IdentifierConfig config;
  std::vector<uint64_t> truth;
  std::optional<uint64_t> reference = options.expect_digest;
  for (int rep = 0; setup.More(); ++rep) {
    world.reset();
    const double t0 = NowMs();
    const std::string example3 = CheckExample3();
    if (rep == 0) report->Check(example3);
    world = std::make_unique<GeneratedWorld>(
        ScalingWorld(per_side, options.seed));
    const double t1 = NowMs();
    config = IdentifierConfig();
    config.correspondence = world->correspondence;
    config.extended_key = world->extended_key;
    config.ilfds = world->ilfds;
    if (blocked) {
      config.identity_rules.push_back(Take(
          ParseIdentityRule(
              "name_spec_eq",
              "e1.name = e2.name & e1.speciality = e2.speciality"),
          "parse identity rule"));
      config.distinctness_rules.push_back(Take(
          ParseDistinctnessRule(
              "same_name_other_spec",
              "e1.name = e2.name & e1.speciality != e2.speciality"),
          "parse distinctness rule"));
      config.distinctness_from_ilfds = false;
    } else {
      config.distinctness_from_ilfds = true;
    }
    report->Check(Lint(world->r, world->s, config));
    const double t2 = NowMs();
    truth = SortedTruth(*world);
    config.matcher_options.threads = 1;
    Result<IdentificationResult> warm =
        EntityIdentifier(config).Identify(world->r, world->s);
    if (!warm.ok()) Fatal("warm-up Identify: " + warm.status().ToString());
    // The first op's answer is the reference every later op must equal.
    if (!reference.has_value()) reference = Digest(*warm);
    report->Check(CheckAnswer(*warm, *reference, &truth));
    const double t3 = NowMs();
    setup.total_s.push_back((t3 - t0) / 1e3);
    setup.generate_s.push_back((t1 - t0) / 1e3);
    setup.lint_s.push_back((t2 - t1) / 1e3);
  }

  Phase serial, parallel;
  serial.threads = 1;
  parallel.threads = options.par_threads;
  std::optional<IdentificationResult> last;
  auto identifier_for = [&](const Phase& phase) {
    IdentifierConfig phase_config = config;
    phase_config.matcher_options.threads = phase.threads;
    return EntityIdentifier(std::move(phase_config));
  };
  const EntityIdentifier serial_identifier = identifier_for(serial);
  const EntityIdentifier parallel_identifier = identifier_for(parallel);
  auto one_op = [&](Phase* phase, const EntityIdentifier& identifier, int i,
                    bool traced) {
    const double c0 = CpuMs();
    const double t0 = NowMs();
    Result<IdentificationResult> result =
        identifier.Identify(world->r, world->s);
    const double t1 = NowMs();
    const double c1 = CpuMs();
    Record(phase, traced, t1 - t0, c1 - c0);
    if (!result.ok()) {
      report->Check("Identify: " + result.status().ToString());
      return;
    }
    const double k0 = NowMs();
    const Status consistency = MatchTable::CheckConsistency(
        result->matching, result->negative.table);
    const double k1 = NowMs();
    phase->consistency_ms.push_back(k1 - k0);
    std::string error = CheckAnswer(*result, *reference, &truth);
    if (error.empty() && !consistency.ok()) error = consistency.ToString();
    report->Check(error);
    CollectStages(*result, t1 - t0, phase);
    if (traced) {
      const size_t span = trace->Add("Identify", t0, t1, 0, i, phase->threads);
      trace->AddStages(result->stats, span);
      trace->Add("CheckConsistency", k0, k1, 0, i, phase->threads);
    }
    last = std::move(result).value();
  };
  const std::vector<double> calibration =
      Loop(options, [&](int i, bool traced) {
        one_op(&serial, serial_identifier, i, traced);
        one_op(&parallel, parallel_identifier, i, traced);
      });

  CommonMetrics(options, setup, serial, parallel, calibration, report);
  if (last.has_value()) StageMetrics(serial, parallel, *last, report);
  report->sizes.emplace_back("per_side", std::to_string(per_side));
  report->sizes.emplace_back("rows_r", std::to_string(world->r.size()));
  report->sizes.emplace_back("rows_s", std::to_string(world->s.size()));
  report->sizes.emplace_back("ilfds", std::to_string(world->ilfds.size()));
  report->sizes.emplace_back("truth_pairs",
                             std::to_string(world->truth.size()));
  if (last.has_value()) {
    report->sizes.emplace_back("mt_pairs",
                               std::to_string(last->matching.size()));
    report->sizes.emplace_back("nmt_pairs",
                               std::to_string(last->negative.table.size()));
  }
}

}  // namespace

void RunDenseProp1(const Options& options, Trace* trace, Report* report) {
  RunIdentifyWorkload(options, options.tiny ? 128 : 2048, /*blocked=*/false,
                      trace, report);
}

void RunBlocked65k(const Options& options, Trace* trace, Report* report) {
  RunIdentifyWorkload(options, options.tiny ? 1024 : 65536, /*blocked=*/true,
                      trace, report);
}

// --- snapshot_cold_start ---------------------------------------------------

void RunSnapshotColdStart(const Options& options, Trace* trace,
                          Report* report) {
  const size_t per_side = options.tiny ? 1024 : 65536;
  const std::string path = options.work_dir + "/snapshot_seed" +
                           std::to_string(options.seed) + ".eidsnap";
  Setup setup;
  std::unique_ptr<GeneratedWorld> world;
  IdentifierConfig config;
  std::optional<IdentificationResult> saved;
  std::optional<uint64_t> reference = options.expect_digest;
  uint64_t saved_tables = 0;
  std::optional<size_t> integrated_rows;

  Phase serial, parallel;
  serial.threads = 1;
  parallel.threads = options.par_threads;
  std::vector<double> save_ms;
  std::optional<IdentificationResult> last;
  size_t dict_values = 0;

  // One iteration: the save op (unless `save` is false: the file written
  // for the other thread count is reused, WriteSnapshot has no threads
  // knob), then the cold-start op.
  auto iteration = [&](Phase* phase, int i, bool traced, bool save) {
    const int threads = phase != nullptr ? phase->threads : 1;
    if (save) {
      const double s0 = NowMs();
      const Status written = storage::WriteSnapshot(
          storage::ImageOf(world->r, world->s, config, *saved), path);
      const double s1 = NowMs();
      if (!written.ok()) {
        report->Check("WriteSnapshot: " + written.ToString());
        return;
      }
      if (phase != nullptr) save_ms.push_back(s1 - s0);
      if (traced) trace->Add("WriteSnapshot", s0, s1, 0, i, threads);
    }
    const double c0 = CpuMs();
    const double t0 = NowMs();
    Result<storage::LoadedWorld> loaded = storage::LoadSnapshot(path);
    const double t1 = NowMs();
    if (!loaded.ok()) {
      report->Check("LoadSnapshot: " + loaded.status().ToString());
      return;
    }
    IdentifierConfig seeded = loaded->ToConfig();
    AddSessionRules(&seeded);
    seeded.matcher_options.threads = threads;
    const double ti = NowMs();
    Result<IdentificationResult> result =
        EntityIdentifier(std::move(seeded)).Identify(loaded->r, loaded->s);
    const double t2 = NowMs();
    Result<Relation> table =
        result.ok() ? BuildIntegratedTable(*result, IntegrationLayout::kMerged)
                    : Result<Relation>(result.status());
    const double t3 = NowMs();
    const double c1 = CpuMs();
    if (!result.ok() || !table.ok()) {
      report->Check("cold start: " + table.status().ToString());
      return;
    }
    // Answer checks (untimed).
    std::string error;
    if (Digest(loaded->matching.pairs(), loaded->negative.pairs(), true,
               true) != saved_tables) {
      error = "loaded MT/NMT differ from the saved run";
    }
    if (error.empty()) error = CheckAnswer(*result, *reference, nullptr);
    if (!integrated_rows.has_value()) integrated_rows = table->size();
    if (error.empty() && table->size() != *integrated_rows) {
      error = "integrated table size changed";
    }
    report->Check(error);
    if (phase == nullptr) return;  // warm-up
    Record(phase, traced, t3 - t0, c1 - c0);
    CollectStages(*result, t2 - ti, phase);
    phase->stage_ms["load"].push_back(t1 - t0);
    phase->stage_ms["decode"].push_back(loaded->load_stats.snapshot_load_ms);
    phase->stage_ms["seeded_identify"].push_back(t2 - t1);
    phase->stage_ms["integrate"].push_back(t3 - t2);
    dict_values = loaded->dictionary.size();
    if (traced) {
      const size_t op = trace->Add("cold_start", t0, t3, 0, i, threads);
      trace->Add("LoadSnapshot", t0, t1, op, i, threads);
      const size_t span = trace->Add("Identify", ti, t2, op, i, threads);
      trace->AddStages(result->stats, span);
      trace->Add("BuildIntegratedTable", t2, t3, op, i, threads);
    }
    last = std::move(result).value();
  };

  for (int rep = 0; setup.More(); ++rep) {
    saved.reset();
    world.reset();
    std::filesystem::remove(path);
    integrated_rows.reset();
    const double t0 = NowMs();
    const std::string example3 = CheckExample3();
    if (rep == 0) report->Check(example3);
    world = std::make_unique<GeneratedWorld>(
        SnapshotWorld(per_side, options.seed));
    const double t1 = NowMs();
    config = SessionConfig(*world);
    config.matcher_options.threads = 1;
    report->Check(Lint(world->r, world->s, config));
    const double t2 = NowMs();
    saved = Take(EntityIdentifier(config).Identify(world->r, world->s),
                 "identify the saved world");
    if (!reference.has_value()) reference = Digest(*saved);
    saved_tables = Digest(saved->matching.pairs(),
                          saved->negative.table.pairs(), true, true);
    const double t3 = NowMs();
    const Status written = storage::WriteSnapshot(
        storage::ImageOf(world->r, world->s, config, *saved), path);
    if (!written.ok()) Fatal("WriteSnapshot: " + written.ToString());
    const double t4 = NowMs();
    iteration(nullptr, 0, false, true);  // warm-up
    const double t5 = NowMs();
    setup.total_s.push_back((t5 - t0) / 1e3);
    setup.generate_s.push_back((t1 - t0) / 1e3);
    setup.lint_s.push_back((t2 - t1) / 1e3);
    setup.snapshot_write_s.push_back((t4 - t3) / 1e3);
  }
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(path));

  const std::vector<double> calibration =
      Loop(options, [&](int i, bool traced) {
        iteration(&serial, i, traced, /*save=*/true);
        iteration(&parallel, i, traced, /*save=*/false);
      });
  std::filesystem::remove(path);

  CommonMetrics(options, setup, serial, parallel, calibration, report);
  if (last.has_value()) StageMetrics(serial, parallel, *last, report);
  report->Set("save_ms", Median(save_ms));
  report->Set("snapshot.load_ms", Median(serial.stage_ms["load"]));
  report->Set("snapshot.decode_ms", Median(serial.stage_ms["decode"]));
  report->Set("snapshot.seeded_identify_ms",
              Median(serial.stage_ms["seeded_identify"]));
  report->Set("integrate.ms", Median(serial.stage_ms["integrate"]));
  report->Set("snapshot.dict_values", static_cast<double>(dict_values));
  report->Set("snapshot.file_bytes", file_bytes);
  report->Set("integrate.rows",
              static_cast<double>(integrated_rows.value_or(0)));
  const double rows = static_cast<double>(world->r.size() + world->s.size());
  report->Set("snapshot_bytes_per_row", file_bytes / rows);
  report->sizes.emplace_back("per_side", std::to_string(per_side));
  report->sizes.emplace_back("rows_r", std::to_string(world->r.size()));
  report->sizes.emplace_back("rows_s", std::to_string(world->s.size()));
  report->sizes.emplace_back("ilfds", std::to_string(world->ilfds.size()));
  report->sizes.emplace_back("mt_pairs",
                             std::to_string(saved->matching.size()));
  report->sizes.emplace_back("nmt_pairs",
                             std::to_string(saved->negative.table.size()));
}

// --- incremental_churn -------------------------------------------------------

namespace {

Relation EmptyLike(const Relation& model) {
  Relation out(model.name(), model.schema());
  for (const KeyDef& key : model.keys()) {
    std::vector<std::string> names;
    for (size_t i : key.attribute_indices) {
      names.push_back(model.schema().attribute(i).name);
    }
    if (!out.DeclareKey(names).ok()) Fatal("declare key");
  }
  return out;
}

/// Live/not-live bookkeeping of one source relation's rows.
struct SideRows {
  const Relation* rows = nullptr;
  std::vector<size_t> live, dead;  // row indices
  std::vector<size_t> slot;        // row -> position in live or dead
  std::vector<size_t> id;          // row -> stable id while live
  std::vector<bool> inserted;      // ever inserted (re-insert vs held-out)

  void Init(const Relation* relation) {
    rows = relation;
    slot.assign(rows->size(), 0);
    id.assign(rows->size(), 0);
    inserted.assign(rows->size(), false);
  }
  static void Remove(std::vector<size_t>* from, std::vector<size_t>* slot,
                     size_t at) {
    (*slot)[from->back()] = at;
    (*from)[at] = from->back();
    from->pop_back();
  }
  void MakeLive(size_t row, size_t stable_id) {
    Remove(&dead, &slot, slot[row]);
    slot[row] = live.size();
    live.push_back(row);
    id[row] = stable_id;
    inserted[row] = true;
  }
  void MakeDead(size_t row) {
    Remove(&live, &slot, slot[row]);
    slot[row] = dead.size();
    dead.push_back(row);
  }
};

/// An IncrementalIdentifier preloaded with 90% of a world's rows, plus the
/// seeded write stream that churns it. A session runs kChurnSession cycles
/// and then restarts from the preload and the start of the stream, so
/// every session passes through the same states.
class Churn {
 public:
  Churn(const GeneratedWorld* world, const IdentifierConfig& config,
        uint64_t seed, uint64_t stream, int threads)
      : world_(world), config_(config), seed_(seed), stream_(stream) {
    config_.matcher_options.threads = threads;
    Preload();
  }

  /// Starts a fresh session holding the same seeded 90% of the rows, at
  /// the start of the write stream.
  void Preload() {
    std::mt19937_64 rng(seed_ ^ 0x9E37u);
    rng_.seed(stream_);
    inc_.emplace(Take(IncrementalIdentifier::Create(config_,
                                                    EmptyLike(world_->r),
                                                    EmptyLike(world_->s)),
                      "create incremental identifier"));
    sides_[0] = SideRows();
    sides_[1] = SideRows();
    sides_[0].Init(&world_->r);
    sides_[1].Init(&world_->s);
    for (SideRows& side : sides_) {
      std::vector<size_t> order(side.rows->size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng() % i]);
      }
      const size_t keep = order.size() * 9 / 10;
      for (size_t i = 0; i < order.size(); ++i) {
        side.slot[order[i]] = side.dead.size();
        side.dead.push_back(order[i]);
      }
      std::sort(order.begin(), order.begin() + keep);
      for (size_t i = 0; i < keep; ++i) {
        const bool is_r = &side == &sides_[0];
        const Row& row = side.rows->row(order[i]);
        side.MakeLive(order[i], Take(is_r ? inc_->InsertR(row)
                                          : inc_->InsertS(row),
                                     "preload insert"));
      }
    }
    cycles_ = 0;
  }

  /// Timings of one cycle, in ms.
  struct Cycle {
    double wall_ms = 0, cpu_ms = 0;
    std::vector<double> delete_ms, insert_ms, read_ms, rebuild_ms;
    std::string error;
  };

  /// One balanced update cycle: on R, then on S, delete a random live row
  /// and insert a random held-out or previously deleted row, each write
  /// followed by a read (Partition plus the touched id's match). Touching
  /// both sides keeps the cycle time unimodal although R and S writes
  /// cost differently. Spans go to `trace` unless it is null.
  Cycle Run(Trace* trace, int iteration, int threads) {
    // The engine keeps every deleted entry, so its writes and reads slow
    // down as churn history grows (reads double over ~1000 cycles).
    // Restarting from the preload keeps the measured state steady.
    if (cycles_++ == kChurnSession) {
      Preload();
      cycles_ = 1;
    }
    Cycle out;
    for (bool is_r : {true, false}) {
      Update(is_r, trace, iteration, threads, &out);
    }
    return out;
  }

  /// Runs the current session to its end, untimed, so that it stops in
  /// the state ChooseStream checked. Returns the first error.
  std::string FinishSession(int threads) {
    std::string error;
    while (cycles_ < kChurnSession) {
      const Cycle cycle = Run(nullptr, -1, threads);
      if (error.empty()) error = cycle.error;
    }
    return error;
  }

  /// Digest of the live matching by stable ids, its non-matched count and
  /// uniqueness verdict.
  uint64_t StateDigest() const {
    std::vector<TuplePair> mt;
    std::vector<size_t> r_ids;
    for (size_t row : sides_[0].live) r_ids.push_back(sides_[0].id[row]);
    std::sort(r_ids.begin(), r_ids.end());
    for (size_t r : r_ids) {
      if (std::optional<size_t> s = inc_->MatchOfR(r)) mt.push_back({r, *s});
    }
    const PairPartition p = inc_->Partition();
    return Digest(mt, {{p.non_matched, p.total}}, inc_->Uniqueness().ok(),
                  true);
  }

  /// The incremental state must equal a batch Identify over the live rows
  /// (in stable-id order, the order the incremental engine matches in).
  std::string CheckAgainstBatch(const IdentifierConfig& config) const {
    Relation live[2] = {EmptyLike(world_->r), EmptyLike(world_->s)};
    for (int k = 0; k < 2; ++k) {
      std::vector<std::pair<size_t, size_t>> by_id;
      for (size_t row : sides_[k].live) {
        by_id.emplace_back(sides_[k].id[row], row);
      }
      std::sort(by_id.begin(), by_id.end());
      for (const auto& [id, row] : by_id) {
        if (!live[k].Insert(sides_[k].rows->row(row)).ok()) {
          return "live row rejected by the batch relation";
        }
      }
    }
    IdentifierConfig batch_config = config;
    batch_config.matcher_options.threads = 1;
    Result<IdentificationResult> batch =
        EntityIdentifier(batch_config).Identify(live[0], live[1]);
    if (!batch.ok()) return "batch Identify: " + batch.status().ToString();
    Result<Relation> inc_mt = inc_->MatchingRelation();
    Result<Relation> batch_mt = batch->MatchingRelation("MT");
    if (!inc_mt.ok() || !batch_mt.ok()) return "MatchingRelation failed";
    if (!inc_mt->RowsEqualUnordered(*batch_mt)) {
      return "incremental MT differs from batch Identify";
    }
    if (inc_->Partition().non_matched != batch->partition.non_matched) {
      return "incremental NMT size differs from batch Identify";
    }
    if (!inc_->LiveR().RowsEqualUnordered(batch->r_extended) ||
        !inc_->LiveS().RowsEqualUnordered(batch->s_extended)) {
      return "LiveR()/LiveS() differ from the batch extended relations";
    }
    return "";
  }

  const IncrementalIdentifier& identifier() const { return *inc_; }

 private:
  void Update(bool is_r, Trace* trace, int iteration, int threads,
              Cycle* out) {
    SideRows& side = sides_[is_r ? 0 : 1];
    auto match_of = [&](bool r_side, size_t id) {
      return r_side ? inc_->MatchOfR(id) : inc_->MatchOfS(id);
    };
    auto read = [&](size_t id) {
      const PairPartition p = inc_->Partition();
      return std::make_pair(p, match_of(is_r, id));
    };
    auto fail = [&](const std::string& error) {
      if (out->error.empty()) out->error = error;
    };

    const size_t victim = side.live[rng_() % side.live.size()];
    const size_t victim_id = side.id[victim];
    const double c0 = CpuMs();
    const double d0 = NowMs();
    const Status deleted =
        is_r ? inc_->DeleteR(victim_id) : inc_->DeleteS(victim_id);
    const double d1 = NowMs();
    const auto after_delete = read(victim_id);
    const double d2 = NowMs();
    const double c1 = CpuMs();
    read(victim_id);  // immediate second read: no rebuild left to do
    const double d3 = NowMs();
    if (!deleted.ok()) fail("delete: " + deleted.ToString());
    side.MakeDead(victim);
    if (after_delete.second.has_value()) fail("deleted row still matched");

    const size_t pick = side.dead[rng_() % side.dead.size()];
    const bool reinsert = side.inserted[pick];
    const double c2 = CpuMs();
    const double i0 = NowMs();
    Result<size_t> id = is_r ? inc_->InsertR(side.rows->row(pick))
                             : inc_->InsertS(side.rows->row(pick));
    const double i1 = NowMs();
    std::pair<PairPartition, std::optional<size_t>> after_insert;
    if (id.ok()) after_insert = read(*id);
    const double i2 = NowMs();
    const double c3 = CpuMs();
    if (!id.ok()) {
      fail("insert: " + id.status().ToString());
    } else {
      side.MakeLive(pick, *id);
      // The read must be mutual: the partner's match is the touched row.
      const std::optional<size_t> partner = after_insert.second;
      if (partner.has_value() && match_of(!is_r, *partner) != *id) {
        fail("match is not mutual");
      }
      if (after_insert.first.total !=
          sides_[0].live.size() * sides_[1].live.size()) {
        fail("partition total differs from the live sizes");
      }
    }
    out->delete_ms.push_back(d1 - d0);
    out->insert_ms.push_back(i1 - i0);
    out->read_ms.push_back(d2 - d1);
    out->read_ms.push_back(i2 - i1);
    out->rebuild_ms.push_back((d2 - d1) - (d3 - d2));
    out->wall_ms += (d2 - d0) + (i2 - i0);
    out->cpu_ms += (c1 - c0) + (c3 - c2);
    if (trace != nullptr) {
      const size_t del = trace->Add("delete_cycle", d0, d2, 0, iteration,
                                    threads);
      trace->Add(is_r ? "DeleteR" : "DeleteS", d0, d1, del, iteration,
                 threads);
      trace->Add("read", d1, d2, del, iteration, threads);
      const size_t ins = trace->Add(reinsert ? "reinsert_cycle"
                                             : "insert_cycle",
                                    i0, i2, 0, iteration, threads);
      trace->Add(is_r ? "InsertR" : "InsertS", i0, i1, ins, iteration,
                 threads);
      trace->Add("read", i1, i2, ins, iteration, threads);
    }
  }

  const GeneratedWorld* world_;
  IdentifierConfig config_;
  uint64_t seed_;
  uint64_t stream_;
  std::mt19937_64 rng_;  // the write stream
  std::optional<IncrementalIdentifier> inc_;
  SideRows sides_[2];
  size_t cycles_ = 0;  // since the last preload
};

/// The write stream every churn session replays: the first of the seed's
/// streams on which a whole session ends in the state a batch Identify over
/// the live rows computes. On some streams IncrementalIdentifier loses
/// distinctness pairs: AmqFilter::Erase can remove another value's
/// fingerprint from an older filter level, and a later insert then skips
/// the live rows that hold that value. A workload must not fail on its
/// inputs, so such streams are skipped and counted in `skipped`.
uint64_t ChooseStream(const GeneratedWorld& world,
                      const IdentifierConfig& config, uint64_t seed,
                      size_t* skipped) {
  std::mt19937_64 streams(seed ^ 0xC4A7u);
  uint64_t stream = 0;
  for (int k = 0; k < kMaxChurnStreams; ++k) {
    stream = streams();
    Churn probe(&world, config, seed, stream, 1);
    if (probe.FinishSession(1).empty() &&
        probe.CheckAgainstBatch(config).empty()) {
      break;
    }
    ++*skipped;
  }
  return stream;
}

}  // namespace

void RunIncrementalChurn(const Options& options, Trace* trace,
                         Report* report) {
  const size_t per_side = options.tiny ? 256 : 4096;
  // The write stream is picked once, before set-up: it selects the
  // workload's inputs and is not set-up a user of eid pays for.
  size_t skipped_streams = 0;
  uint64_t stream = 0;
  {
    const GeneratedWorld probe_world = SnapshotWorld(per_side, options.seed);
    stream = ChooseStream(probe_world, SessionConfig(probe_world),
                          options.seed, &skipped_streams);
  }
  Setup setup;
  std::unique_ptr<GeneratedWorld> world;
  IdentifierConfig config;
  std::unique_ptr<Churn> churn;
  for (int rep = 0; setup.More(); ++rep) {
    churn.reset();
    world.reset();
    const double t0 = NowMs();
    const std::string example3 = CheckExample3();
    if (rep == 0) report->Check(example3);
    world = std::make_unique<GeneratedWorld>(
        SnapshotWorld(per_side, options.seed));
    const double t1 = NowMs();
    config = SessionConfig(*world);
    report->Check(Lint(world->r, world->s, config));
    const double t2 = NowMs();
    churn = std::make_unique<Churn>(world.get(), config, options.seed, stream,
                                    1);
    report->Check(churn->Run(nullptr, -1, 1).error);  // warm-up cycle
    const double t3 = NowMs();
    setup.total_s.push_back((t3 - t0) / 1e3);
    setup.generate_s.push_back((t1 - t0) / 1e3);
    setup.lint_s.push_back((t2 - t1) / 1e3);
  }

  Phase serial, parallel;
  serial.threads = 1;
  parallel.threads = options.par_threads;
  std::vector<double> insert_us, delete_us, read_us, write_us, rebuild_us;
  auto record = [&](Phase* phase, const Churn::Cycle& c, bool traced) {
    report->Check(c.error);
    Record(phase, traced, c.wall_ms, c.cpu_ms);
    if (phase->threads != 1) return;
    auto append_us = [](std::vector<double>* to,
                        const std::vector<double>& ms) {
      for (double x : ms) to->push_back(x * 1e3);
    };
    append_us(&delete_us, c.delete_ms);
    append_us(&insert_us, c.insert_ms);
    append_us(&write_us, c.delete_ms);
    append_us(&write_us, c.insert_ms);
    append_us(&read_us, c.read_ms);
    append_us(&rebuild_us, c.rebuild_ms);
  };

  // A second session with the thread knob at min(nproc, 4) replays the
  // same write stream from the same preload, cycle by cycle.
  Churn replay(world.get(), config, options.seed, stream, parallel.threads);
  replay.Run(nullptr, -1, parallel.threads);  // the same warm-up cycle
  // Sessions alternate in blocks of cycles: cycle by cycle, each would
  // evict the other's working set from the caches.
  const std::vector<double> calibration =
      Loop(options, [&](int i, bool traced) {
        for (int k = 0; k < kChurnBlock; ++k) {
          record(&serial, churn->Run(traced ? trace : nullptr, i, 1),
                 traced);
        }
        for (int k = 0; k < kChurnBlock; ++k) {
          record(&parallel, replay.Run(nullptr, i, parallel.threads),
                 traced);
        }
      },
      RebuildCalibrationMs);

  // End state (untimed): each session runs to the end of its session, the
  // state ChooseStream checked, whenever the timed loop stopped. It must
  // equal a batch Identify over the live rows, and be the same for both
  // sessions.
  report->Check(churn->FinishSession(1));
  report->Check(replay.FinishSession(parallel.threads));
  report->Check(churn->CheckAgainstBatch(config));
  report->Check(replay.CheckAgainstBatch(config));
  const uint64_t reference =
      options.expect_digest.value_or(churn->StateDigest());
  if (options.expect_digest.has_value()) {
    report->Check(churn->StateDigest() == reference
                      ? ""
                      : "end state digest differs");
  }
  report->Check(replay.StateDigest() == reference
                    ? ""
                    : "threads=" + std::to_string(parallel.threads) +
                          " replay reached another state");
  const PairPartition end = churn->identifier().Partition();
  report->Set("incremental.live_rows",
              static_cast<double>(churn->identifier().r_size() +
                                  churn->identifier().s_size()));
  report->Set("incremental.matched", static_cast<double>(end.matched));

  CommonMetrics(options, setup, serial, parallel, calibration, report,
                kReferenceRebuildMs);
  report->Set("insert_us", Median(insert_us));
  report->Set("delete_us", Median(delete_us));
  report->Set("read_us", Median(read_us));
  report->Set("write_tail_us", TailOf(write_us).value);
  report->Set("incremental.rebuild_us", Median(rebuild_us));
  report->sizes.emplace_back("per_side", std::to_string(per_side));
  report->sizes.emplace_back("rows_r", std::to_string(world->r.size()));
  report->sizes.emplace_back("rows_s", std::to_string(world->s.size()));
  report->sizes.emplace_back("preload", "90%");
  report->sizes.emplace_back("cycles", std::to_string(serial.wall_ms.size()));
  report->sizes.emplace_back("session_cycles", std::to_string(kChurnSession));
  report->sizes.emplace_back("streams_skipped",
                             std::to_string(skipped_streams));
}

}  // namespace perfbench
}  // namespace eid
