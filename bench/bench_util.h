// Shared helpers for the bench harness: banner printing, wall-clock
// timing, and startup rule-program validation. Each bench binary
// regenerates one table/figure of the paper (see DESIGN.md's
// per-experiment index) and prints both the paper's expected artefact and
// the value this implementation measures.

#ifndef EID_BENCH_BENCH_UTIL_H_
#define EID_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "exec/stage_stats.h"
#include "workload/generator.h"

namespace eid {
namespace bench {

/// Lints the rule program at bench startup and aborts with the full
/// diagnostic list when it has error-severity findings, so a synthetic
/// workload bug fails fast instead of silently skewing BENCH_*.json.
/// Warnings are printed but don't abort (degenerate study configs — e.g.
/// zero ILFD coverage — warn legitimately). Closure checks stay bounded
/// via the analyzer's closure_rule_limit for huge generated rule sets.
/// Rule programs validated so far this process, by caller-chosen name.
/// Benchmark fixtures rebuild the same world once per registered benchmark
/// instance; validating a given `what` once per process keeps startup
/// linear in the number of distinct worlds.
inline std::set<std::string>& ValidatedPrograms() {
  static std::set<std::string> validated;
  return validated;
}

inline void RequireCleanRuleProgram(const std::string& what,
                                    const Relation& r, const Relation& s,
                                    const IdentifierConfig& config) {
  if (!ValidatedPrograms().insert(what).second) return;
  analysis::AnalysisReport report =
      analysis::AnalyzeRuleProgram(r, s, config);
  if (report.HasErrors()) {
    std::cerr << "bench rule-program validation failed (" << what << "):\n"
              << report.ToString();
    std::abort();
  }
  if (report.WarningCount() > 0) {
    std::cerr << "bench rule-program warnings (" << what << "):\n"
              << report.ToString();
  }
}

/// GeneratedWorld form: validates the generator's ILFDs, extended key and
/// correspondence exactly as a matcher would consume them.
inline void RequireCleanWorld(const std::string& what,
                              const GeneratedWorld& world) {
  // Check before assembling the config: copying the world's ILFD set and
  // correspondence per benchmark instance dwarfed the dedup it fed.
  if (ValidatedPrograms().count(what) > 0) return;
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  RequireCleanRuleProgram(what, world.r, world.s, config);
}

inline void Banner(const std::string& experiment_id,
                   const std::string& title) {
  std::string rule(72, '=');
  std::cout << rule << "\n" << experiment_id << " — " << title << "\n"
            << rule << "\n";
}

inline void Section(const std::string& title) {
  std::cout << "\n--- " << title << " ---\n";
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Process CPU time. On shared single-core CI runners wall clock measures
/// the neighbours as much as the code; CPU time is what the README's
/// performance numbers report, so improvements survive noisy machines.
class CpuTimer {
 public:
  CpuTimer() : start_(Now()) {}
  double ElapsedMs() const { return (Now() - start_) * 1e3; }

 private:
  static double Now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// One scaling measurement: benchmark case, input size, thread count,
/// nanoseconds per operation — plus, for pair-sweep benches, how many
/// candidate pairs the staged generator actually evaluated against the
/// |R'|·|S'| cross product it replaced (the blocking-effectiveness
/// signal CI guards; see scripts/bench.sh).
struct JsonRecord {
  std::string name;
  size_t n = 0;
  int threads = 1;
  double ns_op = 0.0;
  bool has_pairs = false;
  size_t candidate_pairs = 0;
  size_t cross_product = 0;
  bool has_columnar = false;
  size_t probe_batches = 0;
  size_t interner_reuse_hits = 0;
  double columnar_encode_ms = 0.0;
};

/// Columnar-engine counters of one run, summed over its stages: batched
/// join probes, ids served without re-encoding, and wall time spent
/// encoding Values into ids (exec/columnar_world.h).
struct ColumnarCounters {
  size_t probe_batches = 0;
  size_t interner_reuse_hits = 0;
  double columnar_encode_ms = 0.0;

  static ColumnarCounters Sum(const std::vector<exec::StageStats>& stages) {
    ColumnarCounters out;
    for (const exec::StageStats& stage : stages) {
      out.probe_batches += stage.probe_batches;
      out.interner_reuse_hits += stage.interner_reuse_hits;
      out.columnar_encode_ms += stage.columnar_encode_ms;
    }
    return out;
  }
};

/// Accumulates JsonRecords and writes them as a JSON array, one record per
/// line. WriteFile merges with an existing file written by this emitter
/// (another bench binary's run), newer records replacing older ones with
/// the same (name, n, threads) key — so the scaling benches can share one
/// BENCH_scaling.json at the repo root.
class JsonEmitter {
 public:
  void Record(const std::string& name, size_t n, int threads, double ns_op) {
    records_.push_back(JsonRecord{name, n, threads, ns_op});
  }

  /// Pair-sweep form: also emits candidate_pairs / cross_product. The
  /// extra keys land after ns_op so the (name, n, threads) merge key —
  /// the line prefix up to "ns_op" — is unchanged.
  void Record(const std::string& name, size_t n, int threads, double ns_op,
              size_t candidate_pairs, size_t cross_product) {
    records_.push_back(JsonRecord{name, n, threads, ns_op, /*has_pairs=*/true,
                                  candidate_pairs, cross_product});
  }

  /// Columnar-engine form: also emits probe_batches / interner_reuse_hits /
  /// columnar_encode_ms. Same merge-key rule: every extra key lands after
  /// ns_op.
  void Record(const std::string& name, size_t n, int threads, double ns_op,
              const ColumnarCounters& columnar) {
    JsonRecord r{name, n, threads, ns_op};
    r.has_columnar = true;
    r.probe_batches = columnar.probe_batches;
    r.interner_reuse_hits = columnar.interner_reuse_hits;
    r.columnar_encode_ms = columnar.columnar_encode_ms;
    records_.push_back(std::move(r));
  }

  static std::string ToLine(const JsonRecord& r) {
    std::ostringstream out;
    out << "  {\"name\": \"" << r.name << "\", \"n\": " << r.n
        << ", \"threads\": " << r.threads << ", \"ns_op\": " << r.ns_op;
    if (r.has_pairs) {
      out << ", \"candidate_pairs\": " << r.candidate_pairs
          << ", \"cross_product\": " << r.cross_product;
    }
    if (r.has_columnar) {
      out << ", \"probe_batches\": " << r.probe_batches
          << ", \"interner_reuse_hits\": " << r.interner_reuse_hits
          << ", \"columnar_encode_ms\": " << r.columnar_encode_ms;
    }
    out << "}";
    return out.str();
  }

  bool WriteFile(const std::string& path) const {
    // Keyed lines; existing entries first so new ones replace them.
    std::map<std::string, std::string> lines;
    std::vector<std::string> order;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("  {\"name\"", 0) != 0) continue;
      if (!line.empty() && line.back() == ',') line.pop_back();
      std::string key = line.substr(0, line.find("\"ns_op\""));
      if (lines.emplace(key, line).second) order.push_back(key);
    }
    in.close();
    for (const JsonRecord& r : records_) {
      std::string full = ToLine(r);
      std::string key = full.substr(0, full.find("\"ns_op\""));
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

  const std::vector<JsonRecord>& records() const { return records_; }

 private:
  std::vector<JsonRecord> records_;
};

/// Shared emitter for bench binaries whose main() writes BENCH_scaling.json.
inline JsonEmitter& GlobalJson() {
  static JsonEmitter emitter;
  return emitter;
}

/// Output path: $EID_BENCH_JSON, or BENCH_scaling.json in the working
/// directory (run bench binaries from the repo root to land it there).
inline std::string ScalingJsonPath() {
  const char* env = std::getenv("EID_BENCH_JSON");
  return env != nullptr && *env != '\0' ? env : "BENCH_scaling.json";
}

}  // namespace bench
}  // namespace eid

#endif  // EID_BENCH_BENCH_UTIL_H_
