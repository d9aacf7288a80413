// eid_perfbench — the end-to-end benchmark driver.
//
// One process runs one named workload against eid's public API only
// (EntityIdentifier::Identify, storage::WriteSnapshot / LoadSnapshot,
// BuildIntegratedTable, IncrementalIdentifier). Each workload is a closed
// loop with a single caller: it sets up (repeated, median reported), then
// times its op at threads=1 and at threads=min(nproc, 4) in alternation,
// checks every answer, and reports metrics by name with their units. A
// traced run
// also records spans around each public call, fills in the stages inside
// Identify from the StageStats the result returns, and writes the spans as
// Chrome trace-event JSON.

#ifndef EID_PERFBENCH_BENCH_H_
#define EID_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eid/identifier.h"

namespace eid {
namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny world sizes (self-test).
  bool tiny = false;
  /// Replaces the reference digest every answer is compared with
  /// (self-test: a wrong value must drive error_rate above 0).
  std::optional<uint64_t> expect_digest;
  std::string trace_out;
  /// Directory for scratch files (the snapshot workload's file).
  std::string work_dir = ".";
  int par_threads = 1;
};

/// Steady-clock and process-CPU time in milliseconds.
double NowMs();
double CpuMs();
/// Peak resident set size of this process, MB, less the calibration
/// kernel's table (every kernel run touches all of it, so it is resident).
double PeakRssMb();

/// Sample statistics. Tail is the highest percentile with at least ten
/// samples beyond it (the largest sample when there are fewer than 11).
double Median(std::vector<double> v);
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v);
double Sum(const std::vector<double>& v);

/// `s` as a JSON string literal.
std::string JsonQuote(const std::string& s);

/// Host-speed reference: wall time of a fixed kernel that uses no eid
/// code (hash-map inserts with string allocation, a sort, and random
/// increments over a 64 MiB table).
double CalibrationMs();
/// Host-speed reference for incremental_churn, whose op is mostly relation
/// rebuilds: wall time of building and freeing 4000 rows of short strings
/// plus a hash set of key strings, eight times. No eid code.
double RebuildCalibrationMs();

/// One span: a public call, a synthesized engine stage, or a driver check.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  size_t id = 0;
  size_t parent = 0;  // 0 = root
  int iteration = 0;
  int threads = 1;
};

/// In-memory span store, written once at exit. Disabled stores drop
/// every span, so call sites need no mode checks.
class Trace {
 public:
  Trace(bool enabled, std::string workload)
      : enabled_(enabled), workload_(std::move(workload)) {}

  bool enabled() const { return enabled_; }
  /// Records a finished span and returns its id (0 when disabled).
  size_t Add(const std::string& name, double start_ms, double end_ms,
             size_t parent, int iteration, int threads);
  /// Places one span per StageStats entry inside `identify` (an id from
  /// Add), back to back from its start in stage order.
  void AddStages(const exec::StageStatsSet& stats, size_t identify);
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::string workload_;
  std::vector<Span> spans_;
};

/// Metrics by name. Per-layer metrics a workload does not exercise stay 0.
struct Metric {
  double value = 0.0;
  std::string unit;
};
class Report {
 public:
  Report();
  void Set(const std::string& name, double value);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  size_t attempted = 0;
  size_t failed = 0;
  /// Failure messages (first few are printed).
  std::vector<std::string> failures;
  /// Per-workload sizes for the run header.
  std::vector<std::pair<std::string, std::string>> sizes;

  /// Counts one checked op; `error` empty means the answer was right.
  void Check(const std::string& error);

 private:
  std::map<std::string, Metric> metrics_;
};

/// End-to-end metric names (emitted with --trace 0) and per-layer metric
/// names (emitted with --trace 1), with their units. BENCHMARK.json lists
/// the same names.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// The ungated end-to-end numbers printed beside the gated set: times as
/// measured, the host-speed reference, the workload's own numbers and
/// error_rate.
std::vector<std::string> WorkloadMetrics(const std::string& workload);

/// Order-sensitive 64-bit digest of an answer: MT pairs, NMT pairs and
/// both verdicts.
uint64_t Digest(const std::vector<TuplePair>& mt,
                const std::vector<TuplePair>& nmt, bool unique,
                bool consistent);
uint64_t Digest(const IdentificationResult& result);

/// The workloads. Each fills `report` and records spans into `trace`.
void RunDenseProp1(const Options& options, Trace* trace, Report* report);
void RunBlocked65k(const Options& options, Trace* trace, Report* report);
void RunSnapshotColdStart(const Options& options, Trace* trace,
                          Report* report);
void RunIncrementalChurn(const Options& options, Trace* trace,
                         Report* report);

}  // namespace perfbench
}  // namespace eid

#endif  // EID_PERFBENCH_BENCH_H_
