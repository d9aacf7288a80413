// Timing, statistics, digests, the span store and the metric tables.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"

namespace eid {
namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

namespace {

/// The calibration kernel's table, larger than the CPU caches. Allocated
/// on first use and kept, so each kernel run costs no page faults.
std::vector<uint32_t>& CalibrationTable() {
  static std::vector<uint32_t> table(uint64_t{1} << 24);  // 64 MiB
  return table;
}

/// Whether CalibrationMs has run, making the table resident.
bool table_resident = false;

}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double table_mb =
      table_resident
          ? static_cast<double>(CalibrationTable().size() * sizeof(uint32_t)) /
                (1024.0 * 1024.0)
          : 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0 - table_mb;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // The sample at index n-11 has exactly ten samples above it.
  const size_t at = n >= 11 ? n - 11 : n - 1;
  tail.value = v[at];
  tail.percentile = 100.0 * static_cast<double>(at + 1) /
                    static_cast<double>(n);
  return tail;
}

double CalibrationMs() {
  const double start = NowMs();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  };
  std::unordered_map<uint64_t, std::string> map;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = next();
    map.emplace(key, std::to_string(key));
  }
  std::vector<uint64_t> values(200000);
  for (uint64_t& v : values) v = next();
  std::sort(values.begin(), values.end());
  // Random increments over a table larger than the CPU caches: the
  // memory-bound part, for workloads whose working set is far beyond the
  // caches.
  std::vector<uint32_t>& table = CalibrationTable();
  table_resident = true;
  for (int i = 0; i < 200000; ++i) ++table[next() & (table.size() - 1)];
  volatile uint64_t sink =
      map.size() + values[values.size() / 2] + table[x & (table.size() - 1)];
  (void)sink;
  return NowMs() - start;
}

double RebuildCalibrationMs() {
  const double start = NowMs();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto token = [&x](const char* prefix) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return prefix + std::to_string((x >> 33) % 100000);
  };
  size_t total = 0;
  // Each pass builds and frees what rebuilding a 4000-row relation with
  // one candidate key allocates: rows of three short strings and a hash
  // set of key strings too long for the small-string buffer.
  for (int pass = 0; pass < 8; ++pass) {
    std::vector<std::vector<std::string>> rows;
    std::unordered_set<std::string> keys;
    for (int i = 0; i < 4000; ++i) {
      std::vector<std::string> row = {token("Name"), token("Street"),
                                      token("Cuisine")};
      keys.insert(row[0] + "|" + row[1] + "|key");
      rows.push_back(std::move(row));
    }
    total += rows.size() + keys.size();
  }
  volatile size_t sink = total;
  (void)sink;
  return NowMs() - start;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  return h ^ (h >> 31);
}

uint64_t MixPairs(uint64_t h, const std::vector<TuplePair>& pairs) {
  h = Mix(h, pairs.size());
  for (const TuplePair& p : pairs) {
    h = Mix(h, (static_cast<uint64_t>(p.r_index) << 32) ^ p.s_index);
  }
  return h;
}

}  // namespace

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

uint64_t Digest(const std::vector<TuplePair>& mt,
                const std::vector<TuplePair>& nmt, bool unique,
                bool consistent) {
  uint64_t h = MixPairs(0x6569642D64696765ull, mt);
  h = MixPairs(h, nmt);
  return Mix(h, (unique ? 2u : 0u) | (consistent ? 1u : 0u));
}

uint64_t Digest(const IdentificationResult& result) {
  return Digest(result.matching.pairs(), result.negative.table.pairs(),
                result.uniqueness.ok(), result.consistency.ok());
}

size_t Trace::Add(const std::string& name, double start_ms, double end_ms,
                  size_t parent, int iteration, int threads) {
  if (!enabled_) return 0;
  Span span{name, start_ms, end_ms, spans_.size() + 1, parent, iteration,
            threads};
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::AddStages(const exec::StageStatsSet& stats, size_t identify) {
  if (!enabled_ || identify == 0) return;
  const Span parent = spans_[identify - 1];
  double at = parent.start_ms;
  for (const exec::StageStats& stage : stats.stages()) {
    const double end = std::min(parent.end_ms, at + stage.wall_ms);
    Add(stage.stage, at, end, identify, parent.iteration, stage.threads);
    at = end;
  }
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_ms;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  (s.start_ms - origin) * 1e3, (s.end_ms - s.start_ms) * 1e3);
    out << "{\"name\": " << JsonQuote(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << times
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"workload\": " << JsonQuote(workload_)
        << ", \"iteration\": " << s.iteration
        << ", \"threads\": " << s.threads << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.good();
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"op_norm_ms", "ms"},
      {"par_cpu_norm_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // end-to-end numbers as measured, too noisy on a shared host to
      // gate, or specific to one workload
      {"op_ms", "ms"},
      {"par_op_ms", "ms"},
      {"par_cpu_ms", "ms"},
      {"setup.raw_s", "s"},
      {"host.calibration_ms", "ms"},
      {"op_tail_ms", "ms"},
      {"save_ms", "ms"},
      {"insert_us", "us"},
      {"delete_us", "us"},
      {"read_us", "us"},
      {"write_tail_us", "us"},
      {"snapshot_bytes_per_row", "B/row"},
      {"error_rate", "ratio"},
      {"op.samples", "count"},
      {"op_tail.percentile", "%"},
      // eid/extension + exec/columnar_world
      {"extend.ms", "ms"},
      {"extend.values_derived", "count"},
      {"extend.memo_hit_rate", "ratio"},
      {"columnar.encode_ms", "ms"},
      {"columnar.reuse_hits", "count"},
      // eid/matcher
      {"key_join.ms", "ms"},
      {"key_join.pairs", "count"},
      {"key_join.probe_batches", "count"},
      // exec/candidate_generator
      {"identity.ms", "ms"},
      {"identity.candidate_pairs", "count"},
      {"identity.fired_per_candidate", "ratio"},
      {"identity.amq_reject_rate", "ratio"},
      // eid/negative + compile/pair_program
      {"distinct.ms", "ms"},
      {"distinct.candidate_pairs", "count"},
      {"distinct.fired_per_candidate", "ratio"},
      {"distinct.nmt_pairs", "count"},
      {"residual.pair_blocks", "count"},
      {"residual.early_exit_rate", "ratio"},
      {"residual.scalar_fallback_lanes", "count"},
      // eid/match_tables + the Identify span itself
      {"consistency.ms", "ms"},
      {"identify.self_ms", "ms"},
      // exec/thread_pool
      {"extend.speedup", "x"},
      {"key_join.speedup", "x"},
      {"identity.speedup", "x"},
      {"distinct.speedup", "x"},
      {"par.cpu_per_wall", "ratio"},
      // storage + eid/integrate
      {"snapshot.load_ms", "ms"},
      {"snapshot.decode_ms", "ms"},
      {"snapshot.seeded_identify_ms", "ms"},
      {"snapshot.dict_values", "count"},
      {"snapshot.file_bytes", "B"},
      {"integrate.ms", "ms"},
      {"integrate.rows", "count"},
      // eid/incremental
      {"incremental.rebuild_us", "us"},
      {"incremental.live_rows", "count"},
      {"incremental.matched", "count"},
      // workload + analysis (set-up)
      {"setup.generate_s", "s"},
      {"setup.lint_s", "s"},
      {"setup.snapshot_write_s", "s"},
      // the trace itself
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

std::vector<std::string> WorkloadMetrics(const std::string& workload) {
  std::vector<std::string> names = {"op_ms", "par_op_ms", "par_cpu_ms",
                                    "setup.raw_s", "host.calibration_ms",
                                    "op_tail_ms"};
  if (workload == "snapshot_cold_start") {
    names.insert(names.end(), {"save_ms", "snapshot_bytes_per_row"});
  } else if (workload == "incremental_churn") {
    names.insert(names.end(),
                 {"insert_us", "delete_us", "read_us", "write_tail_us"});
  }
  names.push_back("error_rate");
  return names;
}

Report::Report() {
  for (const auto& list : {EndToEndMetrics(), PerLayerMetrics()}) {
    for (const auto& [name, unit] : list) metrics_[name] = Metric{0.0, unit};
  }
}

void Report::Set(const std::string& name, double value) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
}

void Report::Check(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(error);
}

}  // namespace perfbench
}  // namespace eid
