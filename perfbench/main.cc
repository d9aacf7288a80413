// eid_perfbench --workload NAME --seed N --seconds S --trace 0|1
//               [--tiny] [--expect-digest HEX] [--trace-out PATH]
//               [--work-dir DIR] [--git-commit REV]
//
// Prints a run header, every metric of the workload by name with its
// unit, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also writes its spans as Chrome trace-event
// JSON to --trace-out.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace eid {
namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "eid_perfbench: %s\nusage: eid_perfbench --workload "
               "{dense_prop1|blocked_65k|snapshot_cold_start|"
               "incremental_churn} --seed N --seconds S --trace 0|1 "
               "[--tiny] [--expect-digest HEX] [--trace-out PATH] "
               "[--work-dir DIR] [--git-commit REV]\n",
               why);
  return 2;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const Report& report, const std::string& name) {
  const Metric& m = report.metrics().at(name);
  std::printf("  %-32s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int Main(int argc, char** argv) {
  Options options;
  std::string git_commit = "unknown";
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if ((value = next()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
      have_trace = options.trace || std::string(value) == "0";
    } else if (arg == "--expect-digest") {
      options.expect_digest = std::strtoull(value, nullptr, 16);
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--git-commit") {
      git_commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const Options&, Trace*, Report*) = nullptr;
  if (options.workload == "dense_prop1") run = RunDenseProp1;
  if (options.workload == "blocked_65k") run = RunBlocked65k;
  if (options.workload == "snapshot_cold_start") run = RunSnapshotColdStart;
  if (options.workload == "incremental_churn") run = RunIncrementalChurn;
  if (run == nullptr) return Usage("unknown workload");
  const int nproc = Nproc();
  options.par_threads = std::min(nproc, 4);
  if (options.trace_out.empty()) {
    options.trace_out = options.work_dir + "/trace_" + options.workload +
                        "_seed" + std::to_string(options.seed) + ".json";
  }

  Trace trace(options.trace, options.workload);
  Report report;
  run(options, &trace, &report);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("error_rate", static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted));

  // Run header: host, build and inputs.
  std::string header =
      "{\"workload\": " + JsonQuote(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + Number(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"compiler\": " + JsonQuote(EID_PERFBENCH_COMPILER) +
      ", \"build_type\": " + JsonQuote(EID_PERFBENCH_BUILD_TYPE) +
      ", \"git_commit\": " + JsonQuote(git_commit);
  for (const auto& [key, value] : report.sizes) {
    header += ", " + JsonQuote(key) + ": " + JsonQuote(value);
  }
  std::printf("header %s}\n", header.c_str());

  std::printf("end-to-end (%s):\n", options.workload.c_str());
  for (const auto& [name, unit] : EndToEndMetrics()) PrintMetric(report, name);
  for (const std::string& name : WorkloadMetrics(options.workload)) {
    PrintMetric(report, name);
  }
  std::printf("  tail: p%.1f of %zu ops\n",
              report.metrics().at("op_tail.percentile").value,
              static_cast<size_t>(report.metrics().at("op.samples").value));
  if (options.trace) {
    std::printf("per-layer:\n");
    for (const auto& [name, unit] : PerLayerMetrics()) {
      PrintMetric(report, name);
    }
    if (!trace.Write(options.trace_out)) {
      std::fprintf(stderr, "eid_perfbench: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %s\n", options.trace_out.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  std::string metrics;
  for (const auto& [name, unit] :
       options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonQuote(name) + ": {\"value\": " +
               Number(report.metrics().at(name).value) +
               ", \"unit\": " + JsonQuote(unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  return 0;
}

}  // namespace perfbench
}  // namespace eid

int main(int argc, char** argv) { return eid::perfbench::Main(argc, argv); }
