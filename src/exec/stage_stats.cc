#include "exec/stage_stats.h"

#include <cstdio>

namespace eid {
namespace exec {

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string StageStats::ToString() const {
  std::string out = stage + ": " + FormatMs(wall_ms) + " ms, threads=" +
                    std::to_string(threads) +
                    ", items=" + std::to_string(items);
  if (values_derived > 0) {
    out += ", values_derived=" + std::to_string(values_derived);
  }
  if (cross_product > 0) {
    out += ", candidate_pairs=" + std::to_string(candidate_pairs) + "/" +
           std::to_string(cross_product);
  }
  if (rule_evals > 0) out += ", rule_evals=" + std::to_string(rule_evals);
  if (amq_rejects > 0) {
    out += ", amq_rejects=" + std::to_string(amq_rejects);
  }
  if (feature_cache_hits > 0) {
    out += ", feature_cache_hits=" + std::to_string(feature_cache_hits);
  }
  if (compile_ms > 0.0) out += ", compile_ms=" + FormatMs(compile_ms);
  if (snapshot_load_ms > 0.0) {
    out += ", snapshot_load_ms=" + FormatMs(snapshot_load_ms);
  }
  if (dict_values > 0) {
    out += ", dict_values=" + std::to_string(dict_values);
  }
  if (probe_batches > 0) {
    out += ", probe_batches=" + std::to_string(probe_batches);
  }
  if (interner_reuse_hits > 0) {
    out += ", interner_reuse_hits=" + std::to_string(interner_reuse_hits);
  }
  if (columnar_encode_ms > 0.0) {
    out += ", columnar_encode_ms=" + FormatMs(columnar_encode_ms);
  }
  return out;
}

std::string StageStats::ToJson() const {
  std::string out = "{\"stage\":\"" + stage + "\"";
  out += ",\"wall_ms\":" + FormatMs(wall_ms);
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"items\":" + std::to_string(items);
  out += ",\"values_derived\":" + std::to_string(values_derived);
  out += ",\"candidate_pairs\":" + std::to_string(candidate_pairs);
  out += ",\"cross_product\":" + std::to_string(cross_product);
  out += ",\"rule_evals\":" + std::to_string(rule_evals);
  out += ",\"amq_rejects\":" + std::to_string(amq_rejects);
  out += ",\"feature_cache_hits\":" + std::to_string(feature_cache_hits);
  out += ",\"pair_blocks\":" + std::to_string(pair_blocks);
  out += ",\"block_early_exits\":" + std::to_string(block_early_exits);
  out += ",\"block_scalar_fallbacks\":" + std::to_string(block_scalar_fallbacks);
  out += ",\"compile_ms\":" + FormatMs(compile_ms);
  out += ",\"memo_hits\":" + std::to_string(memo_hits);
  out += ",\"memo_misses\":" + std::to_string(memo_misses);
  out += ",\"snapshot_load_ms\":" + FormatMs(snapshot_load_ms);
  out += ",\"dict_values\":" + std::to_string(dict_values);
  out += ",\"probe_batches\":" + std::to_string(probe_batches);
  out += ",\"interner_reuse_hits\":" + std::to_string(interner_reuse_hits);
  out += ",\"columnar_encode_ms\":" + FormatMs(columnar_encode_ms);
  out += "}";
  return out;
}

void StageStatsSet::Merge(const StageStatsSet& other) {
  for (const StageStats& s : other.stages_) stages_.push_back(s);
}

const StageStats* StageStatsSet::Find(const std::string& stage) const {
  for (const StageStats& s : stages_) {
    if (s.stage == stage) return &s;
  }
  return nullptr;
}

std::string StageStatsSet::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += ",";
    out += stages_[i].ToJson();
  }
  out += "]";
  return out;
}

std::string StageStatsSet::ToString() const {
  std::string out;
  for (const StageStats& s : stages_) {
    out += s.ToString() + "\n";
  }
  return out;
}

}  // namespace exec
}  // namespace eid
