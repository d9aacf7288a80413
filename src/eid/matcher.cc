#include "eid/matcher.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "compile/interner.h"
#include "compile/pair_program.h"
#include "eid/identifier.h"

namespace eid {

namespace {

/// Key fingerprint of a row over the given columns; sets *has_null when
/// any key column is NULL (such rows never join: non_null_eq).
std::string KeyFingerprint(const Row& row, const std::vector<size_t>& idx,
                           bool* has_null) {
  std::string fp;
  *has_null = false;
  for (size_t i : idx) {
    if (row[i].is_null()) {
      *has_null = true;
      return fp;
    }
    std::string v = row[i].ToString();
    fp += std::to_string(v.size()) + ":" + v + "|" +
          static_cast<char>('0' + static_cast<int>(row[i].type()));
  }
  return fp;
}

}  // namespace

Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key) {
  return JoinOnExtendedKey(r_extended, s_extended, ext_key, /*pool=*/nullptr,
                           /*stats=*/nullptr);
}

Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key,
                                                 exec::ThreadPool* pool,
                                                 exec::StageStats* stats,
                                                 bool compiled,
                                                 exec::ColumnarWorld* world) {
  exec::StageTimer timer;
  std::vector<size_t> r_idx, s_idx;
  for (const std::string& a : ext_key.attributes()) {
    EID_ASSIGN_OR_RETURN(size_t ri, r_extended.schema().RequireIndex(a));
    EID_ASSIGN_OR_RETURN(size_t si, s_extended.schema().RequireIndex(a));
    r_idx.push_back(ri);
    s_idx.push_back(si);
  }

  // Probe R in parallel chunks; buckets hold ascending s indices and
  // chunks cover ascending r ranges, so concatenating per-chunk buffers
  // reproduces the serial probe's (r-major, s-ascending) pair order.
  const size_t n = r_extended.size();
  const int threads = pool != nullptr ? pool->threads() : 1;
  const size_t grain =
      std::max<size_t>(1, n / (static_cast<size_t>(threads) * 4));
  const size_t num_chunks = n == 0 ? 0 : (n + grain - 1) / grain;
  std::vector<std::vector<TuplePair>> found(num_chunks);
  compile::KeyJoinStats join_stats;

  std::vector<TuplePair> pairs;
  if (compiled) {
    // Id-keyed join (compile/pair_program.h): the key columns come from
    // the session world (encoded at most once across stages) or a
    // private one, and each probe reads one posting range of the S'
    // key column's CSR index.
    pairs = compile::InternedKeyJoin(r_extended, s_extended, r_idx, s_idx,
                                     pool, world, &join_stats);
  } else {
    std::unordered_map<std::string, std::vector<size_t>> build;
    build.reserve(s_extended.size() * 2);
    for (size_t s = 0; s < s_extended.size(); ++s) {
      bool has_null = false;
      std::string fp = KeyFingerprint(s_extended.row(s), s_idx, &has_null);
      if (has_null) continue;  // non_null_eq: NULL keys never match
      build[fp].push_back(s);
    }
    exec::ParallelFor(pool, n, grain, [&](size_t begin, size_t end, int) {
      const size_t chunk = begin / grain;
      for (size_t r = begin; r < end; ++r) {
        bool has_null = false;
        std::string fp = KeyFingerprint(r_extended.row(r), r_idx, &has_null);
        if (has_null) continue;
        auto it = build.find(fp);
        if (it == build.end()) continue;
        for (size_t s : it->second) {
          found[chunk].push_back(TuplePair{r, s});
        }
      }
    });
  }

  if (!compiled) {
    size_t total = 0;
    for (const auto& f : found) total += f.size();
    pairs.reserve(total);
    for (auto& f : found) pairs.insert(pairs.end(), f.begin(), f.end());
  }

  if (stats != nullptr) {
    stats->stage = "key_join";
    stats->threads = threads;
    stats->items = pairs.size();
    stats->candidate_pairs = pairs.size();
    stats->cross_product = r_extended.size() * s_extended.size();
    stats->wall_ms = timer.ElapsedMs();
    stats->interner_values = join_stats.interner_values;
    stats->probe_batches = join_stats.probe_batches;
    stats->interner_reuse_hits = join_stats.reuse_hits;
    stats->columnar_encode_ms = join_stats.encode_ms;
  }
  return pairs;
}

Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options) {
  // Standalone entry: the session world lives for this one build.
  exec::ColumnarWorld world;
  if (options.compile && options.columnar_seeds != nullptr) {
    world.Seed(*options.columnar_seeds);
  }
  return BuildMatchingTable(r, s, corr, ext_key, ilfds, options,
                            options.compile ? &world : nullptr);
}

Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options,
                                         exec::ColumnarWorld* world) {
  if (ext_key.empty()) {
    return Status::InvalidArgument("extended key must be non-empty");
  }
  EID_RETURN_IF_ERROR(corr.ValidateAgainst(r, s));
  // Every extended-key attribute must be modeled on at least one side —
  // otherwise no tuple can ever have a full non-NULL key on both sides and
  // the key is unusable.
  for (const std::string& a : ext_key.attributes()) {
    if (corr.Find(a) == nullptr) {
      return Status::NotFound("extended-key attribute '" + a +
                              "' unknown to the attribute correspondence");
    }
  }

  if (options.analyze) {
    IdentifierConfig program;
    program.correspondence = corr;
    program.extended_key = ext_key;
    program.ilfds = ilfds;
    program.matcher_options = options;
    program.matcher_options.analyze = false;
    EID_RETURN_IF_ERROR(
        analysis::PreflightCheck(r.schema(), s.schema(), program));
  }

  const int threads = exec::ResolveThreads(options.threads);
  exec::ThreadPool pool(threads);
  exec::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

  MatcherResult result;
  exec::StageStats extend_r, extend_s, key_join;
  ExtensionOptions ext = options.extension;
  ext.compile = options.compile;  // the matcher-level switch wins
  EID_ASSIGN_OR_RETURN(
      result.r_extension,
      ExtendRelation(r, Side::kR, corr, ext_key, ilfds, ext, pool_ptr,
                     &extend_r, world));
  EID_ASSIGN_OR_RETURN(
      result.s_extension,
      ExtendRelation(s, Side::kS, corr, ext_key, ilfds, ext, pool_ptr,
                     &extend_s, world));

  EID_ASSIGN_OR_RETURN(
      std::vector<TuplePair> pairs,
      JoinOnExtendedKey(result.r_extension.extended,
                        result.s_extension.extended, ext_key, pool_ptr,
                        &key_join, options.compile, world));

  result.uniqueness = Status::Ok();
  for (const TuplePair& p : pairs) {
    Status st = result.matching.Add(p);
    if (!st.ok()) {
      if (options.fail_on_uniqueness_violation) return st;
      if (result.uniqueness.ok()) result.uniqueness = st;  // first violation
    }
  }
  result.stats.Add(std::move(extend_r));
  result.stats.Add(std::move(extend_s));
  result.stats.Add(std::move(key_join));
  return result;
}

}  // namespace eid
