#include "eid/matcher.h"

#include "analysis/analyzer.h"
#include "compile/pair_program.h"
#include "eid/identifier.h"

namespace eid {

Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key) {
  exec::ColumnarWorld world;
  return JoinOnExtendedKey(r_extended, s_extended, ext_key, /*pool=*/nullptr,
                           /*stats=*/nullptr, world);
}

Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key,
                                                 exec::ThreadPool* pool,
                                                 exec::StageStats* stats,
                                                 exec::ColumnarWorld& world) {
  exec::StageTimer timer;
  std::vector<size_t> r_idx, s_idx;
  for (const std::string& a : ext_key.attributes()) {
    EID_ASSIGN_OR_RETURN(size_t ri, r_extended.schema().RequireIndex(a));
    EID_ASSIGN_OR_RETURN(size_t si, s_extended.schema().RequireIndex(a));
    r_idx.push_back(ri);
    s_idx.push_back(si);
  }
  // The key columns come from the session world (encoded at most once
  // across stages), and each probe reads one posting range of the S' key
  // column's CSR index.
  compile::KeyJoinStats join_stats;
  std::vector<TuplePair> pairs = compile::InternedKeyJoin(
      r_extended, s_extended, r_idx, s_idx, pool, world, &join_stats);
  if (stats != nullptr) {
    stats->stage = "key_join";
    stats->threads = pool != nullptr ? pool->threads() : 1;
    stats->items = pairs.size();
    stats->candidate_pairs = pairs.size();
    stats->cross_product = r_extended.size() * s_extended.size();
    stats->wall_ms = timer.ElapsedMs();
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
  if (options.columnar_seeds != nullptr) world.Seed(*options.columnar_seeds);
  return BuildMatchingTable(r, s, corr, ext_key, ilfds, options, world);
}

Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options,
                                         exec::ColumnarWorld& world) {
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
  EID_ASSIGN_OR_RETURN(
      result.r_extension,
      ExtendRelation(r, Side::kR, corr, ext_key, ilfds, options.extension,
                     pool_ptr, &extend_r, world));
  EID_ASSIGN_OR_RETURN(
      result.s_extension,
      ExtendRelation(s, Side::kS, corr, ext_key, ilfds, options.extension,
                     pool_ptr, &extend_s, world));

  EID_ASSIGN_OR_RETURN(
      std::vector<TuplePair> pairs,
      JoinOnExtendedKey(result.r_extension.extended,
                        result.s_extension.extended, ext_key, pool_ptr,
                        &key_join, world));

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
