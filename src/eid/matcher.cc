#include "eid/matcher.h"

#include "analysis/analyzer.h"
#include "compile/pair_program.h"
#include "eid/identifier.h"

namespace eid {

Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key) {
  for (const std::string& a : ext_key.attributes()) {
    EID_RETURN_IF_ERROR(r_extended.schema().RequireIndex(a).status());
    EID_RETURN_IF_ERROR(s_extended.schema().RequireIndex(a).status());
  }
  exec::ColumnarWorld world;
  exec::StageStats stats;
  return compile::SweepRules({ext_key.EquivalenceRule()}, r_extended,
                             s_extended, world, /*pool=*/nullptr, &stats)
      .pairs;
}

void AddMatches(const std::vector<TuplePair>& pairs, MatchTable* matching,
                Status* uniqueness) {
  for (const TuplePair& p : pairs) {
    Status st = matching->Add(p);
    if (!st.ok() && uniqueness->ok()) *uniqueness = st;  // first violation
  }
}

Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options) {
  // Standalone entry: the session world and pool live for this one build.
  exec::ColumnarWorld world;
  if (options.columnar_seeds != nullptr) world.Seed(*options.columnar_seeds);
  const int threads = exec::ResolveThreads(options.threads);
  exec::ThreadPool pool(threads);
  return BuildMatchingTable(r, s, corr, ext_key, ilfds, options,
                            threads > 1 ? &pool : nullptr, world);
}

Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options,
                                         exec::ThreadPool* pool,
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

  MatcherResult result;
  exec::StageStats extend_r, extend_s;
  EID_ASSIGN_OR_RETURN(
      result.r_extension,
      ExtendRelation(r, Side::kR, corr, ext_key, ilfds, options.extension,
                     pool, &extend_r, world));
  EID_ASSIGN_OR_RETURN(
      result.s_extension,
      ExtendRelation(s, Side::kS, corr, ext_key, ilfds, options.extension,
                     pool, &extend_s, world));
  const Relation& r_ext = result.r_extension.extended;
  const Relation& s_ext = result.s_extension.extended;

  // The key join is extended-key equivalence, an identity rule, swept
  // like any other: its pairs come out r-major, s ascending.
  exec::StageTimer timer;
  exec::StageStats key_join;
  key_join.stage = "key_join";
  key_join.threads = pool != nullptr ? pool->threads() : 1;
  key_join.cross_product = r_ext.size() * s_ext.size();
  const std::vector<TuplePair> pairs =
      compile::SweepRules({ext_key.EquivalenceRule()}, r_ext, s_ext, world,
                          pool, &key_join)
          .pairs;
  key_join.items = pairs.size();
  key_join.wall_ms = timer.ElapsedMs();

  result.uniqueness = Status::Ok();
  AddMatches(pairs, &result.matching, &result.uniqueness);
  result.stats.Add(std::move(extend_r));
  result.stats.Add(std::move(extend_s));
  result.stats.Add(std::move(key_join));
  return result;
}

}  // namespace eid
