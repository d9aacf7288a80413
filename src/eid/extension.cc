#include "eid/extension.h"

#include <algorithm>
#include <optional>

#include "compile/derivation_program.h"

namespace eid {

Result<ExtensionResult> ExtendRelation(const Relation& relation, Side side,
                                       const AttributeCorrespondence& corr,
                                       const ExtendedKey& ext_key,
                                       const IlfdSet& ilfds,
                                       const ExtensionOptions& options) {
  exec::ColumnarWorld world;
  int threads = exec::ResolveThreads(options.threads);
  if (threads <= 1) {
    return ExtendRelation(relation, side, corr, ext_key, ilfds, options,
                          /*pool=*/nullptr, /*stats=*/nullptr, world);
  }
  exec::ThreadPool pool(threads);
  return ExtendRelation(relation, side, corr, ext_key, ilfds, options, &pool,
                        /*stats=*/nullptr, world);
}

Result<ExtensionResult> ExtendRelation(const Relation& relation, Side side,
                                       const AttributeCorrespondence& corr,
                                       const ExtendedKey& ext_key,
                                       const IlfdSet& ilfds,
                                       const ExtensionOptions& options,
                                       exec::ThreadPool* pool,
                                       exec::StageStats* stats,
                                       exec::ColumnarWorld& columnar) {
  exec::StageTimer timer;
  const double encode_ms_before = columnar.encode_ms();
  const size_t reuse_before = columnar.reuse_hits();

  // 1. Rename into world naming. Renaming never moves columns or changes
  // values, so only the schema is renamed and the source rows are read
  // positionally — no full-relation copy.
  EID_ASSIGN_OR_RETURN(Relation world, corr.ToWorldSchema(relation, side));

  // 2. Determine the columns to append.
  std::vector<std::string> added;
  for (const std::string& a : ext_key.attributes()) {
    if (!world.schema().Contains(a)) added.push_back(a);
  }
  if (options.derive_all) {
    for (const std::string& a : ilfds.ConsequentAttributes()) {
      if (!world.schema().Contains(a) &&
          std::find(added.begin(), added.end(), a) == added.end()) {
        added.push_back(a);
      }
    }
  }

  // 3. Build the extended schema. Added columns default to string type
  //    unless some ILFD consequent suggests otherwise.
  std::vector<Attribute> attrs = world.schema().attributes();
  for (const std::string& name : added) {
    attrs.push_back(Attribute{name, ilfds.ConsequentType(name)});
  }
  Relation extended(world.name() + "'", Schema(std::move(attrs)));
  // The original candidate keys remain keys of the extension.
  for (const KeyDef& key : world.keys()) {
    std::vector<std::string> names;
    for (size_t i : key.attribute_indices) {
      names.push_back(world.schema().attribute(i).name);
    }
    EID_RETURN_IF_ERROR(extended.DeclareKey(names));
  }

  ExtensionResult out;
  out.added_attributes = added;

  // 4. Per tuple: append NULLs, then derive.
  DerivationOptions derivation = options.derivation;
  if (!options.derive_all && derivation.target_attributes.empty()) {
    // Restrict reported derivations to the extended-key columns that are
    // missing (NULL) per tuple — handled below per tuple, so target the
    // whole extended key here.
    derivation.target_attributes = ext_key.attributes();
  } else if (options.derive_all) {
    derivation.target_attributes.clear();  // everything derivable
  }

  // Derivation is independent per tuple: shard rows across the pool,
  // each worker with its own ClosureEvaluator (the evaluator's
  // epoch-stamped workspace is the only mutable state; the IlfdSet is
  // read-only during the sweep). Every result lands in its row's slot,
  // so the assembled relation is identical for any thread count.
  const size_t n = relation.size();
  const int workers = (pool != nullptr ? pool->threads() : 1);
  const Schema& ext_schema = extended.schema();
  const size_t base_arity = relation.schema().size();

  // Lower the ILFD program once for this schema/options pair. The
  // program borrows `ilfds`, which outlives this call; it does not
  // escape.
  exec::StageTimer compile_timer;
  EID_SHARED_IMMUTABLE const compile::DerivationProgram program =
      compile::DerivationProgram::Compile(ext_schema, ilfds, derivation);
  const double compile_ms = compile_timer.ElapsedMs();
  EID_PER_WORKER std::vector<ClosureEvaluator> evaluators;  // by worker id
  evaluators.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) evaluators.emplace_back(&program.kb());

  // Columnar sweep setup (serial): bind the program's seed columns to
  // the side's base slot, and encode the columns the
  // id-level re-validation and the downstream join will read — the
  // candidate-key columns and any extended-key column already present in
  // the source schema. After this the dictionary is read-only until the
  // serial merge.
  const exec::WorldRel base_slot =
      side == Side::kR ? exec::WorldRel::kR : exec::WorldRel::kS;
  const exec::WorldRel ext_slot =
      side == Side::kR ? exec::WorldRel::kRExtended
                       : exec::WorldRel::kSExtended;
  EID_SHARED_IMMUTABLE const compile::ColumnarBinding binding =
      program.BindColumns(columnar, base_slot, relation);
  for (const KeyDef& key : extended.keys()) {
    for (size_t c : key.attribute_indices) {
      columnar.Column(base_slot, relation, c);
    }
  }
  for (const std::string& a : ext_key.attributes()) {
    std::optional<size_t> c = ext_schema.IndexOf(a);
    if (c.has_value() && *c < base_arity) {
      columnar.Column(base_slot, relation, *c);
    }
  }

  std::vector<Row> rows(n);
  std::vector<Derivation> traces(n);
  std::vector<Status> row_status(n);
  // Applied writes per row — what the id patch-up after AdoptRows needs.
  std::vector<std::vector<compile::DerivationWrite>> row_writes(n);
  exec::ParallelFor(pool, n, /*grain=*/0,
                    [&](size_t begin, size_t end, int worker) {
    ClosureEvaluator& evaluator = evaluators[static_cast<size_t>(worker)];
    std::vector<compile::DerivationWrite> writes;
    for (size_t r = begin; r < end; ++r) {
      // Sized once for the added columns, then filled: copying the base
      // row and growing it would allocate every row twice.
      const Row& base = relation.rows()[r];
      Row row;
      row.reserve(base.size() + added.size());
      row.assign(base.begin(), base.end());
      row.resize(base.size() + added.size(), Value::Null());
      Result<Derivation> derived =
          program.Derive(row, r, binding, evaluator, &writes);
      if (!derived.ok()) {
        row_status[r] = derived.status();
        continue;
      }
      for (const compile::DerivationWrite& w : writes) {
        if (row[w.column].is_null()) {
          row[w.column] = w.value;
          row_writes[r].push_back(w);
        }
      }
      rows[r] = std::move(row);
      traces[r] = std::move(derived).value();
    }
  });
  // Merge. Re-validate at the id layer and bulk-install via AdoptRows (the same trusted-bulk contract snapshot
  // loads use: base cells were validated by the source relation's own
  // Insert path; only the newly derived writes are fresh data). Anything
  // suspicious — a failed row, an off-type or NULL write, a write into a
  // key column, a NULL or duplicate id-level key — drops to the exact
  // per-row Insert replay below, so diagnostics and their precedence
  // (row r's derivation error before its insert error, before anything
  // about row r+1) stay bit-identical to the reference's.
  bool fast = true;
  for (size_t r = 0; r < n && fast; ++r) fast = row_status[r].ok();
  if (fast) {
    std::vector<char> is_key_col(ext_schema.size(), 0);
    for (const KeyDef& key : extended.keys()) {
      for (size_t c : key.attribute_indices) is_key_col[c] = 1;
    }
    for (size_t r = 0; r < n && fast; ++r) {
      for (const compile::DerivationWrite& w : row_writes[r]) {
        if (w.value.is_null() ||
            w.value.type() != ext_schema.attribute(w.column).type ||
            is_key_col[w.column] != 0) {
          fast = false;
          break;
        }
      }
    }
  }
  if (fast) {
    // Key uniqueness over id keys: equal ids are equal values, so this
    // accepts exactly the rows the string-fingerprint sets accept. A NULL
    // key cell, or two rows with equal keys (adjacent once sorted), sends
    // the merge to the per-row replay.
    for (const KeyDef& key : extended.keys()) {
      if (!fast) break;
      std::vector<const uint32_t*> cols;
      cols.reserve(key.attribute_indices.size());
      for (size_t c : key.attribute_indices) {
        cols.push_back(columnar.Column(base_slot, relation, c).data());
      }
      for (size_t r = 0; r < n && fast; ++r) {
        for (const uint32_t* col : cols) {
          if (col[r] == exec::ColumnarWorld::kNullId) fast = false;
        }
      }
      if (!fast) break;
      if (cols.size() <= 2) {
        std::vector<uint64_t> packed(n, 0);
        for (const uint32_t* col : cols) {
          for (size_t r = 0; r < n; ++r) packed[r] = (packed[r] << 32) | col[r];
        }
        std::sort(packed.begin(), packed.end());
        fast = std::adjacent_find(packed.begin(), packed.end()) == packed.end();
      } else {
        std::vector<uint32_t> order(n);
        for (size_t r = 0; r < n; ++r) order[r] = static_cast<uint32_t>(r);
        auto less = [&](uint32_t a, uint32_t b) {
          for (const uint32_t* col : cols) {
            if (col[a] != col[b]) return col[a] < col[b];
          }
          return false;
        };
        std::sort(order.begin(), order.end(), less);
        for (size_t i = 1; i < n && fast; ++i) {
          fast = less(order[i - 1], order[i]);
        }
      }
    }
  }

  size_t values_derived = 0;
  if (fast) {
    for (size_t r = 0; r < n; ++r) values_derived += traces[r].derived.size();
    out.traces = std::move(traces);
    extended.AdoptRows(std::move(rows));
    // Hand the extended relation's id columns to the join and the rule
    // stages: encoded base columns carry over (writes patched in), and
    // extension-appended columns start all-NULL and take their derived
    // ids. Columns never encoded stay lazy — the join encodes them from
    // the extended relation on demand.
    const size_t ext_arity = ext_schema.size();
    std::vector<std::vector<uint32_t>> ext_cols(ext_arity);
    std::vector<char> have(ext_arity, 0);
    for (size_t c = 0; c < ext_arity; ++c) {
      if (c < base_arity) {
        const std::vector<uint32_t>* ids = columnar.FindColumn(base_slot, c);
        if (ids == nullptr) continue;
        ext_cols[c] = *ids;
        have[c] = 1;
      } else {
        ext_cols[c].assign(n, exec::ColumnarWorld::kNullId);
        have[c] = 1;
      }
    }
    for (size_t r = 0; r < n; ++r) {
      for (const compile::DerivationWrite& w : row_writes[r]) {
        if (have[w.column] != 0) {
          ext_cols[w.column][r] = columnar.dict().GetOrIntern(w.value);
        }
      }
    }
    for (size_t c = 0; c < ext_arity; ++c) {
      if (have[c] != 0) columnar.Adopt(ext_slot, c, std::move(ext_cols[c]));
    }
  } else {
    // Merge in row order, surfacing errors exactly as the reference
    // does: row r's derivation error precedes its insert error, which
    // precedes anything about row r+1.
    for (size_t r = 0; r < n; ++r) {
      EID_RETURN_IF_ERROR(row_status[r]);
      values_derived += traces[r].derived.size();
      EID_RETURN_IF_ERROR(extended.Insert(std::move(rows[r])));
      out.traces.push_back(std::move(traces[r]));
    }
  }
  out.extended = std::move(extended);
  if (stats != nullptr) {
    stats->stage = side == Side::kR ? "extend_r" : "extend_s";
    stats->threads = workers;
    stats->items = n;
    stats->values_derived = values_derived;
    stats->wall_ms = timer.ElapsedMs();
    stats->compile_ms = compile_ms;
    stats->columnar_encode_ms = columnar.encode_ms() - encode_ms_before;
    stats->interner_reuse_hits = columnar.reuse_hits() - reuse_before;
  }
  return out;
}

}  // namespace eid
