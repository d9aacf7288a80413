#include "eid/extension.h"

#include <algorithm>
#include <cstdint>
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

  // Each chunk records its rows' provenance into one CSR run and its
  // applied writes into one flat (row, column, atom) list — what the id
  // patch after AdoptRows needs — and stops at its first failed row: the
  // merge never reads past the first failure. Chunks are joined in row
  // order below.
  struct RowWrite {
    uint32_t row = 0;
    uint32_t column = 0;
    AtomId atom = 0;
  };
  struct alignas(64) Chunk {
    Provenance provenance;
    std::vector<RowWrite> writes;
    size_t failed_row = SIZE_MAX;
    Status failure;
  };
  const size_t grain =
      std::max<size_t>(1, n / (static_cast<size_t>(workers) * 4));
  std::vector<Chunk> chunks((n + grain - 1) / grain);
  std::vector<Row> rows(n);
  exec::ParallelFor(pool, n, grain,
                    [&](size_t begin, size_t end, int worker) {
    ClosureEvaluator& evaluator = evaluators[static_cast<size_t>(worker)];
    Chunk& chunk = chunks[begin / grain];
    std::vector<compile::DerivationWrite> writes;
    for (size_t r = begin; r < end; ++r) {
      // Sized once for the added columns, then filled: copying the base
      // row and growing it would allocate every row twice.
      const Row& base = relation.rows()[r];
      Row row;
      row.reserve(base.size() + added.size());
      row.assign(base.begin(), base.end());
      row.resize(base.size() + added.size(), Value::Null());
      Status st = program.Derive(row, r, binding, evaluator,
                                 &chunk.provenance, &writes);
      chunk.provenance.EndRow();
      if (!st.ok()) {
        chunk.failed_row = r;
        chunk.failure = std::move(st);
        break;
      }
      for (const compile::DerivationWrite& w : writes) {
        if (row[w.column].is_null()) {
          row[w.column] = program.value(w.atom);
          chunk.writes.push_back(RowWrite{static_cast<uint32_t>(r),
                                          static_cast<uint32_t>(w.column),
                                          w.atom});
        }
      }
      rows[r] = std::move(row);
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
  // Chunks run in row order, so the first one that failed holds the
  // first failed row.
  const Chunk* failed = nullptr;
  for (const Chunk& chunk : chunks) {
    if (chunk.failed_row != SIZE_MAX) {
      failed = &chunk;
      break;
    }
  }
  bool fast = failed == nullptr;
  if (fast) {
    std::vector<char> is_key_col(ext_schema.size(), 0);
    for (const KeyDef& key : extended.keys()) {
      for (size_t c : key.attribute_indices) is_key_col[c] = 1;
    }
    for (const Chunk& chunk : chunks) {
      for (const RowWrite& w : chunk.writes) {
        const Value& v = program.value(w.atom);
        if (v.is_null() || v.type() != ext_schema.attribute(w.column).type ||
            is_key_col[w.column] != 0) {
          fast = false;
          break;
        }
      }
      if (!fast) break;
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

  if (fast) {
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
    // Each distinct head atom is interned once, on its first write in row
    // order — the order a per-write intern would assign ids in.
    std::vector<uint32_t> id_of_atom(ilfds.atoms().size(),
                                     ValueDictionary::kNotInterned);
    for (const Chunk& chunk : chunks) {
      for (const RowWrite& w : chunk.writes) {
        if (have[w.column] == 0) continue;
        uint32_t& id = id_of_atom[w.atom];
        if (id == ValueDictionary::kNotInterned) {
          id = columnar.dict().GetOrIntern(program.value(w.atom));
        }
        ext_cols[w.column][w.row] = id;
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
      if (failed != nullptr && failed->failed_row == r) return failed->failure;
      EID_RETURN_IF_ERROR(extended.Insert(std::move(rows[r])));
    }
  }
  if (!chunks.empty()) {
    out.traces = std::move(chunks[0].provenance);
    for (size_t c = 1; c < chunks.size(); ++c) {
      out.traces.Append(chunks[c].provenance);
    }
  }
  const size_t values_derived = out.traces.derived_count();
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
