#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_set>
#include <utility>

#include "exec/stage_stats.h"
#include "storage/dictionary.h"

namespace eid {
namespace storage {

namespace {

// ---------------------------------------------------------------------------
// Section encoders (layouts documented in DESIGN.md §4e)
// ---------------------------------------------------------------------------

void AppendRelation(const Relation& rel, ValueDictionary* dict,
                    ByteWriter* out) {
  out->PutString(rel.name());
  out->PutU32(static_cast<uint32_t>(rel.schema().size()));
  for (const Attribute& a : rel.schema().attributes()) {
    out->PutString(a.name);
    out->PutU8(static_cast<uint8_t>(a.type));
  }
  out->PutU32(static_cast<uint32_t>(rel.keys().size()));
  for (const KeyDef& key : rel.keys()) {
    out->PutU32(static_cast<uint32_t>(key.attribute_indices.size()));
    for (size_t i : key.attribute_indices) {
      out->PutU32(static_cast<uint32_t>(i));
    }
  }
  out->PutU32(static_cast<uint32_t>(rel.size()));
  for (const Row& row : rel.rows()) {
    for (const Value& v : row) out->PutU32(dict->GetOrIntern(v));
  }
}

void AppendPairs(const std::vector<TuplePair>& pairs, ByteWriter* out) {
  out->PutU32(static_cast<uint32_t>(pairs.size()));
  for (const TuplePair& p : pairs) {
    out->PutU64(static_cast<uint64_t>(p.r_index));
    out->PutU64(static_cast<uint64_t>(p.s_index));
  }
}

/// Encodes one side's provenance as the version-2 record — per row, the
/// derived map in attribute order, the steps, the conflicts — straight
/// from the CSR. `value_ids` caches each atom's dictionary id, interned on
/// the atom's first use: the order interning value by value assigns.
Status AppendTraces(const Provenance* traces, const IlfdSet* ilfds,
                    std::vector<uint32_t>* value_ids, ValueDictionary* dict,
                    ByteWriter* out) {
  if (traces == nullptr || traces->rows() == 0) {
    out->PutU32(0);
    return Status::Ok();
  }
  if (ilfds == nullptr) {
    return Status::InvalidArgument(
        "snapshot provenance needs the ILFD set its atoms index");
  }
  const AtomTable& atoms = ilfds->atoms();
  for (size_t i = 0; i < traces->step_count(); ++i) {
    const Provenance::Step& step = traces->step(i);
    if (step.atom >= atoms.size() || step.ilfd >= ilfds->size()) {
      return Status::InvalidArgument(
          "snapshot provenance does not match the image's ILFD set");
    }
  }
  // A derived map iterates in attribute-name order: rank the attributes
  // once, then sort each row's few derived steps by rank.
  std::vector<uint32_t> ordinals(atoms.attribute_count());
  for (uint32_t o = 0; o < ordinals.size(); ++o) ordinals[o] = o;
  std::sort(ordinals.begin(), ordinals.end(), [&](uint32_t a, uint32_t b) {
    return atoms.attribute_name(a) < atoms.attribute_name(b);
  });
  std::vector<uint32_t> rank(ordinals.size());
  for (uint32_t i = 0; i < ordinals.size(); ++i) rank[ordinals[i]] = i;
  auto rank_of = [&](size_t step) {
    return rank[atoms.attribute_ordinal(traces->step(step).atom)];
  };
  value_ids->resize(atoms.size(), ValueDictionary::kNotInterned);
  auto put_atom = [&](AtomId atom) {
    uint32_t& id = (*value_ids)[atom];
    if (id == ValueDictionary::kNotInterned) {
      id = dict->GetOrIntern(atoms.atom(atom).value);
    }
    out->PutString(atoms.atom(atom).attribute);
    out->PutU32(id);
  };

  out->PutU32(static_cast<uint32_t>(traces->rows()));
  const std::vector<Provenance::RowConflict>& conflicts = traces->conflicts();
  size_t next_conflict = 0;
  std::vector<size_t> derived;
  for (size_t row = 0; row < traces->rows(); ++row) {
    const size_t begin = traces->row_begin(row);
    const size_t end = traces->row_end(row);
    derived.clear();
    for (size_t i = begin; i < end; ++i) {
      if (traces->derived(i)) derived.push_back(i);
    }
    std::sort(derived.begin(), derived.end(), [&](size_t a, size_t b) {
      return rank_of(a) < rank_of(b);
    });
    out->PutU32(static_cast<uint32_t>(derived.size()));
    for (size_t i : derived) put_atom(traces->step(i).atom);
    out->PutU32(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      put_atom(traces->step(i).atom);
      out->PutU64(static_cast<uint64_t>(traces->step(i).ilfd));
    }
    size_t last_conflict = next_conflict;
    while (last_conflict < conflicts.size() &&
           conflicts[last_conflict].row == row) {
      ++last_conflict;
    }
    out->PutU32(static_cast<uint32_t>(last_conflict - next_conflict));
    for (; next_conflict < last_conflict; ++next_conflict) {
      const DerivationConflict& c = conflicts[next_conflict].conflict;
      out->PutString(c.attribute);
      out->PutU32(dict->GetOrIntern(c.first_value));
      out->PutU32(dict->GetOrIntern(c.second_value));
      // kDerivationBaseProvenance == size_t(-1) survives as u64.
      out->PutU64(static_cast<uint64_t>(c.first_ilfd));
      out->PutU64(static_cast<uint64_t>(c.second_ilfd));
    }
  }
  return Status::Ok();
}

void AppendAtoms(const std::vector<Atom>& atoms, ValueDictionary* dict,
                 ByteWriter* out) {
  out->PutU32(static_cast<uint32_t>(atoms.size()));
  for (const Atom& a : atoms) {
    out->PutString(a.attribute);
    out->PutU32(dict->GetOrIntern(a.value));
  }
}

void AppendRuleProgram(const WorldImage& image, ValueDictionary* dict,
                       ByteWriter* out) {
  // ILFDs are stored structurally (atoms over dictionary value ids), not
  // as display text — Value::ToString round-trips are lossy for strings
  // that look numeric, the structural form is not.
  if (image.ilfds == nullptr) {
    out->PutU32(0);
  } else {
    out->PutU32(static_cast<uint32_t>(image.ilfds->size()));
    for (const Ilfd& f : image.ilfds->ilfds()) {
      AppendAtoms(f.antecedent(), dict, out);
      AppendAtoms(f.consequent(), dict, out);
    }
  }
  if (image.correspondence == nullptr) {
    out->PutU32(0);
  } else {
    const std::vector<AttributeMapping>& mappings =
        image.correspondence->mappings();
    out->PutU32(static_cast<uint32_t>(mappings.size()));
    for (const AttributeMapping& m : mappings) {
      out->PutString(m.world);
      uint8_t flags = 0;
      if (m.in_r.has_value()) flags |= 1;
      if (m.in_s.has_value()) flags |= 2;
      out->PutU8(flags);
      if (m.in_r.has_value()) out->PutString(*m.in_r);
      if (m.in_s.has_value()) out->PutString(*m.in_s);
    }
  }
  out->PutU8(image.extended_key != nullptr ? 1 : 0);
  if (image.extended_key != nullptr) {
    out->PutU32(static_cast<uint32_t>(image.extended_key->size()));
    for (const std::string& a : image.extended_key->attributes()) {
      out->PutString(a);
    }
  }
}

// ---------------------------------------------------------------------------
// Section decoders
// ---------------------------------------------------------------------------

/// A decoded section must have used its whole payload: the writer emits
/// no trailing bytes.
Status ExpectConsumed(const ByteReader& in, const char* section) {
  if (in.remaining() == 0) return Status::Ok();
  return CorruptError(std::string(section) + " section has " +
                      std::to_string(in.remaining()) + " trailing bytes");
}

Status ParseRelation(ByteReader* in, const std::vector<Value>& dict,
                     Relation* out, size_t* rows_loaded,
                     std::vector<std::vector<uint32_t>>* columnar = nullptr) {
  std::string name;
  uint32_t attr_count = 0;
  if (!in->GetString(&name) || !in->GetU32(&attr_count)) {
    return CorruptError("relation header truncated");
  }
  if (attr_count > in->remaining()) {
    return CorruptError("relation attribute count exceeds section");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(attr_count);
  std::unordered_set<std::string> seen_names;
  for (uint32_t i = 0; i < attr_count; ++i) {
    Attribute a;
    uint8_t type = 0;
    if (!in->GetString(&a.name) || !in->GetU8(&type)) {
      return CorruptError("relation attribute truncated");
    }
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return CorruptError("relation attribute has unknown type tag");
    }
    if (!seen_names.insert(a.name).second) {
      return CorruptError("relation schema repeats attribute '" + a.name +
                          "'");
    }
    a.type = static_cast<ValueType>(type);
    attrs.push_back(std::move(a));
  }
  Schema schema(std::move(attrs));

  uint32_t key_count = 0;
  if (!in->GetU32(&key_count)) return CorruptError("relation keys truncated");
  std::vector<std::vector<std::string>> keys;
  for (uint32_t k = 0; k < key_count; ++k) {
    uint32_t index_count = 0;
    if (!in->GetU32(&index_count) || index_count > in->remaining()) {
      return CorruptError("relation key truncated");
    }
    std::vector<std::string> names;
    names.reserve(index_count);
    for (uint32_t i = 0; i < index_count; ++i) {
      uint32_t idx = 0;
      if (!in->GetU32(&idx)) return CorruptError("relation key truncated");
      if (idx >= schema.size()) {
        return CorruptError("relation key index out of range");
      }
      names.push_back(schema.attribute(idx).name);
    }
    keys.push_back(std::move(names));
  }

  uint32_t row_count = 0;
  if (!in->GetU32(&row_count)) return CorruptError("relation rows truncated");
  const uint64_t cells =
      static_cast<uint64_t>(row_count) * static_cast<uint64_t>(schema.size());
  if (cells * 4 > in->remaining()) {
    return CorruptError("relation row matrix truncated");
  }
  // Rows without attributes occupy no bytes, so the section backs none of
  // them (the writer refuses such a relation): a forged count must not
  // reach the row allocation below.
  if (schema.size() == 0 && row_count > 0) {
    return CorruptError("relation without attributes has rows");
  }

  *out = Relation(std::move(name), schema);
  for (const std::vector<std::string>& key : keys) {
    Status st = out->DeclareKey(key);
    if (!st.ok()) {
      return CorruptError("relation key invalid: " + st.message());
    }
  }
  // Bulk cell decode: the count was validated against the section above,
  // so take the whole id matrix in one bounds check and read ids with raw
  // unaligned loads — a per-cell GetU32 branch was a visible fraction of
  // large-world load time. Dictionary range checks stay per cell; they are
  // the corruption guard, not the cost.
  const uint8_t* cell_bytes = in->GetBytes(static_cast<size_t>(cells) * 4);
  if (cell_bytes == nullptr && cells > 0) {
    return CorruptError("relation row matrix truncated");
  }
  const size_t width = schema.size();
  const size_t dict_size = dict.size();
  // Columnar capture: the cell ids already are the dictionary's dense
  // ids, so the columnar-world seed falls out of the decode for free —
  // only NULL cells are remapped (the snapshot interns NULL as a regular
  // value; the columnar id layer keeps it out and uses the sentinel).
  if (columnar != nullptr) {
    columnar->assign(width, std::vector<uint32_t>(row_count, 0));
  }
  std::vector<Row> rows(row_count);
  for (uint32_t r = 0; r < row_count; ++r) {
    Row& row = rows[r];
    row.reserve(width);
    const uint8_t* at = cell_bytes + static_cast<size_t>(r) * width * 4;
    for (size_t c = 0; c < width; ++c) {
      uint32_t id = 0;
      std::memcpy(&id, at + c * 4, sizeof(id));
      if (id >= dict_size) {
        return CorruptError("relation cell references value id " +
                            std::to_string(id) + " beyond dictionary");
      }
      const Value& v = dict[id];
      if (columnar != nullptr) {
        (*columnar)[c][r] =
            v.is_null() ? exec::ColumnarWorld::kNullId : id;
      }
      row.push_back(v);
    }
  }
  *rows_loaded += rows.size();
  out->AdoptRows(std::move(rows));
  return Status::Ok();
}

Status ParsePairs(ByteReader* in, const Relation& r_ext,
                  const Relation& s_ext, std::vector<TuplePair>* out) {
  uint32_t count = 0;
  if (!in->GetU32(&count)) return CorruptError("match table truncated");
  if (static_cast<uint64_t>(count) * 16 > in->remaining()) {
    return CorruptError("match table pair list truncated");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t r = 0, s = 0;
    if (!in->GetU64(&r) || !in->GetU64(&s)) {
      return CorruptError("match table pair truncated");
    }
    if (r >= r_ext.size() || s >= s_ext.size()) {
      return CorruptError("match table pair indexes beyond relations");
    }
    out->push_back(TuplePair{static_cast<size_t>(r), static_cast<size_t>(s)});
  }
  return Status::Ok();
}

/// Decodes one side's version-2 provenance record into `out`'s CSR over
/// `ilfds`' atoms. Each step must be a consequent atom of the ILFD it
/// names, and each derived-map entry the last step of its attribute in
/// its row — the only records the writer produces.
Status ParseTraces(ByteReader* in, const std::vector<Value>& dict,
                   const IlfdSet& ilfds, Provenance* out) {
  uint32_t count = 0;
  if (!in->GetU32(&count)) return CorruptError("provenance truncated");
  if (count > in->remaining()) {
    return CorruptError("provenance trace count exceeds section");
  }
  auto get_value_id = [&](uint32_t* id) -> bool {
    return in->GetU32(id) && *id < dict.size();
  };
  const AtomTable& atoms = ilfds.atoms();
  out->Clear();
  std::vector<std::pair<std::string, uint32_t>> derived;
  std::string attribute;
  for (uint32_t t = 0; t < count; ++t) {
    uint32_t derived_count = 0;
    if (!in->GetU32(&derived_count) || derived_count > in->remaining()) {
      return CorruptError("derivation map truncated");
    }
    derived.resize(derived_count);
    for (uint32_t i = 0; i < derived_count; ++i) {
      if (!in->GetString(&derived[i].first) ||
          !get_value_id(&derived[i].second)) {
        return CorruptError("derivation entry truncated");
      }
      if (i > 0 && !(derived[i - 1].first < derived[i].first)) {
        return CorruptError("derivation map attributes out of order");
      }
    }
    uint32_t step_count = 0;
    if (!in->GetU32(&step_count) || step_count > in->remaining()) {
      return CorruptError("derivation steps truncated");
    }
    const size_t row_begin = out->step_count();
    for (uint32_t i = 0; i < step_count; ++i) {
      uint32_t value_id = 0;
      uint64_t ilfd_index = 0;
      if (!in->GetString(&attribute) || !get_value_id(&value_id) ||
          !in->GetU64(&ilfd_index)) {
        return CorruptError("derivation step truncated");
      }
      if (ilfd_index >= ilfds.size()) {
        return CorruptError("derivation step names ILFD " +
                            std::to_string(ilfd_index) +
                            " beyond the rule program");
      }
      const std::optional<AtomId> atom =
          atoms.Find(attribute, dict[value_id]);
      if (!atom.has_value() ||
          !ilfds.kb().clause(static_cast<size_t>(ilfd_index))
               .head.Contains(*atom)) {
        return CorruptError("derivation step " + attribute + "=" +
                            dict[value_id].ToString() +
                            " is not a consequent of ILFD " +
                            std::to_string(ilfd_index));
      }
      out->AddStep(*atom, static_cast<uint32_t>(ilfd_index));
    }
    for (const auto& [name, value_id] : derived) {
      size_t step = out->step_count();
      for (size_t i = out->step_count(); i > row_begin; --i) {
        if (atoms.atom(out->step(i - 1).atom).attribute == name) {
          step = i - 1;
          break;
        }
      }
      if (step == out->step_count() ||
          !(atoms.atom(out->step(step).atom).value == dict[value_id])) {
        return CorruptError("derived value of '" + name +
                            "' is not its attribute's last step");
      }
      out->MarkDerived(step);
    }
    uint32_t conflict_count = 0;
    if (!in->GetU32(&conflict_count) || conflict_count > in->remaining()) {
      return CorruptError("derivation conflicts truncated");
    }
    for (uint32_t i = 0; i < conflict_count; ++i) {
      DerivationConflict c;
      uint32_t first_id = 0, second_id = 0;
      uint64_t first_ilfd = 0, second_ilfd = 0;
      if (!in->GetString(&c.attribute) || !get_value_id(&first_id) ||
          !get_value_id(&second_id) || !in->GetU64(&first_ilfd) ||
          !in->GetU64(&second_ilfd)) {
        return CorruptError("derivation conflict truncated");
      }
      c.first_value = dict[first_id];
      c.second_value = dict[second_id];
      c.first_ilfd = static_cast<size_t>(first_ilfd);
      c.second_ilfd = static_cast<size_t>(second_ilfd);
      out->AddConflict(std::move(c));
    }
    out->EndRow();
  }
  return Status::Ok();
}

Status ParseAtoms(ByteReader* in, const std::vector<Value>& dict,
                  std::vector<Atom>* out) {
  uint32_t count = 0;
  if (!in->GetU32(&count) || count > in->remaining()) {
    return CorruptError("atom list truncated");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Atom a;
    uint32_t id = 0;
    if (!in->GetString(&a.attribute) || !in->GetU32(&id) ||
        id >= dict.size()) {
      return CorruptError("atom truncated or value id beyond dictionary");
    }
    a.value = dict[id];
    out->push_back(std::move(a));
  }
  return Status::Ok();
}

Status ParseRuleProgram(ByteReader* in, const std::vector<Value>& dict,
                        LoadedWorld* world) {
  uint32_t ilfd_count = 0;
  if (!in->GetU32(&ilfd_count) || ilfd_count > in->remaining()) {
    return CorruptError("rule program ILFD count truncated");
  }
  std::vector<Ilfd> ilfds;
  ilfds.reserve(ilfd_count);
  for (uint32_t i = 0; i < ilfd_count; ++i) {
    std::vector<Atom> antecedent, consequent;
    EID_RETURN_IF_ERROR(ParseAtoms(in, dict, &antecedent));
    EID_RETURN_IF_ERROR(ParseAtoms(in, dict, &consequent));
    // The Ilfd constructor enforces its invariants with EID_CHECK (abort);
    // re-validate so a forged-but-checksummed file yields a Status.
    const Status valid = ValidateIlfdAtoms(antecedent, consequent);
    if (!valid.ok()) return CorruptError(valid.message());
    ilfds.emplace_back(std::move(antecedent), std::move(consequent));
  }
  world->ilfds = IlfdSet(std::move(ilfds));

  uint32_t mapping_count = 0;
  if (!in->GetU32(&mapping_count) || mapping_count > in->remaining()) {
    return CorruptError("correspondence truncated");
  }
  for (uint32_t i = 0; i < mapping_count; ++i) {
    AttributeMapping m;
    uint8_t flags = 0;
    if (!in->GetString(&m.world) || !in->GetU8(&flags) || flags > 3) {
      return CorruptError("correspondence mapping truncated");
    }
    if ((flags & 1) != 0) {
      std::string local;
      if (!in->GetString(&local)) {
        return CorruptError("correspondence mapping truncated");
      }
      m.in_r = std::move(local);
    }
    if ((flags & 2) != 0) {
      std::string local;
      if (!in->GetString(&local)) {
        return CorruptError("correspondence mapping truncated");
      }
      m.in_s = std::move(local);
    }
    Status st = world->correspondence.Add(std::move(m));
    if (!st.ok()) {
      return CorruptError("correspondence invalid: " + st.message());
    }
  }

  uint8_t has_key = 0;
  if (!in->GetU8(&has_key) || has_key > 1) {
    return CorruptError("extended key flag truncated");
  }
  if (has_key == 1) {
    uint32_t attr_count = 0;
    if (!in->GetU32(&attr_count) || attr_count > in->remaining()) {
      return CorruptError("extended key truncated");
    }
    std::vector<std::string> attrs;
    attrs.reserve(attr_count);
    for (uint32_t i = 0; i < attr_count; ++i) {
      std::string a;
      if (!in->GetString(&a)) return CorruptError("extended key truncated");
      attrs.push_back(std::move(a));
    }
    world->extended_key = ExtendedKey(std::move(attrs));
  }
  return Status::Ok();
}

}  // namespace

WorldImage ImageOf(const Relation& r, const Relation& s,
                   const IdentifierConfig& config,
                   const IdentificationResult& result) {
  WorldImage image;
  image.r = &r;
  image.s = &s;
  image.r_extended = &result.r_extended;
  image.s_extended = &result.s_extended;
  image.r_traces = &result.r_traces;
  image.s_traces = &result.s_traces;
  image.matching = &result.matching;
  image.negative = &result.negative.table;
  image.ilfds = &config.ilfds;
  image.correspondence = &config.correspondence;
  image.extended_key =
      config.extended_key.has_value() ? &*config.extended_key : nullptr;
  return image;
}

Status WriteSnapshot(const WorldImage& image, const std::string& path) {
  if (image.r == nullptr || image.s == nullptr ||
      image.r_extended == nullptr || image.s_extended == nullptr) {
    return Status::InvalidArgument(
        "snapshot requires R, S and both extended relations");
  }
  for (const Relation* rel :
       {image.r, image.s, image.r_extended, image.s_extended}) {
    if (rel->schema().size() == 0 && !rel->empty()) {
      return Status::InvalidArgument("snapshot cannot store the rows of '" +
                                     rel->name() +
                                     "', which has no attributes");
    }
  }

  // Interning order — R, S, R', S' rows, then provenance, then rule
  // program — fixes the dictionary ids; a reader preloading the decoded
  // dictionary reproduces them exactly.
  ValueDictionary dict;
  struct Pending {
    SectionKind kind;
    uint32_t role;
    std::string payload;
  };
  std::vector<Pending> pending;
  auto add = [&](SectionKind kind, uint32_t role, ByteWriter&& w) {
    pending.push_back(Pending{kind, role, std::move(w).Take()});
  };

  {
    using R = RelationRole;
    const std::pair<R, const Relation*> relations[] = {
        {R::kSourceR, image.r},
        {R::kSourceS, image.s},
        {R::kExtendedR, image.r_extended},
        {R::kExtendedS, image.s_extended},
    };
    size_t cell_estimate = 0;
    for (const auto& [role, rel] : relations) {
      cell_estimate += rel->size() * rel->schema().size();
    }
    dict.Reserve(cell_estimate / 2);
    for (const auto& [role, rel] : relations) {
      ByteWriter w;
      AppendRelation(*rel, &dict, &w);
      add(SectionKind::kRelation, static_cast<uint32_t>(role), std::move(w));
    }
  }
  {
    ByteWriter w;
    const std::vector<TuplePair> none;
    AppendPairs(image.matching != nullptr ? image.matching->pairs() : none,
                &w);
    AppendPairs(image.negative != nullptr ? image.negative->pairs() : none,
                &w);
    add(SectionKind::kMatchTables, 0, std::move(w));
  }
  {
    ByteWriter w;
    std::vector<uint32_t> value_ids;  // by atom, shared by both sides
    EID_RETURN_IF_ERROR(
        AppendTraces(image.r_traces, image.ilfds, &value_ids, &dict, &w));
    EID_RETURN_IF_ERROR(
        AppendTraces(image.s_traces, image.ilfds, &value_ids, &dict, &w));
    add(SectionKind::kProvenance, 0, std::move(w));
  }
  {
    ByteWriter w;
    AppendRuleProgram(image, &dict, &w);
    add(SectionKind::kRuleProgram, 0, std::move(w));
  }
  // The dictionary is interned by now; emit it as the first section.
  {
    ByteWriter w;
    AppendDictionary(dict, &w);
    pending.insert(pending.begin(),
                   Pending{SectionKind::kDictionary, 0, std::move(w).Take()});
  }

  // Assemble: header, section table, 8-aligned payloads.
  const size_t table_bytes = pending.size() * kSectionEntrySize;
  uint64_t offset = kHeaderSize + table_bytes;  // both 8-multiples
  ByteWriter table;
  for (const Pending& p : pending) {
    table.PutU32(static_cast<uint32_t>(p.kind));
    table.PutU32(p.role);
    table.PutU64(offset);
    table.PutU64(p.payload.size());
    table.PutU64(Fnv64(p.payload.data(), p.payload.size()));
    offset += (p.payload.size() + 7) / 8 * 8;
  }
  const uint64_t file_size = offset;

  ByteWriter header;
  header.PutBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  header.PutU32(kSnapshotVersion);
  header.PutU32(kEndianSentinel);
  header.PutU64(file_size);
  header.PutU32(static_cast<uint32_t>(pending.size()));
  header.PutU32(0);  // flags
  header.PutU64(Fnv64(table.buffer().data(), table.buffer().size()));
  header.PutU64(Fnv64(header.buffer().data(), header.buffer().size()));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot create snapshot '" + path + "'");
  }
  auto write_all = [&](const std::string& bytes) {
    return bytes.empty() ||
           std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  };
  bool ok = write_all(header.buffer()) && write_all(table.buffer());
  for (const Pending& p : pending) {
    if (!ok) break;
    ok = write_all(p.payload);
    const size_t pad = (8 - p.payload.size() % 8) % 8;
    if (ok && pad > 0) ok = write_all(std::string(pad, '\0'));
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(path.c_str());
    return Status::InvalidArgument("cannot write snapshot '" + path + "'");
  }
  return Status::Ok();
}

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  SnapshotReader reader;
  EID_ASSIGN_OR_RETURN(reader.file_, MappedFile::Open(path));
  const uint8_t* data = reader.file_.data();
  const size_t size = reader.file_.size();
  if (size < kHeaderSize) {
    return CorruptError("file smaller than the snapshot header");
  }
  if (std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return CorruptError("bad magic (not a snapshot file)");
  }
  ByteReader hr(data, kHeaderSize);
  const uint8_t* magic = hr.GetBytes(sizeof(kSnapshotMagic));
  uint32_t version = 0, endian = 0, section_count = 0, flags = 0;
  uint64_t file_size = 0, toc_checksum = 0, header_checksum = 0;
  if (magic == nullptr || !hr.GetU32(&version) || !hr.GetU32(&endian) ||
      !hr.GetU64(&file_size) || !hr.GetU32(&section_count) ||
      !hr.GetU32(&flags) || !hr.GetU64(&toc_checksum) ||
      !hr.GetU64(&header_checksum)) {
    return CorruptError("header truncated");
  }
  if (Fnv64(data, kHeaderSize - sizeof(uint64_t)) != header_checksum) {
    return CorruptError("header checksum mismatch");
  }
  if (endian != kEndianSentinel) {
    return CorruptError("foreign byte order (endian sentinel mismatch)");
  }
  if (version != kSnapshotVersion) {
    return CorruptError("unsupported snapshot version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  if (file_size != size) {
    return CorruptError("file size mismatch: header says " +
                        std::to_string(file_size) + " bytes, file has " +
                        std::to_string(size));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(section_count) * kSectionEntrySize;
  if (kHeaderSize + table_bytes > size) {
    return CorruptError("section table extends beyond the file");
  }
  if (Fnv64(data + kHeaderSize, table_bytes) != toc_checksum) {
    return CorruptError("section table checksum mismatch");
  }
  ByteReader tr(data + kHeaderSize, table_bytes);
  reader.sections_.reserve(section_count);
  // The writer's layout is the only one accepted: payloads contiguous in
  // table order from the end of the table, each starting 8-aligned after
  // its predecessor's zero padding, the last padded to the file's end. No
  // byte of the file is then left unchecked.
  uint64_t next = kHeaderSize + table_bytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry e;
    if (!tr.GetU32(&e.kind) || !tr.GetU32(&e.role) || !tr.GetU64(&e.offset) ||
        !tr.GetU64(&e.length) || !tr.GetU64(&e.checksum)) {
      return CorruptError("section table truncated");
    }
    if (e.offset != next) {
      return CorruptError("section " + std::to_string(i) +
                          " does not start where its predecessor ends");
    }
    if (e.length > size - e.offset) {
      return CorruptError("section " + std::to_string(i) +
                          " extends beyond the file");
    }
    const uint64_t end = e.offset + e.length;
    next = end + (8 - end % 8) % 8;
    if (next > size) {
      return CorruptError("section " + std::to_string(i) +
                          " padding extends beyond the file");
    }
    for (uint64_t at = end; at < next; ++at) {
      if (data[at] != 0) {
        return CorruptError("section " + std::to_string(i) +
                            " padding is not zero");
      }
    }
    if (Fnv64(data + e.offset, e.length) != e.checksum) {
      return CorruptError(
          "section " + std::to_string(i) + " (" +
          SectionKindName(static_cast<SectionKind>(e.kind)) +
          ") checksum mismatch");
    }
    reader.sections_.push_back(e);
  }
  if (next != size) {
    return CorruptError("file continues past its last section");
  }
  return reader;
}

Result<ByteReader> SnapshotReader::Section(SectionKind kind,
                                           uint32_t role) const {
  for (const SectionEntry& e : sections_) {
    if (e.kind == static_cast<uint32_t>(kind) && e.role == role) {
      return ByteReader(file_.data() + e.offset, e.length);
    }
  }
  return Status::NotFound(std::string("snapshot has no ") +
                          SectionKindName(kind) + " section for role " +
                          std::to_string(role));
}

IdentifierConfig LoadedWorld::ToConfig() const {
  IdentifierConfig config;
  config.correspondence = correspondence;
  config.extended_key = extended_key;
  config.ilfds = ilfds;
  config.matcher_options.columnar_seeds = columnar_seeds;
  return config;
}

Result<LoadedWorld> LoadSnapshot(const std::string& path) {
  exec::StageTimer timer;
  // EID_SNAPSHOT_TRACE=1 prints a per-stage decode breakdown to stderr —
  // the first tool to reach for when load times regress.
  const bool trace = std::getenv("EID_SNAPSHOT_TRACE") != nullptr;
  double last_ms = 0.0;
  auto mark = [&](const char* what) {
    if (!trace) return;
    double now = timer.ElapsedMs();
    std::fprintf(stderr, "  %-14s %.3f ms\n", what, now - last_ms);
    last_ms = now;
  };
  EID_ASSIGN_OR_RETURN(SnapshotReader reader, SnapshotReader::Open(path));
  mark("open");
  LoadedWorld world;
  size_t rows_loaded = 0;

  {
    EID_ASSIGN_OR_RETURN(ByteReader in,
                         reader.Section(SectionKind::kDictionary));
    EID_RETURN_IF_ERROR(ParseDictionary(&in, &world.dictionary));
    EID_RETURN_IF_ERROR(ExpectConsumed(in, "dictionary"));
  }
  mark("dictionary");
  {
    world.columnar_seeds = std::make_shared<exec::ColumnarSeeds>();
    using R = RelationRole;
    struct Target {
      R role;
      Relation* rel;
      std::vector<std::vector<uint32_t>>* columnar;
    };
    const Target targets[] = {
        {R::kSourceR, &world.r, &world.columnar_seeds->r_columns},
        {R::kSourceS, &world.s, &world.columnar_seeds->s_columns},
        {R::kExtendedR, &world.r_extended, nullptr},
        {R::kExtendedS, &world.s_extended, nullptr},
    };
    for (const auto& [role, rel, columnar] : targets) {
      EID_ASSIGN_OR_RETURN(
          ByteReader in,
          reader.Section(SectionKind::kRelation, static_cast<uint32_t>(role)));
      EID_RETURN_IF_ERROR(
          ParseRelation(&in, world.dictionary, rel, &rows_loaded, columnar));
      EID_RETURN_IF_ERROR(ExpectConsumed(in, "relation"));
    }
    world.columnar_seeds->dictionary = world.dictionary;
  }
  mark("relations");
  {
    EID_ASSIGN_OR_RETURN(ByteReader in,
                         reader.Section(SectionKind::kMatchTables));
    std::vector<TuplePair> pairs;
    EID_RETURN_IF_ERROR(
        ParsePairs(&in, world.r_extended, world.s_extended, &pairs));
    Result<MatchTable> mt = MatchTable::FromPairs(pairs);
    if (!mt.ok()) {
      return CorruptError("matching table invalid: " + mt.status().message());
    }
    world.matching = std::move(mt).value();
    // ParsePairs clears the vector before refilling it; the sorted NMT
    // list is then adopted by the table, not copied.
    EID_RETURN_IF_ERROR(
        ParsePairs(&in, world.r_extended, world.s_extended, &pairs));
    world.negative = NegativeTable::FromPairs(std::move(pairs));
    EID_RETURN_IF_ERROR(ExpectConsumed(in, "match tables"));
  }
  mark("match_tables");
  // The rule program before provenance: provenance steps decode to the
  // atoms of its ILFD set.
  {
    EID_ASSIGN_OR_RETURN(ByteReader in,
                         reader.Section(SectionKind::kRuleProgram));
    EID_RETURN_IF_ERROR(ParseRuleProgram(&in, world.dictionary, &world));
    EID_RETURN_IF_ERROR(ExpectConsumed(in, "rule program"));
  }
  mark("rule_program");
  {
    EID_ASSIGN_OR_RETURN(ByteReader in,
                         reader.Section(SectionKind::kProvenance));
    EID_RETURN_IF_ERROR(ParseTraces(&in, world.dictionary, world.ilfds,
                                    &world.r_traces));
    EID_RETURN_IF_ERROR(ParseTraces(&in, world.dictionary, world.ilfds,
                                    &world.s_traces));
    EID_RETURN_IF_ERROR(ExpectConsumed(in, "provenance"));
  }
  mark("provenance");

  world.load_stats.stage = "snapshot_load";
  world.load_stats.items = rows_loaded;
  world.load_stats.dict_values = world.dictionary.size();
  world.load_stats.wall_ms = timer.ElapsedMs();
  world.load_stats.snapshot_load_ms = world.load_stats.wall_ms;
  return world;
}

}  // namespace storage
}  // namespace eid
