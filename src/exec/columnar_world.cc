#include "exec/columnar_world.h"

#include <algorithm>
#include <utility>

#include "exec/stage_stats.h"

namespace eid {
namespace exec {

ColumnIndex ColumnIndex::Build(const std::vector<uint32_t>& ids,
                               size_t id_space) {
  EID_CHECK(ids.size() < ValueDictionary::kNotInterned);
  ColumnIndex index;
  index.id_space_ = id_space;
  // Counting pass: offsets[v + 1] = rows holding id v; the prefix sum
  // turns it into the start of v's range.
  std::vector<uint32_t>& offsets = index.offsets_;
  offsets.assign(id_space + 1, 0);
  size_t cells = 0;
  for (uint32_t id : ids) {
    if (id == ValueDictionary::kNotInterned) continue;  // NULL: not indexed
    EID_CHECK(id < id_space);
    ++offsets[id + 1];
    ++cells;
  }
  for (size_t v = 0; v < id_space; ++v) {
    if (offsets[v + 1] != 0) ++index.distinct_;
    offsets[v + 1] += offsets[v];
  }
  // Scatter in row order, so each range is ascending. offsets[v] walks
  // to the end of v's range, which is where v + 1's range starts; the
  // shift below restores the starts.
  index.rows_.resize(cells);
  for (size_t r = 0; r < ids.size(); ++r) {
    const uint32_t id = ids[r];
    if (id == ValueDictionary::kNotInterned) continue;
    index.rows_[offsets[id]++] = static_cast<uint32_t>(r);
  }
  for (size_t v = id_space; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
  return index;
}

const std::vector<uint32_t>& ColumnarWorld::Column(WorldRel slot_id,
                                                   const Relation& rel,
                                                   size_t c) {
  Slot& slot = slots_[static_cast<size_t>(slot_id)];
  size_t arity = rel.schema().size();
  if (slot.columns.size() < arity) {
    slot.columns.resize(arity);
    slot.present.resize(arity, false);
    slot.indexes.resize(arity);
    slot.has_null.resize(arity);
  }
  if (slot.present[c]) {
    reuse_hits_ += slot.columns[c].size();
    return slot.columns[c];
  }
  StageTimer timer;
  const std::vector<Row>& rows = rel.rows();
  std::vector<uint32_t>& ids = slot.columns[c];
  ids.resize(rows.size());
  // At most one new value per row: reserving for that bound means the
  // encode below never grows the table mid-column.
  dict_.Reserve(dict_.size() + rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const Value& v = rows[r][c];
    ids[r] = v.is_null() ? kNullId : dict_.GetOrIntern(v);
  }
  slot.present[c] = true;
  encode_ms_ += timer.ElapsedMs();
  return ids;
}

const ColumnIndex& ColumnarWorld::Index(WorldRel slot_id, const Relation& rel,
                                        size_t c) {
  const std::vector<uint32_t>* ids = FindColumn(slot_id, c);
  if (ids == nullptr) ids = &Column(slot_id, rel, c);
  Slot& slot = slots_[static_cast<size_t>(slot_id)];
  std::unique_ptr<ColumnIndex>& index = slot.indexes[c];
  if (index == nullptr) {
    index =
        std::make_unique<ColumnIndex>(ColumnIndex::Build(*ids, dict_.size()));
  }
  return *index;
}

bool ColumnarWorld::HasNull(WorldRel slot_id, size_t c) {
  const std::vector<uint32_t>* ids = FindColumn(slot_id, c);
  EID_CHECK(ids != nullptr);
  std::optional<bool>& known =
      slots_[static_cast<size_t>(slot_id)].has_null[c];
  if (!known.has_value()) {
    known = std::find(ids->begin(), ids->end(), kNullId) != ids->end();
  }
  return *known;
}

const std::vector<uint32_t>* ColumnarWorld::FindColumn(WorldRel slot_id,
                                                       size_t c) const {
  const Slot& slot = slots_[static_cast<size_t>(slot_id)];
  if (c >= slot.columns.size() || !slot.present[c]) return nullptr;
  return &slot.columns[c];
}

void ColumnarWorld::Adopt(WorldRel slot_id, size_t c,
                          std::vector<uint32_t> ids) {
  Slot& slot = slots_[static_cast<size_t>(slot_id)];
  if (slot.columns.size() <= c) {
    slot.columns.resize(c + 1);
    slot.present.resize(c + 1, false);
    slot.indexes.resize(c + 1);
    slot.has_null.resize(c + 1);
  }
  slot.columns[c] = std::move(ids);
  slot.present[c] = true;
  slot.indexes[c].reset();
  slot.has_null[c].reset();
}

void ColumnarWorld::Seed(const ColumnarSeeds& seeds) {
  dict_.Preload(seeds.dictionary);
  reuse_hits_ += seeds.dictionary.size();
  for (size_t c = 0; c < seeds.r_columns.size(); ++c) {
    reuse_hits_ += seeds.r_columns[c].size();
    Adopt(WorldRel::kR, c, std::vector<uint32_t>(seeds.r_columns[c]));
  }
  for (size_t c = 0; c < seeds.s_columns.size(); ++c) {
    reuse_hits_ += seeds.s_columns[c].size();
    Adopt(WorldRel::kS, c, std::vector<uint32_t>(seeds.s_columns[c]));
  }
}

}  // namespace exec
}  // namespace eid
