#include "exec/columnar_world.h"

#include <utility>

#include "exec/stage_stats.h"

namespace eid {
namespace exec {

const std::vector<uint32_t>& ColumnarWorld::Column(WorldRel slot_id,
                                                   const Relation& rel,
                                                   size_t c) {
  Slot& slot = slots_[static_cast<size_t>(slot_id)];
  size_t arity = rel.schema().size();
  if (slot.columns.size() < arity) {
    slot.columns.resize(arity);
    slot.present.resize(arity, false);
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
  }
  slot.columns[c] = std::move(ids);
  slot.present[c] = true;
}

void ColumnarWorld::Reset(WorldRel slot_id) {
  Slot& slot = slots_[static_cast<size_t>(slot_id)];
  slot.columns.clear();
  slot.present.clear();
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
