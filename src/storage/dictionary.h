// Snapshot dictionary section (DESIGN.md §4e).
//
// The snapshot stores every distinct Value once and every relation row as
// a vector of dense uint32_t value ids. The writer interns through the
// engine's one ValueDictionary (first-seen order, storage equality, NULL
// is a regular internable value) and serializes it in id order. Because
// ids are assigned in first-seen order, a dictionary preloaded from the
// decoded section reproduces byte-identical ids, so compiled programs
// over a loaded world join on the same dense keys a fresh build would
// (the interner handoff).

#ifndef EID_STORAGE_DICTIONARY_H_
#define EID_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <vector>

#include "relational/value.h"
#include "relational/value_dictionary.h"
#include "storage/format.h"

namespace eid {
namespace storage {

/// Appends `dict` as a section payload: count u32; per value, in id
/// order, a type tag byte + payload (bool 1 B; int/double 8 B
/// little-endian; string u32 len + bytes; null none).
void AppendDictionary(const ValueDictionary& dict, ByteWriter* out);

/// Decodes a dictionary section into id -> Value. Errors on unknown type
/// tags or truncation.
Status ParseDictionary(ByteReader* in, std::vector<Value>* out);

}  // namespace storage
}  // namespace eid

#endif  // EID_STORAGE_DICTIONARY_H_
