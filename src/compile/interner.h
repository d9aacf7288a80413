// Dense value interning for the compiled execution path.
//
// The interpreter compares string payloads wherever values meet — rule
// conditions, extended-key joins, derivation memo keys. The interner maps
// each distinct Value (under storage equality, so NULL is a regular
// internable value) to a dense uint32_t id once; from then on equality on
// the hot path is an integer compare and composite keys are small id
// vectors instead of re-serialised strings.
//
// Since the columnar world landed (DESIGN.md §4g) the interner IS the
// session dictionary: ValueInterner is an alias for ValueDictionary,
// so derivation memos, pair-feature columns, the extended-key join and
// the snapshot handoff all draw ids from one id-space instead of three
// private encodings.

#ifndef EID_COMPILE_INTERNER_H_
#define EID_COMPILE_INTERNER_H_

#include <cstdint>
#include <vector>

#include "relational/value_dictionary.h"

namespace eid {
namespace compile {

/// One id-space for every compiled consumer (see ValueDictionary).
/// GetOrIntern mutates; Find does not, so a fully built interner may be
/// probed from many threads concurrently (the pattern the interned key
/// join uses: serial build side, parallel probe side).
using ValueInterner = ValueDictionary;

/// FNV-1a over a dense-id vector — the hash for interned composite keys
/// (extended keys, derivation memo keys).
struct InternedKeyHash {
  size_t operator()(const std::vector<uint32_t>& key) const {
    size_t h = 1469598103934665603ull;
    for (uint32_t id : key) {
      h ^= id;
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace compile
}  // namespace eid

#endif  // EID_COMPILE_INTERNER_H_
