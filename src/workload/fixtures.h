// The paper's worked examples as ready-made fixtures.
//
// Every table printed in the paper is constructible from here:
//   Table 1  — the motivating restaurant relations (Example 1);
//   Fig. 2   — the identical-tuples / distinct-entities scenario;
//   Table 2  — Example 2's R and S (TwinCities / Mughalai);
//   Table 5  — Example 3's R and S, with ILFDs I1–I8 (Table 8 is the
//              ILFD-table form of I1–I4);
//   Fig. 1   — a small entity universe with partially overlapping
//              relations R and S (a2≡b3, a3≡b4).

#ifndef EID_WORKLOAD_FIXTURES_H_
#define EID_WORKLOAD_FIXTURES_H_

#include "eid/extended_key.h"
#include "ilfd/ilfd_set.h"
#include "relational/relation.h"

namespace eid {
namespace fixtures {

/// Table 1: R(name, street, cuisine), key (name, street).
Relation Table1R();
/// Table 1: S(name, city, manager), key (name, city).
Relation Table1S();
/// The tuple Example 1 inserts to create ambiguity:
/// (VillageWok, Penn.Ave., Chinese).
Row Table1AmbiguousInsert();
/// Example 1's resolving knowledge:
///   street=Wash.Ave. -> city=Mpls   ("Wash.Ave. is only in city Mpls")
///   manager=Hwang -> street=Wash.Ave.
///     ("the restaurant owned by Hwang is only on Wash.Ave.")
IlfdSet Example1Ilfds();
/// Example 1's extended key {name, street, city}: "restaurant entities in
/// the integrated world have unique combinations of name, street, and city".
ExtendedKey Example1ExtendedKey();

/// Fig. 2: R(name, cuisine) in DB1 and S(name, cuisine) in DB2, both
/// containing (VillageWok, Chinese) — but modeling different entities.
Relation Figure2R();
Relation Figure2S();
/// The same relations with the source-database domain attribute attached.
Relation Figure2RWithDomain();
Relation Figure2SWithDomain();
/// Fig. 2's ground-truth universe: two distinct VillageWok restaurants.
Relation Figure2Universe();

/// Table 2 (Example 2): R(name, cuisine, street), key (name, cuisine).
Relation Example2R();
/// Table 2 (Example 2): S(name, speciality, city), key (name, speciality).
Relation Example2S();
/// Example 2's single ILFD: speciality=Mughalai -> cuisine=Indian.
IlfdSet Example2Ilfds();
/// Example 2's extended key {name, cuisine}.
ExtendedKey Example2ExtendedKey();

/// Table 5 (Example 3): R(name, cuisine, street), key (name, cuisine).
Relation Example3R();
/// Table 5 (Example 3): S(name, speciality, county), key (name, speciality).
Relation Example3S();
/// ILFDs I1–I8 of Example 3, in the paper's order.
IlfdSet Example3Ilfds();
/// The derived ILFD I9: name=It'sGreek & street=FrontAve. -> speciality=Gyros.
Ilfd Example3DerivedI9();
/// Example 3's extended key {name, cuisine, speciality}.
ExtendedKey Example3ExtendedKey();

/// Fig. 1: a universe of five entities e1..e5; R models {e1,e2,e3} as
/// a1,a2,a3 and S models {e2,e3,e5} as b3,b4,b2 (e4 is in neither).
/// Ground-truth matches: a2≡b3 (=e2), a3≡b4 (=e3).
struct Figure1World {
  Relation universe;          // world naming: name, street, cuisine
  Relation r;                 // a-tuples
  Relation s;                 // b-tuples
  std::vector<std::pair<size_t, size_t>> truth;  // (r row, s row)
};
Figure1World Figure1();

}  // namespace fixtures
}  // namespace eid

#endif  // EID_WORKLOAD_FIXTURES_H_
