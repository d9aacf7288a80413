// Umbrella header for the eid library.
//
// eid is a C++20 implementation of the entity-identification framework of
// Lim, Srivastava, Prabhakar & Richardson, "Entity Identification in
// Database Integration" (ICDE 1993): sound instance-level matching of
// tuples from autonomous databases via extended keys and instance-level
// functional dependencies (ILFDs).
//
// Typical use:
//
//   eid::IdentifierConfig config;
//   config.correspondence = eid::AttributeCorrespondence::Identity(r, s);
//   config.extended_key = eid::ExtendedKey({"name", "cuisine"});
//   config.ilfds.AddText("speciality=Mughalai -> cuisine=Indian");
//   eid::EntityIdentifier identifier(config);
//   auto result = identifier.Identify(r, s);
//   // result->matching, result->negative, result->partition, ...

#ifndef EID_EID_H_
#define EID_EID_H_

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "compile/derivation_program.h"
#include "compile/pair_program.h"
#include "discovery/ilfd_miner.h"
#include "discovery/key_discovery.h"
#include "eid/algebra_pipeline.h"
#include "eid/correspondence.h"
#include "eid/extended_key.h"
#include "eid/explain.h"
#include "eid/extension.h"
#include "eid/identifier.h"
#include "eid/incremental.h"
#include "eid/integrate.h"
#include "eid/match_tables.h"
#include "eid/matcher.h"
#include "eid/monotonic.h"
#include "eid/multiway.h"
#include "eid/negative.h"
#include "eid/session.h"
#include "eid/virtual_view.h"
#include "ilfd/derivation.h"
#include "ilfd/fd.h"
#include "ilfd/ilfd.h"
#include "ilfd/ilfd_set.h"
#include "ilfd/ilfd_table.h"
#include "ilfd/violation.h"
#include "logic/armstrong.h"
#include "logic/implication.h"
#include "logic/kb.h"
#include "logic/model.h"
#include "logic/proposition.h"
#include "relational/algebra.h"
#include "relational/catalog.h"
#include "relational/csv.h"
#include "relational/printer.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/status.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "relational/value_dictionary.h"
#include "rules/distinctness_rule.h"
#include "rules/identity_rule.h"
#include "rules/predicate.h"

#endif  // EID_EID_H_
