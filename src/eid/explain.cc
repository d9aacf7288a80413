#include "eid/explain.h"

namespace eid {
namespace {

/// Derivation steps of one trace, rendered as "attr=v (via ILFD i: ...)".
void AppendDerivationSteps(const Derivation& trace, const IlfdSet& ilfds,
                           const ExtendedKey* key, const std::string& side,
                           std::string* out) {
  for (const DerivationStep& step : trace.steps) {
    if (key != nullptr && !key->Contains(step.attribute)) {
      // Intermediate attribute (e.g. county on the way to speciality):
      // still part of the chain, label it as such.
      *out += "    " + side + ": " + step.attribute + " = " +
              step.value.ToString() + "   [intermediate, via I" +
              std::to_string(step.ilfd_index + 1) + ": " +
              ilfds.ilfd(step.ilfd_index).ToString() + "]\n";
      continue;
    }
    *out += "    " + side + ": " + step.attribute + " = " +
            step.value.ToString() + "   [via I" +
            std::to_string(step.ilfd_index + 1) + ": " +
            ilfds.ilfd(step.ilfd_index).ToString() + "]\n";
  }
}

}  // namespace

Result<std::string> ExplainDecision(const IdentificationResult& result,
                                    const IdentifierConfig& config,
                                    size_t r_index, size_t s_index) {
  if (r_index >= result.r_extended.size() ||
      s_index >= result.s_extended.size()) {
    return Status::InvalidArgument("pair indices out of range");
  }
  TuplePair pair{r_index, s_index};
  MatchDecision decision = result.Decide(r_index, s_index);
  TupleView r_tuple = result.r_extended.tuple(r_index);
  TupleView s_tuple = result.s_extended.tuple(s_index);

  std::string out = "pair R" + std::to_string(r_index) + " " +
                    r_tuple.ToString() + "  /  S" + std::to_string(s_index) +
                    " " + s_tuple.ToString() + "\ndecision: " +
                    MatchDecisionName(decision) + "\n";

  switch (decision) {
    case MatchDecision::kMatch: {
      if (config.extended_key.has_value()) {
        const ExtendedKey& key = *config.extended_key;
        out += "  extended key " + key.ToString() +
               " agrees on every attribute:\n";
        bool full_agreement = true;
        for (const std::string& a : key.attributes()) {
          Value rv = r_tuple.GetOrNull(a);
          Value sv = s_tuple.GetOrNull(a);
          if (!NonNullEq(rv, sv)) full_agreement = false;
          out += "    " + a + ": R=" + rv.ToString() + "  S=" +
                 sv.ToString() + "\n";
        }
        if (full_agreement) {
          out += "  derived values:\n";
          std::string derivations;
          if (r_index < result.r_traces.rows()) {
            AppendDerivationSteps(
                result.r_traces.DerivationOf(r_index, config.ilfds),
                config.ilfds, &key, "R", &derivations);
          }
          if (s_index < result.s_traces.rows()) {
            AppendDerivationSteps(
                result.s_traces.DerivationOf(s_index, config.ilfds),
                config.ilfds, &key, "S", &derivations);
          }
          out += derivations.empty()
                     ? "    (none — both tuples carried the key directly)\n"
                     : derivations;
        } else {
          out += "  (matched by an explicit identity rule, not the "
                 "extended key)\n";
        }
      } else {
        out += "  matched by an explicit identity rule\n";
      }
      break;
    }
    case MatchDecision::kNonMatch: {
      std::optional<NegativePairEvidence> e =
          result.negative.table.EvidenceFor(pair);
      if (!e.has_value()) {
        out += "  (no certificate recorded for this pair)\n";
        break;
      }
      const DistinctnessRuleList rules =
          ListDistinctnessRules(config.distinctness_rules, config.ilfds,
                                config.distinctness_from_ilfds);
      if (e->rule_index < rules.explicit_count) {
        const DistinctnessRule& rule =
            config.distinctness_rules[e->rule_index];
        out += "  certified distinct by rule '" + rule.name() +
               "': " + rule.ToString() + "\n";
      } else if (e->rule_index < rules.size()) {
        const size_t fi =
            rules.induced[e->rule_index - rules.explicit_count].ilfd;
        out += "  certified distinct by the Proposition-1 rule of I" +
               std::to_string(fi + 1) + ": " +
               config.ilfds.ilfd(fi).ToString() + "\n";
      } else {
        out += "  certified distinct by rule " +
               std::to_string(e->rule_index) + ", which this "
               "configuration does not have (it lists " +
               std::to_string(rules.size()) + " distinctness rules)\n";
      }
      out += std::string("  orientation: ") +
             (e->flipped ? "e1 := S tuple, e2 := R tuple"
                         : "e1 := R tuple, e2 := S tuple") +
             "\n";
      break;
    }
    case MatchDecision::kUndetermined: {
      if (config.extended_key.has_value()) {
        out += "  extended key " + config.extended_key->ToString() +
               " cannot be compared:\n";
        for (const std::string& a : config.extended_key->attributes()) {
          Value rv = r_tuple.GetOrNull(a);
          Value sv = s_tuple.GetOrNull(a);
          if (rv.is_null() || sv.is_null()) {
            out += "    " + a + " is NULL on " +
                   (rv.is_null() && sv.is_null()
                        ? "both sides"
                        : (rv.is_null() ? "the R side" : "the S side")) +
                   " — no ILFD derives it\n";
          } else if (!(rv == sv)) {
            out += "    " + a + " differs (R=" + rv.ToString() + ", S=" +
                   sv.ToString() +
                   ") but no distinctness rule certifies the pair\n";
          }
        }
      }
      out += "  more identity/distinctness knowledge is needed to decide "
             "this pair (paper §3.2)\n";
      break;
    }
  }
  return out;
}

}  // namespace eid
