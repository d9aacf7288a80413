#include "eid/monotonic.h"

namespace eid {

MonotonicEngine::MonotonicEngine(Relation r, Relation s,
                                 IdentifierConfig config)
    : r_(std::move(r)), s_(std::move(s)), config_(std::move(config)) {
  Status st = Rerun("initial");
  EID_CHECK(st.ok() && "initial identification failed");
}

Status MonotonicEngine::Rerun(const std::string& description) {
  EntityIdentifier identifier(config_);
  Result<IdentificationResult> next = identifier.Identify(r_, s_);
  if (!next.ok()) return next.status();

  // Audit monotonicity against the previous result (skip for the initial
  // run, which has no predecessor).
  if (!history_.empty()) {
    for (size_t i = 0; i < r_.size(); ++i) {
      for (size_t j = 0; j < s_.size(); ++j) {
        MatchDecision before = result_.Decide(i, j);
        if (before == MatchDecision::kUndetermined) continue;
        MatchDecision after = next->Decide(i, j);
        if (after != before) {
          violations_.push_back(
              MonotonicityViolation{TuplePair{i, j}, before, after});
        }
      }
    }
  }

  result_ = std::move(next).value();
  history_.push_back(MonotonicStep{description, result_.partition,
                                   result_.Sound()});
  return Status::Ok();
}

Status MonotonicEngine::AddIlfd(const Ilfd& ilfd) {
  config_.ilfds.Add(ilfd);
  return Rerun("ILFD: " + ilfd.ToString());
}

Status MonotonicEngine::AddIlfdText(const std::string& text) {
  EID_ASSIGN_OR_RETURN(Ilfd ilfd, ParseIlfd(text));
  return AddIlfd(ilfd);
}

Status MonotonicEngine::AddIdentityRule(IdentityRule rule) {
  EID_RETURN_IF_ERROR(rule.Validate());
  std::string description = "identity rule: " + rule.ToString();
  config_.identity_rules.push_back(std::move(rule));
  return Rerun(description);
}

Status MonotonicEngine::AddDistinctnessRule(DistinctnessRule rule) {
  EID_RETURN_IF_ERROR(rule.Validate());
  std::string description = "distinctness rule: " + rule.ToString();
  config_.distinctness_rules.push_back(std::move(rule));
  return Rerun(description);
}

Status MonotonicEngine::SetExtendedKey(ExtendedKey key) {
  std::string description = "extended key: " + key.ToString();
  config_.extended_key = std::move(key);
  return Rerun(description);
}

}  // namespace eid
