// Adapter exposing the paper's own technique (EntityIdentifier) through
// the BaselineMatcher interface, so the comparison bench scores all six
// approaches uniformly.

#ifndef EID_BASELINES_ILFD_TECHNIQUE_H_
#define EID_BASELINES_ILFD_TECHNIQUE_H_

#include "baselines/baseline.h"
#include "eid/identifier.h"

namespace eid {

/// The extended-key + ILFD technique as a BaselineMatcher.
class IlfdTechniqueMatcher : public BaselineMatcher {
 public:
  explicit IlfdTechniqueMatcher(IdentifierConfig config)
      : identifier_(std::move(config)) {}

  Result<BaselineResult> Match(const Relation& r,
                               const Relation& s) const override;

 private:
  EntityIdentifier identifier_;
};

}  // namespace eid

#endif  // EID_BASELINES_ILFD_TECHNIQUE_H_
