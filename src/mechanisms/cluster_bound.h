// Adapter presenting the paper's native clustering + secure-bounding
// workflow (core::CloakingEngine) through the Mechanism seam, so the
// comparative driver can run it side by side with the baseline mechanisms
// under identical audit taps.
//
// Leak contract (audit::MechanismFamily::kClusterBound): nothing beyond
// the adversary observer's shared invariants -- no raw coordinate bit
// pattern on the wire, no knowledge-interval collapse below the increment
// resolution. Audited in strict mode.

#ifndef NELA_MECHANISMS_CLUSTER_BOUND_H_
#define NELA_MECHANISMS_CLUSTER_BOUND_H_

#include "core/cloaking_engine.h"
#include "core/mechanism.h"

namespace nela::mechanisms {

class ClusterBoundMechanism : public core::Mechanism {
 public:
  // `engine` is not owned and must outlive the mechanism. Note the engine
  // serializes registry access internally; per-request randomness still
  // comes from the caller's RequestContext.
  explicit ClusterBoundMechanism(core::CloakingEngine* engine);

  const char* name() const override { return "cluster_bound"; }

  [[nodiscard]] util::Status Cloak(core::RequestContext& ctx,
                                   data::UserId host,
                                   core::MechanismOutcome* outcome) override;

 private:
  core::CloakingEngine* engine_;
};

}  // namespace nela::mechanisms

#endif  // NELA_MECHANISMS_CLUSTER_BOUND_H_
