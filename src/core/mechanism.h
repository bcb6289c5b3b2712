// Pluggable cloaking mechanism: the privacy-mechanism seam behind the
// request pipeline.
//
// The paper's clustering+bounding scheme is one point in a design space of
// location-privacy mechanisms (spatial cloaking grids, geo-
// indistinguishability noise, dummy-location sets, ...). This interface
// lets rival mechanisms answer the same request shape -- "host u wants a
// k-anonymous (or otherwise private) service artifact" -- through the same
// RequestContext plumbing, so every mechanism draws randomness from the
// request's seeded sub-stream, is traced per stage, and sends only tagged
// net::Messages the audit layer can scan. The comparative driver
// (mechanisms/comparative_driver.h) runs any Mechanism through
// MechanismStage + RunPipeline, which keeps degradation and tracing
// semantics identical to the native pipeline's.
//
// Implementations live in src/mechanisms (core must not depend on them);
// the native clustering+bounding scheme is adapted via
// mechanisms::ClusterBoundMechanism.

#ifndef NELA_CORE_MECHANISM_H_
#define NELA_CORE_MECHANISM_H_

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/request_context.h"
#include "data/dataset.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "util/status.h"

namespace nela::core {

// What one mechanism invocation produced. Region mechanisms (grid cloak,
// cluster bound) fill `region`; probe mechanisms (geo-ind, dummy sets)
// fill `probes` -- the query points that go to the LBS instead of a
// region. Either way `satisfied` reports whether the mechanism met its own
// privacy target (k occupants, noise drawn, k candidates, ...).
struct MechanismOutcome {
  geo::Rect region;
  std::vector<geo::Point> probes;
  bool satisfied = false;
  // Wire messages this invocation sent (all tagged; audited by any tap).
  uint64_t messages_sent = 0;
  // Deterministic facts for the stage trace: counts and public values
  // only, never a private coordinate.
  std::string detail;
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  // Stable mechanism identifier ("grid_cloak", "geo_ind", ...): names the
  // pipeline stage, trace lines, and bench rows.
  virtual const char* name() const = 0;

  // Serves one request for `host`. All randomness comes from ctx.rng()
  // (the request's private sub-stream), so a batch is bit-identical under
  // any scheduling. Must be safe to call concurrently from multiple
  // threads on distinct contexts. Returns non-ok only for hard request
  // errors (unknown host); privacy degradation is reported through
  // outcome->satisfied instead.
  [[nodiscard]] virtual util::Status Cloak(RequestContext& ctx,
                                           data::UserId host,
                                           MechanismOutcome* outcome) = 0;
};

// Adapts a Mechanism to the staged pipeline: one stage that runs the
// mechanism, copies its artifact into the CloakingOutcome, and finishes
// the request (state.done), so RunPipeline + FinalizeDegradation give
// rival mechanisms the same trace/degradation envelope as the native
// five-stage walk.
class MechanismStage : public Stage {
 public:
  explicit MechanismStage(Mechanism* mechanism) : mechanism_(mechanism) {}

  const char* name() const override { return mechanism_->name(); }
  [[nodiscard]] util::Status Run(RequestContext& ctx, PipelineState& state,
                                 StageRecord& record) override;

  const MechanismOutcome& outcome() const { return outcome_; }

 private:
  Mechanism* mechanism_;
  MechanismOutcome outcome_;
};

}  // namespace nela::core

#endif  // NELA_CORE_MECHANISM_H_
