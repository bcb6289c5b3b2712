#include "core/pipeline.h"

namespace nela::core {

util::Status RunPipeline(const std::vector<Stage*>& stages,
                         RequestContext& ctx, PipelineState& state) {
  util::Status status = util::Status::Ok();
  for (Stage* stage : stages) {
    StageRecord record;
    record.stage = stage->name();
    if (state.done || !status.ok()) {
      record.detail = "skipped";
    } else {
      record.ran = true;
      const util::Status stage_status = stage->Run(ctx, state, record);
      if (!stage_status.ok()) {
        record.code = stage_status.code();
        if (record.detail.empty()) record.detail = stage_status.message();
        status = stage_status;
      }
    }
    ctx.trace().Record(record.stage, record.code, record.detail);
    state.outcome.degradation.stages.push_back(std::move(record));
  }
  return status;
}

void FinalizeDegradation(const RequestContext& ctx, CloakingOutcome* outcome) {
  DegradationReport& report = outcome->degradation;
  ++report.finalize_count;  // exactly-once per delivered outcome (tested)
  const net::ScopeStats& stats = ctx.scope().stats();
  report.retries = stats.retries;
  report.timeouts = stats.timeouts_observed;
  report.retransmitted_bytes = stats.retransmitted_bytes;
  report.members_lost = 0;
  report.phases_retried = 0;
  report.failure_code = util::StatusCode::kOk;
  report.failure_reason.clear();
  for (const StageRecord& record : report.stages) {
    report.members_lost += record.members_lost;
    report.phases_retried += record.phases_retried;
    if (report.failure_code == util::StatusCode::kOk &&
        record.code != util::StatusCode::kOk) {
      report.failure_code = record.code;
      report.failure_reason = record.detail;
    }
  }
}

}  // namespace nela::core
