//===- obs/Telemetry.cpp - pre-registered engine instruments --------------===//

#include "obs/Telemetry.h"

namespace prdnn {
namespace obs {

Telemetry::Telemetry(const TelemetryOptions &Opts)
    : Trace(Opts.TraceCapacity) {
  auto Lat = defaultLatencyBuckets();

  JobsSubmitted = Registry.counter("prdnn_engine_jobs_submitted_total",
                                   "Jobs accepted by RepairEngine::submit");
  JobsCompleted = Registry.counter("prdnn_engine_jobs_completed_total",
                                   "Jobs resolved (any terminal status)");
  JobsSucceeded = Registry.counter("prdnn_engine_jobs_succeeded_total",
                                   "Jobs resolved with RepairStatus::Success");
  JobsInfeasible =
      Registry.counter("prdnn_engine_jobs_infeasible_total",
                       "Jobs resolved with RepairStatus::Infeasible");
  JobsCancelled =
      Registry.counter("prdnn_engine_jobs_cancelled_total",
                       "Jobs resolved with RepairStatus::Cancelled");
  JobsFailed =
      Registry.counter("prdnn_engine_jobs_solver_failure_total",
                       "Jobs resolved with RepairStatus::SolverFailure");
  QueueWaitSeconds =
      Registry.histogram("prdnn_engine_queue_wait_seconds", Lat,
                         "Seconds from submit to worker pickup");
  JobSeconds = Registry.histogram("prdnn_engine_job_seconds", Lat,
                                  "Seconds of repair execution per job");

  SweepAttempts = Registry.counter("prdnn_job_sweep_attempts_total",
                                   "Per-layer repair attempts executed");
  JacobianSeconds =
      Registry.histogram("prdnn_job_jacobian_seconds", Lat,
                         "Jacobian-phase seconds per sweep attempt");
  LpSeconds = Registry.histogram("prdnn_job_lp_seconds", Lat,
                                 "LP-phase seconds per sweep attempt");
  LinRegionsSeconds =
      Registry.histogram("prdnn_job_linregions_seconds", Lat,
                         "LinRegions-phase seconds per sweep attempt");

  LpIterations = Registry.counter("prdnn_lp_iterations_total",
                                  "Simplex iterations, winning attempts");
  LpRefactors = Registry.counter("prdnn_lp_refactors_total",
                                 "Basis refactorizations, winning attempts");
  LpPricingSeconds = Registry.counter("prdnn_lp_pricing_seconds_total",
                                      "Pricing kernel seconds");
  LpFtranSeconds =
      Registry.counter("prdnn_lp_ftran_seconds_total", "FTRAN kernel seconds");
  LpBtranSeconds =
      Registry.counter("prdnn_lp_btran_seconds_total", "BTRAN kernel seconds");
  LpRatioSeconds = Registry.counter("prdnn_lp_ratio_seconds_total",
                                    "Ratio-test kernel seconds");
  LpUpdateSeconds = Registry.counter("prdnn_lp_update_seconds_total",
                                     "Eta-update kernel seconds");
  LpRefactorSeconds = Registry.counter("prdnn_lp_refactor_seconds_total",
                                       "Refactorization kernel seconds");

  VerifiedViolation = Registry.gauge(
      "prdnn_verify_violation",
      "Worst spec violation of the last verified repair, on its DDNN");
  VerifyTolerance = Registry.gauge(
      "prdnn_verify_tolerance",
      "Tolerance the last verified repair was judged by (100 FeasTol + 1e-9)");
}

void Telemetry::reset() {
  Registry.reset();
  Trace.clear();
}

} // namespace obs
} // namespace prdnn
