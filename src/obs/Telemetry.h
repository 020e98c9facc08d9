//===- obs/Telemetry.h - shared registry + trace bundle --------*- C++ -*-===//
///
/// \file
/// The handle bundle threaded through the stack: one MetricsRegistry
/// plus one TraceBuffer, with the engine-tier instruments
/// pre-registered so RepairEngine wiring is pointer stores rather than
/// name lookups on the hot path. Serve/rpc tiers register their own
/// metrics against \c Registry (keeping obs below them in the layer
/// order) and remove them via removeOwner() in their destructors.
///
/// Install via EngineOptions::Telemetry (or let RepairService create
/// one - ServiceOptions::Telemetry defaults to on). A null telemetry
/// pointer means "off" everywhere: no registration, no recording, and
/// - by the standing invariant - no difference in any repair bit.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_OBS_TELEMETRY_H
#define PRDNN_OBS_TELEMETRY_H

#include "obs/Metrics.h"
#include "obs/Trace.h"

namespace prdnn {
namespace obs {

struct TelemetryOptions {
  /// Span capacity of the trace ring (most recent kept).
  std::size_t TraceCapacity = 1 << 14;
};

/// See the file comment. The pre-registered handles below are never
/// null and never move for the Telemetry's lifetime.
class Telemetry {
public:
  explicit Telemetry(const TelemetryOptions &Opts = TelemetryOptions());
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  MetricsRegistry Registry;
  TraceBuffer Trace;

  // Engine job lifecycle.
  Counter *JobsSubmitted;
  Counter *JobsCompleted;
  Counter *JobsSucceeded;
  Counter *JobsInfeasible;
  Counter *JobsCancelled;
  Counter *JobsFailed;
  Histogram *QueueWaitSeconds;
  Histogram *JobSeconds;

  // Per-attempt phase breakdown (one observation per sweep attempt).
  Counter *SweepAttempts;
  Histogram *JacobianSeconds;
  Histogram *LpSeconds;
  Histogram *LinRegionsSeconds;

  // LP kernel totals, folded from the winning attempt's SimplexStats.
  Counter *LpIterations;
  Counter *LpRefactors;
  Counter *LpPricingSeconds;
  Counter *LpFtranSeconds;
  Counter *LpBtranSeconds;
  Counter *LpRatioSeconds;
  Counter *LpUpdateSeconds;
  Counter *LpRefactorSeconds;

  // Algorithm 1's verification of the last job that reached it: the
  // repaired DDNN's worst spec violation and the tolerance it was
  // judged by (RepairStats::VerifiedViolation / VerifyTolerance).
  Gauge *VerifiedViolation;
  Gauge *VerifyTolerance;

  /// Uniform reset: zeroes every registry instrument, runs the tier
  /// reset hooks (cache, store, admission, registry counters), and
  /// clears the trace ring.
  void reset();
};

} // namespace obs
} // namespace prdnn

#endif // PRDNN_OBS_TELEMETRY_H
