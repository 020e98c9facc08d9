//===- api/RepairReport.h - unified result of an engine job ----*- C++ -*-===//
///
/// \file
/// What a RepairEngine job resolves to: the winning RepairResult (with
/// its RepairStats timing breakdown), the layer that won, the per-layer
/// attempt log for sweeps, and engine-side timings (queue wait, total
/// job wall time). One type answers "did it work, what changed, what
/// did it cost" for both Algorithm 1 and Algorithm 2 requests.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_API_REPAIRREPORT_H
#define PRDNN_API_REPAIRREPORT_H

#include "core/PointRepair.h"

#include <cstdint>
#include <vector>

namespace prdnn {

/// One layer attempt of a kAutoLayer sweep (or the single attempt of a
/// fixed-layer request), in execution order.
struct SweepAttempt {
  int LayerIndex = -1;
  RepairStatus Status = RepairStatus::SolverFailure;
  double DeltaL1 = 0.0;
  double DeltaLInf = 0.0;
  double Seconds = 0.0;
  // Per-attempt phase breakdown, stamped on *every* exit path (early
  // Infeasible/SolverFailure returns and cancellations included, like
  // TotalSeconds) so cache-hit and cache-miss attempts are comparable.
  // The job's shared forward pass and transform are credited to the
  // first candidate (RepairStats::JacobianSeconds, LinRegionsSeconds).
  double JacobianSeconds = 0.0;
  double LpSeconds = 0.0;
  double LinRegionsSeconds = 0.0;
  /// Simplex work this attempt's LP phase did (all CG rounds): total
  /// iterations and basis refactorizations. The full per-kernel
  /// breakdown (SimplexStats) rides on the attempt's RepairStats
  /// (`RepairResult::Stats::LpKernels`) for the winning attempt.
  int LpIterations = 0;
  int LpRefactors = 0;
  /// Artifact-cache lookups this attempt performed, all phases.
  int CacheHits = 0;
  int CacheMisses = 0;
  /// Of CacheHits, those the persistent L2 store served (0 without a
  /// store).
  int StoreHits = 0;
  /// Whether this attempt took its LP's Delta from the cache instead
  /// of solving (equals the attempt's RepairStats::BasisHits > 0; the
  /// name predates the LpSolution kind and perfbench reads it). Warm
  /// attempts are bit-identical to cold ones - this only explains the
  /// pivot counts.
  bool WarmStarted = false;
};

struct RepairReport {
  /// Engine-assigned id (monotonic per engine; 0 for inline run()s).
  std::uint64_t JobId = 0;

  /// Success iff some attempt succeeded (for sweeps: the minimal-norm
  /// one). Cancelled if the job was cancelled before a winner was
  /// chosen. Otherwise Infeasible when every attempt was proved
  /// infeasible (a definitive per-layer non-existence proof,
  /// Theorem 5.4), else SolverFailure.
  RepairStatus Status = RepairStatus::SolverFailure;

  /// The layer the winning repair edited (-1 if none succeeded). For
  /// fixed-layer requests this is the requested layer on success.
  int RepairedLayer = -1;

  /// The winning attempt's full result - repaired DDNN, Delta, norms,
  /// and RepairStats (Jacobian / LP / verify / LinRegions timings). For
  /// unsuccessful jobs, the last attempt's result (its Stats are still
  /// stamped; for cancelled jobs Status/TotalSeconds reflect where the
  /// cancellation landed).
  RepairResult Result;

  /// Every layer attempt, in execution order; size 1 for fixed-layer
  /// requests, up to |candidates| for sweeps (cancellation may cut the
  /// sweep short).
  std::vector<SweepAttempt> Sweep;

  /// Seconds spent queued before a worker picked the job up (0 for
  /// inline run()s).
  double QueueSeconds = 0.0;

  /// Engine-side wall time executing the job (all sweep attempts).
  double TotalSeconds = 0.0;

  /// Artifact-cache lookups across every attempt of the job (0 / 0
  /// when the engine runs without a cache or the request opted out).
  /// Per-phase breakdowns live in each attempt's RepairStats.
  std::int64_t CacheHits = 0;
  std::int64_t CacheMisses = 0;
  /// Of CacheHits, those served by the engine's persistent L2 store
  /// (persist/ArtifactStore.h) rather than memory: the warm-restart
  /// signal. 0 when the engine has no store.
  std::int64_t StoreHits = 0;

  const RepairStats &stats() const { return Result.Stats; }
  bool succeeded() const { return Status == RepairStatus::Success; }
};

} // namespace prdnn

#endif // PRDNN_API_REPAIRREPORT_H
