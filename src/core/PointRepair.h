//===- core/PointRepair.h - Provable Pointwise Repair (§5) -----*- C++ -*-===//
///
/// \file
/// Algorithm 1 (PointRepair): reduces single-layer repair of a DDNN to
/// a linear program over the parameter change Delta of one value-channel
/// layer. Because the DDNN output is affine in those parameters
/// (Theorem 4.5), each spec row A_x N'(x) <= b_x becomes the exact
/// linear constraint (A_x J_x) Delta <= b_x - A_x N(x), and the LP's
/// norm objective yields a *provably minimal* single-layer repair
/// (Theorem 5.4) - or a proof that none exists (Infeasible).
///
/// The primary public entry point is api/RepairEngine.h: build a
/// RepairRequest (point or polytope spec, fixed layer or auto layer
/// sweep) and run() it synchronously or submit() it as an async job
/// with progress and cancellation. The repairPoints() free function
/// below survives as a thin wrapper over the engine for one-shot
/// fixed-layer repairs; it produces bit-for-bit the same result.
///
/// Engineering additions over the paper's pseudocode, all
/// guarantee-preserving:
///  - constraint generation: solve on the violated rows first and add
///    rows lazily; a relaxation optimum feasible for all rows is optimal
///    for the full LP (standard cutting-plane argument). Each round's
///    violations come from a forward pass of the DDNN at the current
///    Delta, and Jacobian rows are built only for the rows the LP
///    takes;
///  - an optional parameter mask to freeze a subset of the layer's
///    parameters (used e.g. to reproduce the paper's Figure 3 example,
///    whose hand-drawn network lacks some bias edges);
///  - a final network-level re-verification of the spec (the last
///    constraint-generation scan, which evaluates the repaired DDNN at
///    every spec point), so a Success status certifies the repaired
///    DDNN itself, not just LP algebra;
///  - cooperative cancellation and progress reporting through an
///    optional JobContext (core/RepairContext.h), checked at phase and
///    chunk boundaries so cancellation never perturbs computed bits.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CORE_POINTREPAIR_H
#define PRDNN_CORE_POINTREPAIR_H

#include "core/DecoupledNetwork.h"
#include "core/Specification.h"
#include "lp/NormObjective.h"
#include "lp/Simplex.h"

#include <optional>

namespace prdnn {

class JobContext;

enum class RepairStatus {
  /// A provably minimal single-layer repair was found and re-verified.
  Success,
  /// No single-layer repair of the chosen layer satisfies the spec
  /// (definitive, per Theorem 5.4).
  Infeasible,
  /// The LP solver failed (iteration limit / numerical trouble).
  SolverFailure,
  /// The job's cancellation flag was raised; the repair stopped
  /// cooperatively at a phase / chunk / simplex-iteration boundary.
  /// Timing stats (TotalSeconds included) are still stamped.
  Cancelled,
};

const char *toString(RepairStatus Status);

struct RepairOptions {
  /// Which norm of Delta to minimize (Definition 5.3's measure).
  lp::Norm Objective = lp::Norm::L1;
  /// Box constraint |Delta_j| <= DeltaBound; positive, kInfinity
  /// allowed.
  double DeltaBound = lp::kInfinity;
  /// Margin subtracted from spec rows inside the LP; a small positive
  /// value keeps satisfaction strict under floating-point noise.
  double RowMargin = 1e-6;
  /// Constraint generation: solve on the rows violated at Delta = 0
  /// first and add violated rows lazily. One solver serves every round:
  /// round 1 solves cold, later rounds append their rows and
  /// re-optimize with the dual simplex (lp/Simplex.h, SimplexSolver).
  /// After MaxCgRounds rounds every remaining row is appended as one
  /// final (still warm) round, which makes the LP the full one; 0
  /// skips generation and solves the full LP in one cold round.
  int MaxCgRounds = 64;
  /// Violated rows admitted per generation round.
  int CgBatch = 512;
  /// Optional per-parameter mask (size = layer param count); false
  /// freezes the parameter at its current value.
  std::optional<std::vector<bool>> ParamMask;
  /// Consult the engine's shared artifact cache (cache/ArtifactCache.h)
  /// for all three artifact kinds: SyReNN transforms, pattern batches,
  /// and the solved Delta of each repair LP (one lookup per repair,
  /// keyed by the network, layer, spec and every option above and in
  /// Lp). Only effective when the job carries a cache (RepairEngine
  /// with EngineOptions::EnableCache); a hit is re-verified on the
  /// network and is bit-for-bit identical to recomputation, so the
  /// default on never changes results.
  bool UseCache = true;
  lp::SimplexOptions Lp;
};

/// Whether \p O holds values the repair pipeline can run. A negative
/// CgBatch would index before its row vector, a zero one spins every
/// round without adding rows, a NaN tolerance breaks every comparison,
/// and a DeltaBound that is not positive leaves the LP no box; every
/// default passes. RepairEngine rejects an invalid request as
/// SolverFailure before any phase runs (as it does a request whose
/// layers, mask or spec do not fit its network), and the RPC decoder
/// (rpc/Wire.cpp) fails the decode.
bool validRepairOptions(const RepairOptions &O);

struct RepairStats {
  /// The three phases partition TotalSeconds and match the trace's
  /// spans: JacobianSeconds is the attempt's Jacobian span - binding its
  /// layer's slice of the job's forward state and computing the rows'
  /// right-hand sides - and, for the first candidate of a job, also the
  /// job's one batched Delta = 0 forward pass (its own Jacobian span,
  /// credited there as LinRegionsSeconds is); LpSeconds the whole Lp
  /// phase - lazy Jacobian rows, appends, the LP-solution lookup, solves
  /// and constraint-generation scans (the Lp span) - and OtherSeconds
  /// the remainder.
  double JacobianSeconds = 0.0;
  double LpSeconds = 0.0;
  double OtherSeconds = 0.0;
  double TotalSeconds = 0.0;
  int SpecPoints = 0;
  int SpecRows = 0;
  int LpRowsUsed = 0;
  int CgRounds = 0;
  int LpIterations = 0;
  /// Simplex kernel counters and timings accumulated over every LP
  /// solve of this repair (all constraint-generation rounds): pivot /
  /// bound-flip / refactorization counts, the pivot-sequence hash, and
  /// per-kernel seconds (pricing, FTRAN/BTRAN, ratio test, core update,
  /// refactorization).
  lp::SimplexStats LpKernels;
  /// Post-repair max spec violation measured on the network itself.
  double VerifiedViolation = 0.0;
  /// The threshold VerifiedViolation was judged by (100 FeasTol +
  /// 1e-9): a Success has VerifiedViolation <= VerifyTolerance. Zero
  /// when the repair stopped before verification.
  double VerifyTolerance = 0.0;
  // Filled by polytope repair (Algorithm 2) only:
  /// Time computing LinRegions (SyReNN transforms).
  double LinRegionsSeconds = 0.0;
  /// Key points generated from region vertices (the paper's "Points").
  int KeyPoints = 0;
  /// Linear regions across all specification polytopes.
  int LinearRegions = 0;
  // Artifact-cache lookups, by phase (all zero when the repair runs
  // without a cache). Hits are bit-identical to recomputation; the
  // counters only explain where the time went.
  /// Always zero: Jacobian rows are built lazily per repair and no
  /// longer cached. Not on the wire; kept only because perfbench's
  /// probe (perfbench/src/Probe.cpp) still reads them.
  int JacobianCacheHits = 0;
  int JacobianCacheMisses = 0;
  /// SyReNN transform lookups (one per polytope spec).
  int LinRegionsCacheHits = 0;
  int LinRegionsCacheMisses = 0;
  /// Activation-pattern batch lookups (one per polytope spec).
  int PatternCacheHits = 0;
  int PatternCacheMisses = 0;
  /// LP-solution lookups (ArtifactKind::LpSolution; one per repair
  /// against the cache, see RepairOptions::UseCache). A hit means the
  /// repair skipped the LP and re-verified the cached Delta; a cached
  /// Delta that failed that check counts as a miss. The names predate
  /// the kind: perfbench's probe (perfbench/src/Probe.cpp) reads them.
  int BasisHits = 0;
  int BasisMisses = 0;
  // Of the cache hits above, how many were served by the persistent L2
  // store (persist/ArtifactStore.h) rather than engine memory - the
  // warm-restart signal. Always <= the matching CacheHits counter;
  // zero when the engine runs without a store.
  int LinRegionsStoreHits = 0;
  int PatternStoreHits = 0;
  int BasisStoreHits = 0;

  int cacheHits() const {
    return JacobianCacheHits + LinRegionsCacheHits + PatternCacheHits +
           BasisHits;
  }
  int cacheMisses() const {
    return JacobianCacheMisses + LinRegionsCacheMisses + PatternCacheMisses +
           BasisMisses;
  }
  int storeHits() const {
    return LinRegionsStoreHits + PatternStoreHits + BasisStoreHits;
  }
};

struct RepairResult {
  RepairStatus Status = RepairStatus::SolverFailure;
  /// The repaired DDNN (valid iff Status == Success).
  std::optional<DecoupledNetwork> Repaired;
  /// Full-layer Delta (zeros at frozen parameters).
  std::vector<double> Delta;
  double DeltaL1 = 0.0;
  double DeltaLInf = 0.0;
  RepairStats Stats;
};

/// Algorithm 1 as a one-shot call; a thin wrapper over
/// RepairEngine::run (api/RepairEngine.h), bit-for-bit identical to
/// it. \p LayerIndex names a parameterized linear layer of \p Net (see
/// Network::parameterizedLayerIndices).
RepairResult repairPoints(const Network &Net, int LayerIndex,
                          const PointSpec &Spec,
                          const RepairOptions &Options = RepairOptions());

namespace detail {

class SpecState;

/// Algorithm 1 proper, at layer \p LayerIndex (one of \p State's
/// candidates) of the network and spec of \p State, whose Delta = 0
/// forward state the job has computed. \p Ctx, when non-null, receives
/// phase/progress updates and is polled for cancellation at chunk
/// boundaries; with a cache in \p Ctx, \p State must hold its spec
/// digest (SpecState::hashSpec).
RepairResult repairPointsImpl(const SpecState &State, int LayerIndex,
                              const RepairOptions &Options, JobContext *Ctx);

} // namespace detail

} // namespace prdnn

#endif // PRDNN_CORE_POINTREPAIR_H
