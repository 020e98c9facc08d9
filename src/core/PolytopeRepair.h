//===- core/PolytopeRepair.h - Provable Polytope Repair (§6) ---*- C++ -*-===//
///
/// \file
/// Algorithm 2 (PolytopeRepair): reduces repair over polytopes with
/// infinitely many points to pointwise repair on finitely many *key
/// points*. For a PWL network whose value channel alone is edited, the
/// linear regions do not move (Theorem 4.6), each region's image is the
/// convex hull of its vertices' images, and hence the polytope spec
/// holds iff the point spec on all region vertices holds (Theorem 6.4).
///
/// The primary public entry point is api/RepairEngine.h: a
/// RepairRequest carrying a PolytopeSpec runs this algorithm (the
/// engine's LinRegions phase is Algorithm 2's SyReNN transform, after
/// which it proceeds through Algorithm 1's Jacobian/LP/Verify phases).
/// The repairPolytopes() free function below survives as a thin
/// wrapper over the engine for one-shot fixed-layer repairs.
///
/// Key points are generated with their owning region's activation
/// pattern pinned (Appendix B), so the same input can appear once per
/// adjacent region with different Jacobians.
///
/// Supported polytopes: 1-D segments (via syrenn/LineTransform.h) and
/// 2-D convex polygons (via syrenn/PlaneTransform.h), matching the
/// scalability envelope reported in the paper (§2, §7.3).
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CORE_POLYTOPEREPAIR_H
#define PRDNN_CORE_POLYTOPEREPAIR_H

#include "core/PointRepair.h"

namespace prdnn {

/// Algorithm 2 as a one-shot call; a thin wrapper over
/// RepairEngine::run (api/RepairEngine.h), bit-for-bit identical to
/// it. \p Net must be piecewise-linear; \p LayerIndex names a
/// parameterized linear layer. Statuses as in repairPoints; on Success
/// the repaired DDNN provably satisfies the constraint on *every* point
/// of every specification polytope.
RepairResult repairPolytopes(const Network &Net, int LayerIndex,
                             const PolytopeSpec &Spec,
                             const RepairOptions &Options = RepairOptions());

/// The point specification Algorithm 2 constructs (exposed for tests,
/// diagnostics, and the FT/MFT baselines, which sample the same key
/// points). \p LinRegionsSeconds and \p NumRegions, when non-null,
/// receive the transform time and region count.
PointSpec keyPointSpec(const Network &Net, const PolytopeSpec &Spec,
                       double *LinRegionsSeconds = nullptr,
                       int *NumRegions = nullptr);

/// keyPointSpec's output plus its cost accounting: transform wall time
/// and the artifact-cache lookups the construction performed (zero
/// when run without a cache).
struct KeyPointsResult {
  PointSpec Points;
  int LinearRegions = 0;
  double Seconds = 0.0;
  /// SyReNN transform artifact (the partitions of the spec's shapes).
  int TransformCacheHits = 0;
  int TransformCacheMisses = 0;
  /// Activation-pattern batch artifact (per-region representatives).
  int PatternCacheHits = 0;
  int PatternCacheMisses = 0;
  /// Of the hits above, those served by the persistent L2 store.
  int TransformStoreHits = 0;
  int PatternStoreHits = 0;
};

/// Cache-aware keyPointSpec: when \p Ctx carries an artifact cache and
/// \p UseCache is set, the SyReNN partitions (keyed by the network
/// fingerprint and the polytope *shapes*, so specs differing only in
/// output constraints share them) and the per-region pattern batch are
/// cached artifacts. Bit-for-bit identical to keyPointSpec for every
/// cache state.
KeyPointsResult keyPoints(const Network &Net, const PolytopeSpec &Spec,
                          JobContext *Ctx = nullptr, bool UseCache = true);

} // namespace prdnn

#endif // PRDNN_CORE_POLYTOPEREPAIR_H
