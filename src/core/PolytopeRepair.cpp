//===- core/PolytopeRepair.cpp -------------------------------------------===//

#include "core/PolytopeRepair.h"

#include "cache/ArtifactCache.h"
#include "core/RepairContext.h"
#include "support/Parallel.h"
#include "support/Timer.h"
#include "syrenn/LineTransform.h"
#include "syrenn/PlaneTransform.h"

#include <cassert>
#include <limits>

using namespace prdnn;

KeyPointsResult prdnn::keyPoints(const Network &Net, const PolytopeSpec &Spec,
                                 JobContext *Ctx, bool UseCache) {
  assert(Net.isPiecewiseLinear() &&
         "polytope repair requires a piecewise-linear network (§6)");
  int NumPolytopes = static_cast<int>(Spec.size());
  KeyPointsResult Result;
  // Wall time of the whole key-point construction, measured on the
  // calling thread (summing per-task timers would overstate elapsed
  // time by up to the thread count). Includes the per-region pattern
  // capture, which is part of producing the key points.
  WallTimer TransformTimer;
  ArtifactCache *Cache = (Ctx && UseCache) ? Ctx->cache() : nullptr;

  // --- Partitions (the SyReNN transform proper, Algorithm 2 line 2) --------
  // Each polytope's transform is independent; the whole spec runs in
  // parallel, and per the thread-pool contract every partition's bits
  // match the sequential loop. Cached by (network fingerprint, shape
  // bits): output constraints are attached later, so specs differing
  // only in constraints share the artifact.
  auto ComputePartitions = [&]() -> std::shared_ptr<const CacheArtifact> {
    auto Artifact = std::make_shared<SyrennTransformArtifact>();
    Artifact->Partitions.resize(static_cast<size_t>(NumPolytopes));
    auto Transform = [&](std::int64_t PIdx) {
      const SpecPolytope &P = Spec[static_cast<size_t>(PIdx)];
      if (const auto *Segment = std::get_if<SegmentPolytope>(&P.Shape))
        Artifact->Partitions[static_cast<size_t>(PIdx)] =
            lineRegions(Net, Segment->A, Segment->B);
      else
        Artifact->Partitions[static_cast<size_t>(PIdx)] =
            planeRegions(Net, std::get<PlanePolytope>(P.Shape).Vertices);
    };
    parallelFor(0, NumPolytopes, std::numeric_limits<double>::infinity(),
                Transform);
    return Artifact;
  };
  std::shared_ptr<const SyrennTransformArtifact> Transform;
  if (Cache) {
    Hasher H;
    const NetworkFingerprint &Fp = Ctx->networkFingerprint();
    H.u64(Fp.Digest.Hi);
    H.u64(Fp.Digest.Lo);
    H.i32(NumPolytopes);
    for (const SpecPolytope &P : Spec) {
      if (const auto *Segment = std::get_if<SegmentPolytope>(&P.Shape)) {
        H.i32(0);
        hashVector(H, Segment->A);
        hashVector(H, Segment->B);
      } else {
        const auto &Plane = std::get<PlanePolytope>(P.Shape);
        H.i32(1);
        H.i32(static_cast<int>(Plane.Vertices.size()));
        for (const Vector &V : Plane.Vertices)
          hashVector(H, V);
      }
    }
    bool Hit = false;
    CacheTier Served = CacheTier::None;
    Transform = std::static_pointer_cast<const SyrennTransformArtifact>(
        Cache->getOrCompute({ArtifactKind::SyrennTransform, H.digest()},
                            ComputePartitions, &Hit, &Served));
    if (Hit) {
      ++Result.TransformCacheHits;
      Ctx->noteCacheHits(1);
      if (Served == CacheTier::L2) {
        ++Result.TransformStoreHits;
        Ctx->noteStoreHits(1);
      }
    } else {
      ++Result.TransformCacheMisses;
      Ctx->noteCacheMisses(1);
    }
  } else {
    Transform = std::static_pointer_cast<const SyrennTransformArtifact>(
        ComputePartitions());
  }

  // --- Region representatives, polytope-major ------------------------------
  // One interior point per linear region: the pattern sample the key
  // points of that region are pinned to (Appendix B).
  std::vector<Vector> Reps;
  std::vector<int> RepOffset(static_cast<size_t>(NumPolytopes) + 1, 0);
  for (int P = 0; P < NumPolytopes; ++P) {
    const SyrennTransformArtifact::Partition &Partition =
        Transform->Partitions[static_cast<size_t>(P)];
    if (const auto *Line = std::get_if<LinePartition>(&Partition)) {
      Result.LinearRegions += Line->numPieces();
      for (int Piece = 0; Piece < Line->numPieces(); ++Piece)
        Reps.push_back(Line->pointAt(Line->midpoint(Piece)));
    } else {
      const auto &Regions = std::get<std::vector<PlaneRegion>>(Partition);
      Result.LinearRegions += static_cast<int>(Regions.size());
      for (const PlaneRegion &Region : Regions)
        Reps.push_back(Region.centroid());
    }
    RepOffset[static_cast<size_t>(P) + 1] = static_cast<int>(Reps.size());
  }

  // --- Patterns at the representatives (batched) ---------------------------
  // computePatternBatch is bit-for-bit the per-point computePattern of
  // the seed loop; caching the batch shares the capture across jobs
  // whose transforms already matched.
  auto ComputePatterns = [&]() -> std::shared_ptr<const CacheArtifact> {
    auto Artifact = std::make_shared<PatternBatchArtifact>();
    Artifact->Patterns = computePatternBatch(Net, Reps);
    return Artifact;
  };
  std::shared_ptr<const PatternBatchArtifact> Patterns;
  if (Cache && !Reps.empty()) {
    Hasher H;
    const NetworkFingerprint &Fp = Ctx->networkFingerprint();
    H.u64(Fp.Digest.Hi);
    H.u64(Fp.Digest.Lo);
    H.i32(static_cast<int>(Reps.size()));
    for (const Vector &V : Reps)
      hashVector(H, V);
    bool Hit = false;
    CacheTier Served = CacheTier::None;
    Patterns = std::static_pointer_cast<const PatternBatchArtifact>(
        Cache->getOrCompute({ArtifactKind::PatternBatch, H.digest()},
                            ComputePatterns, &Hit, &Served));
    if (Hit) {
      ++Result.PatternCacheHits;
      Ctx->noteCacheHits(1);
      if (Served == CacheTier::L2) {
        ++Result.PatternStoreHits;
        Ctx->noteStoreHits(1);
      }
    } else {
      ++Result.PatternCacheMisses;
      Ctx->noteCacheMisses(1);
    }
  } else {
    Patterns = std::static_pointer_cast<const PatternBatchArtifact>(
        ComputePatterns());
  }

  // --- Assemble key points with constraints attached ------------------------
  // Same point and pattern order as the seed loop: polytope-major,
  // piece/region order, both piece endpoints (or all region vertices)
  // repaired *as members of their region* - interior breakpoints appear
  // twice with different patterns.
  for (int P = 0; P < NumPolytopes; ++P) {
    const SpecPolytope &SpecP = Spec[static_cast<size_t>(P)];
    const SyrennTransformArtifact::Partition &Partition =
        Transform->Partitions[static_cast<size_t>(P)];
    int Rep = RepOffset[static_cast<size_t>(P)];
    if (const auto *Line = std::get_if<LinePartition>(&Partition)) {
      for (int Piece = 0; Piece < Line->numPieces(); ++Piece) {
        const NetworkPattern &Pattern =
            Patterns->Patterns[static_cast<size_t>(Rep + Piece)];
        for (double T2 : {Line->Ts[static_cast<size_t>(Piece)],
                          Line->Ts[static_cast<size_t>(Piece) + 1]})
          Result.Points.push_back(
              SpecPoint{Line->pointAt(T2), SpecP.Constraint, Pattern});
      }
    } else {
      const auto &Regions = std::get<std::vector<PlaneRegion>>(Partition);
      for (size_t R = 0; R < Regions.size(); ++R) {
        const NetworkPattern &Pattern =
            Patterns->Patterns[static_cast<size_t>(Rep) + R];
        for (const Vector &V : Regions[R].InputVertices)
          Result.Points.push_back(SpecPoint{V, SpecP.Constraint, Pattern});
      }
    }
  }

  Result.Seconds = TransformTimer.seconds();
  return Result;
}

PointSpec prdnn::keyPointSpec(const Network &Net, const PolytopeSpec &Spec,
                              double *LinRegionsSeconds, int *NumRegions) {
  KeyPointsResult Result = keyPoints(Net, Spec, /*Ctx=*/nullptr,
                                     /*UseCache=*/false);
  if (LinRegionsSeconds)
    *LinRegionsSeconds = Result.Seconds;
  if (NumRegions)
    *NumRegions = Result.LinearRegions;
  return std::move(Result.Points);
}
