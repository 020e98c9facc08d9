//===- rpc/Wire.cpp -------------------------------------------------------===//

#include "rpc/Wire.h"

#include "core/DecoupledNetwork.h"
#include "nn/Network.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sys/socket.h>

using namespace prdnn;
using namespace prdnn::rpc;
using persist::ByteReader;
using persist::ByteWriter;
using persist::CodecError;
using persist::plausibleCount;
using persist::readDoubleSeq;
using persist::writeDoubleSeq;

const char *prdnn::rpc::toString(RpcError Error) {
  switch (Error) {
  case RpcError::None:
    return "none";
  case RpcError::Truncated:
    return "truncated";
  case RpcError::BadMagic:
    return "bad-magic";
  case RpcError::BadVersion:
    return "bad-version";
  case RpcError::Corrupt:
    return "corrupt";
  case RpcError::Oversized:
    return "oversized";
  case RpcError::BadKind:
    return "bad-kind";
  case RpcError::Timeout:
    return "timeout";
  case RpcError::Closed:
    return "closed";
  case RpcError::IoError:
    return "io-error";
  }
  // Error codes arrive from the peer; an out-of-range byte must print,
  // not abort.
  return "unknown";
}

RpcError prdnn::rpc::fromCodecError(CodecError Error) {
  switch (Error) {
  case CodecError::None:
    return RpcError::None;
  case CodecError::Truncated:
    return RpcError::Truncated;
  case CodecError::BadMagic:
    return RpcError::BadMagic;
  case CodecError::BadVersion:
    return RpcError::BadVersion;
  case CodecError::ForeignEndian:
  case CodecError::Corrupt:
    return RpcError::Corrupt;
  }
  return RpcError::Corrupt;
}

// --- Payload serializers ----------------------------------------------------

namespace {

/// Reads a u8 that must be a valid enum value in [0, MaxValue].
bool readEnum8(ByteReader &R, std::uint8_t &V, std::uint8_t MaxValue) {
  if (!R.u8(V))
    return false;
  if (V > MaxValue) {
    R.fail(CodecError::Corrupt);
    return false;
  }
  return true;
}

void writeConstraint(ByteWriter &W, const OutputConstraint &C) {
  persist::writeMatrix(W, C.A);
  persist::writeVector(W, C.B);
}

bool readConstraint(ByteReader &R, OutputConstraint &C) {
  if (!persist::readMatrix(R, C.A) || !persist::readVector(R, C.B))
    return false;
  if (C.B.size() != C.A.rows()) {
    R.fail(CodecError::Corrupt);
    return false;
  }
  return true;
}

void writePointSpec(ByteWriter &W, const PointSpec &Spec) {
  W.u64(Spec.size());
  for (const SpecPoint &P : Spec) {
    persist::writeVector(W, P.X);
    writeConstraint(W, P.Constraint);
    W.u8(P.Pattern ? 1 : 0);
    if (P.Pattern)
      persist::writePattern(W, *P.Pattern);
  }
}

bool readPointSpec(ByteReader &R, PointSpec &Spec) {
  std::uint64_t Count = 0;
  if (!R.u64(Count) || !plausibleCount(R, Count, 8))
    return false;
  Spec.resize(static_cast<std::size_t>(Count));
  for (SpecPoint &P : Spec) {
    if (!persist::readVector(R, P.X) || !readConstraint(R, P.Constraint))
      return false;
    std::uint8_t HasPattern = 0;
    if (!readEnum8(R, HasPattern, 1))
      return false;
    if (HasPattern) {
      NetworkPattern Pattern;
      if (!persist::readPattern(R, Pattern))
        return false;
      P.Pattern = std::move(Pattern);
    } else {
      P.Pattern.reset();
    }
  }
  return true;
}

void writePolytopeSpec(ByteWriter &W, const PolytopeSpec &Spec) {
  W.u64(Spec.size());
  for (const SpecPolytope &P : Spec) {
    if (const auto *Segment = std::get_if<SegmentPolytope>(&P.Shape)) {
      W.u8(0);
      persist::writeVector(W, Segment->A);
      persist::writeVector(W, Segment->B);
    } else {
      const auto &Plane = std::get<PlanePolytope>(P.Shape);
      W.u8(1);
      W.u32(static_cast<std::uint32_t>(Plane.Vertices.size()));
      for (const Vector &V : Plane.Vertices)
        persist::writeVector(W, V);
    }
    writeConstraint(W, P.Constraint);
  }
}

bool readPolytopeSpec(ByteReader &R, PolytopeSpec &Spec) {
  std::uint64_t Count = 0;
  if (!R.u64(Count) || !plausibleCount(R, Count, 8))
    return false;
  Spec.resize(static_cast<std::size_t>(Count));
  for (SpecPolytope &P : Spec) {
    std::uint8_t Tag = 0;
    if (!readEnum8(R, Tag, 1))
      return false;
    if (Tag == 0) {
      SegmentPolytope Segment;
      if (!persist::readVector(R, Segment.A) ||
          !persist::readVector(R, Segment.B))
        return false;
      P.Shape = std::move(Segment);
    } else {
      std::uint32_t Verts = 0;
      if (!R.u32(Verts) || !plausibleCount(R, Verts, 8))
        return false;
      PlanePolytope Plane;
      Plane.Vertices.resize(Verts);
      for (Vector &V : Plane.Vertices)
        if (!persist::readVector(R, V))
          return false;
      P.Shape = std::move(Plane);
    }
    if (!readConstraint(R, P.Constraint))
      return false;
  }
  return true;
}

void writeRepairOptions(ByteWriter &W, const RepairOptions &O) {
  W.u8(static_cast<std::uint8_t>(O.Objective));
  W.f64(O.DeltaBound);
  W.f64(O.RowMargin);
  W.i32(O.MaxCgRounds);
  W.i32(O.CgBatch);
  W.u8(O.ParamMask ? 1 : 0);
  if (O.ParamMask) {
    W.u64(O.ParamMask->size());
    for (bool Bit : *O.ParamMask)
      W.u8(Bit ? 1 : 0);
  }
  W.u8(O.UseCache ? 1 : 0);
  // SimplexOptions, minus its two non-owning pointers (CancelFlag,
  // WarmBasis): those are process-local wiring the server re-installs.
  W.f64(O.Lp.FeasTol);
  W.f64(O.Lp.OptTol);
  W.f64(O.Lp.PivotTol);
  W.i32(O.Lp.MaxIterations);
  W.u8(O.Lp.ScaleRows ? 1 : 0);
  W.i32(O.Lp.StallLimit);
  W.i32(O.Lp.RefactorInterval);
  W.u8(O.Lp.ExportBasis ? 1 : 0);
}

bool readRepairOptions(ByteReader &R, RepairOptions &O) {
  std::uint8_t Objective = 0, Flag = 0;
  if (!readEnum8(R, Objective, 2))
    return false;
  O.Objective = static_cast<lp::Norm>(Objective);
  if (!R.f64(O.DeltaBound) || !R.f64(O.RowMargin))
    return false;
  if (!R.i32(O.MaxCgRounds) || !R.i32(O.CgBatch))
    return false;
  std::uint8_t HasMask = 0;
  if (!readEnum8(R, HasMask, 1))
    return false;
  if (HasMask) {
    std::uint64_t Count = 0;
    if (!R.u64(Count) || !plausibleCount(R, Count, 1))
      return false;
    std::vector<bool> Mask(static_cast<std::size_t>(Count));
    for (std::size_t I = 0; I < Mask.size(); ++I) {
      std::uint8_t Bit = 0;
      if (!readEnum8(R, Bit, 1))
        return false;
      Mask[I] = Bit != 0;
    }
    O.ParamMask = std::move(Mask);
  } else {
    O.ParamMask.reset();
  }
  if (!readEnum8(R, Flag, 1))
    return false;
  O.UseCache = Flag != 0;
  if (!R.f64(O.Lp.FeasTol) || !R.f64(O.Lp.OptTol) || !R.f64(O.Lp.PivotTol))
    return false;
  if (!R.i32(O.Lp.MaxIterations))
    return false;
  if (!readEnum8(R, Flag, 1))
    return false;
  O.Lp.ScaleRows = Flag != 0;
  if (!R.i32(O.Lp.StallLimit) || !R.i32(O.Lp.RefactorInterval))
    return false;
  if (!readEnum8(R, Flag, 1))
    return false;
  O.Lp.ExportBasis = Flag != 0;
  O.Lp.CancelFlag = nullptr;
  O.Lp.WarmBasis = nullptr;
  // The request crossed a trust boundary: values the pipeline never
  // produces itself fail the decode rather than reach a job.
  if (!prdnn::validRepairOptions(O)) {
    R.fail(CodecError::Corrupt);
    return false;
  }
  return true;
}

void writeSimplexStats(ByteWriter &W, const lp::SimplexStats &S) {
  W.i32(S.Iterations);
  W.i32(S.Pivots);
  W.i32(S.BoundFlips);
  W.i32(S.Refactors);
  W.u64(S.PivotHash);
  W.f64(S.PricingSeconds);
  W.f64(S.FtranSeconds);
  W.f64(S.BtranSeconds);
  W.f64(S.RatioSeconds);
  W.f64(S.UpdateSeconds);
  W.f64(S.RefactorSeconds);
}

bool readSimplexStats(ByteReader &R, lp::SimplexStats &S) {
  return R.i32(S.Iterations) && R.i32(S.Pivots) && R.i32(S.BoundFlips) &&
         R.i32(S.Refactors) && R.u64(S.PivotHash) &&
         R.f64(S.PricingSeconds) && R.f64(S.FtranSeconds) &&
         R.f64(S.BtranSeconds) && R.f64(S.RatioSeconds) &&
         R.f64(S.UpdateSeconds) && R.f64(S.RefactorSeconds);
}

void writeRepairStats(ByteWriter &W, const RepairStats &S) {
  W.f64(S.JacobianSeconds);
  W.f64(S.LpSeconds);
  W.f64(S.OtherSeconds);
  W.f64(S.TotalSeconds);
  W.i32(S.SpecPoints);
  W.i32(S.SpecRows);
  W.i32(S.LpRowsUsed);
  W.i32(S.CgRounds);
  W.i32(S.LpIterations);
  writeSimplexStats(W, S.LpKernels);
  W.f64(S.VerifiedViolation);
  W.f64(S.VerifyTolerance);
  W.f64(S.LinRegionsSeconds);
  W.i32(S.KeyPoints);
  W.i32(S.LinearRegions);
  W.i32(S.LinRegionsCacheHits);
  W.i32(S.LinRegionsCacheMisses);
  W.i32(S.PatternCacheHits);
  W.i32(S.PatternCacheMisses);
  W.i32(S.BasisHits);
  W.i32(S.BasisMisses);
  W.i32(S.LinRegionsStoreHits);
  W.i32(S.PatternStoreHits);
  W.i32(S.BasisStoreHits);
}

bool readRepairStats(ByteReader &R, RepairStats &S) {
  if (!R.f64(S.JacobianSeconds) || !R.f64(S.LpSeconds) ||
      !R.f64(S.OtherSeconds) || !R.f64(S.TotalSeconds) ||
      !R.i32(S.SpecPoints) || !R.i32(S.SpecRows) || !R.i32(S.LpRowsUsed) ||
      !R.i32(S.CgRounds) || !R.i32(S.LpIterations))
    return false;
  if (!readSimplexStats(R, S.LpKernels))
    return false;
  return R.f64(S.VerifiedViolation) && R.f64(S.VerifyTolerance) &&
         R.f64(S.LinRegionsSeconds) &&
         R.i32(S.KeyPoints) && R.i32(S.LinearRegions) &&
         R.i32(S.LinRegionsCacheHits) && R.i32(S.LinRegionsCacheMisses) &&
         R.i32(S.PatternCacheHits) && R.i32(S.PatternCacheMisses) &&
         R.i32(S.BasisHits) && R.i32(S.BasisMisses) &&
         R.i32(S.LinRegionsStoreHits) && R.i32(S.PatternStoreHits) &&
         R.i32(S.BasisStoreHits);
}

void writeRepairResult(ByteWriter &W, const RepairResult &Result) {
  W.u8(static_cast<std::uint8_t>(Result.Status));
  W.u8(Result.Repaired ? 1 : 0);
  if (Result.Repaired) {
    persist::serializeNetwork(Result.Repaired->activationChannel(), W);
    persist::serializeNetwork(Result.Repaired->valueChannel(), W);
  }
  writeDoubleSeq(W, Result.Delta);
  W.f64(Result.DeltaL1);
  W.f64(Result.DeltaLInf);
  writeRepairStats(W, Result.Stats);
}

bool readRepairResult(ByteReader &R, RepairResult &Result) {
  std::uint8_t Status = 0, HasRepaired = 0;
  if (!readEnum8(R, Status, 3))
    return false;
  Result.Status = static_cast<RepairStatus>(Status);
  if (!readEnum8(R, HasRepaired, 1))
    return false;
  if (HasRepaired) {
    std::optional<Network> Activation = persist::deserializeNetwork(R);
    if (!Activation)
      return false;
    std::optional<Network> Value = persist::deserializeNetwork(R);
    if (!Value)
      return false;
    // The DecoupledNetwork constructor only asserts channel agreement;
    // a wire payload must be validated, not trusted.
    if (Activation->numLayers() != Value->numLayers() ||
        Activation->inputSize() != Value->inputSize() ||
        Activation->outputSize() != Value->outputSize()) {
      R.fail(CodecError::Corrupt);
      return false;
    }
    for (int I = 0; I < Activation->numLayers(); ++I)
      if (Activation->layer(I).getKind() != Value->layer(I).getKind() ||
          Activation->layer(I).inputSize() != Value->layer(I).inputSize() ||
          Activation->layer(I).outputSize() !=
              Value->layer(I).outputSize()) {
        R.fail(CodecError::Corrupt);
        return false;
      }
    Result.Repaired.emplace(std::move(*Activation), std::move(*Value));
  } else {
    Result.Repaired.reset();
  }
  return readDoubleSeq(R, Result.Delta) && R.f64(Result.DeltaL1) &&
         R.f64(Result.DeltaLInf) && readRepairStats(R, Result.Stats);
}

void writeSweepAttempt(ByteWriter &W, const SweepAttempt &A) {
  W.i32(A.LayerIndex);
  W.u8(static_cast<std::uint8_t>(A.Status));
  W.f64(A.DeltaL1);
  W.f64(A.DeltaLInf);
  W.f64(A.Seconds);
  W.f64(A.JacobianSeconds);
  W.f64(A.LpSeconds);
  W.f64(A.LinRegionsSeconds);
  W.i32(A.LpIterations);
  W.i32(A.LpRefactors);
  W.i32(A.CacheHits);
  W.i32(A.CacheMisses);
  W.i32(A.StoreHits);
  W.u8(A.WarmStarted ? 1 : 0);
  W.i32(A.ShardId);
}

bool readSweepAttempt(ByteReader &R, SweepAttempt &A) {
  std::uint8_t Status = 0, Warm = 0;
  if (!R.i32(A.LayerIndex) || !readEnum8(R, Status, 3))
    return false;
  A.Status = static_cast<RepairStatus>(Status);
  if (!R.f64(A.DeltaL1) || !R.f64(A.DeltaLInf) || !R.f64(A.Seconds) ||
      !R.f64(A.JacobianSeconds) || !R.f64(A.LpSeconds) ||
      !R.f64(A.LinRegionsSeconds) || !R.i32(A.LpIterations) ||
      !R.i32(A.LpRefactors) || !R.i32(A.CacheHits) ||
      !R.i32(A.CacheMisses) || !R.i32(A.StoreHits) ||
      !readEnum8(R, Warm, 1) || !R.i32(A.ShardId))
    return false;
  A.WarmStarted = Warm != 0;
  return true;
}

} // namespace

void prdnn::rpc::writeServeRequest(ByteWriter &W,
                                   const serve::ServeRequest &Request) {
  W.u64(Request.Model.Digest.Hi);
  W.u64(Request.Model.Digest.Lo);
  if (const auto *Points = std::get_if<PointSpec>(&Request.Spec)) {
    W.u8(0);
    writePointSpec(W, *Points);
  } else {
    W.u8(1);
    writePolytopeSpec(W, std::get<PolytopeSpec>(Request.Spec));
  }
  W.i32(Request.LayerIndex);
  W.u32(static_cast<std::uint32_t>(Request.SweepLayers.size()));
  for (int Layer : Request.SweepLayers)
    W.i32(Layer);
  W.u8(static_cast<std::uint8_t>(Request.Class));
  writeRepairOptions(W, Request.Options);
}

bool prdnn::rpc::readServeRequest(ByteReader &R,
                                  serve::ServeRequest &Request) {
  if (!R.u64(Request.Model.Digest.Hi) || !R.u64(Request.Model.Digest.Lo))
    return false;
  std::uint8_t SpecTag = 0;
  if (!readEnum8(R, SpecTag, 1))
    return false;
  if (SpecTag == 0) {
    PointSpec Spec;
    if (!readPointSpec(R, Spec))
      return false;
    Request.Spec = std::move(Spec);
  } else {
    PolytopeSpec Spec;
    if (!readPolytopeSpec(R, Spec))
      return false;
    Request.Spec = std::move(Spec);
  }
  if (!R.i32(Request.LayerIndex))
    return false;
  std::uint32_t SweepCount = 0;
  if (!R.u32(SweepCount) || !plausibleCount(R, SweepCount, 4))
    return false;
  Request.SweepLayers.resize(SweepCount);
  for (int &Layer : Request.SweepLayers)
    if (!R.i32(Layer))
      return false;
  std::uint8_t Class = 0;
  if (!readEnum8(R, Class, 2))
    return false;
  Request.Class = static_cast<RepairRequest::Priority>(Class);
  return readRepairOptions(R, Request.Options);
}

void prdnn::rpc::writeRepairReport(ByteWriter &W,
                                   const RepairReport &Report) {
  W.u64(Report.JobId);
  W.u8(static_cast<std::uint8_t>(Report.Status));
  W.i32(Report.RepairedLayer);
  writeRepairResult(W, Report.Result);
  W.u32(static_cast<std::uint32_t>(Report.Sweep.size()));
  for (const SweepAttempt &A : Report.Sweep)
    writeSweepAttempt(W, A);
  W.f64(Report.QueueSeconds);
  W.f64(Report.TotalSeconds);
  W.i64(Report.CacheHits);
  W.i64(Report.CacheMisses);
  W.i64(Report.StoreHits);
}

bool prdnn::rpc::readRepairReport(ByteReader &R, RepairReport &Report) {
  std::uint8_t Status = 0;
  if (!R.u64(Report.JobId) || !readEnum8(R, Status, 3))
    return false;
  Report.Status = static_cast<RepairStatus>(Status);
  if (!R.i32(Report.RepairedLayer) || !readRepairResult(R, Report.Result))
    return false;
  std::uint32_t SweepCount = 0;
  if (!R.u32(SweepCount) || !plausibleCount(R, SweepCount, 8))
    return false;
  Report.Sweep.resize(SweepCount);
  for (SweepAttempt &A : Report.Sweep)
    if (!readSweepAttempt(R, A))
      return false;
  return R.f64(Report.QueueSeconds) && R.f64(Report.TotalSeconds) &&
         R.i64(Report.CacheHits) && R.i64(Report.CacheMisses) &&
         R.i64(Report.StoreHits);
}

void prdnn::rpc::writeProgressSnapshot(ByteWriter &W,
                                       const ProgressSnapshot &Snapshot) {
  W.u8(static_cast<std::uint8_t>(Snapshot.Phase));
  W.i64(Snapshot.ItemsDone);
  W.i64(Snapshot.ItemsTotal);
  W.i32(Snapshot.SweepLayer);
  W.i32(Snapshot.SweepDone);
  W.i32(Snapshot.SweepTotal);
  W.u8(Snapshot.CancelRequested ? 1 : 0);
  W.i64(Snapshot.CacheHits);
  W.i64(Snapshot.CacheMisses);
  W.i64(Snapshot.StoreHits);
}

bool prdnn::rpc::readProgressSnapshot(ByteReader &R,
                                      ProgressSnapshot &Snapshot) {
  std::uint8_t Phase = 0, Cancel = 0;
  if (!readEnum8(R, Phase, 5))
    return false;
  Snapshot.Phase = static_cast<RepairPhase>(Phase);
  if (!R.i64(Snapshot.ItemsDone) || !R.i64(Snapshot.ItemsTotal) ||
      !R.i32(Snapshot.SweepLayer) || !R.i32(Snapshot.SweepDone) ||
      !R.i32(Snapshot.SweepTotal) || !readEnum8(R, Cancel, 1) ||
      !R.i64(Snapshot.CacheHits) || !R.i64(Snapshot.CacheMisses) ||
      !R.i64(Snapshot.StoreHits))
    return false;
  Snapshot.CancelRequested = Cancel != 0;
  return true;
}

void prdnn::rpc::writeServiceStats(ByteWriter &W,
                                   const serve::ServiceStats &Stats) {
  W.u64(Stats.Accepted);
  W.u64(Stats.Rejected);
  for (std::uint64_t Count : Stats.RejectsByReason)
    W.u64(Count);
  W.u64(Stats.Registry.Publishes);
  W.u64(Stats.Registry.PublishSkips);
  W.u64(Stats.Registry.Resolves);
  W.u64(Stats.Registry.CacheHits);
  W.u64(Stats.Registry.DiskLoads);
  W.u64(Stats.Registry.NotFound);
  W.u64(Stats.Registry.CorruptRejects);
  W.u64(Stats.Registry.MismatchRejects);
  W.i32(Stats.Admission.Depth);
  for (int Count : Stats.Admission.ByClass)
    W.i32(Count);
  W.f64(Stats.Admission.OldestWaitSeconds);
  W.u64(Stats.Admission.Admitted);
  W.u64(Stats.Admission.SaturatedRejects);
  W.u64(Stats.Admission.QuotaRejects);
  W.i32(Stats.Engine.Depth);
  for (int Count : Stats.Engine.QueuedByClass)
    W.i32(Count);
  W.i32(Stats.Engine.Running);
  W.f64(Stats.Engine.OldestWaitSeconds);
  W.u64(Stats.Cache.Hits);
  W.u64(Stats.Cache.Misses);
  W.u64(Stats.Cache.Evictions);
  W.u64(Stats.Cache.Insertions);
  W.u64(Stats.Cache.BytesHeld);
  W.u64(Stats.Cache.Entries);
  W.u64(Stats.Cache.BudgetBytes);
  W.u8(Stats.Cache.HasStore ? 1 : 0);
  W.u64(Stats.Cache.Store.Hits);
  W.u64(Stats.Cache.Store.Misses);
  W.u64(Stats.Cache.Store.Writes);
  W.u64(Stats.Cache.Store.WriteSkips);
  W.u64(Stats.Cache.Store.Evictions);
  W.u64(Stats.Cache.Store.CorruptSkips);
  W.u64(Stats.Cache.Store.BytesHeld);
  W.u64(Stats.Cache.Store.Entries);
  W.u64(Stats.Cache.Store.BudgetBytes);
  W.u64(Stats.Cache.Store.PendingWrites);
}

bool prdnn::rpc::readServiceStats(ByteReader &R,
                                  serve::ServiceStats &Stats) {
  if (!R.u64(Stats.Accepted) || !R.u64(Stats.Rejected))
    return false;
  for (std::uint64_t &Count : Stats.RejectsByReason)
    if (!R.u64(Count))
      return false;
  if (!R.u64(Stats.Registry.Publishes) ||
      !R.u64(Stats.Registry.PublishSkips) ||
      !R.u64(Stats.Registry.Resolves) ||
      !R.u64(Stats.Registry.CacheHits) ||
      !R.u64(Stats.Registry.DiskLoads) ||
      !R.u64(Stats.Registry.NotFound) ||
      !R.u64(Stats.Registry.CorruptRejects) ||
      !R.u64(Stats.Registry.MismatchRejects))
    return false;
  if (!R.i32(Stats.Admission.Depth))
    return false;
  for (int &Count : Stats.Admission.ByClass)
    if (!R.i32(Count))
      return false;
  if (!R.f64(Stats.Admission.OldestWaitSeconds) ||
      !R.u64(Stats.Admission.Admitted) ||
      !R.u64(Stats.Admission.SaturatedRejects) ||
      !R.u64(Stats.Admission.QuotaRejects))
    return false;
  if (!R.i32(Stats.Engine.Depth))
    return false;
  for (int &Count : Stats.Engine.QueuedByClass)
    if (!R.i32(Count))
      return false;
  if (!R.i32(Stats.Engine.Running) ||
      !R.f64(Stats.Engine.OldestWaitSeconds))
    return false;
  std::uint8_t HasStore = 0;
  if (!R.u64(Stats.Cache.Hits) || !R.u64(Stats.Cache.Misses) ||
      !R.u64(Stats.Cache.Evictions) || !R.u64(Stats.Cache.Insertions) ||
      !R.u64(Stats.Cache.BytesHeld) || !R.u64(Stats.Cache.Entries) ||
      !R.u64(Stats.Cache.BudgetBytes) || !readEnum8(R, HasStore, 1))
    return false;
  Stats.Cache.HasStore = HasStore != 0;
  return R.u64(Stats.Cache.Store.Hits) && R.u64(Stats.Cache.Store.Misses) &&
         R.u64(Stats.Cache.Store.Writes) &&
         R.u64(Stats.Cache.Store.WriteSkips) &&
         R.u64(Stats.Cache.Store.Evictions) &&
         R.u64(Stats.Cache.Store.CorruptSkips) &&
         R.u64(Stats.Cache.Store.BytesHeld) &&
         R.u64(Stats.Cache.Store.Entries) &&
         R.u64(Stats.Cache.Store.BudgetBytes) &&
         R.u64(Stats.Cache.Store.PendingWrites);
}

void prdnn::rpc::writeMetricsSnapshot(ByteWriter &W,
                                      const obs::MetricsSnapshot &Snapshot) {
  W.u64(Snapshot.Samples.size());
  for (const obs::MetricSample &S : Snapshot.Samples) {
    W.str(S.Name);
    W.str(S.Help);
    W.u8(static_cast<std::uint8_t>(S.Type));
    if (S.Type != obs::MetricType::Histogram) {
      W.f64(S.Value);
      continue;
    }
    writeDoubleSeq(W, S.Hist.Edges);
    // Counts are Edges + 1 by construction; the count is implied.
    for (std::uint64_t Count : S.Hist.Counts)
      W.u64(Count);
    W.f64(S.Hist.Sum);
  }
}

bool prdnn::rpc::readMetricsSnapshot(ByteReader &R,
                                     obs::MetricsSnapshot &Snapshot) {
  std::uint64_t NumSamples = 0;
  // Each sample is at least 2 length-prefixed strings + a kind byte.
  if (!R.u64(NumSamples) || !plausibleCount(R, NumSamples, 17))
    return false;
  Snapshot.Samples.clear();
  Snapshot.Samples.reserve(static_cast<std::size_t>(NumSamples));
  for (std::uint64_t I = 0; I < NumSamples; ++I) {
    obs::MetricSample S;
    std::uint8_t Type = 0;
    if (!R.str(S.Name) || !R.str(S.Help) ||
        !readEnum8(R, Type,
                   static_cast<std::uint8_t>(obs::MetricType::Histogram)))
      return false;
    S.Type = static_cast<obs::MetricType>(Type);
    if (S.Type != obs::MetricType::Histogram) {
      if (!R.f64(S.Value))
        return false;
    } else {
      if (!readDoubleSeq(R, S.Hist.Edges))
        return false;
      // A histogram's edges must be strictly ascending and finite - a
      // malformed preset would poison downstream merges.
      for (std::size_t E = 0; E < S.Hist.Edges.size(); ++E) {
        if (!std::isfinite(S.Hist.Edges[E]) ||
            (E > 0 && S.Hist.Edges[E] <= S.Hist.Edges[E - 1])) {
          R.fail(CodecError::Corrupt);
          return false;
        }
      }
      const std::size_t NumBuckets = S.Hist.Edges.size() + 1;
      if (!plausibleCount(R, NumBuckets, 8))
        return false;
      S.Hist.Counts.resize(NumBuckets);
      for (std::uint64_t &Count : S.Hist.Counts)
        if (!R.u64(Count))
          return false;
      if (!R.f64(S.Hist.Sum))
        return false;
    }
    Snapshot.Samples.push_back(std::move(S));
  }
  return true;
}

// --- Frame transport --------------------------------------------------------

namespace {

RpcError sendAll(int Fd, const std::uint8_t *Data, std::size_t Size) {
  std::size_t Sent = 0;
  while (Sent < Size) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must surface as a
    // typed error on this call, not a process-wide SIGPIPE.
    ssize_t N = ::send(Fd, Data + Sent, Size - Sent, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return (errno == EPIPE || errno == ECONNRESET) ? RpcError::Closed
                                                     : RpcError::IoError;
    }
    Sent += static_cast<std::size_t>(N);
  }
  return RpcError::None;
}

/// Reads exactly \p Size bytes. \p ReadSoFar distinguishes orderly EOF
/// at a frame boundary (Closed) from EOF inside a frame (Truncated).
RpcError recvExact(int Fd, std::uint8_t *Data, std::size_t Size,
                   std::size_t &ReadSoFar) {
  std::size_t Got = 0;
  while (Got < Size) {
    ssize_t N = ::recv(Fd, Data + Got, Size - Got, 0);
    if (N == 0)
      return (ReadSoFar + Got) == 0 ? RpcError::Closed : RpcError::Truncated;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return RpcError::Timeout; // SO_RCVTIMEO expired
      if (errno == ECONNRESET)
        return (ReadSoFar + Got) == 0 ? RpcError::Closed
                                      : RpcError::Truncated;
      return RpcError::IoError;
    }
    Got += static_cast<std::size_t>(N);
  }
  ReadSoFar += Got;
  return RpcError::None;
}

} // namespace

RpcError prdnn::rpc::sendFrame(int Fd, MessageKind Kind,
                               const std::vector<std::uint8_t> &Payload,
                               std::uint64_t *BytesSent) {
  std::vector<std::uint8_t> Frame =
      persist::frame(static_cast<std::uint8_t>(Kind), Payload);
  RpcError Err = sendAll(Fd, Frame.data(), Frame.size());
  if (Err == RpcError::None && BytesSent)
    *BytesSent += Frame.size();
  return Err;
}

RpcError prdnn::rpc::recvFrame(int Fd, std::uint8_t &Kind,
                               std::vector<std::uint8_t> &Payload,
                               const WireLimits &Limits,
                               std::uint64_t *BytesReceived) {
  std::uint8_t Header[persist::kFrameHeaderSize];
  std::size_t ReadSoFar = 0;
  RpcError Err = recvExact(Fd, Header, sizeof(Header), ReadSoFar);
  if (Err != RpcError::None)
    return Err;

  std::uint8_t PeekKind = 0;
  std::uint64_t PayloadSize = 0;
  persist::CodecError Peek =
      persist::peekFrame(Header, sizeof(Header), PeekKind, PayloadSize);
  if (Peek != persist::CodecError::None)
    return fromCodecError(Peek);
  // Enforce the bound before allocating: a hostile or corrupt length
  // field cannot force a multi-gigabyte buffer.
  if (PayloadSize > Limits.MaxFrameBytes)
    return RpcError::Oversized;

  std::vector<std::uint8_t> Frame(sizeof(Header) +
                                  static_cast<std::size_t>(PayloadSize) +
                                  persist::kFrameTrailerSize);
  std::memcpy(Frame.data(), Header, sizeof(Header));
  Err = recvExact(Fd, Frame.data() + sizeof(Header),
                  Frame.size() - sizeof(Header), ReadSoFar);
  if (Err != RpcError::None)
    return Err;

  // Full end-to-end validation (digest trailer included): the stream
  // stays in sync either way - exactly one frame was consumed - so a
  // Corrupt verdict leaves the connection recoverable.
  persist::FrameView View;
  persist::CodecError Unframe =
      persist::unframe(Frame.data(), Frame.size(), View);
  if (Unframe != persist::CodecError::None)
    return fromCodecError(Unframe);

  Kind = View.BlobKind;
  Payload.assign(View.Payload, View.Payload + View.PayloadSize);
  if (BytesReceived)
    *BytesReceived += Frame.size();
  return RpcError::None;
}
