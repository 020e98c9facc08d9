//===- core/PointRepair.cpp -----------------------------------------------===//

#include "core/PointRepair.h"

#include "cache/ArtifactCache.h"
#include "core/RepairContext.h"
#include "core/SpecRows.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

using namespace prdnn;

const char *prdnn::toString(RepairStatus Status) {
  switch (Status) {
  case RepairStatus::Success:
    return "Success";
  case RepairStatus::Infeasible:
    return "Infeasible";
  case RepairStatus::SolverFailure:
    return "SolverFailure";
  case RepairStatus::Cancelled:
    return "Cancelled";
  }
  // Statuses now travel over the wire (rpc/Wire.h); a value from a
  // foreign peer must print, not abort.
  return "unknown";
}

bool prdnn::validRepairOptions(const RepairOptions &O) {
  auto PositiveFinite = [](double V) { return std::isfinite(V) && V > 0.0; };
  return O.CgBatch >= 1 && O.MaxCgRounds >= 0 &&
         O.DeltaBound > 0.0 && std::isfinite(O.RowMargin) &&
         PositiveFinite(O.Lp.FeasTol) && PositiveFinite(O.Lp.OptTol) &&
         PositiveFinite(O.Lp.PivotTol) && O.Lp.MaxIterations >= 1 &&
         O.Lp.RefactorInterval >= 1 && O.Lp.StallLimit >= 1;
}

namespace {

/// The LpSolution cache key: a digest of every input that fixes the
/// repair LP and its constraint generation (src/cache/README.md).
CacheKey lpSolutionKey(const NetworkFingerprint &Fp, int LayerIndex,
                       const std::vector<int> &Effective,
                       const PointSpec &Spec, const RepairOptions &Options) {
  Hasher H;
  H.u64(Fp.Digest.Hi);
  H.u64(Fp.Digest.Lo);
  H.i32(LayerIndex);
  H.i32(static_cast<int>(Effective.size()));
  for (int E : Effective)
    H.i32(E);
  H.i32(static_cast<int>(Options.Objective));
  H.f64(Options.DeltaBound);
  H.f64(Options.RowMargin);
  H.i32(Options.MaxCgRounds);
  H.i32(Options.CgBatch);
  H.f64(Options.Lp.FeasTol);
  H.f64(Options.Lp.OptTol);
  H.f64(Options.Lp.PivotTol);
  H.i32(Options.Lp.MaxIterations);
  H.i32(Options.Lp.StallLimit);
  H.i32(Options.Lp.RefactorInterval);
  H.i32(static_cast<int>(Spec.size()));
  for (const SpecPoint &Point : Spec) {
    hashVector(H, Point.X);
    const Matrix &A = Point.Constraint.A;
    H.i32(A.rows());
    H.i32(A.cols());
    for (int R = 0; R < A.rows(); ++R)
      H.doubles(A.rowData(R), static_cast<size_t>(A.cols()));
    hashVector(H, Point.Constraint.B);
    H.i32(Point.Pattern ? static_cast<int>(Point.Pattern->Patterns.size())
                        : -1);
    if (Point.Pattern)
      for (const std::vector<int> &Layer : Point.Pattern->Patterns) {
        H.i32(static_cast<int>(Layer.size()));
        H.bytes(Layer.data(), Layer.size() * sizeof(int));
      }
  }
  return {ArtifactKind::LpSolution, H.digest()};
}

} // namespace

RepairResult prdnn::detail::repairPointsImpl(const Network &Net,
                                             int LayerIndex,
                                             const PointSpec &Spec,
                                             const RepairOptions &Options,
                                             JobContext *Ctx) {
  WallTimer Total;
  RepairResult Result;
  Result.Stats.SpecPoints = static_cast<int>(Spec.size());

  // LP accounting, declared up front so every exit path - cancellation
  // included - stamps the timing stats consistently. LpTimer runs for
  // the whole Lp phase (lazy rows, appends, the cache lookup, solves
  // and scans), which is exactly the trace's Lp span.
  std::optional<WallTimer> LpTimer;
  int LpIterations = 0;
  int RowsUsed = 0;
  auto StampLp = [&] {
    if (LpTimer)
      Result.Stats.LpSeconds = LpTimer->seconds();
    LpTimer.reset();
  };

  /// Stamps TotalSeconds and the OtherSeconds remainder on *every* exit
  /// path, early returns and cancellations included.
  auto FinalizeStats = [&] {
    StampLp();
    Result.Stats.LpIterations = LpIterations;
    Result.Stats.LpRowsUsed = RowsUsed;
    Result.Stats.TotalSeconds = Total.seconds();
    Result.Stats.OtherSeconds = std::max(
        0.0, Result.Stats.TotalSeconds - Result.Stats.JacobianSeconds -
                 Result.Stats.LpSeconds);
  };
  auto Cancelled = [&] {
    Result.Status = RepairStatus::Cancelled;
    FinalizeStats();
    return Result;
  };

  const auto *Target = dyn_cast<LinearLayer>(&Net.layer(LayerIndex));
  assert(Target && Target->numParams() > 0 &&
         "repair layer must be a parameterized linear layer");
  int NumParams = Target->numParams();

  // Effective (unfrozen) parameter index map.
  std::vector<int> Effective;
  if (Options.ParamMask) {
    assert(static_cast<int>(Options.ParamMask->size()) == NumParams &&
           "parameter mask size mismatch");
    for (int P = 0; P < NumParams; ++P)
      if ((*Options.ParamMask)[static_cast<size_t>(P)])
        Effective.push_back(P);
  } else {
    Effective.resize(static_cast<size_t>(NumParams));
    std::iota(Effective.begin(), Effective.end(), 0);
  }
  int NumEff = static_cast<int>(Effective.size());
  assert(NumEff > 0 && "all parameters frozen");

  // --- Jacobian phase (Algorithm 1, lines 4-6): forward state ---------------
  // The rows of the LP are built lazily (core/SpecRows.h): this phase
  // records only each point's forward state and every row's right-hand
  // side. Jacobian rows are computed in the LP phase, for the rows
  // constraint generation appends. Cancellation is polled between
  // chunks, never inside them.
  int NumPoints = static_cast<int>(Spec.size());
  if (Ctx) {
    Ctx->beginPhase(RepairPhase::Jacobian, NumPoints);
    if (Ctx->checkpoint(RepairPhase::Jacobian))
      return Cancelled();
  }
  WallTimer JacobianTimer;
  detail::SpecRows Rows(Net, LayerIndex, Spec, Effective, Options.RowMargin);
  int NumRows = Rows.numRows();
  Result.Stats.SpecRows = NumRows;
  for (int Base = 0; Base < NumPoints; Base += Rows.chunkPoints()) {
    if (Ctx && Ctx->checkpoint(RepairPhase::Jacobian)) {
      Result.Stats.JacobianSeconds = JacobianTimer.seconds();
      return Cancelled();
    }
    int Count = std::min(Rows.chunkPoints(), NumPoints - Base);
    Rows.computeState(Base, Base + Count);
    if (Ctx)
      Ctx->advance(Count);
  }
  Result.Stats.JacobianSeconds = JacobianTimer.seconds();

  // --- LP phase (Algorithm 1, lines 7-8) ------------------------------------
  // The engine's cancel flag is threaded into the solver, which polls
  // it between simplex iterations; rounds of constraint generation (and
  // the chunks of a large lazy row build) are additional checkpoints.
  std::vector<double> DeltaEff(static_cast<size_t>(NumEff), 0.0);
  LpTimer.emplace();
  if (Ctx) {
    Ctx->beginPhase(RepairPhase::Lp, /*Total=*/0);
    if (Ctx->checkpoint(RepairPhase::Lp))
      return Cancelled();
  }
  // Thread the job's cancel flag into the solver - unless the caller
  // installed their own flag in Options.Lp, which keeps priority (an
  // engine cancel then still lands at the next CG-round checkpoint,
  // just not mid-solve).
  lp::SimplexOptions LpOptions = Options.Lp;
  if (Ctx && !LpOptions.CancelFlag)
    LpOptions.CancelFlag = Ctx->cancelFlag();

  // S holds the latest scan, s_k at the current Delta; its largest
  // entry is the network-level re-verification (lines 9-10).
  std::vector<double> S;
  const double VerifyTolerance = 100 * Options.Lp.FeasTol + 1e-9;
  auto MaxViolation = [&] {
    double Verified = 0.0;
    for (double V : S)
      Verified = std::max(Verified, V);
    return Verified;
  };

  /// Constraint generation, from Delta = 0 to the LP's optimum. Success
  /// means DeltaEff and S hold that optimum and its scan, still to be
  /// judged by the verification below.
  auto SolveLp = [&]() -> RepairStatus {
    // One LP and one solver live across the constraint-generation
    // rounds. Round 1 solves cold; each later round appends its new
    // rows and the solver re-optimizes from the previous optimum with
    // the dual simplex (lp/Simplex.h, SimplexSolver). InLp marks the
    // rows the LP holds.
    lp::DeltaLp Lp(NumEff, Options.Objective, Options.DeltaBound);
    std::vector<char> InLp(static_cast<size_t>(NumRows), 0);
    std::unique_ptr<lp::SimplexSolver> Solver;

    /// Builds \p NewRows' Jacobian rows, appends them to the LP and
    /// solves it: cold in round 1, warm from the previous round's
    /// optimum after that. Success means DeltaEff holds the optimum.
    auto SolveRound = [&](const std::vector<int> &NewRows) {
      // Each row's coefficients go straight into its LP row, the rows in
      // NewRows' order. Larger row sets (the final all-rows round) build
      // in several batches, with a cancellation checkpoint between them;
      // a cancelled round leaves rows unset, and the LP is dropped.
      int First = Lp.appendConstraints(static_cast<int>(NewRows.size()));
      auto Put = [&](int Position, const double *Coef) {
        int RI = NewRows[static_cast<size_t>(Position)];
        Lp.setConstraint(First + Position, Coef, -lp::kInfinity, Rows.hi(RI));
      };
      if (!Rows.coefs(NewRows, Put, [&] {
            return Ctx && Ctx->checkpoint(RepairPhase::Lp);
          }))
        return RepairStatus::Cancelled;
      for (int RI : NewRows)
        InLp[static_cast<size_t>(RI)] = 1;
      RowsUsed += static_cast<int>(NewRows.size());
      if (!Solver)
        Solver = std::make_unique<lp::SimplexSolver>(Lp.problem(), LpOptions);
      lp::LpSolution Sol = Solver->solve();
      LpIterations += Sol.Iterations;
      Result.Stats.LpKernels.accumulate(Sol.Stats);
      if (Ctx)
        Ctx->advance(1);
      switch (Sol.Status) {
      case lp::SolveStatus::Optimal:
        DeltaEff = Lp.extractDelta(Sol.X);
        return RepairStatus::Success;
      case lp::SolveStatus::Infeasible:
        // A subset of the rows is infeasible, so the full system is too.
        return RepairStatus::Infeasible;
      case lp::SolveStatus::Cancelled:
        return RepairStatus::Cancelled;
      default:
        return RepairStatus::SolverFailure;
      }
    };

    // Start from the rows violated by Delta = 0 and add the most
    // violated rows of each relaxation optimum until it is feasible for
    // every row (then it is optimal for the full LP).
    std::vector<int> Add;
    for (int RI = 0; RI < NumRows; ++RI)
      if (Rows.hi(RI) < 0.0)
        Add.push_back(RI);
    if (Add.empty()) {
      // Delta = 0 already satisfies the (margined) spec.
      S = Rows.scan(DeltaEff);
      return RepairStatus::Success;
    }
    for (int Round = 0; Round < Options.MaxCgRounds; ++Round) {
      if (Ctx && Ctx->checkpoint(RepairPhase::Lp))
        return RepairStatus::Cancelled;
      ++Result.Stats.CgRounds;
      RepairStatus Status = SolveRound(Add);
      if (Status == RepairStatus::Cancelled ||
          Status == RepairStatus::Infeasible)
        return Status;
      if (Status != RepairStatus::Success)
        break; // fall through to the full solve below

      // The rows the relaxation optimum still violates, by a forward
      // scan (s_k + RowMargin is the LP row's own violation).
      S = Rows.scan(DeltaEff);
      std::vector<std::pair<double, int>> Violated;
      for (int RI = 0; RI < NumRows; ++RI) {
        double V = S[static_cast<size_t>(RI)] + Options.RowMargin;
        if (!InLp[static_cast<size_t>(RI)] && V > 10 * Options.Lp.FeasTol)
          Violated.push_back({V, RI});
      }
      if (Violated.empty())
        return RepairStatus::Success;
      int Take = std::min<int>(Options.CgBatch,
                               static_cast<int>(Violated.size()));
      std::partial_sort(Violated.begin(), Violated.begin() + Take,
                        Violated.end(), std::greater<>());
      Add.clear();
      for (int K = 0; K < Take; ++K)
        Add.push_back(Violated[static_cast<size_t>(K)].second);
    }

    // Generation did not converge in budget (or a round failed): append
    // every remaining row as one more round, which makes the LP the
    // full one (still exact). After an Optimal round this is warm like
    // any other; after a failed one - or with MaxCgRounds = 0, which
    // skips generation - the solver runs cold on every row.
    if (Ctx && Ctx->checkpoint(RepairPhase::Lp))
      return RepairStatus::Cancelled;
    std::vector<int> Rest;
    for (int RI = 0; RI < NumRows; ++RI)
      if (!InLp[static_cast<size_t>(RI)])
        Rest.push_back(RI);
    RepairStatus Status = SolveRound(Rest);
    if (Status == RepairStatus::Success)
      S = Rows.scan(DeltaEff);
    return Status;
  };

  // The LP is fixed by the network, the layer, the spec and the
  // options, so one cache entry serves the whole repair: its solved
  // Delta, keyed by every input of the LP and of constraint generation
  // (see src/cache/README.md). A miss runs SolveLp inside the compute
  // closure, so concurrent jobs on one key solve once; only a Delta
  // that passed re-verification is published. A hit skips the LP and
  // re-verifies the cached Delta with one scan.
  RepairStatus Outcome = RepairStatus::SolverFailure;
  ArtifactCache *Cache = (Ctx && Options.UseCache) ? Ctx->cache() : nullptr;
  if (!Cache) {
    Outcome = SolveLp();
  } else {
    /// Thrown out of the compute closure when SolveLp produced no
    /// verified Delta: getOrCompute's exception path releases the
    /// single-flight claim without publishing, so nothing is cached.
    struct Unpublished {};
    bool Hit = false;
    bool Ran = false;
    CacheTier Tier = CacheTier::None;
    std::shared_ptr<const CacheArtifact> Cached;
    try {
      Cached = Cache->getOrCompute(
          lpSolutionKey(Ctx->networkFingerprint(), LayerIndex, Effective,
                        Spec, Options),
          [&]() -> std::shared_ptr<const CacheArtifact> {
            Ran = true;
            Outcome = SolveLp();
            if (Outcome != RepairStatus::Success ||
                MaxViolation() > VerifyTolerance)
              throw Unpublished{};
            auto A = std::make_shared<LpSolutionArtifact>();
            A->Delta = DeltaEff;
            A->LpRowsUsed = RowsUsed;
            A->CgRounds = Result.Stats.CgRounds;
            return A;
          },
          &Hit, &Tier);
    } catch (const Unpublished &) {
    }
    if (!Ran) {
      // Served from cache (L1, L2, or a concurrent job's in-flight
      // solve). Store data is untrusted: a Delta of the wrong length,
      // or one that fails re-verification, is discarded and the LP
      // solved exactly as with the cache off.
      const auto &A = static_cast<const LpSolutionArtifact &>(*Cached);
      bool Usable = static_cast<int>(A.Delta.size()) == NumEff &&
                    std::all_of(A.Delta.begin(), A.Delta.end(),
                                [](double D) { return std::isfinite(D); });
      if (Usable) {
        S = Rows.scan(A.Delta);
        Usable = MaxViolation() <= VerifyTolerance;
      }
      if (Usable) {
        DeltaEff = A.Delta;
        RowsUsed = A.LpRowsUsed;
        Result.Stats.CgRounds = A.CgRounds;
        Outcome = RepairStatus::Success;
      } else {
        Hit = false;
        Outcome = SolveLp();
      }
    }
    if (Hit) {
      ++Result.Stats.BasisHits;
      Ctx->noteCacheHits(1);
      if (Tier == CacheTier::L2) {
        ++Result.Stats.BasisStoreHits;
        Ctx->noteStoreHits(1);
      }
    } else {
      ++Result.Stats.BasisMisses;
      Ctx->noteCacheMisses(1);
    }
  }

  if (Outcome != RepairStatus::Success) {
    Result.Status = Outcome;
    FinalizeStats();
    return Result;
  }
  StampLp();

  // --- Apply and verify (Algorithm 1, lines 9-10) ---------------------------
  // The last scan evaluated the repaired DDNN at every spec point, so
  // its largest violation over all rows - LP rows included - is the
  // network-level re-verification.
  if (Ctx) {
    Ctx->beginPhase(RepairPhase::Verify, NumPoints);
    if (Ctx->checkpoint(RepairPhase::Verify))
      return Cancelled();
  }
  Result.Delta.assign(static_cast<size_t>(NumParams), 0.0);
  for (int E = 0; E < NumEff; ++E)
    Result.Delta[static_cast<size_t>(Effective[E])] = DeltaEff[E];
  for (double D : Result.Delta) {
    Result.DeltaL1 += std::fabs(D);
    Result.DeltaLInf = std::max(Result.DeltaLInf, std::fabs(D));
  }

  if (Ctx)
    Ctx->advance(NumPoints);
  Result.Stats.VerifiedViolation = MaxViolation();
  Result.Stats.VerifyTolerance = VerifyTolerance;
  if (Result.Stats.VerifiedViolation > VerifyTolerance) {
    // The LP said feasible but the network disagrees: numerical failure,
    // never silently accepted.
    Result.Status = RepairStatus::SolverFailure;
    FinalizeStats();
    return Result;
  }

  DecoupledNetwork Repaired = DecoupledNetwork::fromNetwork(Net);
  cast<LinearLayer>(Repaired.valueChannel().layer(LayerIndex))
      .addToParams(Result.Delta);
  Result.Repaired = std::move(Repaired);
  Result.Status = RepairStatus::Success;
  FinalizeStats();
  return Result;
}
