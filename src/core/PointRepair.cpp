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
         !std::isnan(O.DeltaBound) && std::isfinite(O.RowMargin) &&
         PositiveFinite(O.Lp.FeasTol) && PositiveFinite(O.Lp.OptTol) &&
         PositiveFinite(O.Lp.PivotTol) && O.Lp.MaxIterations >= 1 &&
         O.Lp.RefactorInterval >= 1 && O.Lp.StallLimit >= 1;
}

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
  // the whole Lp phase (lazy rows, appends, basis-cache work, solves
  // and scans), which is exactly the trace's Lp span.
  std::optional<WallTimer> LpTimer;
  int LpIterations = 0;
  int RowsUsed = 0;
  bool Solved = false;
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
  bool LpCancelled = false;

  // One LP and one solver live across the constraint-generation rounds.
  // Round 1 solves cold; each later round appends its new rows and the
  // solver re-optimizes from the previous optimum with the dual simplex
  // (lp/Simplex.h, SimplexSolver). Use lists the LP's rows in order,
  // UseCoef their coefficients (no other row has any); InLp marks them.
  lp::DeltaLp Lp(NumEff, Options.Objective, Options.DeltaBound);
  std::vector<int> Use;
  std::vector<std::vector<double>> UseCoef;
  std::vector<char> InLp(static_cast<size_t>(NumRows), 0);
  std::unique_ptr<lp::SimplexSolver> Solver;

  // Warm-start basis cache. The key hashes everything that fixes the
  // LP's *structure* - network fingerprint, layer, effective-parameter
  // map, objective norm, and every used row's coefficient bits in row
  // order - but deliberately not the right-hand sides (Rows.hi, which
  // absorb RowMargin and the spec's output bounds) nor DeltaBound: those
  // only move bounds, so a resubmission whose spec drifted in RHS only
  // still finds the entry instead of piling up near-duplicates. Replay,
  // however, is gated on an exact digest of the excluded parts
  // (RhsDigest below): replaying the terminal basis of the *identical*
  // LP re-derives the solution bit-for-bit, whereas warm-starting a
  // drifted LP can terminate at a different equally-optimal basis and
  // change low-order bits - which would break the
  // cache-never-changes-results contract. A digest-mismatched hit
  // therefore solves cold (bit-identical to cache-off by construction)
  // and counts as a basis miss. Equal keys imply an identically-shaped
  // LP, so an exported basis always has the right dimensions for a
  // replayed hit.
  ArtifactCache *BasisCache =
      (Ctx && Options.UseCache) ? Ctx->cache() : nullptr;
  auto BasisKey = [&] {
    Hasher H;
    const NetworkFingerprint &Fp = Ctx->networkFingerprint();
    H.u64(Fp.Digest.Hi);
    H.u64(Fp.Digest.Lo);
    H.i32(LayerIndex);
    H.i32(NumEff);
    for (int E : Effective)
      H.i32(E);
    H.i32(static_cast<int>(Options.Objective));
    H.i32(static_cast<int>(Use.size()));
    for (const std::vector<double> &Coef : UseCoef)
      H.doubles(Coef.data(), Coef.size());
    return CacheKey{ArtifactKind::SimplexBasis, H.digest()};
  };
  /// Digest of everything the basis key leaves out: the built LP's
  /// variable bounds, costs, and row bounds. Key + RhsDigest together
  /// pin the LinearProgram exactly (the key pins the coefficients).
  auto LpRhsDigest = [](const lp::LinearProgram &P) {
    Hasher H;
    H.i32(P.numVariables());
    for (int V = 0; V < P.numVariables(); ++V) {
      H.f64(P.variableLo(V));
      H.f64(P.variableHi(V));
      H.f64(P.objectiveCoef(V));
    }
    H.i32(P.numRows());
    for (int R = 0; R < P.numRows(); ++R) {
      H.f64(P.row(R).Lo);
      H.f64(P.row(R).Hi);
    }
    return H.digest();
  };
  /// Thrown out of the basis-cache compute closure when the solve did
  /// not end Optimal: getOrCompute's exception path releases the
  /// single-flight claim without publishing, so nothing is cached.
  struct NoBasis {};

  lp::SimplexOptions SolveOptions = LpOptions;
  SolveOptions.ExportBasis = BasisCache != nullptr;

  /// Builds \p NewRows' Jacobian rows, appends them to the LP and
  /// solves it: cold in round 1, warm from the previous round's optimum
  /// after that.
  auto SolveRound = [&](const std::vector<int> &NewRows,
                        std::vector<double> &Out) -> lp::SolveStatus {
    // Larger row sets (the Remaining() round) build in several batches,
    // with a cancellation checkpoint between them.
    std::vector<std::vector<double>> NewCoef;
    if (!Rows.coefs(NewRows, NewCoef, [&] {
          return Ctx && Ctx->checkpoint(RepairPhase::Lp);
        })) {
      LpCancelled = true;
      return lp::SolveStatus::Cancelled;
    }
    for (size_t J = 0; J < NewRows.size(); ++J) {
      int RI = NewRows[J];
      Lp.addConstraint(NewCoef[J], -lp::kInfinity, Rows.hi(RI));
      Use.push_back(RI);
      UseCoef.push_back(std::move(NewCoef[J]));
      InLp[static_cast<size_t>(RI)] = 1;
    }
    const lp::LinearProgram &Problem = Lp.problem();
    lp::LpSolution Sol;
    auto RunSolve = [&] {
      if (!Solver)
        Solver = std::make_unique<lp::SimplexSolver>(Problem, SolveOptions);
      Sol = Solver->solve();
    };

    if (!BasisCache) {
      RunSolve();
    } else {
      // Lookup and publish share one getOrCompute so the basis rides
      // the cache's single-flight, read-through, and write-behind
      // machinery: on a miss the compute closure IS this round's solve
      // (exporting its terminal basis), so concurrent jobs racing on
      // one key solve it once and the others replay the shared result.
      Digest128 RhsDigest = LpRhsDigest(Problem);
      bool Hit = false;
      bool RanSolve = false;
      bool Replayed = false;
      CacheTier Tier = CacheTier::None;
      std::shared_ptr<const CacheArtifact> Cached;
      try {
        Cached = BasisCache->getOrCompute(
            BasisKey(),
            [&]() -> std::shared_ptr<const CacheArtifact> {
              RunSolve();
              RanSolve = true;
              if (Sol.Status != lp::SolveStatus::Optimal || !Sol.OptimalBasis)
                throw NoBasis{};
              auto A = std::make_shared<SimplexBasisArtifact>();
              A->NumRows = Sol.OptimalBasis->NumRows;
              A->NumVars = Sol.OptimalBasis->NumVars;
              A->Basic = Sol.OptimalBasis->Basic;
              A->NonbasicState = Sol.OptimalBasis->NonbasicState;
              A->Pivots = Sol.OptimalBasis->Pivots;
              A->RhsDigest = RhsDigest;
              return A;
            },
            &Hit, &Tier);
      } catch (const NoBasis &) {
        // The solve ran but ended non-Optimal; Sol holds its status.
      }
      if (!RanSolve) {
        // Served from cache (L1, L2, or a concurrent job's in-flight
        // solve). Replay only when the RHS digest certifies the cached
        // basis came from this exact LP: a fresh solver started from it
        // re-derives that solve's optimum - and its end state, which
        // the next round continues from - bit for bit. A drifted LP, or
        // a cached basis the solver rejects, gets this round's solve
        // exactly as with the cache off.
        const auto &A = static_cast<const SimplexBasisArtifact &>(*Cached);
        if (A.RhsDigest == RhsDigest) {
          lp::SimplexBasis Warm;
          Warm.NumRows = A.NumRows;
          Warm.NumVars = A.NumVars;
          Warm.Basic = A.Basic;
          Warm.NonbasicState = A.NonbasicState;
          Warm.Pivots = A.Pivots;
          lp::SimplexOptions ReplayOptions = SolveOptions;
          ReplayOptions.WarmBasis = &Warm;
          auto Replay =
              std::make_unique<lp::SimplexSolver>(Problem, ReplayOptions);
          Sol = Replay->solve();
          Replayed = Sol.WarmStarted;
          // In round 1 a rejected basis already ran the cold solve.
          if (Replayed || !Solver) {
            Solver = std::move(Replay);
            RanSolve = true;
          }
        }
        if (!RanSolve)
          RunSolve();
      }
      // A hit counts only when this round replayed the cached basis -
      // never for a warm start from the previous round.
      if (Hit && Replayed) {
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

    LpIterations += Sol.Iterations;
    RowsUsed = static_cast<int>(Use.size());
    Result.Stats.LpKernels.accumulate(Sol.Stats);
    if (Sol.Status == lp::SolveStatus::Optimal)
      Out = Lp.extractDelta(Sol.X);
    if (Sol.Status == lp::SolveStatus::Cancelled)
      LpCancelled = true;
    if (Ctx)
      Ctx->advance(1);
    return Sol.Status;
  };

  /// The rows not yet in the LP, in row order.
  auto Remaining = [&] {
    std::vector<int> Rest;
    for (int RI = 0; RI < NumRows; ++RI)
      if (!InLp[static_cast<size_t>(RI)])
        Rest.push_back(RI);
    return Rest;
  };

  // Constraint generation: start from the rows violated by Delta = 0
  // and add the most violated rows of each relaxation optimum until it
  // is feasible for every row (then it is optimal for the full LP).
  // S holds the latest scan, s_k at the current Delta.
  std::vector<double> S;
  std::vector<int> Add;
  for (int RI = 0; RI < NumRows; ++RI)
    if (Rows.hi(RI) < 0.0)
      Add.push_back(RI);

  if (Add.empty()) {
    // Delta = 0 already satisfies the (margined) spec.
    Solved = true;
    S = Rows.scan(DeltaEff);
  } else {
    for (int Round = 0; Round < Options.MaxCgRounds && !Solved; ++Round) {
      if (Ctx && Ctx->checkpoint(RepairPhase::Lp))
        return Cancelled();
      ++Result.Stats.CgRounds;
      lp::SolveStatus Status = SolveRound(Add, DeltaEff);
      if (LpCancelled)
        return Cancelled();
      if (Status == lp::SolveStatus::Infeasible) {
        // A subset is infeasible, so the full system is too.
        Result.Status = RepairStatus::Infeasible;
        FinalizeStats();
        return Result;
      }
      if (Status != lp::SolveStatus::Optimal)
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
      if (Violated.empty()) {
        Solved = true;
        break;
      }
      int Take = std::min<int>(Options.CgBatch,
                               static_cast<int>(Violated.size()));
      std::partial_sort(Violated.begin(), Violated.begin() + Take,
                        Violated.end(), std::greater<>());
      Add.clear();
      for (int K = 0; K < Take; ++K)
        Add.push_back(Violated[static_cast<size_t>(K)].second);
    }
  }

  if (!Solved) {
    // Generation did not converge in budget (or a round failed):
    // append every remaining row as one more round, which makes the
    // LP the full one (still exact). After an Optimal round this is
    // warm like any other; after a failed one - or with MaxCgRounds =
    // 0, which skips generation - the solver runs cold on every row.
    if (Ctx && Ctx->checkpoint(RepairPhase::Lp))
      return Cancelled();
    lp::SolveStatus Status = SolveRound(Remaining(), DeltaEff);
    if (LpCancelled)
      return Cancelled();
    if (Status == lp::SolveStatus::Infeasible) {
      Result.Status = RepairStatus::Infeasible;
      FinalizeStats();
      return Result;
    }
    Solved = Status == lp::SolveStatus::Optimal;
    if (Solved)
      S = Rows.scan(DeltaEff);
  }

  if (!Solved) {
    Result.Status = RepairStatus::SolverFailure;
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

  double Verified = 0.0;
  for (double V : S)
    Verified = std::max(Verified, V);
  if (Ctx)
    Ctx->advance(NumPoints);
  Result.Stats.VerifiedViolation = Verified;
  Result.Stats.VerifyTolerance = 100 * Options.Lp.FeasTol + 1e-9;
  if (Verified > Result.Stats.VerifyTolerance) {
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
