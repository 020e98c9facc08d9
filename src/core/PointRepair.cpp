//===- core/PointRepair.cpp -----------------------------------------------===//

#include "core/PointRepair.h"

#include "cache/ArtifactCache.h"
#include "core/RepairContext.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Error.h"
#include "support/Parallel.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>

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

namespace {

/// One LP row over the *effective* (unfrozen) parameters:
/// Coef . Delta <= Hi.
struct SpecRow {
  std::vector<double> Coef;
  double Hi;

  double violationAt(const std::vector<double> &Delta) const {
    double Activity = 0.0;
    for (size_t J = 0; J < Coef.size(); ++J)
      Activity += Coef[J] * Delta[J];
    return Activity - Hi;
  }
};

/// Rows of \p Rows (excluding those marked in \p InLp, when non-null)
/// whose violation at \p Delta exceeds \p Tol, in ascending row order.
/// The scan is chunked across the thread pool; chunks are merged in
/// order, so the result matches the sequential scan exactly.
std::vector<std::pair<double, int>>
violatedRows(const std::vector<SpecRow> &Rows, const std::vector<char> *InLp,
             const std::vector<double> &Delta, double Tol) {
  std::int64_t NumRows = static_cast<std::int64_t>(Rows.size());
  const std::int64_t Grain = 1024;
  std::int64_t NumChunks = (NumRows + Grain - 1) / Grain;
  std::vector<std::vector<std::pair<double, int>>> PerChunk(
      static_cast<size_t>(NumChunks));
  parallelForRanges(
      0, NumRows,
      [&](std::int64_t Begin, std::int64_t End) {
        auto &Local = PerChunk[static_cast<size_t>(Begin / Grain)];
        for (std::int64_t RI = Begin; RI < End; ++RI) {
          if (InLp && (*InLp)[static_cast<size_t>(RI)])
            continue;
          double V = Rows[static_cast<size_t>(RI)].violationAt(Delta);
          if (V > Tol)
            Local.push_back({V, static_cast<int>(RI)});
        }
      },
      Grain);
  std::vector<std::pair<double, int>> Result;
  for (auto &Local : PerChunk)
    Result.insert(Result.end(), Local.begin(), Local.end());
  return Result;
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
  // included - stamps the timing stats consistently.
  double LpSeconds = 0.0;
  int LpIterations = 0;
  int RowsUsed = 0;
  bool Solved = false;

  /// Stamps TotalSeconds and the OtherSeconds remainder on *every* exit
  /// path, early returns and cancellations included.
  auto FinalizeStats = [&] {
    Result.Stats.LpSeconds = LpSeconds;
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

  // --- Jacobian phase (Algorithm 1, lines 4-6) -----------------------------
  // Jacobians come from the batched engine (nn/Jacobian.h) in chunks
  // sized to bound the live J storage, and each chunk's constraint rows
  // are assembled in parallel into preallocated slots (row order - and
  // every row's bits - identical to a per-point paramJacobian loop).
  // Cancellation is polled between chunks, never inside them.
  int NumPoints = static_cast<int>(Spec.size());
  if (Ctx) {
    Ctx->beginPhase(RepairPhase::Jacobian, NumPoints);
    if (Ctx->checkpoint(RepairPhase::Jacobian))
      return Cancelled();
  }
  std::vector<int> RowOffset(static_cast<size_t>(NumPoints) + 1, 0);
  for (int P = 0; P < NumPoints; ++P) {
    assert(Spec[static_cast<size_t>(P)].Constraint.A.cols() ==
               Net.outputSize() &&
           "constraint output dimension mismatch");
    RowOffset[static_cast<size_t>(P) + 1] =
        RowOffset[static_cast<size_t>(P)] +
        Spec[static_cast<size_t>(P)].Constraint.numRows();
  }
  std::vector<SpecRow> Rows(
      static_cast<size_t>(RowOffset[static_cast<size_t>(NumPoints)]));
  {
    WallTimer JacobianTimer;
    /// Stamps the phase time on every exit from this scope, the
    /// mid-phase cancellation returns included.
    auto StampJacobian = [&] {
      Result.Stats.JacobianSeconds = JacobianTimer.seconds();
    };
    // Assembles constraint row K of one point from its Jacobian into
    // (CoefOut, HiOut). Shared by the in-place path and the
    // cached-block path, so both produce identical rows.
    auto AssembleRow = [&](int PointIndex, int K, const JacobianResult &Jr,
                           std::vector<double> &CoefOut, double &HiOut) {
      const OutputConstraint &C =
          Spec[static_cast<size_t>(PointIndex)].Constraint;
      // Row k: (A_k J) Delta <= b_k - A_k N(x) - RowMargin.
      CoefOut.assign(static_cast<size_t>(NumEff), 0.0);
      double Activity = 0.0;
      for (int O = 0; O < C.A.cols(); ++O) {
        double AKo = C.A(K, O);
        if (AKo == 0.0)
          continue;
        Activity += AKo * Jr.Output[O];
        const double *JRow = Jr.J.rowData(O);
        for (int E = 0; E < NumEff; ++E)
          CoefOut[static_cast<size_t>(E)] += AKo * JRow[Effective[E]];
      }
      HiOut = C.B[K] - Activity - Options.RowMargin;
    };
    // Assembles all of point PointIndex's rows into their preallocated
    // Rows slots.
    auto AssembleRows = [&](int PointIndex, const JacobianResult &Jr) {
      const OutputConstraint &C =
          Spec[static_cast<size_t>(PointIndex)].Constraint;
      for (int K = 0; K < C.numRows(); ++K) {
        SpecRow &Row = Rows[static_cast<size_t>(
            RowOffset[static_cast<size_t>(PointIndex)] + K)];
        AssembleRow(PointIndex, K, Jr, Row.Coef, Row.Hi);
      }
    };

    // Batched engine, in chunks capping the live batch storage
    // (Jacobians + stacked backward matrix + layer intermediates) at
    // ~64 MiB, with each chunk's rows assembled in parallel.
    std::int64_t MaxWidth = 0, SumWidths = Net.inputSize();
    for (int I = 0; I < Net.numLayers(); ++I) {
      MaxWidth = std::max<std::int64_t>(MaxWidth,
                                        Net.layer(I).outputSize());
      SumWidths += Net.layer(I).outputSize();
    }
    std::int64_t BytesPerPoint =
        static_cast<std::int64_t>(8) *
        (static_cast<std::int64_t>(Net.outputSize()) * NumParams +
         Net.outputSize() * MaxWidth + SumWidths);
    int ChunkPoints = static_cast<int>(std::clamp<std::int64_t>(
        (64 << 20) / std::max<std::int64_t>(1, BytesPerPoint), 1, 256));

    // The engine's shared artifact cache, when this job carries one:
    // each chunk's assembled rows are addressed by the network
    // fingerprint, the layer, the row margin, the effective-parameter
    // map, and the chunk's points (inputs, pinned patterns, and
    // output constraints) - everything the rows depend on - so a hit
    // is bit-for-bit the block this chunk would assemble.
    ArtifactCache *Cache =
        (Ctx && Options.UseCache) ? Ctx->cache() : nullptr;
    auto ChunkKey = [&](int Base, int Count) {
      Hasher H;
      const NetworkFingerprint &Fp = Ctx->networkFingerprint();
      H.u64(Fp.Digest.Hi);
      H.u64(Fp.Digest.Lo);
      H.i32(LayerIndex);
      H.f64(Options.RowMargin);
      H.i32(NumEff);
      for (int E : Effective)
        H.i32(E);
      H.i32(Count);
      for (int I = 0; I < Count; ++I) {
        const SpecPoint &P = Spec[static_cast<size_t>(Base + I)];
        hashVector(H, P.X);
        H.i32(P.Pattern ? 1 : 0);
        if (P.Pattern)
          hashPattern(H, *P.Pattern);
        hashMatrix(H, P.Constraint.A);
        hashVector(H, P.Constraint.B);
      }
      return CacheKey{ArtifactKind::JacobianRows, H.digest()};
    };
    // One chunk's Jacobians, exactly as the uncached path computes
    // them.
    auto ComputeChunkJacobians = [&](int Base, int Count) {
      std::vector<Vector> Xs;
      std::vector<const NetworkPattern *> Pinned;
      Xs.reserve(static_cast<size_t>(Count));
      Pinned.reserve(static_cast<size_t>(Count));
      bool AnyPinned = false;
      for (int I = 0; I < Count; ++I) {
        const SpecPoint &P = Spec[static_cast<size_t>(Base + I)];
        Xs.push_back(P.X);
        Pinned.push_back(P.Pattern ? &*P.Pattern : nullptr);
        AnyPinned = AnyPinned || P.Pattern.has_value();
      }
      if (!AnyPinned)
        Pinned.clear(); // pure batched forward, no per-row dispatch
      return paramJacobianBatch(Net, LayerIndex, Xs, Pinned);
    };

    for (int Base = 0; Base < NumPoints; Base += ChunkPoints) {
      if (Ctx && Ctx->checkpoint(RepairPhase::Jacobian)) {
        StampJacobian();
        return Cancelled();
      }
      int Count = std::min(ChunkPoints, NumPoints - Base);
      if (!Cache) {
        std::vector<JacobianResult> Jrs = ComputeChunkJacobians(Base, Count);
        parallelFor(0, Count, [&](std::int64_t I) {
          AssembleRows(Base + static_cast<int>(I),
                       Jrs[static_cast<size_t>(I)]);
        });
      } else {
        int ChunkRowBase = RowOffset[static_cast<size_t>(Base)];
        int ChunkRows =
            RowOffset[static_cast<size_t>(Base + Count)] - ChunkRowBase;
        bool Hit = false;
        CacheTier Tier = CacheTier::None;
        auto Artifact = std::static_pointer_cast<const JacobianRowsArtifact>(
            Cache->getOrCompute(
                ChunkKey(Base, Count),
                [&]() -> std::shared_ptr<const CacheArtifact> {
                  auto Block = std::make_shared<JacobianRowsArtifact>();
                  Block->Coef.resize(static_cast<size_t>(ChunkRows));
                  Block->Hi.resize(static_cast<size_t>(ChunkRows));
                  std::vector<JacobianResult> Jrs =
                      ComputeChunkJacobians(Base, Count);
                  parallelFor(0, Count, [&](std::int64_t I) {
                    int PointIndex = Base + static_cast<int>(I);
                    const OutputConstraint &C =
                        Spec[static_cast<size_t>(PointIndex)].Constraint;
                    for (int K = 0; K < C.numRows(); ++K) {
                      size_t Slot = static_cast<size_t>(
                          RowOffset[static_cast<size_t>(PointIndex)] + K -
                          ChunkRowBase);
                      AssembleRow(PointIndex, K,
                                  Jrs[static_cast<size_t>(I)],
                                  Block->Coef[Slot], Block->Hi[Slot]);
                    }
                  });
                  return Block;
                },
                &Hit, &Tier));
        // Copy the (shared, immutable) block into this repair's row
        // slots; copies cannot perturb bits.
        parallelForRanges(0, ChunkRows, [&](std::int64_t BeginR,
                                            std::int64_t EndR) {
          for (std::int64_t RI = BeginR; RI < EndR; ++RI) {
            SpecRow &Row =
                Rows[static_cast<size_t>(ChunkRowBase + RI)];
            Row.Coef = Artifact->Coef[static_cast<size_t>(RI)];
            Row.Hi = Artifact->Hi[static_cast<size_t>(RI)];
          }
        });
        if (Hit) {
          ++Result.Stats.JacobianCacheHits;
          Ctx->noteCacheHits(1);
          if (Tier == CacheTier::L2) {
            ++Result.Stats.JacobianStoreHits;
            Ctx->noteStoreHits(1);
          }
        } else {
          ++Result.Stats.JacobianCacheMisses;
          Ctx->noteCacheMisses(1);
        }
      }
      if (Ctx)
        Ctx->advance(Count);
    }
    StampJacobian();
  }
  Result.Stats.SpecRows = static_cast<int>(Rows.size());

  // --- LP phase (Algorithm 1, lines 7-8) ------------------------------------
  // The engine's cancel flag is threaded into the solver, which polls
  // it between simplex iterations; rounds of constraint generation are
  // additional checkpoints.
  std::vector<double> DeltaEff(static_cast<size_t>(NumEff), 0.0);
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

  // Warm-start basis cache (the fourth artifact kind). The key hashes
  // everything that fixes the LP's *structure* - network fingerprint,
  // layer, effective-parameter map, objective norm, and every used
  // row's coefficient bits in row order - but deliberately not the
  // right-hand sides (Rows[].Hi, which absorb RowMargin and the spec's
  // output bounds) nor DeltaBound: those only move bounds, so a
  // resubmission whose spec drifted in RHS only still finds the entry
  // instead of piling up near-duplicates. Replay, however, is gated on
  // an exact digest of the excluded parts (RhsDigest below): replaying
  // the terminal basis of the *identical* LP re-derives the solution
  // bit-for-bit, whereas warm-starting a drifted LP can terminate at a
  // different equally-optimal basis and change low-order bits - which
  // would break the cache-never-changes-results contract. A
  // digest-mismatched hit therefore solves cold (bit-identical to
  // cache-off by construction) and counts as a basis miss. Equal keys
  // imply an identically-shaped LP, so an exported basis always has
  // the right dimensions for a replayed hit.
  ArtifactCache *BasisCache =
      (Ctx && Options.UseCache) ? Ctx->cache() : nullptr;
  auto BasisKey = [&](const std::vector<int> &Use) {
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
    for (int RI : Use) {
      const std::vector<double> &Coef = Rows[static_cast<size_t>(RI)].Coef;
      H.doubles(Coef.data(), Coef.size());
    }
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

  // One LP and one solver live across the constraint-generation rounds.
  // Round 1 solves cold; each later round appends its new rows and the
  // solver re-optimizes from the previous optimum with the dual simplex
  // (lp/Simplex.h, SimplexSolver). Use lists the LP's rows in order;
  // InLp marks them.
  lp::DeltaLp Lp(NumEff, Options.Objective, Options.DeltaBound);
  std::vector<int> Use;
  std::vector<char> InLp(Rows.size(), 0);
  std::unique_ptr<lp::SimplexSolver> Solver;
  lp::SimplexOptions SolveOptions = LpOptions;
  SolveOptions.ExportBasis = BasisCache != nullptr;

  /// Appends \p NewRows to the LP and solves it: cold in round 1, warm
  /// from the previous round's optimum after that.
  auto SolveRound = [&](const std::vector<int> &NewRows,
                        std::vector<double> &Out) -> lp::SolveStatus {
    for (int RI : NewRows) {
      Lp.addConstraint(Rows[static_cast<size_t>(RI)].Coef, -lp::kInfinity,
                       Rows[static_cast<size_t>(RI)].Hi);
      Use.push_back(RI);
      InLp[static_cast<size_t>(RI)] = 1;
    }
    const lp::LinearProgram &Problem = Lp.problem();
    lp::LpSolution Sol;
    auto Timed = [&](lp::SimplexSolver &S) {
      WallTimer LpTimer;
      Sol = S.solve();
      LpSeconds += LpTimer.seconds();
    };
    auto RunSolve = [&] {
      if (!Solver)
        Solver = std::make_unique<lp::SimplexSolver>(Problem, SolveOptions);
      Timed(*Solver);
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
            BasisKey(Use),
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
          Timed(*Replay);
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
    for (size_t RI = 0; RI < Rows.size(); ++RI)
      if (!InLp[RI])
        Rest.push_back(static_cast<int>(RI));
    return Rest;
  };

  // Constraint generation: start from the rows violated by Delta = 0
  // and add violated rows until the relaxation optimum is feasible for
  // every row (then it is optimal for the full LP).
  std::vector<int> Add;
  for (size_t RI = 0; RI < Rows.size(); ++RI)
    if (Rows[RI].Hi < 0.0)
      Add.push_back(static_cast<int>(RI));

  if (Add.empty()) {
    // Delta = 0 already satisfies the (margined) spec.
    Solved = true;
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

      // Collect rows the relaxation optimum still violates (parallel
      // scan, sequential order).
      std::vector<std::pair<double, int>> Violated =
          violatedRows(Rows, &InLp, DeltaEff, 10 * Options.Lp.FeasTol);
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
        Add.push_back(Violated[K].second);
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
  }

  if (!Solved) {
    Result.Status = RepairStatus::SolverFailure;
    FinalizeStats();
    return Result;
  }

  // --- Apply and verify (Algorithm 1, lines 9-10) ---------------------------
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

  DecoupledNetwork Repaired = DecoupledNetwork::fromNetwork(Net);
  cast<LinearLayer>(Repaired.valueChannel().layer(LayerIndex))
      .addToParams(Result.Delta);

  // Re-verify the specification against the repaired DDNN itself. Max
  // violation is order-independent, so the parallel scan over points is
  // deterministic.
  std::vector<double> PointViolation(static_cast<size_t>(NumPoints), 0.0);
  parallelFor(0, NumPoints, [&](std::int64_t P) {
    const SpecPoint &Point = Spec[static_cast<size_t>(P)];
    Vector Y = Point.Pattern
                   ? Repaired.evaluateWithPattern(Point.X, *Point.Pattern)
                   : Repaired.evaluate(Point.X);
    PointViolation[static_cast<size_t>(P)] = Point.Constraint.violation(Y);
  });
  double Verified = 0.0;
  for (double V : PointViolation)
    Verified = std::max(Verified, V);
  if (Ctx)
    Ctx->advance(NumPoints);
  Result.Stats.VerifiedViolation = Verified;
  if (Verified > 100 * Options.Lp.FeasTol + 1e-9) {
    // The LP said feasible but the network disagrees: numerical failure,
    // never silently accepted.
    Result.Status = RepairStatus::SolverFailure;
    FinalizeStats();
    return Result;
  }

  Result.Repaired = std::move(Repaired);
  Result.Status = RepairStatus::Success;
  FinalizeStats();
  return Result;
}
