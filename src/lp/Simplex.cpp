//===- lp/Simplex.cpp - bounded-variable revised simplex -------------------===//
//
// Implementation notes. The LP
//
//   min c.x   s.t.  RowLo <= A x <= RowHi,  VarLo <= x <= VarHi
//
// is rewritten with one slack per row as the equality system
//
//   [A | -I] z = 0,    z = (x, s),   s_i in [RowLo_i, RowHi_i].
//
// The initial basis is the slack set (basis matrix -I), which is always
// nonsingular; phase 1 then minimizes the total bound violation of the
// basic variables (composite phase-1 for bounded variables, cf. Chvatal
// ch. 8), after which phase 2 minimizes the true objective. The basis
// inverse is kept densely and updated with product-form (eta) pivots;
// it is recomputed from scratch by Gauss-Jordan elimination periodically
// and before any terminal status is reported, so returned solutions are
// always re-verified against a freshly factorized basis.
//
// Kernel parallelism. Once M >= ParallelMinRows, the dense inner
// kernels that measured faster blocked run on the shared
// support/Parallel.h pool under the library-wide determinism contract -
// every output element keeps the exact accumulation order of the scalar
// loop, and block merges are deterministic - so a solve is bit-for-bit
// identical at any thread count (same pivot sequence, same LpSolution
// bits; enforced by tests/lp_test.cpp). The crossover is derived from
// M alone, never configured. Per-kernel notes:
//  - Dantzig pricing: one batched reduced-cost pass rc = c - A~^T y over
//    column-blocked ColA (slack columns are the -I block); per-block
//    candidates merge in ascending block order with the scalar scan's
//    strict-> rule, so the chosen column matches the scalar earliest-
//    max exactly. Bland's rule always runs the scalar scan, whose early
//    exit beats any blocked sweep.
//  - FTRAN: row-blocked matvec; each output element is one sequential
//    dot in the scalar order.
//  - refactorization / eta update / basic values / bordered append:
//    the O(M^2)-per-step row updates parallelize over rows; each row's
//    arithmetic is independent of the partitioning.
//  - BTRAN and the ratio test stay scalar: blocked, both measured
//    slower on the repair LPs (src/lp/README.md).
// See src/lp/README.md for the full contract.
//
// Incremental solves (SimplexSolver). The first solve is the cold
// primal solve above. A later solve appends the rows added to the
// problem since, with their slacks basic: the new basis is
// [[B, 0], [C, -I]] (C = the new rows' entries in the basic columns),
// whose inverse [[B^-1, 0], [C B^-1, -I]] is bordered onto Binv in
// O(k M^2) instead of refactorized. The previous optimum stays dual-
// feasible, so a bounded dual simplex re-optimizes from it: the leaving
// row is the most infeasible basic variable, its Binv row is the pivot
// row, alpha_j = rho . A~_j comes from one column-blocked pass like
// pricing, a Harris ratio test on |d_j / alpha_j| picks the entering
// column, and the reduced costs are updated from the pivot row instead
// of a BTRAN. The primal phases then verify the result exactly as they
// verify a cold solve; a dual phase that finds no entering column
// (primal infeasible) or gives up hands its basis to primal phase 1.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "support/Error.h"
#include "support/Parallel.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

using namespace prdnn;
using namespace prdnn::lp;

const char *prdnn::lp::toString(SolveStatus Status) {
  switch (Status) {
  case SolveStatus::Optimal:
    return "Optimal";
  case SolveStatus::Infeasible:
    return "Infeasible";
  case SolveStatus::Unbounded:
    return "Unbounded";
  case SolveStatus::IterationLimit:
    return "IterationLimit";
  case SolveStatus::NumericalError:
    return "NumericalError";
  case SolveStatus::Cancelled:
    return "Cancelled";
  }
  // Statuses now travel over the wire (rpc/Wire.h); a value from a
  // foreign peer must print, not abort.
  return "unknown";
}

namespace {

enum class VarStatus : uint8_t { Basic, AtLower, AtUpper, FreeNb };

/// Kept-row count from which the blocked kernels engage; smaller LPs
/// (the many per-layer solves of an engine sweep) pay no pool-dispatch
/// cost. Purely a performance crossover: results are identical either
/// side of it.
constexpr int ParallelMinRows = 192;

/// Accumulates the enclosing scope's wall time into a SimplexStats
/// field; timing never feeds back into any computed value, so the
/// instrumentation cannot perturb determinism.
class KernelTimer {
public:
  explicit KernelTimer(double &Accumulator) : Accumulator(Accumulator) {}
  ~KernelTimer() { Accumulator += Timer.seconds(); }
  KernelTimer(const KernelTimer &) = delete;
  KernelTimer &operator=(const KernelTimer &) = delete;

private:
  double &Accumulator;
  WallTimer Timer;
};

} // namespace

/// The solver state of a SimplexSolver; owns all scaled problem data
/// and factorizations, which persist from one solve to the next.
class SimplexSolver::Worker {
public:
  Worker(const LinearProgram &Problem, const SimplexOptions &Options)
      : Prob(Problem), Opt(Options) {}

  LpSolution solve();

private:
  const LinearProgram &Prob;
  SimplexOptions Opt;

  // Shapes: M kept rows, NS structural variables, NT = NS + M total.
  int M = 0, NS = 0, NT = 0;
  std::vector<int> KeptRows;     // worker row -> original row index
  std::vector<double> ColA;      // column-major scaled A, entry (i,j) at
                                 // j*M + i
  std::vector<double> RowScale;  // per kept row
  std::vector<double> Lo, Hi, Cost; // per total variable
  std::vector<int> Basis;           // var basic in each row
  std::vector<VarStatus> Stat;      // per total variable
  std::vector<double> X;            // per total variable
  std::vector<double> Binv;         // dense M*M, row-major
  std::vector<double> W, Y, Cb, Rhs;
  std::vector<double> Alpha; // NT pivot-row entries (dual phase)

  // Blocked-kernel state. All scratch lives on the Worker and is sized
  // in sizeScratch() before any iteration, so the iteration hot loop
  // allocates nothing (asserted in debug builds via the capacity
  // watermark).
  bool Par = false; // M >= ParallelMinRows for the current shape
  static constexpr int PriceGrain = 64; // columns per pricing block
  int NumPriceBlocks = 0; // 1 (all of [0, NT)) unless Par
  std::vector<double> Rc; // NT reduced costs (batched pass, dual phase)
  std::vector<double> PriceBlockScore; // per pricing block: Dantzig best
  std::vector<int> PriceBlockJ, PriceBlockSigma;
  std::vector<double> RefB; // refactor scratch

  SimplexStats Stats;

  int Iterations = 0;
  int Phase1Iterations = 0;
  int PivotsSinceRefactor = 0;
  bool Bland = false;
  int Stall = 0;
  double PrevObj = 0.0;
  bool HavePrevObj = false;
  bool WarmStartedV = false; // warm basis accepted for this solve
  /// Problem rows taken in so far (kept or dropped by presolve).
  int RowsSeen = 0;
  /// The last solve ended Optimal: its basis is dual-feasible for the
  /// problem with rows appended, so the next solve can continue warm.
  bool HaveOptimum = false;
  /// Binv is exactly what refactor() would compute from Basis: no pivot
  /// and no row append since the last successful refactorization.
  bool Fresh = false;

#ifndef NDEBUG
  // Per-iteration-allocation guard: capacities of every hot-loop
  // buffer, snapshotted after setup; iterate() asserts the counter of
  // capacity changes stays zero.
  std::vector<size_t> ScratchWatermark, ScratchCapsNow;
  void collectScratchCaps(std::vector<size_t> &Out) const;
  void snapshotScratch();
  int scratchGrowths();
#endif

  /// Runs \p Body(R) for every row R in [Begin, End): on the pool once
  /// Par, in order otherwise. Each row must write only its own outputs.
  template <typename FnT> void forEachRow(int Begin, int End, FnT &&Body) {
    if (Par)
      parallelFor(Begin, End,
                  [&](std::int64_t R) { Body(static_cast<int>(R)); });
    else
      for (int R = Begin; R < End; ++R)
        Body(R);
  }
  /// Runs \p Body(Begin, End) over the NumPriceBlocks column blocks of
  /// [0, NT): PriceGrain-wide blocks on the pool once Par, one block
  /// otherwise.
  template <typename FnT> void forEachPriceBlock(FnT &&Body) {
    if (Par)
      parallelForRanges(0, NT, Body, PriceGrain);
    else
      Body(0, NT);
  }

  enum class RowKind { Kept, Vacuous, Infeasible };
  RowKind presolveRow(int I) const;
  /// Scales kept row \p R (problem row KeptRows[R]) into RowScale,
  /// ColA (stride M) and its slack's bounds.
  void loadRow(int R);
  bool buildProblem(LpSolution &Out); // false => Out holds final status
  /// Takes in the rows appended to the problem since the last solve,
  /// their slacks basic, bordering Binv (the caller re-sizes scratch and
  /// recomputes basic values); false => Out holds the status.
  bool appendRows(LpSolution &Out);
  void sizeScratch();
  void initialBasis();
  void setSlackBasis();
  bool tryWarmStart(const SimplexBasis &Warm);
  bool refactor();
  void recomputeBasicValues();
  double infeasibility() const;
  double currentObjective() const;
  double columnDot(const double *Vec, int J) const;
  void computeColumn(int J);
  void computeDuals();
  bool isFixed(int J) const { return Hi[J] - Lo[J] <= 1e-30; }

  /// The one pricing rule, shared by Dantzig and Bland pricing, the
  /// batched reduced costs and the dual-feasibility verification:
  /// prices column \p J against the current duals Y and returns the
  /// improving direction (+1 rising from lower / free, -1 falling from
  /// upper / free) or 0. Skips basic and fixed columns, leaving
  /// \p RcOut untouched; otherwise stores the reduced cost there.
  int priceColumn(int J, bool Phase1, double &RcOut) const {
    VarStatus S = Stat[static_cast<size_t>(J)];
    if (S == VarStatus::Basic || isFixed(J))
      return 0;
    double RcJ = (Phase1 ? 0.0 : Cost[static_cast<size_t>(J)]) -
                 columnDot(Y.data(), J);
    RcOut = RcJ;
    if ((S == VarStatus::AtLower || S == VarStatus::FreeNb) &&
        RcJ < -Opt.OptTol)
      return 1;
    if ((S == VarStatus::AtUpper || S == VarStatus::FreeNb) &&
        RcJ > Opt.OptTol)
      return -1;
    return 0;
  }

  int chooseEntering(bool Phase1, int &SigmaOut);
  /// Reduced-cost pass over every nonbasic, unfixed column into Rc (no
  /// candidate selection), column-blocked once Par; used by the dual
  /// phase and the dual-feasibility verification.
  void batchReducedCosts(bool Phase1);

  struct RatioResult {
    double T = 0.0;
    int Row = -1;
    bool LeaveAtUpper = false;
    bool BoundFlip = false;
    bool Unbounded = false;
  };
  RatioResult ratioTest(int J, int Sigma, bool Phase1);

  /// How far the entering step travels before basic row \p R blocks it
  /// (Blocking false if it never does).
  struct RowLimit {
    double Limit = 0.0;
    double WAbs = 0.0;
    bool AtUpper = false;
    bool Blocking = false;
  };
  RowLimit rowLimit(int R, int Sigma, bool Phase1) const {
    RowLimit Out;
    double Wr = W[static_cast<size_t>(R)];
    if (std::fabs(Wr) <= Opt.PivotTol)
      return Out;
    double Delta = -Sigma * Wr; // d X[Basis[R]] / d t
    int K = Basis[static_cast<size_t>(R)];
    double V = X[static_cast<size_t>(K)];
    double FeasEps = Opt.FeasTol;

    double Limit = kInfinity;
    bool AtUpper = false;
    if (Phase1 && V < Lo[K] - FeasEps) {
      // Infeasible below its lower bound: blocks only when rising back
      // to that bound.
      if (Delta > 0.0) {
        Limit = (Lo[K] - V) / Delta;
        AtUpper = false;
      }
    } else if (Phase1 && V > Hi[K] + FeasEps) {
      if (Delta < 0.0) {
        Limit = (Hi[K] - V) / Delta;
        AtUpper = true;
      }
    } else if (Delta > 0.0) {
      if (std::isfinite(Hi[K])) {
        Limit = (Hi[K] - V) / Delta;
        AtUpper = true;
      }
    } else { // Delta < 0
      if (std::isfinite(Lo[K])) {
        Limit = (Lo[K] - V) / Delta;
        AtUpper = false;
      }
    }
    if (!std::isfinite(Limit))
      return Out;
    if (Limit < 0.0)
      Limit = 0.0; // degenerate: basic already (numerically) at bound
    Out.Limit = Limit;
    Out.WAbs = std::fabs(Wr);
    Out.AtUpper = AtUpper;
    Out.Blocking = true;
    return Out;
  }

  /// The incumbent-relative acceptance rule of the ratio test. Prefer
  /// strictly smaller ratios; within a small tie window prefer the
  /// larger pivot magnitude for numerical stability (or the lowest basis
  /// index under Bland's rule). Ties against a bound flip (BestRow < 0)
  /// keep the flip, which is the cheapest step.
  bool ratioBetter(double Limit, double WAbs, int Row, double BestT,
                   int BestRow, double BestPivotMag) const {
    if (!std::isfinite(BestT) || Limit < BestT - 1e-9 * (1.0 + BestT))
      return true;
    if (Limit <= BestT + 1e-9 * (1.0 + BestT) && BestRow >= 0) {
      if (Bland)
        return Basis[static_cast<size_t>(Row)] <
               Basis[static_cast<size_t>(BestRow)];
      return WAbs > BestPivotMag;
    }
    return false;
  }
  void applyStep(int J, int Sigma, const RatioResult &R);
  void updateBinv(int PivotRow);

  SolveStatus iterate(bool Phase1);

  /// Dual simplex. Optimal: primal feasible. Infeasible: a primal-
  /// infeasible row admits no entering column (dual unbounded).
  /// NumericalError: the phase gave up (stalled, or FTRAN disagreed
  /// with the pivot row). Cancelled / IterationLimit as in iterate().
  SolveStatus dualPhase();
  /// The most infeasible basic row (-1 when primal feasible).
  int chooseLeavingRow(bool &ToUpper) const;
  /// Alpha[j] = rho . A~_j over the nonbasic, unfixed columns, with rho
  /// row \p R of Binv.
  void pivotRowAlphas(int R);
  /// Harris ratio test on |Rc[j] / Alpha[j]|; -1 when no column enters.
  int dualRatioTest(bool ToUpper, int &SigmaOut);

  LpSolution coldSolve();
  /// Primal phases 1 and 2 from the current basis, each verdict checked
  /// against a fresh factorization.
  LpSolution primalPhases();
  LpSolution finish(SolveStatus Status);
};

#ifndef NDEBUG
void SimplexSolver::Worker::collectScratchCaps(
    std::vector<size_t> &Out) const {
  Out.clear();
  Out.push_back(W.capacity());
  Out.push_back(Y.capacity());
  Out.push_back(Cb.capacity());
  Out.push_back(Rhs.capacity());
  Out.push_back(Binv.capacity());
  Out.push_back(X.capacity());
  Out.push_back(Basis.capacity());
  Out.push_back(Rc.capacity());
  Out.push_back(Alpha.capacity());
  Out.push_back(PriceBlockScore.capacity());
  Out.push_back(PriceBlockJ.capacity());
  Out.push_back(PriceBlockSigma.capacity());
  Out.push_back(RefB.capacity());
}

void SimplexSolver::Worker::snapshotScratch() {
  collectScratchCaps(ScratchWatermark);
  ScratchCapsNow.reserve(ScratchWatermark.capacity());
}

/// Number of hot-loop buffers whose capacity changed since the
/// snapshot - i.e. per-iteration allocations. Must stay 0.
int SimplexSolver::Worker::scratchGrowths() {
  collectScratchCaps(ScratchCapsNow);
  if (ScratchCapsNow.size() != ScratchWatermark.size())
    return static_cast<int>(ScratchCapsNow.size() + ScratchWatermark.size());
  int Growths = 0;
  for (size_t I = 0; I < ScratchCapsNow.size(); ++I)
    Growths += ScratchCapsNow[I] != ScratchWatermark[I];
  return Growths;
}
#endif

SimplexSolver::Worker::RowKind
SimplexSolver::Worker::presolveRow(int I) const {
  // Light presolve: drop rows with no nonzero coefficients. Such a row
  // is vacuous when 0 lies within its bounds and makes the whole LP
  // infeasible otherwise.
  const LpRow &Row = Prob.row(I);
  for (double V : Row.Value)
    if (V != 0.0)
      return RowKind::Kept;
  return Row.Lo > Opt.FeasTol || Row.Hi < -Opt.FeasTol ? RowKind::Infeasible
                                                       : RowKind::Vacuous;
}

void SimplexSolver::Worker::loadRow(int R) {
  // Row equilibration: divide each row (and its bounds) by its largest
  // coefficient magnitude so feasibility tolerances are meaningful.
  const LpRow &Row = Prob.row(KeptRows[R]);
  double Scale = 1.0;
  if (Opt.ScaleRows) {
    double MaxAbs = 0.0;
    for (double V : Row.Value)
      MaxAbs = std::max(MaxAbs, std::fabs(V));
    if (MaxAbs > 0.0)
      Scale = MaxAbs;
  }
  RowScale[R] = Scale;
  for (size_t K = 0; K < Row.Index.size(); ++K) {
    int J = Row.Index[K];
    ColA[static_cast<size_t>(J) * M + R] += Row.Value[K] / Scale;
  }
  Lo[NS + R] = Row.Lo / Scale;
  Hi[NS + R] = Row.Hi / Scale;
}

bool SimplexSolver::Worker::buildProblem(LpSolution &Out) {
  NS = Prob.numVariables();
  KeptRows.clear();
  for (int I = 0; I < Prob.numRows(); ++I) {
    RowKind Kind = presolveRow(I);
    if (Kind == RowKind::Infeasible) {
      Out = LpSolution();
      Out.Status = SolveStatus::Infeasible;
      return false;
    }
    if (Kind == RowKind::Kept)
      KeptRows.push_back(I);
  }
  RowsSeen = Prob.numRows();
  M = static_cast<int>(KeptRows.size());
  NT = NS + M;

  RowScale.assign(static_cast<size_t>(M), 1.0);
  ColA.assign(static_cast<size_t>(M) * static_cast<size_t>(NS), 0.0);
  Lo.resize(NT);
  Hi.resize(NT);
  Cost.assign(static_cast<size_t>(NT), 0.0);
  for (int J = 0; J < NS; ++J) {
    Lo[J] = Prob.variableLo(J);
    Hi[J] = Prob.variableHi(J);
    Cost[J] = Prob.objectiveCoef(J);
  }
  for (int R = 0; R < M; ++R)
    loadRow(R);
  return true;
}

bool SimplexSolver::Worker::appendRows(LpSolution &Out) {
  int OldM = M;
  for (int I = RowsSeen; I < Prob.numRows(); ++I) {
    RowKind Kind = presolveRow(I);
    if (Kind == RowKind::Infeasible) {
      Out = LpSolution();
      Out.Status = SolveStatus::Infeasible;
      return false;
    }
    if (Kind == RowKind::Kept)
      KeptRows.push_back(I);
  }
  RowsSeen = Prob.numRows();
  M = static_cast<int>(KeptRows.size());
  if (M == OldM)
    return true;
  NT = NS + M;
  size_t Ms = static_cast<size_t>(M), OldMs = static_cast<size_t>(OldM);

  // Re-stride Binv (row-major) from OldM to M in place, back to front:
  // every row moves to a higher address, so a row never lands on one
  // not yet moved. Its new columns start at zero. Capacity grows by
  // doubling the row count, so Binv reallocates O(log rounds) times.
  if (Binv.capacity() < Ms * Ms)
    Binv.reserve(std::max(Ms * Ms, 4 * Binv.capacity()));
  Binv.resize(Ms * Ms);
  for (int R = OldM - 1; R >= 0; --R) {
    double *Row = Binv.data() + static_cast<size_t>(R) * Ms;
    std::memmove(Row, Binv.data() + static_cast<size_t>(R) * OldMs,
                 OldMs * sizeof(double));
    std::fill(Row + OldM, Row + M, 0.0);
  }

  // ColA (column-major, stride M) is rebuilt from the problem rather
  // than re-strided: the old copy goes first, so the largest buffer of
  // the solve is never held twice. Every row reloads to the same bits.
  std::vector<double>().swap(ColA);
  ColA.assign(Ms * static_cast<size_t>(NS), 0.0);
  RowScale.resize(Ms);
  Lo.resize(static_cast<size_t>(NT));
  Hi.resize(static_cast<size_t>(NT));
  Cost.resize(static_cast<size_t>(NT), 0.0);
  Stat.resize(static_cast<size_t>(NT), VarStatus::Basic);
  X.resize(static_cast<size_t>(NT), 0.0);
  Basis.resize(Ms);
  for (int R = 0; R < M; ++R)
    loadRow(R);
  for (int R = OldM; R < M; ++R)
    Basis[R] = NS + R; // the new slacks are basic

  // Bordered inverse: with the new slacks basic the basis is
  // [[B, 0], [C, -I]], C holding the new rows' entries in the basic
  // columns (old slack columns have none), and its inverse is
  // [[B^-1, 0], [C B^-1, -I]]. Each new row is independent.
  Par = M >= ParallelMinRows;
  {
    KernelTimer Timer(Stats.UpdateSeconds);
    forEachRow(OldM, M, [&](int R) {
      double *Row = Binv.data() + static_cast<size_t>(R) * Ms;
      for (int P = 0; P < OldM; ++P) {
        int J = Basis[P];
        if (J >= NS)
          continue;
        double C = ColA[static_cast<size_t>(J) * Ms + R];
        if (C != 0.0)
          linalg::kernelAxpy(Row, Binv.data() + static_cast<size_t>(P) * Ms,
                             C, OldM, Opt.Determinism);
      }
      Row[R] = -1.0;
    });
  }
  Fresh = false;
  return true;
}

void SimplexSolver::Worker::sizeScratch() {
  // Every per-iteration buffer - refactorization scratch, reduced costs,
  // pivot row, pricing blocks - is sized for the current shape here, so
  // no iteration ever allocates.
  size_t Ms = static_cast<size_t>(M);
  W.resize(Ms);
  Y.resize(Ms);
  Cb.resize(Ms);
  Rhs.resize(Ms);
  Rc.resize(static_cast<size_t>(NT));
  Alpha.resize(static_cast<size_t>(NT));
  RefB.resize(Ms * Ms); // released by finish(): see there
  NumPriceBlocks = Par ? (NT + PriceGrain - 1) / PriceGrain : 1;
  PriceBlockScore.resize(static_cast<size_t>(NumPriceBlocks));
  PriceBlockJ.resize(static_cast<size_t>(NumPriceBlocks));
  PriceBlockSigma.resize(static_cast<size_t>(NumPriceBlocks));
#ifndef NDEBUG
  snapshotScratch();
#endif
}

void SimplexSolver::Worker::initialBasis() {
  Basis.resize(M);
  Stat.assign(static_cast<size_t>(NT), VarStatus::AtLower);
  X.assign(static_cast<size_t>(NT), 0.0);
  Binv.assign(static_cast<size_t>(M) * M, 0.0);
  sizeScratch();
  setSlackBasis();
}

void SimplexSolver::Worker::setSlackBasis() {
  // The cold starting point: every structural nonbasic at its
  // "cheaper" bound (or free at zero) and the always-nonsingular slack
  // basis with inverse -I. Also the bit-exact fallback target when a
  // warm basis is rejected: it rebuilds Stat/X/Basis/Binv wholesale, so
  // a failed warm attempt leaves no trace in any computed value.
  for (int J = 0; J < NS; ++J) {
    bool LoFinite = std::isfinite(Lo[J]);
    bool HiFinite = std::isfinite(Hi[J]);
    if (!LoFinite && !HiFinite) {
      Stat[J] = VarStatus::FreeNb;
      X[J] = 0.0;
    } else if (LoFinite && (!HiFinite || std::fabs(Lo[J]) <= std::fabs(Hi[J]))) {
      Stat[J] = VarStatus::AtLower;
      X[J] = Lo[J];
    } else {
      Stat[J] = VarStatus::AtUpper;
      X[J] = Hi[J];
    }
  }
  std::fill(Binv.begin(), Binv.end(), 0.0);
  Fresh = false; // -I, but not refactor()'s bits (its zeros are -0.0)
  for (int R = 0; R < M; ++R) {
    Basis[R] = NS + R;
    Stat[NS + R] = VarStatus::Basic;
    X[NS + R] = 0.0;
    Binv[static_cast<size_t>(R) * M + R] = -1.0;
  }
  recomputeBasicValues();
}

bool SimplexSolver::Worker::tryWarmStart(const SimplexBasis &Warm) {
  // Validation pass - no Worker state is touched until the snapshot is
  // known to be structurally coherent for *this* LP: exact dimensions,
  // status bytes in range, exactly M basic variables listed once each
  // in Basic[] and marked basic, and bound states only where the bound
  // exists. (The basis-cache key is tolerant of RHS-only drift, so a
  // coherent basis may still be primal-infeasible here; phase 1 repairs
  // that from the warm point, which is the cheap crash we want.)
  if (Warm.NumRows != M || Warm.NumVars != NT)
    return false;
  if (static_cast<int>(Warm.Basic.size()) != M ||
      static_cast<int>(Warm.NonbasicState.size()) != NT)
    return false;
  int BasicCount = 0;
  for (int J = 0; J < NT; ++J) {
    std::uint8_t S = Warm.NonbasicState[J];
    if (S > static_cast<std::uint8_t>(VarStatus::FreeNb))
      return false;
    if (S == static_cast<std::uint8_t>(VarStatus::Basic))
      ++BasicCount;
    if (S == static_cast<std::uint8_t>(VarStatus::AtLower) &&
        !std::isfinite(Lo[J]))
      return false;
    if (S == static_cast<std::uint8_t>(VarStatus::AtUpper) &&
        !std::isfinite(Hi[J]))
      return false;
  }
  if (BasicCount != M)
    return false;
  std::vector<char> InBasis(static_cast<size_t>(NT), 0);
  for (int R = 0; R < M; ++R) {
    int J = Warm.Basic[R];
    if (J < 0 || J >= NT || InBasis[static_cast<size_t>(J)] ||
        Warm.NonbasicState[static_cast<size_t>(J)] !=
            static_cast<std::uint8_t>(VarStatus::Basic))
      return false;
    InBasis[static_cast<size_t>(J)] = 1;
  }

  // Apply, then refactorize once from scratch. A structurally coherent
  // basis can still be numerically singular (e.g. duplicated structural
  // columns); refactor() detects that and we fall back to the slack
  // basis, which rebuilds every mutated buffer - the cold path then
  // proceeds bit-identically to a solve that never saw the warm basis.
  for (int J = 0; J < NT; ++J) {
    switch (static_cast<VarStatus>(Warm.NonbasicState[J])) {
    case VarStatus::Basic:
      Stat[J] = VarStatus::Basic; // X filled by recomputeBasicValues
      break;
    case VarStatus::AtLower:
      Stat[J] = VarStatus::AtLower;
      X[J] = Lo[J];
      break;
    case VarStatus::AtUpper:
      Stat[J] = VarStatus::AtUpper;
      X[J] = Hi[J];
      break;
    case VarStatus::FreeNb:
      Stat[J] = VarStatus::FreeNb;
      X[J] = 0.0;
      break;
    }
  }
  for (int R = 0; R < M; ++R)
    Basis[R] = Warm.Basic[R];
  if (!refactor()) {
    setSlackBasis();
    return false;
  }
  recomputeBasicValues();
  return true;
}

bool SimplexSolver::Worker::refactor() {
  // Rebuild Binv from the current basis by Gauss-Jordan elimination with
  // partial pivoting, with B in the hoisted RefB scratch and the inverse
  // built in place in Binv (a failure leaves Binv unusable; every caller
  // then either stops or resets the basis). The row-elimination updates
  // parallelize over rows: each row's arithmetic is independent of the
  // partitioning, so the factorization is bit-identical to the serial
  // one.
  KernelTimer Timer(Stats.RefactorSeconds);
  ++Stats.Refactors;
  std::vector<double> &B = RefB;
  std::vector<double> &Inv = Binv;
  std::fill(B.begin(), B.end(), 0.0);
  forEachRow(0, M, [&](int R) { // column R of B
    int J = Basis[R];
    if (J < NS) {
      const double *Col = ColA.data() + static_cast<size_t>(J) * M;
      for (int I = 0; I < M; ++I)
        B[static_cast<size_t>(I) * M + R] = Col[I];
    } else {
      B[static_cast<size_t>(J - NS) * M + R] = -1.0;
    }
  });
  std::fill(Inv.begin(), Inv.end(), 0.0);
  for (int I = 0; I < M; ++I)
    Inv[static_cast<size_t>(I) * M + I] = 1.0;

  for (int K = 0; K < M; ++K) {
    int Pivot = K;
    double Best = std::fabs(B[static_cast<size_t>(K) * M + K]);
    for (int I = K + 1; I < M; ++I) {
      double Mag = std::fabs(B[static_cast<size_t>(I) * M + K]);
      if (Mag > Best) {
        Best = Mag;
        Pivot = I;
      }
    }
    if (Best < 1e-12)
      return false;
    if (Pivot != K)
      for (int C = 0; C < M; ++C) {
        std::swap(B[static_cast<size_t>(K) * M + C],
                  B[static_cast<size_t>(Pivot) * M + C]);
        std::swap(Inv[static_cast<size_t>(K) * M + C],
                  Inv[static_cast<size_t>(Pivot) * M + C]);
      }
    double Scale = 1.0 / B[static_cast<size_t>(K) * M + K];
    for (int C = 0; C < M; ++C) {
      B[static_cast<size_t>(K) * M + C] *= Scale;
      Inv[static_cast<size_t>(K) * M + C] *= Scale;
    }
    forEachRow(0, M, [&](int I) {
      if (I == K)
        return;
      double Factor = B[static_cast<size_t>(I) * M + K];
      if (Factor == 0.0)
        return;
      // y -= F * x as axpy(y, x, -F): exact in IEEE, so the Strict bits
      // match the fused loop; splitting B/Inv into two sweeps only
      // reorders independent elementwise updates.
      linalg::kernelAxpy(B.data() + static_cast<size_t>(I) * M,
                         B.data() + static_cast<size_t>(K) * M, -Factor, M,
                         Opt.Determinism);
      linalg::kernelAxpy(Inv.data() + static_cast<size_t>(I) * M,
                         Inv.data() + static_cast<size_t>(K) * M, -Factor, M,
                         Opt.Determinism);
    });
  }
  PivotsSinceRefactor = 0;
  Fresh = true;
  return true;
}

void SimplexSolver::Worker::recomputeBasicValues() {
  // Basic values solve B xB = -N xN (the equality rhs is zero).
  std::fill(Rhs.begin(), Rhs.end(), 0.0);
  for (int J = 0; J < NT; ++J) {
    if (Stat[J] == VarStatus::Basic || X[J] == 0.0)
      continue;
    if (J < NS) {
      const double *Col = ColA.data() + static_cast<size_t>(J) * M;
      linalg::kernelAxpy(Rhs.data(), Col, -X[J], M, Opt.Determinism);
    } else {
      Rhs[J - NS] += X[J];
    }
  }
  // Basic entries of X are distinct slots, so the row-blocked matvec
  // writes disjointly; each element keeps its scalar accumulation order.
  forEachRow(0, M, [&](int R) {
    X[Basis[R]] = linalg::kernelDot(
        Binv.data() + static_cast<size_t>(R) * M, Rhs.data(), M,
        Opt.Determinism);
  });
}

double SimplexSolver::Worker::infeasibility() const {
  // Sums violations that exceed the per-variable feasibility tolerance.
  // Using the same threshold as the phase-1 cost classification keeps
  // the two consistent: a state with only sub-tolerance violations is
  // feasible and has a zero phase-1 gradient.
  double Total = 0.0;
  for (int R = 0; R < M; ++R) {
    int K = Basis[R];
    double V = X[K];
    if (V < Lo[K] - Opt.FeasTol)
      Total += Lo[K] - V;
    else if (V > Hi[K] + Opt.FeasTol)
      Total += V - Hi[K];
  }
  return Total;
}

double SimplexSolver::Worker::currentObjective() const {
  double Sum = 0.0;
  for (int J = 0; J < NT; ++J)
    if (Cost[J] != 0.0)
      Sum += Cost[J] * X[J];
  return Sum;
}

double SimplexSolver::Worker::columnDot(const double *Vec, int J) const {
  if (J >= NS)
    return -Vec[J - NS];
  const double *Col = ColA.data() + static_cast<size_t>(J) * M;
  return linalg::kernelDot(Vec, Col, M, Opt.Determinism);
}

void SimplexSolver::Worker::computeColumn(int J) {
  // FTRAN: W = Binv * Atilde_J. Row-blocked parallel matvec; every
  // W[R] is one sequential dot in the scalar order, so partitioning
  // cannot move a single bit.
  KernelTimer Timer(Stats.FtranSeconds);
  if (J >= NS) {
    int K = J - NS;
    for (int R = 0; R < M; ++R)
      W[R] = -Binv[static_cast<size_t>(R) * M + K];
    return;
  }
  const double *Col = ColA.data() + static_cast<size_t>(J) * M;
  forEachRow(0, M, [&](int R) {
    W[R] = linalg::kernelDot(Binv.data() + static_cast<size_t>(R) * M, Col,
                             M, Opt.Determinism);
  });
}

void SimplexSolver::Worker::computeDuals() {
  // BTRAN: Y^T = Cb^T Binv, one axpy per basic row with a nonzero cost.
  // Scalar at every size: the column-blocked version re-walks every
  // basic row per block and measured slower (src/lp/README.md).
  KernelTimer Timer(Stats.BtranSeconds);
  std::fill(Y.begin(), Y.end(), 0.0);
  for (int R = 0; R < M; ++R) {
    double C = Cb[R];
    if (C == 0.0)
      continue;
    linalg::kernelAxpy(Y.data(), Binv.data() + static_cast<size_t>(R) * M,
                       C, M, Opt.Determinism);
  }
}

int SimplexSolver::Worker::chooseEntering(bool Phase1, int &SigmaOut) {
  KernelTimer Timer(Stats.PricingSeconds);
  if (Bland) {
    // Bland's rule: the first improving index. One scan at every size:
    // its early exit beats any blocked sweep.
    for (int J = 0; J < NT; ++J) {
      double RcJ = 0.0;
      if (int Sigma = priceColumn(J, Phase1, RcJ)) {
        SigmaOut = Sigma;
        return J;
      }
    }
    SigmaOut = 0;
    return -1;
  }
  // Full Dantzig pricing (best |rc|) as one reduced-cost pass rc =
  // c - A~^T y over the column blocks of ColA (slack columns j >= NS are
  // the -I block inside columnDot). Each column's dot keeps the scalar
  // accumulation order; each block keeps a running best under the
  // strict-> rule (earliest index kept on ties), and blocks merge in
  // ascending order under the same rule - so the winner is exactly a
  // single scan's earliest-max. Partial pricing was tried and reverted:
  // on the repair LPs' split-variable columns it zigzags into iteration
  // blow-ups that dwarf the per-iteration savings.
  forEachPriceBlock([&](std::int64_t Begin, std::int64_t End) {
    size_t Block = static_cast<size_t>(Begin / PriceGrain);
    double BestScore = Opt.OptTol;
    int BestJ = -1;
    int BestSigma = 0;
    for (std::int64_t J = Begin; J < End; ++J) {
      double RcJ = 0.0;
      int Sigma = priceColumn(static_cast<int>(J), Phase1, RcJ);
      if (Sigma == 0)
        continue;
      double Score = std::fabs(RcJ);
      if (Score > BestScore) {
        BestScore = Score;
        BestJ = static_cast<int>(J);
        BestSigma = Sigma;
      }
    }
    PriceBlockScore[Block] = BestScore;
    PriceBlockJ[Block] = BestJ;
    PriceBlockSigma[Block] = BestSigma;
  });

  double BestScore = Opt.OptTol;
  int BestJ = -1;
  int BestSigma = 0;
  for (int Block = 0; Block < NumPriceBlocks; ++Block) {
    if (PriceBlockJ[Block] >= 0 && PriceBlockScore[Block] > BestScore) {
      BestScore = PriceBlockScore[Block];
      BestJ = PriceBlockJ[Block];
      BestSigma = PriceBlockSigma[Block];
    }
  }
  SigmaOut = BestSigma;
  return BestJ;
}

void SimplexSolver::Worker::batchReducedCosts(bool Phase1) {
  KernelTimer Timer(Stats.PricingSeconds);
  // Rc[J] stays untouched (stale) for skipped basic/fixed columns,
  // which no reader consults.
  forEachPriceBlock([&](std::int64_t Begin, std::int64_t End) {
    for (std::int64_t J = Begin; J < End; ++J)
      priceColumn(static_cast<int>(J), Phase1, Rc[static_cast<size_t>(J)]);
  });
}

SimplexSolver::Worker::RatioResult
SimplexSolver::Worker::ratioTest(int J, int Sigma, bool Phase1) {
  // One scan in row order: the tie window is relative to the incumbent
  // BestT, which drifts across ties, so the winner is order-dependent.
  // A blocked preselection plus serial merge measured slower
  // (src/lp/README.md).
  KernelTimer Timer(Stats.RatioSeconds);
  RatioResult Result;
  double BestT = kInfinity;
  bool BestIsFlip = false;
  int BestRow = -1;
  bool BestAtUpper = false;
  double BestPivotMag = 0.0;

  // The entering variable's own travel between its bounds.
  if (std::isfinite(Lo[J]) && std::isfinite(Hi[J])) {
    BestT = Hi[J] - Lo[J];
    BestIsFlip = true;
  }

  for (int R = 0; R < M; ++R) {
    RowLimit L = rowLimit(R, Sigma, Phase1);
    if (!L.Blocking)
      continue;
    if (ratioBetter(L.Limit, L.WAbs, R, BestT, BestRow, BestPivotMag)) {
      BestT = L.Limit;
      BestRow = R;
      BestAtUpper = L.AtUpper;
      BestPivotMag = L.WAbs;
      BestIsFlip = false;
    }
  }

  if (!std::isfinite(BestT)) {
    Result.Unbounded = true;
    return Result;
  }
  Result.T = BestT;
  Result.Row = BestRow;
  Result.LeaveAtUpper = BestAtUpper;
  Result.BoundFlip = BestIsFlip;
  return Result;
}

void SimplexSolver::Worker::applyStep(int J, int Sigma,
                                      const RatioResult &R) {
  // Pivot-sequence digest (order-sensitive FNV-1a): entering index,
  // direction, and bound-flip vs. (row, leaving side). Tests compare it
  // across thread counts - equal hashes mean the blocked kernels walked
  // the same pivot path at every pool size.
  auto Mix = [this](std::uint64_t V) {
    Stats.PivotHash = (Stats.PivotHash ^ V) * 0x100000001b3ULL;
  };
  Mix(static_cast<std::uint64_t>(J));
  Mix(static_cast<std::uint64_t>(Sigma + 2));
  if (R.BoundFlip) {
    ++Stats.BoundFlips;
    Mix(~std::uint64_t{0});
  } else {
    ++Stats.Pivots;
    Mix(static_cast<std::uint64_t>(R.Row));
    Mix(R.LeaveAtUpper ? 3 : 5);
  }

  double T = R.T;
  // Move all basic variables along the step direction.
  if (T != 0.0)
    for (int Row = 0; Row < M; ++Row)
      X[Basis[Row]] -= Sigma * T * W[Row];

  if (R.BoundFlip) {
    X[J] = Sigma > 0 ? Hi[J] : Lo[J];
    Stat[J] = Sigma > 0 ? VarStatus::AtUpper : VarStatus::AtLower;
    return;
  }

  assert(R.Row >= 0 && "pivot without a blocking row");
  int Leaving = Basis[R.Row];
  X[Leaving] = R.LeaveAtUpper ? Hi[Leaving] : Lo[Leaving];
  Stat[Leaving] = R.LeaveAtUpper ? VarStatus::AtUpper : VarStatus::AtLower;

  X[J] += Sigma * T;
  Basis[R.Row] = J;
  Stat[J] = VarStatus::Basic;
  updateBinv(R.Row);
  ++PivotsSinceRefactor;
}

void SimplexSolver::Worker::updateBinv(int PivotRow) {
  // Product-form update: with W = Binv * Atilde_entering, the new inverse
  // is E * Binv where E differs from the identity only in column
  // PivotRow. Rows other than the pivot row update independently, so
  // the eta update parallelizes over rows bit-identically.
  KernelTimer Timer(Stats.UpdateSeconds);
  Fresh = false;
  double Pivot = W[PivotRow];
  assert(std::fabs(Pivot) > 0.0 && "zero pivot in eta update");
  double *PivRow = Binv.data() + static_cast<size_t>(PivotRow) * M;
  double Inv = 1.0 / Pivot;
  for (int C = 0; C < M; ++C)
    PivRow[C] *= Inv;
  forEachRow(0, M, [&](int R) {
    if (R == PivotRow)
      return;
    double Factor = W[R];
    if (Factor == 0.0)
      return;
    linalg::kernelAxpy(Binv.data() + static_cast<size_t>(R) * M, PivRow,
                       -Factor, M, Opt.Determinism);
  });
}

int SimplexSolver::Worker::chooseLeavingRow(bool &ToUpper) const {
  // Largest primal infeasibility, earliest row on ties; the threshold
  // matches infeasibility(), so -1 here means infeasibility() == 0.
  int Best = -1;
  double Worst = 0.0;
  for (int R = 0; R < M; ++R) {
    int K = Basis[R];
    double V = X[K];
    double Infeas = V < Lo[K] - Opt.FeasTol   ? Lo[K] - V
                    : V > Hi[K] + Opt.FeasTol ? V - Hi[K]
                                              : 0.0;
    if (Infeas > Worst) {
      Worst = Infeas;
      Best = R;
      ToUpper = V > Hi[K];
    }
  }
  return Best;
}

void SimplexSolver::Worker::pivotRowAlphas(int R) {
  // The pivot row in the column-blocked pricing layout: each Alpha[J]
  // is one sequential dot, so partitioning cannot move a bit.
  KernelTimer Timer(Stats.PricingSeconds);
  const double *Rho = Binv.data() + static_cast<size_t>(R) * M;
  forEachPriceBlock([&](std::int64_t Begin, std::int64_t End) {
    for (std::int64_t J = Begin; J < End; ++J) {
      int Jc = static_cast<int>(J);
      if (Stat[static_cast<size_t>(J)] != VarStatus::Basic && !isFixed(Jc))
        Alpha[static_cast<size_t>(J)] = columnDot(Rho, Jc);
    }
  });
}

int SimplexSolver::Worker::dualRatioTest(bool ToUpper, int &SigmaOut) {
  // The leaving variable must rise to its lower bound (S = +1) or fall
  // to its upper bound (S = -1); it moves by -Sigma * t * Alpha[J] as
  // column J enters in direction Sigma, so J qualifies when
  // S * Sigma * Alpha[J] < 0. Its dual slack Sigma * Rc[J] >= 0 shrinks
  // by |theta * Alpha[J]|. Harris's two passes: bound the step with the
  // dual slacks relaxed by OptTol, then take the largest |Alpha| within
  // that bound - a small ratio on a tiny pivot loses to a stable one.
  KernelTimer Timer(Stats.RatioSeconds);
  double S = ToUpper ? -1.0 : 1.0;
  auto Direction = [&](int J) {
    switch (Stat[static_cast<size_t>(J)]) {
    case VarStatus::AtLower:
      return 1;
    case VarStatus::AtUpper:
      return -1;
    case VarStatus::FreeNb:
      return S * Alpha[static_cast<size_t>(J)] > 0.0 ? -1 : 1;
    case VarStatus::Basic:
      break;
    }
    return 0;
  };
  auto Eligible = [&](int J, int &Sigma, double &Slack, double &Mag) {
    if (Stat[static_cast<size_t>(J)] == VarStatus::Basic || isFixed(J))
      return false;
    double A = Alpha[static_cast<size_t>(J)];
    Mag = std::fabs(A);
    Sigma = Direction(J);
    if (Mag <= Opt.PivotTol || S * Sigma * A >= 0.0)
      return false;
    Slack = std::max(0.0, Sigma * Rc[static_cast<size_t>(J)]);
    return true;
  };

  double Bound = kInfinity;
  for (int J = 0; J < NT; ++J) {
    int Sigma;
    double Slack, Mag;
    if (Eligible(J, Sigma, Slack, Mag))
      Bound = std::min(Bound, (Slack + Opt.OptTol) / Mag);
  }
  int Best = -1;
  double BestMag = 0.0;
  for (int J = 0; J < NT && std::isfinite(Bound); ++J) {
    int Sigma;
    double Slack, Mag;
    if (Eligible(J, Sigma, Slack, Mag) && Slack / Mag <= Bound &&
        Mag > BestMag) {
      Best = J;
      BestMag = Mag;
      SigmaOut = Sigma;
    }
  }
  return Best;
}

SolveStatus SimplexSolver::Worker::dualPhase() {
  // Reduced costs of the dual-feasible starting basis: one BTRAN and
  // one batched pass; from then on the pivot row updates them.
  auto FreshReducedCosts = [&] {
    for (int R = 0; R < M; ++R)
      Cb[R] = Cost[Basis[R]];
    computeDuals();
    batchReducedCosts(/*Phase1=*/false);
  };
  FreshReducedCosts();
  int ZeroSteps = 0;
  while (true) {
    if (Opt.CancelFlag && Opt.CancelFlag->load(std::memory_order_relaxed))
      return SolveStatus::Cancelled;
    assert(scratchGrowths() == 0 &&
           "simplex hot loop allocated: a per-iteration scratch buffer "
           "grew after setup");
    if (Iterations >= Opt.MaxIterations)
      return SolveStatus::IterationLimit;
    if (PivotsSinceRefactor >= Opt.RefactorInterval) {
      if (!refactor())
        return SolveStatus::NumericalError;
      recomputeBasicValues();
      FreshReducedCosts();
    }

    bool ToUpper = false;
    int R = chooseLeavingRow(ToUpper);
    if (R < 0)
      return SolveStatus::Optimal;
    pivotRowAlphas(R);
    int Sigma = 0;
    int J = dualRatioTest(ToUpper, Sigma);
    if (J < 0)
      return SolveStatus::Infeasible;
    computeColumn(J);
    // FTRAN must agree with the pivot row on the pivot's sign; if drift
    // makes them disagree, the primal phases take over.
    double AlphaJ = Alpha[static_cast<size_t>(J)];
    if (std::fabs(W[R]) <= Opt.PivotTol || W[R] * AlphaJ <= 0.0)
      return SolveStatus::NumericalError;

    int Leaving = Basis[R];
    RatioResult Step;
    Step.T = (X[Leaving] - (ToUpper ? Hi[Leaving] : Lo[Leaving])) /
             (Sigma * W[R]);
    Step.Row = R;
    Step.LeaveAtUpper = ToUpper;
    // Dual step theta zeroes the entering reduced cost: d_j -= theta *
    // alpha_j, and the leaving variable's becomes -theta (alpha = 1).
    double Theta = (ToUpper ? 1.0 : -1.0) *
                   std::max(0.0, Sigma * Rc[static_cast<size_t>(J)]) /
                   std::fabs(AlphaJ);
    {
      KernelTimer Timer(Stats.PricingSeconds);
      for (int K = 0; K < NT && Theta != 0.0; ++K) {
        size_t Ks = static_cast<size_t>(K);
        if (Stat[Ks] != VarStatus::Basic && !isFixed(K))
          Rc[Ks] -= Theta * Alpha[Ks];
      }
      Rc[static_cast<size_t>(Leaving)] = -Theta;
    }
    applyStep(J, Sigma, Step);
    ++Iterations;
    // Dual degeneracy can cycle; a long run of zero steps hands the
    // basis to the primal phases and their Bland's-rule guard.
    ZeroSteps = Theta == 0.0 ? ZeroSteps + 1 : 0;
    if (ZeroSteps >= Opt.StallLimit)
      return SolveStatus::NumericalError;
  }
}

SolveStatus SimplexSolver::Worker::iterate(bool Phase1) {
  Bland = false;
  Stall = 0;
  HavePrevObj = false;
  while (true) {
    // Cooperative cancellation: a relaxed load per iteration is noise
    // next to the O(M * NT) pricing pass below.
    if (Opt.CancelFlag &&
        Opt.CancelFlag->load(std::memory_order_relaxed))
      return SolveStatus::Cancelled;
    assert(scratchGrowths() == 0 &&
           "simplex hot loop allocated: a per-iteration scratch buffer "
           "grew after setup");
    if (Iterations >= Opt.MaxIterations)
      return SolveStatus::IterationLimit;
    if (PivotsSinceRefactor >= Opt.RefactorInterval) {
      if (!refactor())
        return SolveStatus::NumericalError;
      recomputeBasicValues();
    }

    double Obj;
    if (Phase1) {
      double Infeas = infeasibility();
      if (Infeas == 0.0)
        return SolveStatus::Optimal; // feasible; caller verifies
      for (int R = 0; R < M; ++R) {
        int K = Basis[R];
        double V = X[K];
        Cb[R] = V < Lo[K] - Opt.FeasTol   ? -1.0
                : V > Hi[K] + Opt.FeasTol ? 1.0
                                          : 0.0;
      }
      Obj = Infeas;
    } else {
      for (int R = 0; R < M; ++R)
        Cb[R] = Cost[Basis[R]];
      Obj = currentObjective();
    }
    computeDuals();

    // Cycling guard: no measurable progress for StallLimit iterations
    // switches pricing to Bland's rule until progress resumes.
    if (HavePrevObj && Obj >= PrevObj - 1e-12) {
      if (++Stall >= Opt.StallLimit)
        Bland = true;
    } else {
      Stall = 0;
      Bland = false;
    }
    PrevObj = Obj;
    HavePrevObj = true;

    int Sigma = 0;
    int Entering = chooseEntering(Phase1, Sigma);
    if (Entering < 0)
      return Phase1 ? SolveStatus::Infeasible : SolveStatus::Optimal;

    computeColumn(Entering);
    RatioResult R = ratioTest(Entering, Sigma, Phase1);
    if (R.Unbounded) {
      // A cost-improving ray. In phase 1 the objective is bounded below
      // by zero, so an unbounded ray indicates numerical trouble.
      return Phase1 ? SolveStatus::NumericalError : SolveStatus::Unbounded;
    }
    applyStep(Entering, Sigma, R);
    ++Iterations;
    if (Phase1)
      ++Phase1Iterations;
  }
}

LpSolution SimplexSolver::Worker::finish(SolveStatus Status) {
  LpSolution Out;
  Out.Status = Status;
  Out.Iterations = Iterations;
  Out.Phase1Iterations = Phase1Iterations;
  Stats.Iterations = Iterations;
  Out.WarmStarted = WarmStartedV;
  HaveOptimum = Status == SolveStatus::Optimal;
  // Between solves the solver keeps what the next one continues from;
  // the refactorization scratch, as large as Binv, is released and
  // re-sized by the next solve.
  std::vector<double>().swap(RefB);
  if (Status != SolveStatus::Optimal) {
    Out.Stats = Stats;
    return Out;
  }

  if (Opt.ExportBasis) {
    auto B = std::make_shared<SimplexBasis>();
    B->NumRows = M;
    B->NumVars = NT;
    B->Basic = Basis;
    B->NonbasicState.resize(static_cast<size_t>(NT));
    for (int J = 0; J < NT; ++J)
      B->NonbasicState[static_cast<size_t>(J)] =
          static_cast<std::uint8_t>(Stat[static_cast<size_t>(J)]);
    B->Pivots = Stats.Pivots;
    Out.OptimalBasis = std::move(B);
  }

  Out.X.assign(X.begin(), X.begin() + NS);
  Out.Objective = Prob.objectiveValue(Out.X);

  // Duals: Y was last computed with phase-2 basic costs; unscale rows
  // and scatter over dropped (vacuous) rows.
  for (int R = 0; R < M; ++R)
    Cb[R] = Cost[Basis[R]];
  computeDuals();
  Out.RowDuals.assign(static_cast<size_t>(Prob.numRows()), 0.0);
  for (int R = 0; R < M; ++R)
    Out.RowDuals[KeptRows[R]] = Y[R] / RowScale[R];
  Out.Stats = Stats;
  return Out;
}

LpSolution SimplexSolver::Worker::solve() {
  Stats = SimplexStats();
  Iterations = 0;
  Phase1Iterations = 0;
  WarmStartedV = false;
  if (!HaveOptimum)
    return coldSolve();
  HaveOptimum = false; // until this solve ends Optimal again

  LpSolution Early;
  if (!appendRows(Early)) {
    Early.Stats = Stats;
    return Early;
  }
  sizeScratch();
  recomputeBasicValues();
  SolveStatus Dual = dualPhase();
  if (Dual == SolveStatus::Cancelled || Dual == SolveStatus::IterationLimit)
    return finish(Dual);
  if (Dual != SolveStatus::Optimal) {
    // No entering column (the LP is infeasible, which primal phase 1
    // confirms the way a cold solve does) or the dual phase gave up:
    // the primal phases continue from a clean factorization.
    if (!Fresh && !refactor())
      return finish(SolveStatus::NumericalError);
    recomputeBasicValues();
  }
  // After an Optimal dual phase these only verify: phase 1 sees a
  // feasible basis, refactorizes it and re-checks; phase 2 confirms
  // dual feasibility.
  return primalPhases();
}

LpSolution SimplexSolver::Worker::coldSolve() {
  // The warm basis serves the first solve only; the pointee need not
  // outlive it.
  const SimplexBasis *WarmBasis = Opt.WarmBasis;
  Opt.WarmBasis = nullptr;

  LpSolution Early;
  if (!buildProblem(Early))
    return Early;

  // Kernel-path decision, made once per shape: the blocked kernels only
  // pay off when the O(M^2) FTRAN/update and O(M * NT) pricing passes
  // dominate the pool-dispatch cost.
  Par = M >= ParallelMinRows;

  // Trivial cases first; neither leaves a basis to continue from.
  if (NS == 0) {
    LpSolution Out;
    Out.Status = SolveStatus::Optimal;
    Out.RowDuals.assign(static_cast<size_t>(Prob.numRows()), 0.0);
    return Out;
  }
  if (M == 0) {
    LpSolution Out;
    Out.X.resize(NS);
    for (int J = 0; J < NS; ++J) {
      double C = Prob.objectiveCoef(J);
      double L = Prob.variableLo(J), H = Prob.variableHi(J);
      if (C > 0.0) {
        if (!std::isfinite(L)) {
          Out.Status = SolveStatus::Unbounded;
          Out.X.clear();
          return Out;
        }
        Out.X[J] = L;
      } else if (C < 0.0) {
        if (!std::isfinite(H)) {
          Out.Status = SolveStatus::Unbounded;
          Out.X.clear();
          return Out;
        }
        Out.X[J] = H;
      } else {
        Out.X[J] = std::isfinite(L) ? L : (std::isfinite(H) ? H : 0.0);
      }
    }
    Out.Status = SolveStatus::Optimal;
    Out.Objective = Prob.objectiveValue(Out.X);
    Out.RowDuals.assign(static_cast<size_t>(Prob.numRows()), 0.0);
    return Out;
  }

  initialBasis();

  // Warm start (advisory): crash onto the cached basis if it validates
  // and refactorizes; otherwise the slack basis from initialBasis() is
  // already in place (tryWarmStart restores it on a post-apply
  // failure), so the cold path below is untouched bit-for-bit.
  if (WarmBasis)
    WarmStartedV = tryWarmStart(*WarmBasis);
  return primalPhases();
}

LpSolution SimplexSolver::Worker::primalPhases() {
  // Every verdict below is re-checked against a fresh factorization.
  // refactor() is a pure function of Basis, so when no pivot has
  // happened since the last one (Fresh) it is skipped: that changes no
  // bit, and recomputeBasicValues() still runs, because bound flips
  // move values without pivoting.
  auto CleanFactorization = [&] {
    if (!Fresh && !refactor())
      return false;
    recomputeBasicValues();
    return true;
  };

  // Phase 1: a "feasible" or "infeasible" verdict from drifted
  // arithmetic is re-checked before being believed.
  bool Feasible = false;
  bool InfeasibleConfirmed = false;
  for (int Attempt = 0; Attempt < 6 && !Feasible; ++Attempt) {
    SolveStatus Status = iterate(/*Phase1=*/true);
    if (Status == SolveStatus::IterationLimit ||
        Status == SolveStatus::NumericalError ||
        Status == SolveStatus::Unbounded ||
        Status == SolveStatus::Cancelled)
      return finish(Status == SolveStatus::Unbounded
                        ? SolveStatus::NumericalError
                        : Status);
    if (!CleanFactorization())
      return finish(SolveStatus::NumericalError);
    if (infeasibility() == 0.0) {
      Feasible = true;
      break;
    }
    if (Status == SolveStatus::Infeasible) {
      // Only believe an infeasibility verdict that is reproduced from a
      // freshly refactorized basis.
      if (InfeasibleConfirmed)
        return finish(SolveStatus::Infeasible);
      InfeasibleConfirmed = true;
      continue;
    }
    InfeasibleConfirmed = false;
    // Status was Optimal but the clean recompute disagrees: resume.
  }
  if (!Feasible)
    return finish(SolveStatus::NumericalError);

  // Phase 2, same verification discipline.
  for (int Attempt = 0; Attempt < 6; ++Attempt) {
    SolveStatus Status = iterate(/*Phase1=*/false);
    if (Status != SolveStatus::Optimal)
      return finish(Status);
    if (!CleanFactorization())
      return finish(SolveStatus::NumericalError);
    if (infeasibility() > 0.0) {
      // Drifted into infeasibility; clean it up via phase 1 again.
      SolveStatus P1 = iterate(/*Phase1=*/true);
      if (P1 != SolveStatus::Optimal)
        return finish(P1 == SolveStatus::Infeasible
                          ? SolveStatus::NumericalError
                          : P1);
      continue;
    }
    // Verify dual feasibility on the clean factorization: batched
    // reduced costs (the pricing bits), sign conditions checked
    // serially.
    for (int R = 0; R < M; ++R)
      Cb[R] = Cost[Basis[R]];
    computeDuals();
    batchReducedCosts(/*Phase1=*/false);
    bool DualOk = true;
    for (int J = 0; J < NT && DualOk; ++J) {
      if (Stat[J] == VarStatus::Basic || isFixed(J))
        continue;
      double RcJ = Rc[J];
      if ((Stat[J] == VarStatus::AtLower || Stat[J] == VarStatus::FreeNb) &&
          RcJ < -50 * Opt.OptTol)
        DualOk = false;
      if ((Stat[J] == VarStatus::AtUpper || Stat[J] == VarStatus::FreeNb) &&
          RcJ > 50 * Opt.OptTol)
        DualOk = false;
    }
    if (DualOk)
      return finish(SolveStatus::Optimal);
  }
  return finish(SolveStatus::NumericalError);
}

SimplexSolver::SimplexSolver(const LinearProgram &Problem,
                             const SimplexOptions &Options)
    : Impl(std::make_unique<Worker>(Problem, Options)) {}

SimplexSolver::~SimplexSolver() = default;

LpSolution SimplexSolver::solve() { return Impl->solve(); }

LpSolution prdnn::lp::solveLp(const LinearProgram &Problem,
                              const SimplexOptions &Options) {
  SimplexSolver Solver(Problem, Options);
  return Solver.solve();
}
