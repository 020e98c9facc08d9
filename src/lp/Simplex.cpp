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
// nonsingular, with every structural at the bound nearer zero. When each
// of them sits at the bound its cost prefers, that basis is dual
// feasible - true of every repair LP, whose norm costs are nonnegative -
// and the dual simplex below solves from it. Otherwise phase 1 minimizes
// the total bound violation of the basic variables (composite phase-1
// for bounded variables, cf. Chvatal ch. 8), after which phase 2
// minimizes the true objective. The basis factor is updated in place at
// every pivot; it is recomputed from scratch periodically and before any
// terminal status is reported, so returned solutions are always
// re-verified against a fresh factorization.
//
// Basis representation. A basis of this system is almost all slack
// columns: the repair LPs keep hundreds to thousands of rows, but only a
// few dozen structurals are ever basic. Order the rows as T (slack
// nonbasic) and R (slack basic), and let S be the basic structural
// columns, |S| = |T| = k. The basis and its inverse are
//
//   B = [[A_TS, 0], [A_RS, -I]],   B^-1 = [[A_TS^-1, 0], [A_RS A_TS^-1, -I]],
//
// so the solver keeps only the k x k core inverse G = A_TS^-1, and every
// kernel goes through it:
//  - FTRAN:   w_S = G a_T, w_R = A_RS w_S - a_R, in O(k^2 + k M);
//  - BTRAN:   y_R = -c_R, y_T = G^T (c_S + A_RS^T c_R); in phase 2 and
//             the dual phase c_R = 0, so y lives on T alone;
//  - pricing: rc = c - A~^T y as one row axpy per nonzero of y_T
//             (phase 1 adds the running cost row below), and the
//             dual phase's pivot row likewise over its at most k + 1
//             nonzeros;
//  - updates: one O(k^2) kind per pivot: grow (a structural replaces a
//             slack: G is bordered), shrink (a slack replaces a
//             structural: Schur downdate), column swap (structural for
//             structural: product-form eta) and row swap (slack for
//             slack: a rank-one update of G's columns);
//  - refactorization: Gauss-Jordan with partial pivoting on A_TS, O(k^3).
// A basic slack always sits in its own row's basis position, so basis
// positions are rows, and T is the positions that hold structurals. The
// core slot of a T row pairs it with the structural at its position:
// row b of G belongs to that structural, column b to that row.
// refactor() lists T in ascending row order from Basis alone, so it is
// a pure function of the basis; between refactorizations the slot order
// follows the pivot history. The scaled A is stored once, row by row, by
// the problem itself (lp/LinearProgram.h): the solver reads each row in
// place through its address (RowData), the row passes of pricing stream
// those rows, and an append only takes in the new rows' addresses. The k
// basic columns are copied column-major by slot (AS) for FTRAN and the
// core.
//
// Phase-1 pricing. The basic slacks' primal phase-1 costs make
// y_R = -c_R dense, so phase 1 keeps the R rows' part of A~^T y as a
// running cost row, updated by the few rows whose cost changed since the
// last pass and rebuilt at each phase-1 start and refactorization.
//
// Every kernel runs scalar: they are small enough that the shared pool
// measured slower (src/lp/README.md), so a solve is bit-for-bit
// identical at any thread count (enforced by tests/lp_test.cpp).
//
// The dual simplex (SimplexSolver). The first solve is the cold solve
// above. A later solve appends the rows added to the problem since,
// with their slacks basic: they join R, so the core and its inverse do
// not change. The previous optimum stays dual-feasible, so the bounded
// dual simplex re-optimizes from it, as it solves a cold dual-feasible
// slack basis: the leaving row is the most infeasible basic variable,
// its row of B^-1 is the pivot row rho, alpha_j = rho . A~_j comes from
// one row pass like pricing, a Harris ratio test on |d_j / alpha_j|
// picks the entering column, and the reduced costs are updated from the
// pivot row instead of a BTRAN.
// The primal phases then verify the result exactly as they verify a
// primal solve; a dual phase that finds no entering column (primal
// infeasible) or gives up hands its basis to primal phase 1.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "linalg/Kernels.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

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

/// Nz = the indices of V's nonzero entries, ascending.
void collectNonzeros(const std::vector<double> &V, std::vector<int> &Nz) {
  Nz.clear();
  for (size_t I = 0; I < V.size(); ++I)
    if (V[I] != 0.0)
      Nz.push_back(static_cast<int>(I));
}

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
  /// Kept row i's equilibrated coefficients, NS of them, read in place
  /// from the problem's row store: entry (i, j) of the scaled A is
  /// RowData[i][j].
  std::vector<const double *> RowData;
  std::vector<double> Lo, Hi, Cost; // per total variable
  /// Variable basic in each position; the basic slack of row i always
  /// sits at position i.
  std::vector<int> Basis;
  std::vector<VarStatus> Stat;      // per total variable
  std::vector<double> X;            // per total variable

  // The core: G = A_TS^-1, CoreSize x CoreSize with row stride CoreCap.
  // Slot b pairs T row CoreRow[b] with the structural at that position,
  // Basis[CoreRow[b]]; CoreSlot maps a row back to its slot (-1 in R).
  int CoreSize = 0, CoreCap = 0;
  std::vector<int> CoreRow, CoreSlot;
  std::vector<double> G;
  /// The basic structural columns of A, column-major by slot: entry
  /// (i, b) = A(i, S_b) at b*M + i (FTRAN, the core updates).
  std::vector<double> AS;
  std::vector<double> CoreWork; // A_TS during refactorization
  std::vector<double> CoreU, CoreV; // per-slot scratch

  std::vector<double> W, Y, Cb, Rhs, Col;
  std::vector<double> Rho;       // pivot row of B^-1 (dual phase)
  std::vector<int> YNz;          // T rows with a nonzero dual, ascending
  std::vector<int> RhoNz;        // Rho's nonzero rows, ascending
  // Phase 1 prices the R rows' part of A~^T y through the cost row
  // CostRow = sum over i in R of c_i A_i (c_i the phase-1 cost of row
  // i's basic slack), updated only by the rows whose cost changed since
  // the last pricing pass; CostWeight[i] is the c_i it holds.
  std::vector<double> CostRow, CostWeight;
  /// CostRow is a running sum; rebuilt from scratch when false (at each
  /// phase-1 start and after every refactorization, bounding its drift).
  bool CostRowFresh = false;
  std::vector<double> Rc;    // NT reduced costs
  std::vector<double> Alpha; // NT pivot-row entries (dual phase)

  // All scratch lives on the Worker and is sized in sizeScratch()
  // before any iteration, so the iteration hot loop allocates nothing
  // (asserted in debug builds via the capacity watermark) - except the
  // core, which doubles its capacity when it outgrows it.

  SimplexStats Stats;

  int Iterations = 0;
  int Phase1Iterations = 0;
  int PivotsSinceRefactor = 0;
  bool Bland = false;
  int Stall = 0;
  double PrevObj = 0.0;
  bool HavePrevObj = false;
  /// Problem rows taken in so far (kept or dropped by presolve).
  int RowsSeen = 0;
  /// The last solve ended Optimal: its basis is dual-feasible for the
  /// problem with rows appended, so the next solve can continue warm.
  bool HaveOptimum = false;
  /// The core is exactly what refactor() would compute from Basis: no
  /// pivot since the last successful refactorization.
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

  enum class RowKind { Kept, Vacuous, Infeasible };
  RowKind presolveRow(int I) const;
  /// Takes in kept row \p R (problem row KeptRows[R]): its address and
  /// its slack's bounds, scaled as the row is.
  void takeRow(int R);
  bool buildProblem(LpSolution &Out); // false => Out holds final status
  /// Takes in the rows appended to the problem since the last solve,
  /// their slacks basic, and re-sizes scratch (the caller recomputes
  /// basic values); false => Out holds the status.
  bool appendRows(LpSolution &Out);
  void sizeScratch();
  void initialBasis();
  bool refactor();
  void recomputeBasicValues();
  double infeasibility() const;
  double currentObjective() const;
  bool isFixed(int J) const { return Hi[J] - Lo[J] <= 1e-30; }

  /// Grows the core's capacity to at least \p Need slots.
  void reserveCore(int Need);
  const double *coreColumn(int Slot) const {
    return AS.data() + static_cast<size_t>(Slot) * static_cast<size_t>(M);
  }
  /// Copies the column of slot \p Slot's structural from the rows into
  /// AS.
  void loadCoreColumn(int Slot);
  double *coreRow(int Slot) {
    return G.data() + static_cast<size_t>(Slot) * static_cast<size_t>(CoreCap);
  }
  /// Out = B^-1 V for a row-indexed \p V; Out is indexed by position.
  void solveBasis(const double *V, std::vector<double> &Out);
  /// CoreV = A(R, S) G, row \p R (in R) of A_RS times the core inverse.
  void rowTimesCore(int R);
  /// Out[j] = sum over i in Nz of V[i] * A~(i, j) for every column j:
  /// the structural columns as one row axpy per listed row (in list
  /// order), the slack columns (-e_i) as -V[i].
  void rowPass(const std::vector<double> &V, const std::vector<int> &Nz,
               std::vector<double> &Out) const;
  void computeColumn(int J);
  /// BTRAN: Y (and YNz) from the basic costs Cb; \p Phase1 when the
  /// basic slacks carry costs, which CostRow must already reflect.
  void computeDuals(bool Phase1);
  /// Brings CostRow up to date with the phase-1 costs in Cb.
  void updateCostRow();

  /// The one pricing rule, shared by Dantzig and Bland pricing and the
  /// dual-feasibility verification: the improving direction of column
  /// \p J at reduced cost Rc[J] (+1 rising from lower / free, -1
  /// falling from upper / free), or 0. Basic and fixed columns never
  /// improve.
  int improvingDirection(int J) const {
    VarStatus S = Stat[static_cast<size_t>(J)];
    if (S == VarStatus::Basic || isFixed(J))
      return 0;
    double RcJ = Rc[static_cast<size_t>(J)];
    if ((S == VarStatus::AtLower || S == VarStatus::FreeNb) &&
        RcJ < -Opt.OptTol)
      return 1;
    if ((S == VarStatus::AtUpper || S == VarStatus::FreeNb) &&
        RcJ > Opt.OptTol)
      return -1;
    return 0;
  }

  int chooseEntering(bool Phase1, int &SigmaOut);
  /// Reduced costs of every column into Rc against the duals Y; used by
  /// pricing, the dual phase and the dual-feasibility verification.
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

  /// Basis and core update for entering column \p J replacing the basic
  /// variable at position \p Row, with W = B^-1 A~_J; dispatches on
  /// which kinds of column enter and leave.
  void updateCore(int Row, int J);
  void growCore(int Row, int J);
  void shrinkCore(int Row, int I);
  void swapCoreColumn(int Row, int J);
  void swapCoreRow(int Row, int I);
  /// Drops slot \p Slot (row and column of G), moving the last slot
  /// into it.
  void removeCoreSlot(int Slot);

  SolveStatus iterate(bool Phase1);

  /// Dual simplex. Optimal: primal feasible. Infeasible: a primal-
  /// infeasible row admits no entering column (dual unbounded).
  /// NumericalError: the phase gave up (stalled, or FTRAN disagreed
  /// with the pivot row). Cancelled / IterationLimit as in iterate().
  SolveStatus dualPhase();
  /// The most infeasible basic row (-1 when primal feasible).
  int chooseLeavingRow(bool &ToUpper) const;
  /// Alpha[j] = rho . A~_j with rho = row \p R of B^-1 (read only for
  /// the nonbasic, unfixed columns).
  void pivotRowAlphas(int R);
  /// Harris ratio test on |Rc[j] / Alpha[j]|; -1 when no column enters.
  int dualRatioTest(bool ToUpper, int &SigmaOut);

  /// The cold start: the slack basis, then the dual phase when that
  /// basis is dual feasible, the primal phases otherwise.
  LpSolution coldSolve();
  /// Whether every nonbasic structural of the slack basis sits at the
  /// bound its cost prefers (fixed ones always do).
  bool slackBasisDualFeasible() const;
  /// The dual phase from the current, dual-feasible basis, then the
  /// primal phases: they verify an Optimal verdict, and confirm or
  /// repair an Infeasible or given-up one.
  LpSolution dualThenVerify();
  /// Primal phases 1 and 2 from the current basis, each verdict checked
  /// against a fresh factorization.
  LpSolution primalPhases();
  LpSolution finish(SolveStatus Status);
};

#ifndef NDEBUG
void SimplexSolver::Worker::collectScratchCaps(
    std::vector<size_t> &Out) const {
  Out.clear();
  for (const std::vector<double> *V :
       {&W, &Y, &Cb, &Rhs, &Col, &Rho, &X, &Rc, &Alpha, &G, &AS, &CoreWork,
        &CoreU, &CoreV, &CostRow, &CostWeight})
    Out.push_back(V->capacity());
  for (const std::vector<int> *V :
       {&Basis, &YNz, &RhoNz, &CoreRow, &CoreSlot})
    Out.push_back(V->capacity());
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
  if (!Prob.rowEmpty(I))
    return RowKind::Kept;
  return Prob.rowLo(I) > Opt.FeasTol || Prob.rowHi(I) < -Opt.FeasTol
             ? RowKind::Infeasible
             : RowKind::Vacuous;
}

void SimplexSolver::Worker::takeRow(int R) {
  // The problem stores each row divided by its largest coefficient
  // magnitude (row equilibration); its slack's bounds are divided here.
  int I = KeptRows[R];
  double Scale = Prob.rowScale(I);
  RowData[R] = Prob.rowData(I);
  Lo[NS + R] = Prob.rowLo(I) / Scale;
  Hi[NS + R] = Prob.rowHi(I) / Scale;
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

  RowData.resize(static_cast<size_t>(M));
  Lo.resize(NT);
  Hi.resize(NT);
  Cost.assign(static_cast<size_t>(NT), 0.0);
  for (int J = 0; J < NS; ++J) {
    Lo[J] = Prob.variableLo(J);
    Hi[J] = Prob.variableHi(J);
    Cost[J] = Prob.objectiveCoef(J);
  }
  for (int R = 0; R < M; ++R)
    takeRow(R);
  return true;
}

bool SimplexSolver::Worker::appendRows(LpSolution &Out) {
  assert(Prob.numVariables() == NS && "variables added between solves");
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

  // The new rows are read where the problem stores them; only their
  // addresses and scaled bounds come in, and AS (stride M) is reloaded.
  // They enter with their slacks basic, so they join R: T, S and the
  // core inverse are unchanged, and a Fresh core stays fresh.
  size_t Ms = static_cast<size_t>(M);
  RowData.resize(Ms);
  Lo.resize(static_cast<size_t>(NT));
  Hi.resize(static_cast<size_t>(NT));
  Cost.resize(static_cast<size_t>(NT), 0.0);
  Stat.resize(static_cast<size_t>(NT), VarStatus::Basic);
  X.resize(static_cast<size_t>(NT), 0.0);
  Basis.resize(Ms);
  CoreSlot.resize(Ms, -1);
  for (int R = OldM; R < M; ++R) {
    takeRow(R);
    Basis[R] = NS + R;
  }
  sizeScratch();
  for (int B = 0; B < CoreSize; ++B)
    loadCoreColumn(B);
  return true;
}

void SimplexSolver::Worker::sizeScratch() {
  // Every per-iteration buffer - FTRAN/BTRAN vectors, reduced costs,
  // pivot row, nonzero lists - is sized for the current shape here, so
  // no iteration allocates; the core doubles its capacity on demand
  // (reserveCore).
  size_t Ms = static_cast<size_t>(M);
  for (std::vector<double> *V : {&W, &Y, &Cb, &Rhs, &Col, &Rho, &CoreU, &CoreV})
    V->resize(Ms);
  for (std::vector<int> *V : {&YNz, &RhoNz})
    V->reserve(Ms);
  CostWeight.resize(Ms);
  CostRow.resize(static_cast<size_t>(NS));
  CostRowFresh = false;
  CoreRow.resize(Ms);
  AS.resize(static_cast<size_t>(CoreCap) * Ms);
  Rc.resize(static_cast<size_t>(NT));
  Alpha.resize(static_cast<size_t>(NT));
#ifndef NDEBUG
  snapshotScratch();
#endif
}

void SimplexSolver::Worker::reserveCore(int Need) {
  if (Need <= CoreCap)
    return;
  // Doubling, capped by the largest core this shape admits: a solve
  // reallocates O(log k) times.
  int NewCap = std::max(Need, std::min(std::max(16, 2 * CoreCap),
                                       std::min(M, NS)));
  size_t Cap = static_cast<size_t>(NewCap);
  std::vector<double> Grown(Cap * Cap);
  for (int B = 0; B < CoreSize; ++B)
    std::copy(coreRow(B), coreRow(B) + CoreSize,
              Grown.data() + static_cast<size_t>(B) * Cap);
  G.swap(Grown);
  CoreWork.assign(Cap * Cap, 0.0);
  AS.resize(Cap * static_cast<size_t>(M));
  CoreCap = NewCap;
#ifndef NDEBUG
  snapshotScratch(); // the one sanctioned growth
#endif
}

void SimplexSolver::Worker::initialBasis() {
  Basis.resize(M);
  Stat.assign(static_cast<size_t>(NT), VarStatus::AtLower);
  X.assign(static_cast<size_t>(NT), 0.0);
  CoreSlot.assign(static_cast<size_t>(M), -1);
  sizeScratch();
  // The cold starting point: every structural nonbasic at its bound
  // nearer zero (the lower one on a tie, or free at zero) and the
  // always-nonsingular slack basis, whose core is empty.
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
  for (int R = 0; R < M; ++R) {
    Basis[R] = NS + R;
    Stat[NS + R] = VarStatus::Basic;
    X[NS + R] = 0.0;
    CoreSlot[R] = -1;
  }
  // The empty core is exactly what refactor() derives from this basis.
  CoreSize = 0;
  PivotsSinceRefactor = 0;
  Fresh = true;
  recomputeBasicValues();
}

bool SimplexSolver::Worker::refactor() {
  // Rebuild G = A_TS^-1 by Gauss-Jordan elimination with partial
  // pivoting, A_TS in CoreWork and the inverse built in place in G (a
  // failure leaves G unusable; every caller then either stops or resets
  // the basis). T is listed in ascending row order, so the result is a
  // pure function of Basis.
  KernelTimer Timer(Stats.RefactorSeconds);
  ++Stats.Refactors;
  Fresh = false;
  CostRowFresh = false;
  int K = 0;
  for (int P = 0; P < M; ++P) {
    if (Basis[P] < NS) {
      CoreRow[K] = P;
      CoreSlot[P] = K++;
    } else {
      assert(Basis[P] == NS + P && "basic slack outside its own row");
      CoreSlot[P] = -1;
    }
  }
  CoreSize = 0; // nothing of the old inverse survives
  reserveCore(K);
  CoreSize = K;
  for (int B = 0; B < K; ++B)
    loadCoreColumn(B);
  size_t Cap = static_cast<size_t>(CoreCap);
  double *C = CoreWork.data();
  double *Inv = G.data();
  for (int A = 0; A < K; ++A) {
    int Row = CoreRow[A];
    for (int B = 0; B < K; ++B) {
      C[A * Cap + B] = coreColumn(B)[Row];
      Inv[A * Cap + B] = A == B ? 1.0 : 0.0;
    }
  }

  for (int P = 0; P < K; ++P) {
    int Pivot = P;
    double Best = std::fabs(C[P * Cap + P]);
    for (int I = P + 1; I < K; ++I) {
      double Mag = std::fabs(C[I * Cap + P]);
      if (Mag > Best) {
        Best = Mag;
        Pivot = I;
      }
    }
    if (Best < 1e-12)
      return false;
    if (Pivot != P) {
      std::swap_ranges(C + P * Cap, C + P * Cap + K, C + Pivot * Cap);
      std::swap_ranges(Inv + P * Cap, Inv + P * Cap + K, Inv + Pivot * Cap);
    }
    double Scale = 1.0 / C[P * Cap + P];
    for (int B = 0; B < K; ++B) {
      C[P * Cap + B] *= Scale;
      Inv[P * Cap + B] *= Scale;
    }
    for (int I = 0; I < K; ++I) {
      double Factor = C[I * Cap + P];
      if (I == P || Factor == 0.0)
        continue;
      linalg::kernelAxpy(C + I * Cap, C + P * Cap, -Factor, K);
      linalg::kernelAxpy(Inv + I * Cap, Inv + P * Cap, -Factor, K);
    }
  }
  PivotsSinceRefactor = 0;
  Fresh = true;
  return true;
}

void SimplexSolver::Worker::loadCoreColumn(int Slot) {
  double *Dst = AS.data() + static_cast<size_t>(Slot) * M;
  int J = Basis[CoreRow[Slot]];
  for (int I = 0; I < M; ++I)
    Dst[I] = RowData[I][J];
}

void SimplexSolver::Worker::solveBasis(const double *V,
                                       std::vector<double> &Out) {
  // w_S = G v_T, then w_R = A_RS w_S - v_R as one column axpy per slot;
  // the T positions take w_S itself.
  int K = CoreSize;
  for (int A = 0; A < K; ++A)
    CoreV[A] = V[CoreRow[A]];
  for (int B = 0; B < K; ++B)
    CoreU[B] = linalg::kernelDot(coreRow(B), CoreV.data(), K);
  for (int I = 0; I < M; ++I)
    Out[I] = -V[I];
  for (int B = 0; B < K; ++B)
    if (CoreU[B] != 0.0)
      linalg::kernelAxpy(Out.data(), coreColumn(B), CoreU[B], M);
  for (int B = 0; B < K; ++B)
    Out[CoreRow[B]] = CoreU[B];
}

void SimplexSolver::Worker::rowTimesCore(int R) {
  int K = CoreSize;
  std::fill(CoreV.begin(), CoreV.begin() + K, 0.0);
  for (int B = 0; B < K; ++B) {
    double Arb = coreColumn(B)[R];
    if (Arb != 0.0)
      linalg::kernelAxpy(CoreV.data(), coreRow(B), Arb, K);
  }
}

void SimplexSolver::Worker::recomputeBasicValues() {
  // Basic values solve B xB = -N xN (the equality rhs is zero); the
  // nonbasic slacks are exactly the T rows'.
  std::fill(Rhs.begin(), Rhs.end(), 0.0);
  for (int J = 0; J < NS; ++J) {
    if (Stat[J] == VarStatus::Basic || X[J] == 0.0)
      continue;
    double Scale = -X[J];
    for (int I = 0; I < M; ++I)
      Rhs[I] += Scale * RowData[I][J];
  }
  for (int B = 0; B < CoreSize; ++B)
    Rhs[CoreRow[B]] += X[NS + CoreRow[B]];
  solveBasis(Rhs.data(), Col);
  for (int P = 0; P < M; ++P)
    X[Basis[P]] = Col[P];
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

void SimplexSolver::Worker::computeColumn(int J) {
  // FTRAN: W = B^-1 A~_J; a slack column is -e_i.
  KernelTimer Timer(Stats.FtranSeconds);
  if (J < NS) {
    for (int I = 0; I < M; ++I)
      Col[I] = RowData[I][J];
  } else {
    std::fill(Col.begin(), Col.end(), 0.0);
    Col[J - NS] = -1.0;
  }
  solveBasis(Col.data(), W);
}

void SimplexSolver::Worker::computeDuals(bool Phase1) {
  // BTRAN from the position-indexed basic costs Cb: y_R = -c_R and
  // y_T = G^T (c_S + A_RS^T c_R). The basic slacks carry costs in phase 1
  // only, and there A_RS^T c_R is the cost row read at S.
  KernelTimer Timer(Stats.BtranSeconds);
  int K = CoreSize;
  for (int B = 0; B < K; ++B) {
    CoreV[B] = Cb[CoreRow[B]];
    if (Phase1)
      CoreV[B] += CostRow[Basis[CoreRow[B]]];
  }
  std::fill(CoreU.begin(), CoreU.begin() + K, 0.0);
  for (int B = 0; B < K; ++B)
    if (CoreV[B] != 0.0)
      linalg::kernelAxpy(CoreU.data(), coreRow(B), CoreV[B], K);
  YNz.clear();
  for (int I = 0; I < M; ++I) {
    int Slot = CoreSlot[I];
    if (Slot < 0) {
      Y[I] = Cb[I] != 0.0 ? -Cb[I] : 0.0;
      continue;
    }
    Y[I] = CoreU[Slot];
    if (Y[I] != 0.0)
      YNz.push_back(I);
  }
}

void SimplexSolver::Worker::updateCostRow() {
  // CostRow = sum over R of c_i A_i, kept as a running sum: only the rows
  // whose phase-1 cost changed since the last update cost anything.
  KernelTimer Timer(Stats.PricingSeconds);
  if (!CostRowFresh) {
    std::fill(CostRow.begin(), CostRow.end(), 0.0);
    std::fill(CostWeight.begin(), CostWeight.end(), 0.0);
    CostRowFresh = true;
  }
  for (int I = 0; I < M; ++I) {
    double C = CoreSlot[I] < 0 ? Cb[I] : 0.0;
    if (C == CostWeight[I])
      continue;
    linalg::kernelAxpy(CostRow.data(), RowData[I], C - CostWeight[I], NS);
    CostWeight[I] = C;
  }
}

void SimplexSolver::Worker::rowPass(const std::vector<double> &V,
                                    const std::vector<int> &Nz,
                                    std::vector<double> &Out) const {
  std::fill(Out.begin(), Out.begin() + NS, 0.0);
  for (int I : Nz)
    linalg::kernelAxpy(Out.data(), RowData[I], V[I], NS);
  for (int J = NS; J < NT; ++J)
    Out[J] = -V[J - NS];
}

void SimplexSolver::Worker::batchReducedCosts(bool Phase1) {
  // rc = c - A~^T y, with y's R part, nonzero in phase 1 only, priced
  // through the cost row: -sum over R of y_i A_i = CostRow.
  KernelTimer Timer(Stats.PricingSeconds);
  rowPass(Y, YNz, Rc);
  for (int J = 0; J < NT; ++J)
    Rc[J] = (Phase1 ? (J < NS ? CostRow[J] : 0.0) : Cost[J]) - Rc[J];
}

int SimplexSolver::Worker::chooseEntering(bool Phase1, int &SigmaOut) {
  batchReducedCosts(Phase1);
  // Full Dantzig pricing (best |rc|, earliest on ties), or under Bland's
  // rule the first improving index. Partial pricing was tried and
  // reverted: on the repair LPs' split-variable columns it zigzags into
  // iteration blow-ups that dwarf the per-iteration savings.
  KernelTimer Timer(Stats.PricingSeconds);
  double BestScore = Opt.OptTol;
  int BestJ = -1;
  SigmaOut = 0;
  for (int J = 0; J < NT; ++J) {
    int Sigma = improvingDirection(J);
    if (Sigma == 0)
      continue;
    if (Bland) {
      SigmaOut = Sigma;
      return J;
    }
    double Score = std::fabs(Rc[static_cast<size_t>(J)]);
    if (Score > BestScore) {
      BestScore = Score;
      BestJ = J;
      SigmaOut = Sigma;
    }
  }
  return BestJ;
}

SimplexSolver::Worker::RatioResult
SimplexSolver::Worker::ratioTest(int J, int Sigma, bool Phase1) {
  // One scan in row order: the tie window is relative to the incumbent
  // BestT, which drifts across ties, so the winner is order-dependent.
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
  // across thread counts - equal hashes mean the solve walked the same
  // pivot path at every pool size.
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
  Stat[J] = VarStatus::Basic;
  updateCore(R.Row, J);
  ++PivotsSinceRefactor;
}

void SimplexSolver::Worker::updateCore(int Row, int J) {
  KernelTimer Timer(Stats.UpdateSeconds);
  Fresh = false;
  assert(std::fabs(W[Row]) > 0.0 && "zero pivot in core update");
  bool OutStructural = Basis[Row] < NS;
  if (J < NS) {
    if (OutStructural)
      swapCoreColumn(Row, J);
    else
      growCore(Row, J);
  } else if (OutStructural) {
    shrinkCore(Row, J - NS);
  } else {
    swapCoreRow(Row, J - NS);
  }
}

void SimplexSolver::Worker::swapCoreColumn(int Row, int J) {
  // Structural J replaces the structural of slot b: T is unchanged, and
  // the product-form eta update with u = w_S gives the new inverse.
  int K = CoreSize;
  int Slot = CoreSlot[Row];
  double *PivRow = coreRow(Slot);
  double Inv = 1.0 / W[Row];
  for (int A = 0; A < K; ++A)
    PivRow[A] *= Inv;
  for (int B = 0; B < K; ++B) {
    double Factor = W[CoreRow[B]];
    if (B == Slot || Factor == 0.0)
      continue;
    linalg::kernelAxpy(coreRow(B), PivRow, -Factor, K);
  }
  Basis[Row] = J;
  loadCoreColumn(Slot);
}

void SimplexSolver::Worker::growCore(int Row, int J) {
  // Structural J replaces the slack of row r (in R): r joins T and J
  // joins S as a new last slot. With u = w_S, g = A(r, S) G and the
  // Schur complement s = A(r, J) - A(r, S) u = -w_r, the bordered
  // inverse is [[G + u g^T / s, -u / s], [-g^T / s, 1 / s]].
  double S = -W[Row];
  rowTimesCore(Row);
  reserveCore(CoreSize + 1);
  int K = CoreSize;
  for (int B = 0; B < K; ++B) {
    double U = W[CoreRow[B]];
    double *GRow = coreRow(B);
    if (U != 0.0)
      linalg::kernelAxpy(GRow, CoreV.data(), U / S, K);
    GRow[K] = -U / S;
  }
  double *Last = coreRow(K);
  for (int A = 0; A < K; ++A)
    Last[A] = -CoreV[A] / S;
  Last[K] = 1.0 / S;
  CoreRow[K] = Row;
  CoreSlot[Row] = K;
  ++CoreSize;
  Basis[Row] = J;
  loadCoreColumn(K);
}

void SimplexSolver::Worker::shrinkCore(int Row, int I) {
  // The slack of row i (in T, slot c) replaces the structural of slot b
  // at position r: row i leaves T and that structural leaves S. The
  // inverse of A_TS without row c and column b is G without row b and
  // column c, downdated by G[:, c] G[b, :] / G[b][c] (G[b][c] = -w_r).
  // The structural that sat at position i moves to position r and
  // takes slot b.
  int K = CoreSize;
  int SlotB = CoreSlot[Row], SlotC = CoreSlot[I];
  int Moved = Basis[I];
  const double *RowB = coreRow(SlotB);
  double Pivot = RowB[SlotC];
  for (int B = 0; B < K; ++B) {
    if (B == SlotB)
      continue;
    double Factor = coreRow(B)[SlotC] / Pivot;
    if (Factor != 0.0)
      linalg::kernelAxpy(coreRow(B), RowB, -Factor, K);
  }
  if (SlotB != SlotC) {
    std::copy(coreRow(SlotC), coreRow(SlotC) + K, coreRow(SlotB));
    std::copy(coreColumn(SlotC), coreColumn(SlotC) + M,
              AS.begin() + static_cast<std::ptrdiff_t>(SlotB) * M);
  }
  CoreSlot[I] = -1;
  removeCoreSlot(SlotC);
  Basis[I] = NS + I;
  if (Row != I)
    Basis[Row] = Moved;
}

void SimplexSolver::Worker::swapCoreRow(int Row, int I) {
  // The slack of row i (in T, slot c) replaces the slack of row r (in
  // R): r takes i's place in T, S is unchanged. Row c of A_TS becomes
  // A(r, S), a rank-one change; with g = A(r, S) G, column c of G is
  // divided by g[c] = -w_r and every other column a loses
  // G[:, c] g[a] / g[c]. The structural at position i moves to r.
  int K = CoreSize;
  int Slot = CoreSlot[I];
  int Moved = Basis[I];
  rowTimesCore(Row);
  double Gc = CoreV[Slot];
  for (int B = 0; B < K; ++B) {
    double *GRow = coreRow(B);
    double Factor = GRow[Slot] / Gc;
    if (Factor != 0.0)
      linalg::kernelAxpy(GRow, CoreV.data(), -Factor, K);
    GRow[Slot] = Factor;
  }
  CoreRow[Slot] = Row;
  CoreSlot[Row] = Slot;
  CoreSlot[I] = -1;
  Basis[I] = NS + I;
  Basis[Row] = Moved;
}

void SimplexSolver::Worker::removeCoreSlot(int Slot) {
  int Last = CoreSize - 1;
  if (Slot != Last) {
    for (int B = 0; B < CoreSize; ++B)
      coreRow(B)[Slot] = coreRow(B)[Last];
    std::copy(coreRow(Last), coreRow(Last) + Last, coreRow(Slot));
    std::copy(coreColumn(Last), coreColumn(Last) + M,
              AS.begin() + static_cast<std::ptrdiff_t>(Slot) * M);
    CoreRow[Slot] = CoreRow[Last];
    CoreSlot[CoreRow[Slot]] = Slot;
  }
  CoreSize = Last;
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
  // rho = e_r^T B^-1: row b of G on the T rows when position r holds
  // slot b's structural, else A(r, S) G on the T rows and -1 at r - at
  // most k + 1 nonzeros, taken through the pricing row pass.
  KernelTimer Timer(Stats.PricingSeconds);
  std::fill(Rho.begin(), Rho.end(), 0.0);
  int Slot = CoreSlot[R];
  const double *RowG = CoreV.data();
  if (Slot >= 0) {
    RowG = coreRow(Slot);
  } else {
    rowTimesCore(R);
    Rho[R] = -1.0;
  }
  for (int A = 0; A < CoreSize; ++A)
    Rho[CoreRow[A]] = RowG[A];
  collectNonzeros(Rho, RhoNz);
  rowPass(Rho, RhoNz, Alpha);
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
    computeDuals(/*Phase1=*/false);
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
    if (ZeroSteps >= Opt.StallLimit) {
      ++Stats.DualStalls;
      return SolveStatus::NumericalError;
    }
  }
}

SolveStatus SimplexSolver::Worker::iterate(bool Phase1) {
  CostRowFresh = false;
  Bland = false;
  Stall = 0;
  HavePrevObj = false;
  while (true) {
    // Cooperative cancellation: a relaxed load per iteration is noise
    // next to the pricing pass below.
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
      updateCostRow();
      Obj = Infeas;
    } else {
      for (int R = 0; R < M; ++R)
        Cb[R] = Cost[Basis[R]];
      Obj = currentObjective();
    }
    computeDuals(Phase1);

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
  HaveOptimum = Status == SolveStatus::Optimal;
  if (Status != SolveStatus::Optimal) {
    Out.Stats = Stats;
    return Out;
  }

  Out.X.assign(X.begin(), X.begin() + NS);
  Out.Objective = Prob.objectiveValue(Out.X);

  // Duals: Y was last computed with phase-2 basic costs; unscale rows
  // and scatter over dropped (vacuous) rows.
  for (int R = 0; R < M; ++R)
    Cb[R] = Cost[Basis[R]];
  computeDuals(/*Phase1=*/false);
  Out.RowDuals.assign(static_cast<size_t>(Prob.numRows()), 0.0);
  for (int R = 0; R < M; ++R)
    Out.RowDuals[KeptRows[R]] = Y[R] / Prob.rowScale(KeptRows[R]);
  Out.Stats = Stats;
  return Out;
}

LpSolution SimplexSolver::Worker::solve() {
  Stats = SimplexStats();
  Iterations = 0;
  Phase1Iterations = 0;
  if (!HaveOptimum)
    return coldSolve();
  HaveOptimum = false; // until this solve ends Optimal again

  LpSolution Early;
  if (!appendRows(Early)) {
    Early.Stats = Stats;
    return Early;
  }
  recomputeBasicValues();
  return dualThenVerify();
}

LpSolution SimplexSolver::Worker::dualThenVerify() {
  SolveStatus Dual = dualPhase();
  if (Dual == SolveStatus::Cancelled || Dual == SolveStatus::IterationLimit)
    return finish(Dual);
  if (Dual != SolveStatus::Optimal) {
    // No entering column (the LP is infeasible, which primal phase 1
    // confirms) or the dual phase gave up: the primal phases continue
    // from a clean factorization.
    if (!Fresh && !refactor())
      return finish(SolveStatus::NumericalError);
    recomputeBasicValues();
  }
  // After an Optimal dual phase these only verify: phase 1 sees a
  // feasible basis, refactorizes it and re-checks; phase 2 confirms
  // dual feasibility.
  return primalPhases();
}

bool SimplexSolver::Worker::slackBasisDualFeasible() const {
  // The slacks cost nothing, so at the slack basis y = 0 and every
  // reduced cost is the structural's own cost.
  for (int J = 0; J < NS; ++J) {
    if (isFixed(J))
      continue;
    double C = Cost[static_cast<size_t>(J)];
    switch (Stat[static_cast<size_t>(J)]) {
    case VarStatus::AtLower:
      if (C < 0.0)
        return false;
      break;
    case VarStatus::AtUpper:
      if (C > 0.0)
        return false;
      break;
    case VarStatus::FreeNb:
      if (C != 0.0)
        return false;
      break;
    case VarStatus::Basic:
      break;
    }
  }
  return true;
}

LpSolution SimplexSolver::Worker::coldSolve() {
  LpSolution Early;
  if (!buildProblem(Early))
    return Early;

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
  // A norm objective from Delta = 0 starts dual feasible: every
  // structural sits at the bound its cost prefers. The dual simplex then
  // repairs the violated rows one pivot each, where primal phase 1 would
  // price against every infeasible row.
  if (slackBasisDualFeasible())
    return dualThenVerify();
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
    computeDuals(/*Phase1=*/false);
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
