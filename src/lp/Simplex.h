//===- lp/Simplex.h - bounded-variable revised simplex ---------*- C++ -*-===//
///
/// \file
/// Revised simplex for bounded-variable LPs, replacing the Gurobi
/// solver used in the paper's evaluation. A bounded dual simplex solves
/// every LP whose slack basis is dual feasible - every repair LP, whose
/// norm objective has nonnegative costs from Delta = 0 - cold and again
/// after rows are appended (SimplexSolver); a primal simplex solves the
/// rest, and verifies, confirms or repairs every dual verdict.
/// Internally the general form of lp/LinearProgram.h is rewritten as
///
///   A x - s = 0,   VarLo <= x <= VarHi,   RowLo <= s <= RowHi,
///
/// and solved with a factor of the basis's structural core alone. The
/// basic slack columns are unit vectors, so with T the rows whose slack
/// is nonbasic and S the basic structurals (|S| = |T| = k, a few dozen
/// on the repair LPs against hundreds or thousands of rows) the solver
/// keeps only A_TS^-1: FTRAN and BTRAN cost O(k^2 + k M), each pivot
/// updates the core in O(k^2), and a refactorization costs O(k^3).
/// Features: composite primal phase-1 (infeasibility minimization),
/// Dantzig pricing with Bland's rule anti-cycling fallback, periodic
/// refactorization with a final clean-solve verification before an
/// Optimal status is reported, and dual values for optimality
/// certificates. Rows come equilibrated from the problem's row store
/// (each divided by its largest coefficient magnitude, so the
/// tolerances mean the same on every row), and the solver reads them
/// where they are stored.
///
/// Every kernel runs scalar on the calling thread - they measured faster
/// than blocked versions on the shared pool (src/lp/README.md) - so
/// results are bit-for-bit identical at any thread count: identical
/// pivot sequences, identical LpSolution bits.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LP_SIMPLEX_H
#define PRDNN_LP_SIMPLEX_H

#include "lp/LinearProgram.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace prdnn {
namespace lp {

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  NumericalError,
  /// The caller's SimplexOptions::CancelFlag became true; the solve
  /// stopped cooperatively between iterations.
  Cancelled,
};

const char *toString(SolveStatus Status);

struct SimplexOptions {
  /// Primal feasibility tolerance (applied to row-scaled data).
  double FeasTol = 1e-7;
  /// Reduced-cost (dual feasibility) tolerance.
  double OptTol = 1e-7;
  /// Smallest pivot magnitude accepted during ratio tests.
  double PivotTol = 1e-9;
  /// Hard cap on total simplex iterations across both phases.
  int MaxIterations = 200000;
  /// Iterations without objective progress before the primal phases
  /// switch to Bland's rule, and zero dual steps in a row before the
  /// dual phase hands its basis to the primal phases (both guard
  /// against cycling under degeneracy).
  int StallLimit = 300;
  /// Refactorize the basis core from scratch every this many pivots.
  int RefactorInterval = 2000;
  /// Optional cooperative-cancellation flag, polled between simplex
  /// iterations (the engine points this at its job's JobContext). When
  /// it becomes true the solve returns SolveStatus::Cancelled. The
  /// pointee must outlive the solve; null disables polling.
  const std::atomic<bool> *CancelFlag = nullptr;
};

/// Per-solve counters and kernel timings, returned in LpSolution::Stats
/// and accumulated into RepairStats::LpKernels by the repair pipeline.
/// PivotHash is an order-sensitive FNV-1a digest of the pivot sequence
/// (entering index, direction, bound flip / leaving row per step);
/// tests compare it across thread counts to assert every solve walks
/// the same pivot path at any pool size.
struct SimplexStats {
  int Iterations = 0;
  int Pivots = 0;
  int BoundFlips = 0;
  int Refactors = 0;
  /// Dual phases that ran StallLimit zero steps in a row and handed the
  /// basis to the primal phases.
  int DualStalls = 0;
  std::uint64_t PivotHash = 0xcbf29ce484222325ULL; // FNV-1a offset basis
  double PricingSeconds = 0.0;
  double FtranSeconds = 0.0;
  double BtranSeconds = 0.0;
  double RatioSeconds = 0.0;
  double UpdateSeconds = 0.0;
  double RefactorSeconds = 0.0;

  /// Total seconds attributed to the six instrumented kernels.
  double kernelSeconds() const {
    return PricingSeconds + FtranSeconds + BtranSeconds + RatioSeconds +
           UpdateSeconds + RefactorSeconds;
  }

  /// Folds \p Other in (counter sums, order-sensitive hash mix); used
  /// to aggregate the per-solve stats of a multi-round repair.
  void accumulate(const SimplexStats &Other) {
    Iterations += Other.Iterations;
    Pivots += Other.Pivots;
    BoundFlips += Other.BoundFlips;
    Refactors += Other.Refactors;
    DualStalls += Other.DualStalls;
    PivotHash = (PivotHash ^ Other.PivotHash) * 0x100000001b3ULL;
    PricingSeconds += Other.PricingSeconds;
    FtranSeconds += Other.FtranSeconds;
    BtranSeconds += Other.BtranSeconds;
    RatioSeconds += Other.RatioSeconds;
    UpdateSeconds += Other.UpdateSeconds;
    RefactorSeconds += Other.RefactorSeconds;
  }
};

struct LpSolution {
  SolveStatus Status = SolveStatus::NumericalError;
  /// Values of the structural variables (empty unless Optimal).
  std::vector<double> X;
  /// Objective value c . X.
  double Objective = 0.0;
  /// Dual value per row (unscaled); Lagrange multipliers of the row
  /// constraints at optimality.
  std::vector<double> RowDuals;
  int Iterations = 0;
  int Phase1Iterations = 0;
  /// Pivot counts, refactorizations, pivot-sequence hash, and
  /// per-kernel seconds for this solve (stamped on every status).
  SimplexStats Stats;
};

/// A simplex solver kept alive across the solves of one LP that only
/// grows by appended rows - the constraint-generation rounds of a
/// repair (core/PointRepair.cpp). The first solve() is the cold solve
/// of solveLp: from the slack basis, by the dual simplex when that basis
/// is dual feasible and by the primal phases otherwise. Each later
/// solve() takes in the rows appended to the problem since the previous
/// one, with their slacks basic, and re-optimizes from the previous
/// optimum with the same dual simplex: that optimum stays dual-feasible
/// when rows are added, so a round costs a few pivots instead of a full
/// re-solve. A solve that did not end Optimal leaves no basis to
/// continue from; the next solve() then runs cold over the whole
/// problem. See src/lp/README.md ("Incremental solves").
///
/// The solver keeps a reference to \p Problem, which must outlive it,
/// and reads its rows where the problem stores them. Between solves the
/// caller may only append rows (LinearProgram::addRow, DeltaLp::
/// addConstraint); variables, costs and existing rows must stay as they
/// were (an added variable would move the stored rows).
class SimplexSolver {
public:
  explicit SimplexSolver(const LinearProgram &Problem,
                         const SimplexOptions &Options = SimplexOptions());
  ~SimplexSolver();
  SimplexSolver(const SimplexSolver &) = delete;
  SimplexSolver &operator=(const SimplexSolver &) = delete;

  /// Solves the problem as it stands; never throws. Counters and
  /// kernel timings in the result cover this solve only.
  LpSolution solve();

private:
  class Worker;
  std::unique_ptr<Worker> Impl;
};

/// Solves \p Problem; never throws. Statuses other than Optimal leave
/// LpSolution::X empty (Infeasible/Unbounded are definitive answers;
/// IterationLimit/NumericalError are solver failures). A one-shot
/// SimplexSolver.
LpSolution solveLp(const LinearProgram &Problem,
                   const SimplexOptions &Options = SimplexOptions());

} // namespace lp
} // namespace prdnn

#endif // PRDNN_LP_SIMPLEX_H
