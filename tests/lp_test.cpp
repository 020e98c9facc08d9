//===- tests/lp_test.cpp - LP solver tests ----------------------------------===//
//
// Unit tests on hand-checkable LPs, stress tests (degeneracy,
// Klee-Minty), and parameterized property tests: random feasible LPs
// must come back Optimal with feasible solutions satisfying the KKT
// sign conditions, and explicitly-constructed primal/dual pairs must
// exhibit strong duality.
//
//===----------------------------------------------------------------------===//

#include "lp/LinearProgram.h"
#include "lp/NormObjective.h"
#include "lp/Simplex.h"

#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

namespace {

using namespace prdnn;
using namespace prdnn::lp;

TEST(Lp, BoxOnlyMinimization) {
  LinearProgram P;
  P.addVariable(-2.0, 5.0, 1.0);  // min x0 -> -2
  P.addVariable(-2.0, 5.0, -1.0); // min -x1 -> x1 = 5
  P.addVariable(-2.0, 5.0, 0.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.X[0], -2.0, 1e-9);
  EXPECT_NEAR(S.X[1], 5.0, 1e-9);
  EXPECT_NEAR(S.Objective, -7.0, 1e-9);
}

TEST(Lp, BoxOnlyUnbounded) {
  LinearProgram P;
  P.addVariable(0.0, kInfinity, -1.0);
  LpSolution S = solveLp(P);
  EXPECT_EQ(S.Status, SolveStatus::Unbounded);
}

TEST(Lp, SimpleTriangle) {
  // min -x - y s.t. x + y <= 1, x, y >= 0. Optimum value -1.
  LinearProgram P;
  int X = P.addVariable(0.0, kInfinity, -1.0);
  int Y = P.addVariable(0.0, kInfinity, -1.0);
  P.addRowLe({X, Y}, {1.0, 1.0}, 1.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, -1.0, 1e-8);
  EXPECT_NEAR(S.X[0] + S.X[1], 1.0, 1e-8);
}

TEST(Lp, EqualityRows) {
  // x + y = 1, x - y = 0 -> x = y = 0.5.
  LinearProgram P;
  int X = P.addFreeVariable(1.0);
  int Y = P.addFreeVariable(0.0);
  P.addRowEq({X, Y}, {1.0, 1.0}, 1.0);
  P.addRowEq({X, Y}, {1.0, -1.0}, 0.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.X[0], 0.5, 1e-8);
  EXPECT_NEAR(S.X[1], 0.5, 1e-8);
}

TEST(Lp, TwoSidedRow) {
  // min x s.t. 2 <= x + y <= 4, 0 <= x,y <= 3 -> x = 0 (y covers).
  LinearProgram P;
  int X = P.addVariable(0.0, 3.0, 1.0);
  int Y = P.addVariable(0.0, 3.0, 0.0);
  P.addRow({X, Y}, {1.0, 1.0}, 2.0, 4.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 0.0, 1e-8);
}

TEST(Lp, InfeasibleBounds) {
  // x >= 1 and x <= 0 through rows.
  LinearProgram P;
  int X = P.addFreeVariable(1.0);
  P.addRowGe({X}, {1.0}, 1.0);
  P.addRowLe({X}, {1.0}, 0.0);
  LpSolution S = solveLp(P);
  EXPECT_EQ(S.Status, SolveStatus::Infeasible);
}

TEST(Lp, InfeasibleSystem) {
  // x + y <= 1, x >= 1, y >= 1.
  LinearProgram P;
  int X = P.addVariable(1.0, kInfinity, 0.0);
  int Y = P.addVariable(1.0, kInfinity, 0.0);
  P.addRowLe({X, Y}, {1.0, 1.0}, 1.0);
  LpSolution S = solveLp(P);
  EXPECT_EQ(S.Status, SolveStatus::Infeasible);
}

TEST(Lp, EmptyRowFeasibleAndInfeasible) {
  {
    LinearProgram P;
    P.addVariable(0.0, 1.0, 1.0);
    P.addRow({}, {}, -1.0, 1.0); // vacuous
    LpSolution S = solveLp(P);
    EXPECT_EQ(S.Status, SolveStatus::Optimal);
  }
  {
    LinearProgram P;
    P.addVariable(0.0, 1.0, 1.0);
    P.addRow({}, {}, 0.5, 1.0); // 0 not in [0.5, 1]
    LpSolution S = solveLp(P);
    EXPECT_EQ(S.Status, SolveStatus::Infeasible);
  }
}

TEST(Lp, UnboundedRay) {
  // min -x s.t. x - y <= 1, y >= 0: ray x = y + 1 -> -inf.
  LinearProgram P;
  int X = P.addFreeVariable(-1.0);
  int Y = P.addVariable(0.0, kInfinity, 0.0);
  P.addRowLe({X, Y}, {1.0, -1.0}, 1.0);
  LpSolution S = solveLp(P);
  EXPECT_EQ(S.Status, SolveStatus::Unbounded);
}

TEST(Lp, DegenerateVertex) {
  // Three constraints meeting at (1,1); optimum there.
  LinearProgram P;
  int X = P.addVariable(0.0, kInfinity, -1.0);
  int Y = P.addVariable(0.0, kInfinity, -1.0);
  P.addRowLe({X, Y}, {1.0, 1.0}, 2.0);
  P.addRowLe({X, Y}, {1.0, 0.0}, 1.0);
  P.addRowLe({X, Y}, {0.0, 1.0}, 1.0);
  P.addRowLe({X, Y}, {2.0, 1.0}, 3.0); // also passes through (1,1)
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.X[0], 1.0, 1e-8);
  EXPECT_NEAR(S.X[1], 1.0, 1e-8);
}

TEST(Lp, KleeMintyCube3D) {
  // Classic worst case for Dantzig pricing; checks anti-cycling and
  // correctness, not speed. max 4x1 + 2x2 + x3 (paper form scaled).
  LinearProgram P;
  int X1 = P.addVariable(0.0, kInfinity, -4.0);
  int X2 = P.addVariable(0.0, kInfinity, -2.0);
  int X3 = P.addVariable(0.0, kInfinity, -1.0);
  P.addRowLe({X1}, {1.0}, 5.0);
  P.addRowLe({X1, X2}, {4.0, 1.0}, 25.0);
  P.addRowLe({X1, X2, X3}, {8.0, 4.0, 1.0}, 125.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, -125.0, 1e-7);
}

TEST(Lp, FixedVariable) {
  LinearProgram P;
  int X = P.addVariable(2.0, 2.0, 5.0); // fixed at 2
  int Y = P.addVariable(0.0, 10.0, 1.0);
  P.addRowGe({X, Y}, {1.0, 1.0}, 5.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.X[0], 2.0, 1e-9);
  EXPECT_NEAR(S.X[1], 3.0, 1e-8);
}

TEST(Lp, DualSignsOnActiveRows) {
  // min x + y s.t. x + y >= 2 (active at optimum), x, y >= 0.
  LinearProgram P;
  int X = P.addVariable(0.0, kInfinity, 1.0);
  int Y = P.addVariable(0.0, kInfinity, 1.0);
  P.addRowGe({X, Y}, {1.0, 1.0}, 2.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 2.0, 1e-8);
  ASSERT_EQ(S.RowDuals.size(), 1u);
  // Row active at its lower bound: dual >= 0; stationarity gives 1.
  EXPECT_NEAR(S.RowDuals[0], 1.0, 1e-6);
}

// --- Random feasible LPs (property sweep) ----------------------------------

/// KKT sign conditions from the reported duals:
///   rc_j = c_j - sum_i y_i a_ij, with rc >= 0 at lower bounds,
///   rc <= 0 at upper bounds, rc ~ 0 for interior variables; duals obey
///   y_i >= 0 on rows active at Lo, y_i <= 0 on rows active at Hi,
///   y_i ~ 0 on inactive rows.
void expectKktConditions(const LinearProgram &P, const LpSolution &S,
                         const std::string &What) {
  ASSERT_EQ(S.X.size(), static_cast<size_t>(P.numVariables())) << What;
  ASSERT_EQ(S.RowDuals.size(), static_cast<size_t>(P.numRows())) << What;
  std::vector<double> Rc(static_cast<size_t>(P.numVariables()));
  for (int J = 0; J < P.numVariables(); ++J)
    Rc[J] = P.objectiveCoef(J);
  for (int I = 0; I < P.numRows(); ++I) {
    const double *Row = P.rowData(I);
    for (int J = 0; J < P.numVariables(); ++J)
      Rc[J] -= S.RowDuals[I] * (P.rowScale(I) * Row[J]);
  }
  const double Tol = 1e-5;
  for (int J = 0; J < P.numVariables(); ++J) {
    bool AtLo = S.X[J] <= P.variableLo(J) + 1e-6;
    bool AtHi = S.X[J] >= P.variableHi(J) - 1e-6;
    if (AtLo && !AtHi) {
      EXPECT_GE(Rc[J], -Tol) << What << ": var " << J;
    } else if (AtHi && !AtLo) {
      EXPECT_LE(Rc[J], Tol) << What << ": var " << J;
    } else if (!AtLo && !AtHi) {
      EXPECT_NEAR(Rc[J], 0.0, Tol) << What << ": var " << J;
    }
  }
  for (int I = 0; I < P.numRows(); ++I) {
    double Activity = P.rowActivity(I, S.X);
    double Lo = P.rowLo(I), Hi = P.rowHi(I);
    bool AtLo = std::isfinite(Lo) && Activity <= Lo + 1e-6;
    bool AtHi = std::isfinite(Hi) && Activity >= Hi - 1e-6;
    if (!AtLo && !AtHi) {
      EXPECT_NEAR(S.RowDuals[I], 0.0, Tol) << What << ": row " << I;
    } else if (AtLo && !AtHi) {
      EXPECT_GE(S.RowDuals[I], -Tol) << What << ": row " << I;
    } else if (AtHi && !AtLo) {
      EXPECT_LE(S.RowDuals[I], Tol) << What << ": row " << I;
    }
  }
}

struct RandomLpParams {
  uint64_t Seed;
  int NumVars;
  int NumRows;
};

class RandomLpTest : public ::testing::TestWithParam<RandomLpParams> {};

TEST_P(RandomLpTest, OptimalFeasibleAndKktConsistent) {
  RandomLpParams Params = GetParam();
  Rng R(Params.Seed);

  LinearProgram P;
  std::vector<double> Witness(Params.NumVars);
  for (int J = 0; J < Params.NumVars; ++J) {
    P.addVariable(-10.0, 10.0, R.normal());
    Witness[J] = R.uniform(-5.0, 5.0);
  }
  // Rows built around a feasible witness point.
  for (int I = 0; I < Params.NumRows; ++I) {
    std::vector<int> Index;
    std::vector<double> Value;
    double Activity = 0.0;
    for (int J = 0; J < Params.NumVars; ++J) {
      if (!R.bernoulli(0.7))
        continue;
      double C = R.normal();
      Index.push_back(J);
      Value.push_back(C);
      Activity += C * Witness[J];
    }
    double Slack = R.uniform(0.0, 3.0);
    if (R.bernoulli(0.5))
      P.addRowLe(std::move(Index), std::move(Value), Activity + Slack);
    else
      P.addRowGe(std::move(Index), std::move(Value), Activity - Slack);
  }

  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  // Feasibility of the returned point.
  EXPECT_LT(P.maxViolation(S.X), 1e-5);
  // Cannot be worse than the witness.
  EXPECT_LE(S.Objective, P.objectiveValue(Witness) + 1e-6);

  expectKktConditions(P, S, "random LP");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLpTest,
    ::testing::Values(RandomLpParams{1, 3, 2}, RandomLpParams{2, 5, 8},
                      RandomLpParams{3, 10, 4}, RandomLpParams{4, 8, 20},
                      RandomLpParams{5, 20, 20}, RandomLpParams{6, 30, 60},
                      RandomLpParams{7, 50, 30}, RandomLpParams{8, 40, 80},
                      RandomLpParams{9, 60, 120}, RandomLpParams{10, 2, 40}));

// --- Strong duality on constructed primal/dual pairs ------------------------

class DualityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DualityTest, PrimalDualObjectivesMatch) {
  // Primal:  min c.x  s.t. A x >= b, x >= 0.
  // Dual:    max b.y  s.t. A^T y <= c, y >= 0.
  // Constructed so both are feasible (hence both optimal, equal values).
  Rng R(GetParam());
  int N = R.uniformInt(3, 10);
  int M = R.uniformInt(3, 10);
  std::vector<std::vector<double>> A(M, std::vector<double>(N));
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J)
      A[I][J] = R.normal();

  // Primal witness x0 >= 0, b chosen below A x0.
  std::vector<double> X0(N), B(M);
  for (int J = 0; J < N; ++J)
    X0[J] = R.uniform(0.0, 2.0);
  for (int I = 0; I < M; ++I) {
    double Activity = 0.0;
    for (int J = 0; J < N; ++J)
      Activity += A[I][J] * X0[J];
    B[I] = Activity - R.uniform(0.0, 1.0);
  }
  // Dual witness y0 >= 0, c chosen above A^T y0.
  std::vector<double> Y0(M), C(N);
  for (int I = 0; I < M; ++I)
    Y0[I] = R.uniform(0.0, 2.0);
  for (int J = 0; J < N; ++J) {
    double Col = 0.0;
    for (int I = 0; I < M; ++I)
      Col += A[I][J] * Y0[I];
    C[J] = Col + R.uniform(0.0, 1.0);
  }

  LinearProgram Primal;
  for (int J = 0; J < N; ++J)
    Primal.addVariable(0.0, kInfinity, C[J]);
  for (int I = 0; I < M; ++I) {
    std::vector<int> Index(N);
    std::vector<double> Value(N);
    for (int J = 0; J < N; ++J) {
      Index[J] = J;
      Value[J] = A[I][J];
    }
    Primal.addRowGe(std::move(Index), std::move(Value), B[I]);
  }

  LinearProgram Dual;
  for (int I = 0; I < M; ++I)
    Dual.addVariable(0.0, kInfinity, -B[I]); // max b.y == min -b.y
  for (int J = 0; J < N; ++J) {
    std::vector<int> Index(M);
    std::vector<double> Value(M);
    for (int I = 0; I < M; ++I) {
      Index[I] = I;
      Value[I] = A[I][J];
    }
    Dual.addRowLe(std::move(Index), std::move(Value), C[J]);
  }

  LpSolution PrimalSol = solveLp(Primal);
  LpSolution DualSol = solveLp(Dual);
  ASSERT_EQ(PrimalSol.Status, SolveStatus::Optimal);
  ASSERT_EQ(DualSol.Status, SolveStatus::Optimal);
  EXPECT_NEAR(PrimalSol.Objective, -DualSol.Objective,
              1e-5 * (1.0 + std::fabs(PrimalSol.Objective)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DualityTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18, 19,
                                           20, 21, 22));

// --- DeltaLp norm encodings --------------------------------------------------

TEST(DeltaLp, L1MinimalSolution) {
  // Delta_0 + Delta_1 >= 2: the l1-minimal solutions all have norm 2.
  DeltaLp D(2, Norm::L1);
  D.addConstraint({1.0, 1.0}, 2.0, kInfinity);
  LpSolution S = solveLp(D.problem());
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  std::vector<double> Delta = D.extractDelta(S.X);
  EXPECT_NEAR(Delta[0] + Delta[1], 2.0, 1e-7);
  EXPECT_NEAR(S.Objective, 2.0, 1e-7);
  EXPECT_NEAR(std::fabs(Delta[0]) + std::fabs(Delta[1]), 2.0, 1e-7);
}

TEST(DeltaLp, L1PrefersSparseOverSpread) {
  // Delta_0 + 2*Delta_1 >= 2: the l1-minimum puts everything on the
  // higher-leverage coordinate: Delta = (0, 1).
  DeltaLp D(2, Norm::L1);
  D.addConstraint({1.0, 2.0}, 2.0, kInfinity);
  LpSolution S = solveLp(D.problem());
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  std::vector<double> Delta = D.extractDelta(S.X);
  EXPECT_NEAR(Delta[0], 0.0, 1e-7);
  EXPECT_NEAR(Delta[1], 1.0, 1e-7);
}

TEST(DeltaLp, LInfSpreadsEvenly) {
  // Delta_0 + Delta_1 >= 2 under l-inf: optimum Delta = (1, 1).
  DeltaLp D(2, Norm::LInf);
  D.addConstraint({1.0, 1.0}, 2.0, kInfinity);
  LpSolution S = solveLp(D.problem());
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  std::vector<double> Delta = D.extractDelta(S.X);
  EXPECT_NEAR(Delta[0], 1.0, 1e-7);
  EXPECT_NEAR(Delta[1], 1.0, 1e-7);
  EXPECT_NEAR(S.Objective, 1.0, 1e-7);
}

TEST(DeltaLp, NegativeDirectionConstraints) {
  DeltaLp D(2, Norm::L1);
  D.addConstraint({1.0, 0.0}, -kInfinity, -3.0); // Delta_0 <= -3
  LpSolution S = solveLp(D.problem());
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  std::vector<double> Delta = D.extractDelta(S.X);
  EXPECT_NEAR(Delta[0], -3.0, 1e-7);
  EXPECT_NEAR(Delta[1], 0.0, 1e-7);
}

TEST(DeltaLp, InfeasibleWithinBox) {
  DeltaLp D(1, Norm::L1, /*Bound=*/1.0);
  D.addConstraint({1.0}, 5.0, kInfinity); // needs Delta_0 = 5 > box
  LpSolution S = solveLp(D.problem());
  EXPECT_EQ(S.Status, SolveStatus::Infeasible);
  // The slack basis is dual feasible, so the dual simplex ran first and
  // found no entering column; primal phase 1 confirmed the verdict.
  EXPECT_GT(S.Iterations, S.Phase1Iterations);
}

TEST(Lp, ColdStartThatIsNotDualFeasibleRunsThePrimalPhases) {
  // x sits at its lower bound with cost -1, so the slack basis is not
  // dual feasible; the row x + y >= 3 is violated at 0, so phase 1 runs.
  LinearProgram P;
  P.addVariable(0.0, 10.0, -1.0);
  P.addVariable(0.0, 10.0, 1.0);
  P.addRowGe({0, 1}, {1.0, 1.0}, 3.0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_GT(S.Phase1Iterations, 0);
  EXPECT_NEAR(S.X[0], 10.0, 1e-9);
  EXPECT_NEAR(S.X[1], 0.0, 1e-9);
  EXPECT_NEAR(S.Objective, -10.0, 1e-9);
}

TEST(DeltaLp, L1PlusLInfCombines) {
  DeltaLp D(2, Norm::L1PlusLInf, kInfinity, /*LInfWeight=*/1.0);
  D.addConstraint({1.0, 1.0}, 2.0, kInfinity);
  LpSolution S = solveLp(D.problem());
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  std::vector<double> Delta = D.extractDelta(S.X);
  // l1 part is 2 regardless; the l-inf tie-break prefers the even
  // split with max 1 (objective 2 + 1 = 3).
  EXPECT_NEAR(Delta[0] + Delta[1], 2.0, 1e-7);
  EXPECT_NEAR(S.Objective, 3.0, 1e-6);
  EXPECT_NEAR(Delta[0], 1.0, 1e-6);
  EXPECT_NEAR(Delta[1], 1.0, 1e-6);
}

class DeltaLpRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaLpRandomTest, SolutionsSatisfyConstraints) {
  Rng R(GetParam());
  int N = R.uniformInt(2, 12);
  int Rows = R.uniformInt(1, 15);
  for (Norm Obj : {Norm::L1, Norm::LInf, Norm::L1PlusLInf}) {
    DeltaLp D(N, Obj, /*Bound=*/50.0);
    Rng Local = R.fork();
    std::vector<double> Witness(N);
    for (int J = 0; J < N; ++J)
      Witness[J] = Local.uniform(-2.0, 2.0);
    for (int I = 0; I < Rows; ++I) {
      std::vector<double> Coef(N);
      double Activity = 0.0;
      for (int J = 0; J < N; ++J) {
        Coef[J] = Local.normal();
        Activity += Coef[J] * Witness[J];
      }
      D.addConstraint(Coef, Activity - Local.uniform(0.0, 1.0),
                      Activity + Local.uniform(0.0, 1.0));
    }
    LpSolution S = solveLp(D.problem());
    ASSERT_EQ(S.Status, SolveStatus::Optimal) << toString(Obj);
    std::vector<double> Delta = D.extractDelta(S.X);
    // Feasible for the original Delta constraints.
    EXPECT_LT(D.problem().maxViolation(S.X), 1e-5);
    // No better than the witness (which is feasible by construction).
    EXPECT_LE(D.objectiveValue(Delta),
              D.objectiveValue(Witness) + 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaLpRandomTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38));

// --- Kernel bit-identity across thread counts ---------------------------------
//
// A solve promises the same pivot sequence (PivotHash, pivot/flip/
// refactor counts) and the same LpSolution bits (status, X, objective,
// duals) at any pool size. The simplex kernels run scalar today; these
// tests keep the contract pinned for any kernel that moves onto the
// pool. They drive every terminal status - Optimal, Infeasible,
// Unbounded, IterationLimit - below and above 192 kept rows (where
// blocked kernels used to engage), plus Bland's-rule and degenerate
// pivoting, at 1/4/8 pool threads. The suite also runs in the CI
// ThreadSanitizer job.

/// Bitwise (memcmp) equality, so -0.0 vs 0.0 or NaN payload drift
/// fails where a tolerance compare would hide it.
void expectSameBits(const std::vector<double> &A, const std::vector<double> &B,
                    const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  if (!A.empty())
    EXPECT_EQ(0, std::memcmp(A.data(), B.data(), A.size() * sizeof(double)))
        << What;
}

void expectBitIdentical(const LpSolution &Ref, const LpSolution &Got,
                        const std::string &What) {
  EXPECT_EQ(Ref.Status, Got.Status) << What;
  EXPECT_EQ(Ref.Iterations, Got.Iterations) << What;
  EXPECT_EQ(Ref.Phase1Iterations, Got.Phase1Iterations) << What;
  // Same pivot sequence, not merely the same endpoint.
  EXPECT_EQ(Ref.Stats.PivotHash, Got.Stats.PivotHash) << What;
  EXPECT_EQ(Ref.Stats.Pivots, Got.Stats.Pivots) << What;
  EXPECT_EQ(Ref.Stats.BoundFlips, Got.Stats.BoundFlips) << What;
  EXPECT_EQ(Ref.Stats.Refactors, Got.Stats.Refactors) << What;
  expectSameBits(Ref.X, Got.X, What + ": X");
  expectSameBits(Ref.RowDuals, Got.RowDuals, What + ": RowDuals");
  double RefObj = Ref.Objective, GotObj = Got.Objective;
  EXPECT_EQ(0, std::memcmp(&RefObj, &GotObj, sizeof(double)))
      << What << ": Objective";
}

/// Dense feasible LP around a witness (mixed <= / >= / two-sided rows).
LinearProgram makeDenseFeasibleLp(int Vars, int Rows, uint64_t Seed) {
  Rng R(Seed);
  LinearProgram P;
  std::vector<double> Witness(static_cast<size_t>(Vars));
  for (int J = 0; J < Vars; ++J) {
    P.addVariable(-10.0, 10.0, R.normal());
    Witness[static_cast<size_t>(J)] = R.uniform(-5.0, 5.0);
  }
  for (int I = 0; I < Rows; ++I) {
    std::vector<int> Index;
    std::vector<double> Value;
    double Activity = 0.0;
    for (int J = 0; J < Vars; ++J) {
      double C = R.normal();
      Index.push_back(J);
      Value.push_back(C);
      Activity += C * Witness[static_cast<size_t>(J)];
    }
    double Slack = R.uniform(0.1, 2.0);
    if (I % 3 == 0)
      P.addRow(std::move(Index), std::move(Value), Activity - Slack,
               Activity + Slack);
    else if (I % 3 == 1)
      P.addRowLe(std::move(Index), std::move(Value), Activity + Slack);
    else
      P.addRowGe(std::move(Index), std::move(Value), Activity - Slack);
  }
  return P;
}

/// Appends \p Count rows of the repair LP's shape (bench_micro_lp's
/// BM_DeltaLpRepairShape): one row in twelve is tight near \p Witness,
/// the rest hold with room to spare at Delta = 0 and at the witness.
void addRepairShapedRows(DeltaLp &D, const std::vector<double> &Witness,
                         int Count, Rng &R) {
  int Dim = static_cast<int>(Witness.size());
  for (int I = 0; I < Count; ++I) {
    std::vector<double> Coef(static_cast<size_t>(Dim));
    double Activity = 0.0;
    for (int J = 0; J < Dim; ++J) {
      Coef[static_cast<size_t>(J)] = R.normal();
      Activity += Coef[static_cast<size_t>(J)] * Witness[static_cast<size_t>(J)];
    }
    double Hi = R.bernoulli(1.0 / 12)
                    ? Activity + R.uniform(0.0, 0.05)
                    : std::max(Activity, 0.0) + R.uniform(0.5, 2.0);
    D.addConstraint(Coef, -kInfinity, Hi);
  }
}

/// \p Rows repair-shaped rows over a \p Dim-dimensional Delta with a
/// DeltaBound of 10 and a witness in [-0.1, 0.1]^Dim.
DeltaLp makeRepairShapedDeltaLp(int Dim, int Rows, Norm Objective,
                                uint64_t Seed) {
  Rng R(Seed);
  DeltaLp D(Dim, Objective, 10.0);
  std::vector<double> Witness(static_cast<size_t>(Dim));
  for (double &Wj : Witness)
    Wj = R.uniform(-0.1, 0.1);
  addRepairShapedRows(D, Witness, Rows, R);
  return D;
}

struct KernelCase {
  std::string Name;
  LinearProgram P;
  SimplexOptions Base;
  SolveStatus Expected;
};

std::vector<KernelCase> kernelCases() {
  std::vector<KernelCase> Cases;

  {
    KernelCase C;
    C.Name = "optimal-dense";
    C.P = makeDenseFeasibleLp(48, 96, 1001);
    C.Expected = SolveStatus::Optimal;
    Cases.push_back(std::move(C));
  }
  {
    // The repair pipeline's own encoding: l1 split variables.
    KernelCase C;
    C.Name = "optimal-delta-l1";
    Rng R(1002);
    DeltaLp D(40, Norm::L1, 50.0);
    std::vector<double> Witness(40);
    for (double &Wj : Witness)
      Wj = R.uniform(-2.0, 2.0);
    for (int I = 0; I < 60; ++I) {
      std::vector<double> Coef(40);
      double Activity = 0.0;
      for (int J = 0; J < 40; ++J) {
        Coef[static_cast<size_t>(J)] = R.normal();
        Activity += Coef[static_cast<size_t>(J)] * Witness[static_cast<size_t>(J)];
      }
      D.addConstraint(Coef, Activity - R.uniform(0.0, 1.0),
                      Activity + R.uniform(0.0, 1.0));
    }
    C.P = D.problem();
    C.Expected = SolveStatus::Optimal;
    Cases.push_back(std::move(C));
  }
  // Infeasible, Unbounded and IterationLimit each below and above 192
  // kept rows.
  for (bool Wide : {false, true}) {
    std::string Suffix = Wide ? "-wide" : "";
    uint64_t Seed = Wide ? 2000 : 1000;
    {
      KernelCase C;
      C.Name = "infeasible" + Suffix;
      C.P = makeDenseFeasibleLp(32, Wide ? 200 : 64, Seed + 3);
      // Contradictory pair on variable 0 (its box is [-10, 10]).
      C.P.addRowGe({0}, {1.0}, 6.0);
      C.P.addRowLe({0}, {1.0}, -6.0);
      C.Expected = SolveStatus::Infeasible;
      Cases.push_back(std::move(C));
    }
    {
      // Feasible at zero, with a cost-improving ray x0 = 1 + x1.
      KernelCase C;
      C.Name = "unbounded" + Suffix;
      int X0 = C.P.addFreeVariable(-1.0);
      int X1 = C.P.addVariable(0.0, kInfinity, 0.0);
      C.P.addRowLe({X0, X1}, {1.0, -1.0}, 1.0);
      Rng R(Seed + 4);
      for (int J = 0; J < 30; ++J)
        C.P.addVariable(0.0, 5.0, R.normal());
      for (int I = 0; I < (Wide ? 220 : 40); ++I) {
        std::vector<int> Index;
        std::vector<double> Value;
        for (int J = 2; J < 32; ++J)
          if (R.bernoulli(0.5)) {
            Index.push_back(J);
            Value.push_back(R.normal());
          }
        if (Index.empty())
          continue;
        C.P.addRowLe(std::move(Index), std::move(Value),
                     R.uniform(5.0, 20.0));
      }
      C.Expected = SolveStatus::Unbounded;
      Cases.push_back(std::move(C));
    }
    {
      KernelCase C;
      C.Name = "iteration-limit" + Suffix;
      C.P = makeDenseFeasibleLp(48, Wide ? 224 : 96, Seed + 5);
      C.Base.MaxIterations = 3;
      C.Expected = SolveStatus::IterationLimit;
      Cases.push_back(std::move(C));
    }
  }
  // Heavily degenerate vertex (all ones), with StallLimit = 1 so
  // pricing flips into Bland's rule almost immediately. N = 20 has
  // N(N-1)/2 + N = 210 rows.
  for (int N : {10, 20}) {
    KernelCase C;
    C.Name = N == 10 ? "bland-degenerate" : "bland-degenerate-wide";
    for (int J = 0; J < N; ++J)
      C.P.addVariable(0.0, kInfinity, -1.0);
    for (int I = 0; I < N; ++I)
      for (int J = I + 1; J < N; ++J)
        C.P.addRowLe({I, J}, {1.0, 1.0}, 2.0);
    for (int J = 0; J < N; ++J)
      C.P.addRowLe({J}, {1.0}, 1.0);
    C.Base.StallLimit = 1;
    C.Expected = SolveStatus::Optimal;
    Cases.push_back(std::move(C));
  }
  // The same statuses from the cold dual path (a dual-feasible slack
  // basis): Infeasible through the hand-over to phase 1, an iteration
  // limit inside the dual phase, and an l-inf LP whose degenerate dual
  // phase stalls at once and hands over to Bland's-rule pricing.
  {
    KernelCase C;
    C.Name = "infeasible-dual";
    DeltaLp D = makeRepairShapedDeltaLp(24, 80, Norm::L1, 1007);
    std::vector<double> Coef(24, 0.0);
    Coef[0] = 1.0;
    D.addConstraint(Coef, 11.0, kInfinity); // Delta_0 > DeltaBound
    C.P = D.problem();
    C.Expected = SolveStatus::Infeasible;
    Cases.push_back(std::move(C));
  }
  {
    KernelCase C;
    C.Name = "iteration-limit-dual";
    C.P = makeRepairShapedDeltaLp(24, 80, Norm::L1, 1008).problem();
    C.Base.MaxIterations = 2;
    C.Expected = SolveStatus::IterationLimit;
    Cases.push_back(std::move(C));
  }
  {
    KernelCase C;
    C.Name = "dual-stall-bland";
    C.P = makeRepairShapedDeltaLp(16, 60, Norm::LInf, 1009).problem();
    C.Base.StallLimit = 1;
    C.Expected = SolveStatus::Optimal;
    Cases.push_back(std::move(C));
  }
  {
    // M = 300 kept rows, NT = 360 columns: a wide Optimal solve.
    KernelCase C;
    C.Name = "optimal-wide";
    C.P = makeDenseFeasibleLp(60, 300, 1006);
    C.Expected = SolveStatus::Optimal;
    Cases.push_back(std::move(C));
  }
  {
    // Klee-Minty with a stall limit of 1: Dantzig zigzag plus forced
    // Bland fallback in one case.
    KernelCase C;
    C.Name = "klee-minty-bland";
    int X1 = C.P.addVariable(0.0, kInfinity, -4.0);
    int X2 = C.P.addVariable(0.0, kInfinity, -2.0);
    int X3 = C.P.addVariable(0.0, kInfinity, -1.0);
    C.P.addRowLe({X1}, {1.0}, 5.0);
    C.P.addRowLe({X1, X2}, {4.0, 1.0}, 25.0);
    C.P.addRowLe({X1, X2, X3}, {8.0, 4.0, 1.0}, 125.0);
    C.Base.StallLimit = 1;
    C.Expected = SolveStatus::Optimal;
    Cases.push_back(std::move(C));
  }
  return Cases;
}

class LpKernelIdentityTest : public ::testing::Test {
protected:
  void TearDown() override { setGlobalThreadCount(SavedThreads); }
  int SavedThreads = globalThreadCount();
};

/// Solves \p P at 1, 4 and 8 pool threads and expects every solve
/// bit-identical to the 1-thread one; returns that reference.
LpSolution expectSameAtEveryThreadCount(const LinearProgram &P,
                                        const SimplexOptions &Options,
                                        const std::string &What) {
  setGlobalThreadCount(1);
  LpSolution Ref = solveLp(P, Options);
  for (int Threads : {4, 8}) {
    setGlobalThreadCount(Threads);
    expectBitIdentical(Ref, solveLp(P, Options),
                       What + " @" + std::to_string(Threads) + " threads");
  }
  return Ref;
}

TEST_F(LpKernelIdentityTest, KernelCasesBitIdenticalAcrossThreadCounts) {
  for (KernelCase &Case : kernelCases()) {
    LpSolution Ref = expectSameAtEveryThreadCount(Case.P, Case.Base, Case.Name);
    EXPECT_EQ(Ref.Status, Case.Expected) << Case.Name;
  }
}

TEST_F(LpKernelIdentityTest, CrossoverBoundaryBitIdenticalAcrossThreadCounts) {
  // M = 191 / 192 / 193 straddle the 192 kept rows from which blocked
  // kernels used to engage; every size stays pinned at every thread
  // count.
  for (int M : {191, 192, 193}) {
    LinearProgram P = makeDenseFeasibleLp(40, M, 1300 + M);
    LpSolution Ref = expectSameAtEveryThreadCount(
        P, SimplexOptions(), "crossover M=" + std::to_string(M));
    EXPECT_EQ(Ref.Status, SolveStatus::Optimal) << "M=" << M;
  }
}

TEST_F(LpKernelIdentityTest, StatsCountersAreCoherent) {
  LinearProgram P = makeDenseFeasibleLp(48, 96, 1200);
  LpSolution Sol = solveLp(P);
  ASSERT_EQ(Sol.Status, SolveStatus::Optimal);
  EXPECT_EQ(Sol.Stats.Iterations, Sol.Iterations);
  EXPECT_EQ(Sol.Stats.Pivots + Sol.Stats.BoundFlips, Sol.Iterations);
  // run() refactorizes at least once per phase before believing a
  // terminal verdict.
  EXPECT_GE(Sol.Stats.Refactors, 2);
  EXPECT_GE(Sol.Stats.kernelSeconds(), 0.0);
}

// --- Incremental solves (SimplexSolver) -------------------------------------
//
// A SimplexSolver re-optimizes with the dual simplex after rows are
// appended to its problem. Whatever vertex it lands on, the status must
// match a cold solve of the full LP and the objective must agree within
// 1e-9 relative; the warm path must be deterministic at any thread
// count, like the cold one.

/// Appends \p Count dense rows through \p Witness (so the LP stays
/// feasible) with slack in [0, \p MaxSlack]; a small slack makes most
/// new rows cut off the current optimum.
void appendWitnessRows(LinearProgram &P, const std::vector<double> &Witness,
                       int Count, double MaxSlack, Rng &R) {
  int Vars = static_cast<int>(Witness.size());
  for (int I = 0; I < Count; ++I) {
    std::vector<int> Index;
    std::vector<double> Value;
    double Activity = 0.0;
    for (int J = 0; J < Vars; ++J) {
      double C = R.normal();
      Index.push_back(J);
      Value.push_back(C);
      Activity += C * Witness[static_cast<size_t>(J)];
    }
    double Slack = R.uniform(0.0, MaxSlack);
    if (I % 2 == 0)
      P.addRowLe(std::move(Index), std::move(Value), Activity + Slack);
    else
      P.addRowGe(std::move(Index), std::move(Value), Activity - Slack);
  }
}

/// Box [-10, 10]^Vars with random costs and a witness inside it.
LinearProgram makeBoxLp(int Vars, Rng &R, std::vector<double> &Witness) {
  LinearProgram P;
  Witness.assign(static_cast<size_t>(Vars), 0.0);
  for (int J = 0; J < Vars; ++J) {
    P.addVariable(-10.0, 10.0, R.normal());
    Witness[static_cast<size_t>(J)] = R.uniform(-5.0, 5.0);
  }
  return P;
}

void expectMatchesCold(const LinearProgram &P, const LpSolution &Warm,
                       const std::string &What) {
  LpSolution Cold = solveLp(P);
  ASSERT_EQ(Warm.Status, Cold.Status) << What;
  if (Cold.Status != SolveStatus::Optimal)
    return;
  EXPECT_NEAR(Warm.Objective, Cold.Objective,
              1e-9 * std::max(1.0, std::fabs(Cold.Objective)))
      << What;
  EXPECT_LE(P.maxViolation(Warm.X), 1e-6) << What;
}

TEST(LpIncremental, AppendedRowsReoptimizeToTheColdOptimum) {
  Rng R(3001);
  std::vector<double> Witness;
  LinearProgram P = makeBoxLp(40, R, Witness);
  appendWitnessRows(P, Witness, 30, 0.5, R);
  SimplexSolver Solver(P);
  LpSolution First = Solver.solve();
  ASSERT_EQ(First.Status, SolveStatus::Optimal);
  expectMatchesCold(P, First, "round 1");

  for (int Round = 2; Round <= 5; ++Round) {
    appendWitnessRows(P, Witness, 15, 0.2, R);
    LpSolution Warm = Solver.solve();
    std::string What = "round " + std::to_string(Round);
    expectMatchesCold(P, Warm, What);
    // The dual simplex did the work, in fewer pivots than a cold solve.
    EXPECT_GT(Warm.Iterations, 0) << What;
    EXPECT_LT(Warm.Stats.Pivots, solveLp(P).Stats.Pivots) << What;
    EXPECT_EQ(Warm.Phase1Iterations, 0) << What;
  }
}

TEST(LpIncremental, NoNewRowsReturnsTheSameOptimumWithoutPivots) {
  Rng R(3002);
  std::vector<double> Witness;
  LinearProgram P = makeBoxLp(24, R, Witness);
  appendWitnessRows(P, Witness, 40, 0.5, R);
  SimplexSolver Solver(P);
  LpSolution First = Solver.solve();
  ASSERT_EQ(First.Status, SolveStatus::Optimal);
  LpSolution Again = Solver.solve();
  EXPECT_EQ(Again.Iterations, 0);
  EXPECT_EQ(Again.Stats.Refactors, 0); // the basis is still fresh
  EXPECT_EQ(Again.Status, First.Status);
  expectSameBits(First.X, Again.X, "X");
  expectSameBits(First.RowDuals, Again.RowDuals, "RowDuals");
  EXPECT_EQ(0, std::memcmp(&First.Objective, &Again.Objective,
                           sizeof(double)));
}

TEST(LpIncremental, DualUnboundedRoundIsConfirmedInfeasible) {
  Rng R(3003);
  std::vector<double> Witness;
  LinearProgram P = makeBoxLp(32, R, Witness);
  appendWitnessRows(P, Witness, 48, 0.5, R);
  SimplexSolver Solver(P);
  ASSERT_EQ(Solver.solve().Status, SolveStatus::Optimal);
  // A contradictory pair on variable 0 (its box is [-10, 10]): no
  // column can enter for the violated row, and primal phase 1 confirms
  // the verdict from a clean factorization.
  P.addRowGe({0}, {1.0}, 6.0);
  P.addRowLe({0}, {1.0}, -6.0);
  LpSolution Warm = Solver.solve();
  EXPECT_EQ(Warm.Status, SolveStatus::Infeasible);
  expectMatchesCold(P, Warm, "infeasible");
  // A failed solve leaves nothing to continue from: the next solve
  // runs cold over the whole problem and agrees again.
  EXPECT_EQ(Solver.solve().Status, SolveStatus::Infeasible);
}

TEST(LpIncremental, DegenerateAppendedRows) {
  // Rows that pass exactly through the current optimum (degenerate
  // slacks), duplicates of rows already in the LP, and an all-zero row:
  // the dual phase must neither cycle nor lose optimality.
  Rng R(3004);
  std::vector<double> Witness;
  LinearProgram P = makeBoxLp(20, R, Witness);
  appendWitnessRows(P, Witness, 30, 0.5, R);
  SimplexSolver Solver(P);
  LpSolution First = Solver.solve();
  ASSERT_EQ(First.Status, SolveStatus::Optimal);
  for (int I = 0; I < 10; ++I) {
    std::vector<int> Index;
    std::vector<double> Value;
    for (int J = 0; J < 20; ++J) {
      Index.push_back(J);
      Value.push_back(R.normal());
    }
    double Activity = 0.0;
    for (size_t K = 0; K < Index.size(); ++K)
      Activity += Value[K] * First.X[static_cast<size_t>(Index[K])];
    P.addRowLe(std::move(Index), std::move(Value), Activity);
  }
  for (int I = 0; I < 5; ++I) {
    // An exact duplicate of a stored row: its equilibrated entries (scale
    // 1) with its bounds scaled alike.
    std::vector<int> Index(20);
    for (int J = 0; J < 20; ++J)
      Index[static_cast<size_t>(J)] = J;
    std::vector<double> Value(P.rowData(I), P.rowData(I) + 20);
    P.addRow(Index, Value, P.rowLo(I) / P.rowScale(I),
             P.rowHi(I) / P.rowScale(I));
  }
  P.addRow({0, 1}, {0.0, 0.0}, -1.0, 1.0);
  expectMatchesCold(P, Solver.solve(), "degenerate rows");
  appendWitnessRows(P, Witness, 10, 0.05, R);
  expectMatchesCold(P, Solver.solve(), "after degenerate rows");
}

TEST(LpIncremental, DeltaLpBoxAcrossRounds) {
  // The repair encoding with a finite DeltaBound: l1 split variables in
  // [0, Bound], rows appended in constraint-generation style.
  for (Norm N : {Norm::L1, Norm::LInf, Norm::L1PlusLInf}) {
    Rng R(3005);
    const int Dim = 30;
    DeltaLp D(Dim, N, 0.75);
    std::vector<double> Witness(static_cast<size_t>(Dim));
    for (double &Wj : Witness)
      Wj = R.uniform(-0.5, 0.5);
    auto AddRows = [&](int Count) {
      for (int I = 0; I < Count; ++I) {
        std::vector<double> Coef(static_cast<size_t>(Dim));
        double Activity = 0.0;
        for (int J = 0; J < Dim; ++J) {
          Coef[static_cast<size_t>(J)] = R.normal();
          Activity += Coef[static_cast<size_t>(J)] *
                      Witness[static_cast<size_t>(J)];
        }
        D.addConstraint(Coef, -kInfinity, Activity + R.uniform(0.0, 0.1));
      }
    };
    AddRows(12);
    SimplexSolver Solver(D.problem());
    ASSERT_EQ(Solver.solve().Status, SolveStatus::Optimal);
    for (int Round = 0; Round < 4; ++Round) {
      AddRows(8);
      LpSolution Warm = Solver.solve();
      expectMatchesCold(D.problem(), Warm,
                        std::string(toString(N)) + " round " +
                            std::to_string(Round));
      if (Warm.Status == SolveStatus::Optimal) {
        for (double V : D.extractDelta(Warm.X))
          EXPECT_LE(std::fabs(V), 0.75 + 1e-9);
      }
    }
  }
}

TEST_F(LpKernelIdentityTest, WarmPathBitIdenticalAcrossThreadCounts) {
  // 150 kept rows in round 1, then 190, 230 and 270 in warm rounds.
  auto Run = [] {
    Rng R(3006);
    std::vector<double> Witness;
    LinearProgram P = makeBoxLp(60, R, Witness);
    appendWitnessRows(P, Witness, 150, 0.5, R);
    SimplexSolver Solver(P);
    std::vector<LpSolution> Rounds;
    Rounds.push_back(Solver.solve());
    for (int Round = 0; Round < 3; ++Round) {
      appendWitnessRows(P, Witness, 40, 0.1, R);
      Rounds.push_back(Solver.solve());
    }
    return Rounds;
  };
  setGlobalThreadCount(1);
  std::vector<LpSolution> Reference = Run();
  ASSERT_EQ(Reference.back().Status, SolveStatus::Optimal);
  for (int Threads : {4, 8}) {
    setGlobalThreadCount(Threads);
    std::vector<LpSolution> Rounds = Run();
    ASSERT_EQ(Rounds.size(), Reference.size());
    for (size_t I = 0; I < Rounds.size(); ++I)
      expectBitIdentical(Reference[I], Rounds[I],
                         "round " + std::to_string(I + 1) + " @" +
                             std::to_string(Threads) + " threads");
  }
}

// --- The structural core -----------------------------------------------------
//
// The solver factors only the basis's structural core A_TS (T: the rows
// whose slack is nonbasic, S: the basic structurals, k = |S| = |T|).
// These cases pin its extremes - k = 0 (every slack basic) and k = M (a
// square equality system) - drive each of its four updates along a
// hand-checked pivot path, and run a tall repair-shaped LP across
// rounds. Every case is checked for KKT and for bit-identity at 1, 4
// and 8 threads.

class LpCoreTest : public LpKernelIdentityTest {};

/// k read off the solution: how many structurals lie strictly inside
/// their bounds, each of them at or inside its bounds. At a
/// nondegenerate optimum those are exactly the basic structurals.
int coreSize(const LinearProgram &P, const std::vector<double> &X) {
  int K = 0;
  for (int J = 0; J < P.numVariables(); ++J) {
    EXPECT_GE(X[J], P.variableLo(J)) << J;
    EXPECT_LE(X[J], P.variableHi(J)) << J;
    K += X[J] > P.variableLo(J) && X[J] < P.variableHi(J);
  }
  return K;
}

/// Solves \p P at 1, 4 and 8 threads (bit-identical), expects Optimal
/// and the KKT conditions, and returns the solution.
LpSolution solveCoreCase(const LinearProgram &P, const std::string &What) {
  LpSolution S = expectSameAtEveryThreadCount(P, SimplexOptions(), What);
  EXPECT_EQ(S.Status, SolveStatus::Optimal) << What;
  if (S.Status == SolveStatus::Optimal)
    expectKktConditions(P, S, What);
  return S;
}

TEST_F(LpCoreTest, AllSlackOptimumHasAnEmptyCore) {
  // Rows that never bind inside the box: the optimum puts every variable
  // at its cheaper bound (bound flips from the cold start), and every
  // slack stays basic.
  Rng R(4001);
  const int Vars = 10;
  LinearProgram P;
  for (int J = 0; J < Vars; ++J)
    P.addVariable(-3.0, 2.0, R.normal());
  for (int I = 0; I < 30; ++I) {
    std::vector<int> Index;
    std::vector<double> Value;
    for (int J = 0; J < Vars; ++J) {
      Index.push_back(J);
      Value.push_back(R.normal());
    }
    P.addRow(std::move(Index), std::move(Value), -100.0, 100.0);
  }
  LpSolution S = solveCoreCase(P, "k = 0");
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_EQ(coreSize(P, S.X), 0);
  EXPECT_EQ(S.Stats.Pivots, 0);
  for (int J = 0; J < Vars; ++J)
    EXPECT_EQ(S.X[J], P.objectiveCoef(J) > 0.0 ? -3.0 : 2.0) << J;
}

TEST_F(LpCoreTest, SquareEqualitySystemFillsTheCore) {
  // M equality rows over M free variables: the unique solution has every
  // structural basic and every (fixed) slack nonbasic, k = M, at a
  // small and a wide size.
  for (int M : {24, 200}) {
    Rng R(4002 + M);
    LinearProgram P;
    std::vector<double> Witness(static_cast<size_t>(M));
    for (int J = 0; J < M; ++J) {
      P.addFreeVariable(R.normal());
      Witness[static_cast<size_t>(J)] = R.uniform(-2.0, 2.0);
    }
    for (int I = 0; I < M; ++I) {
      std::vector<int> Index;
      std::vector<double> Value;
      double Activity = 0.0;
      for (int J = 0; J < M; ++J) {
        double C = R.normal();
        Index.push_back(J);
        Value.push_back(C);
        Activity += C * Witness[static_cast<size_t>(J)];
      }
      P.addRowEq(std::move(Index), std::move(Value), Activity);
    }
    std::string What = "k = M = " + std::to_string(M);
    LpSolution S = solveCoreCase(P, What);
    ASSERT_EQ(S.Status, SolveStatus::Optimal) << What;
    EXPECT_EQ(coreSize(P, S.X), M) << What;
    EXPECT_LE(P.maxViolation(S.X), 1e-7) << What;
    for (int J = 0; J < M; ++J)
      EXPECT_NEAR(S.X[J], Witness[static_cast<size_t>(J)], 1e-6) << What;
  }
}

TEST_F(LpCoreTest, EachCoreUpdateKind) {
  // Hand-checked pivot paths whose pivots are forced: from the cold
  // slack basis, and for the row swap from an appended-row round.
  // Variables live in [0, 10], rows in (-inf, Hi].
  auto Expect = [](const LinearProgram &P, const LpSolution &S,
                   const std::string &What, int Pivots, int CoreSize,
                   double Objective) {
    ASSERT_EQ(S.Status, SolveStatus::Optimal) << What;
    EXPECT_EQ(S.Stats.Pivots, Pivots) << What;
    EXPECT_EQ(coreSize(P, S.X), CoreSize) << What;
    EXPECT_NEAR(S.Objective, Objective, 1e-12) << What;
  };

  // Grow: min -x s.t. x <= 1. x enters and the slack leaves at its
  // bound: k 0 -> 1.
  {
    LinearProgram P;
    P.addVariable(0.0, 10.0, -1.0);
    P.addRowLe({0}, {1.0}, 1.0);
    Expect(P, solveCoreCase(P, "grow"), "grow", 1, 1, -1.0);
  }
  // Column swap: min -2x - 1.5y s.t. x + 0.5y <= 1. Dantzig pricing
  // takes x first (grow, x = 1); then y still prices at -0.5, enters,
  // and x leaves at 0 (y = 2): S changes, T does not.
  {
    LinearProgram P;
    P.addVariable(0.0, 10.0, -2.0);
    P.addVariable(0.0, 10.0, -1.5);
    P.addRowLe({0, 1}, {1.0, 0.5}, 1.0);
    Expect(P, solveCoreCase(P, "column swap"), "column swap", 2, 1, -3.0);
  }
  // Row swap: min -x s.t. x <= 2 leaves x basic in row 0 (grow); the
  // appended row x <= 1 then makes its basic slack infeasible, and the
  // dual simplex swaps it out for row 0's slack: T changes, S does not.
  {
    LinearProgram Round1;
    Round1.addVariable(0.0, 10.0, -1.0);
    Round1.addRowLe({0}, {1.0}, 2.0);
    LinearProgram P;
    LpSolution Ref;
    for (int Threads : {1, 4, 8}) {
      setGlobalThreadCount(Threads);
      P = Round1;
      SimplexSolver Solver(P);
      Expect(P, Solver.solve(), "row swap, round 1", 1, 1, -2.0);
      P.addRowLe({0}, {1.0}, 1.0);
      LpSolution S = Solver.solve();
      if (Threads == 1)
        Ref = S;
      else
        expectBitIdentical(Ref, S,
                           "row swap @" + std::to_string(Threads) + " threads");
    }
    Expect(P, Ref, "row swap", 1, 1, -1.0);
    expectKktConditions(P, Ref, "row swap");
  }
  // Shrink: min -x - y s.t. x <= 4, x - y <= 1. x enters and stops on
  // row 1 at x = 1 (grow); y enters and drags x along row 1 to row 0
  // at (4, 3) (grow, k = 2); then row 1's slack enters and y leaves at
  // its bound 10: k 2 -> 1.
  {
    LinearProgram P;
    P.addVariable(0.0, 10.0, -1.0);
    P.addVariable(0.0, 10.0, -1.0);
    P.addRowLe({0}, {1.0}, 4.0);
    P.addRowLe({0, 1}, {1.0, -1.0}, 1.0);
    Expect(P, solveCoreCase(P, "shrink"), "shrink", 3, 1, -14.0);
  }
}

TEST_F(LpCoreTest, TallRepairShapedDeltaLpAcrossRounds) {
  // The fog-lines shape: an l1 DeltaLp with many rows and few tight
  // ones, 1,000 rows over 64 deltas appended in three rounds. Each round
  // must match a cold solve of the rows so far, satisfy KKT, and be
  // bit-identical at 1, 4 and 8 threads.
  const int Dim = 64;
  auto Run = [&] {
    Rng R(4010);
    DeltaLp D(Dim, Norm::L1, 10.0);
    std::vector<double> Witness(static_cast<size_t>(Dim));
    for (double &Wj : Witness)
      Wj = R.uniform(-0.5, 0.5);
    std::vector<LpSolution> Rounds;
    std::vector<LinearProgram> Problems;
    addRepairShapedRows(D, Witness, 400, R);
    SimplexSolver Solver(D.problem());
    for (int Count : {0, 300, 300}) {
      addRepairShapedRows(D, Witness, Count, R);
      Rounds.push_back(Solver.solve());
      Problems.push_back(D.problem());
    }
    return std::make_pair(Rounds, Problems);
  };
  setGlobalThreadCount(1);
  auto [Reference, Problems] = Run();
  for (size_t I = 0; I < Reference.size(); ++I) {
    std::string What = "round " + std::to_string(I + 1);
    ASSERT_EQ(Reference[I].Status, SolveStatus::Optimal) << What;
    expectMatchesCold(Problems[I], Reference[I], What);
    expectKktConditions(Problems[I], Reference[I], What);
    // Every round runs the dual simplex, round 1 from the slack basis.
    EXPECT_GT(Reference[I].Iterations, 0) << What;
    EXPECT_EQ(Reference[I].Phase1Iterations, 0) << What;
  }
  EXPECT_EQ(Problems.back().numRows(), 1000);
  for (int Threads : {4, 8}) {
    setGlobalThreadCount(Threads);
    std::vector<LpSolution> Rounds = Run().first;
    for (size_t I = 0; I < Rounds.size(); ++I)
      expectBitIdentical(Reference[I], Rounds[I],
                         "round " + std::to_string(I + 1) + " @" +
                             std::to_string(Threads) + " threads");
  }
}

TEST_F(LpCoreTest, RepairShapedColdSolvesRunNoPhase1) {
  // One cold solve each of the l1 and l1+l-inf repair shapes: the slack
  // basis is dual feasible, so the dual simplex reaches the optimum and
  // the primal phases only verify it.
  for (Norm N : {Norm::L1, Norm::L1PlusLInf}) {
    DeltaLp D = makeRepairShapedDeltaLp(48, 300, N, 4020);
    std::string What = toString(N);
    LpSolution S = solveCoreCase(D.problem(), What);
    EXPECT_GT(S.Iterations, 0) << What;
    EXPECT_EQ(S.Phase1Iterations, 0) << What;
    EXPECT_EQ(S.Stats.DualStalls, 0) << What;
  }
}

TEST_F(LpCoreTest, LInfColdSolveHandsTheStalledDualPhaseToThePrimalPhases) {
  // Under l-inf every Delta costs 0, so the dual steps come in long
  // degenerate runs: the dual phase makes StallLimit zero steps in a
  // row, counts one stall, and the primal phases finish the solve.
  DeltaLp D = makeRepairShapedDeltaLp(32, 150, Norm::LInf, 4021);
  LpSolution S = solveCoreCase(D.problem(), "l-inf");
  EXPECT_EQ(S.Stats.DualStalls, 1);
  EXPECT_GE(S.Iterations - S.Phase1Iterations, SimplexOptions().StallLimit);
  EXPECT_LE(D.problem().maxViolation(S.X), 1e-6);
}

// --- The row store ---------------------------------------------------------

/// The entries the solver read before rows were stored equilibrated: it
/// started from a +0.0 row and added C / S for every coefficient the
/// problem kept (DeltaLp dropped exact zeros of either sign; the l1 split
/// kept -C in the Q column), S the largest |C| or 1 for a row of zeros.
std::vector<double> equilibratedRow(const std::vector<double> &Coef,
                                    Norm Objective) {
  double MaxAbs = 0.0;
  for (double C : Coef)
    MaxAbs = std::max(MaxAbs, std::fabs(C));
  double S = MaxAbs > 0.0 ? MaxAbs : 1.0;
  size_t N = Coef.size();
  bool Split = Objective != Norm::LInf;
  std::vector<double> Row((Split ? 2 * N : N) +
                              (Objective == Norm::L1 ? 0 : 1),
                          0.0);
  for (size_t J = 0; J < N; ++J) {
    double C = Coef[J];
    if (std::fabs(C) <= 0.0)
      continue;
    Row[J] += C / S;
    if (Split)
      Row[N + J] += -C / S;
  }
  return Row;
}

TEST(LpRowStore, DeltaLpRowsMatchTheSolversFormerRowsBitForBit) {
  // 0.0 and -0.0 are stored as +0.0 in both columns of the split;
  // -1e-323 / 7 underflows to -0.0, which is stored as +0.0 too; the
  // subnormal 1e-320 / 7 stays nonzero, its negation in the Q column.
  const std::vector<double> Coef = {2.0,     0.0,  -0.0,   -7.0,
                                    -1e-323, 1e-320, 0.1,  3.0 / 7.0};
  ASSERT_EQ(-1e-323 / 7.0, 0.0);
  ASSERT_TRUE(std::signbit(-1e-323 / 7.0));
  for (Norm N : {Norm::L1, Norm::LInf, Norm::L1PlusLInf}) {
    std::string What = toString(N);
    DeltaLp D(static_cast<int>(Coef.size()), N, 10.0);
    int Row = D.problem().numRows();
    D.addConstraint(Coef, -1.5, 4.0);
    D.addConstraint({0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, -1.0, 1.0);
    const LinearProgram &P = D.problem();
    ASSERT_EQ(P.numRows(), Row + 2) << What;
    std::vector<double> Want = equilibratedRow(Coef, N);
    ASSERT_EQ(Want.size(), static_cast<size_t>(P.numVariables())) << What;
    std::vector<double> Got(P.rowData(Row), P.rowData(Row) + Want.size());
    expectSameBits(Want, Got, What);
    EXPECT_EQ(P.rowScale(Row), 7.0) << What;
    EXPECT_EQ(P.rowLo(Row), -1.5) << What;
    EXPECT_EQ(P.rowHi(Row), 4.0) << What;
    EXPECT_FALSE(P.rowEmpty(Row)) << What;

    // A row of zeros: scale 1, every entry +0.0, dropped by presolve.
    std::vector<double> Zeros(Want.size(), 0.0);
    std::vector<double> GotZeros(P.rowData(Row + 1),
                                 P.rowData(Row + 1) + Want.size());
    expectSameBits(Zeros, GotZeros, What + " zeros");
    EXPECT_EQ(P.rowScale(Row + 1), 1.0) << What;
    EXPECT_TRUE(P.rowEmpty(Row + 1)) << What;
  }
}

TEST(LpRowStore, GeneralRowsAreStoredEquilibrated) {
  LinearProgram P;
  for (int J = 0; J < 4; ++J)
    P.addVariable(-1.0, 1.0, 1.0);
  P.addRow({3, 0}, {-0.5, 4.0}, -2.0, 8.0);
  const std::vector<double> Want = {1.0, 0.0, 0.0, -0.125};
  std::vector<double> Got(P.rowData(0), P.rowData(0) + 4);
  expectSameBits(Want, Got, "row");
  EXPECT_EQ(P.rowScale(0), 4.0);
  EXPECT_EQ(P.rowLo(0), -2.0);
  EXPECT_EQ(P.rowHi(0), 8.0);
  // The activity is taken on the unscaled form.
  EXPECT_EQ(P.rowActivity(0, {0.25, 0.0, 0.0, 1.0}), 0.5);
}

TEST(LpRowStore, RowsStoredBeforeAVariableReadZeroInItsColumn) {
  // Wide rows, ten to a 256 KiB block, so re-laying them out spans
  // several blocks.
  const int Vars = 3000, Rows = 25, Late = 30;
  Rng R(5150);
  std::vector<std::vector<int>> Index(Rows);
  std::vector<std::vector<double>> Value(Rows);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Vars; ++J)
      if (R.bernoulli(0.1)) {
        Index[I].push_back(J);
        Value[I].push_back(R.normal());
      }
  std::vector<double> Lo(Vars + Late), Hi(Vars + Late), Cost(Vars + Late);
  // Nonnegative costs from 0: the dual simplex solves it from the slack
  // basis, every row violated there.
  for (int J = 0; J < Vars + Late; ++J) {
    Lo[J] = 0.0;
    Hi[J] = R.uniform(0.5, 2.0);
    Cost[J] = R.uniform(0.1, 1.0);
  }

  // The same LP twice: every variable before the rows, and the last 30
  // variables added after them.
  LinearProgram Early, LateVars;
  for (int J = 0; J < Vars + Late; ++J)
    Early.addVariable(Lo[J], Hi[J], Cost[J]);
  for (int J = 0; J < Vars; ++J)
    LateVars.addVariable(Lo[J], Hi[J], Cost[J]);
  for (int I = 0; I < Rows; ++I) {
    Early.addRow(Index[I], Value[I], 0.5, 1.0);
    LateVars.addRow(Index[I], Value[I], 0.5, 1.0);
  }
  for (int J = Vars; J < Vars + Late; ++J)
    LateVars.addVariable(Lo[J], Hi[J], Cost[J]);

  ASSERT_EQ(LateVars.numVariables(), Vars + Late);
  for (int I = 0; I < Rows; ++I) {
    std::vector<double> Want(Early.rowData(I), Early.rowData(I) + Vars + Late);
    std::vector<double> Got(LateVars.rowData(I),
                            LateVars.rowData(I) + Vars + Late);
    expectSameBits(Want, Got, "row " + std::to_string(I));
  }
  // A row added after the late variables, and a copy of the problem,
  // read the same; the solves agree bit for bit.
  Early.addRowGe({0, Vars + Late - 1}, {1.0, 1.0}, 0.5);
  LateVars.addRowGe({0, Vars + Late - 1}, {1.0, 1.0}, 0.5);
  LinearProgram Copy = LateVars;
  LpSolution Ref = solveLp(Early);
  ASSERT_EQ(Ref.Status, SolveStatus::Optimal);
  EXPECT_GT(Ref.Iterations, 0);
  expectBitIdentical(Ref, solveLp(LateVars), "late variables");
  expectBitIdentical(Ref, solveLp(Copy), "copy");
}

} // namespace
