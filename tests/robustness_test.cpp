//===- tests/robustness_test.cpp - failure injection and option coverage -------===//
//
// Exercises the less-happy paths: solver budget exhaustion, delta box
// binding, constraint-generation edge configurations, and degenerate
// specifications.
//
//===----------------------------------------------------------------------===//

#include "core/PointRepair.h"
#include "core/PolytopeRepair.h"

#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

namespace {

using namespace prdnn;

Vector randomVector(Rng &R, int Size, double Scale = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = Scale * R.normal();
  return V;
}

Matrix randomMatrix(Rng &R, int Rows, int Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = Scale * R.normal();
  return M;
}

Network makeReluNet(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 10, 4, 0.8), randomVector(R, 10, 0.2)));
  Net.addLayer(std::make_unique<ReLULayer>(10));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 3, 10, 0.8), randomVector(R, 3, 0.2)));
  return Net;
}

TEST(Robustness, IterationLimitSurfacesAsSolverFailure) {
  Rng R(501);
  Network Net = makeReluNet(R);
  PointSpec Spec;
  for (int I = 0; I < 6; ++I)
    Spec.push_back({randomVector(R, 4),
                    classificationConstraint(3, R.uniformInt(0, 2), 1e-3),
                    std::nullopt});
  RepairOptions Options;
  Options.Lp.MaxIterations = 1; // starve the solver
  RepairResult Result = repairPoints(Net, 2, Spec, Options);
  EXPECT_EQ(Result.Status, RepairStatus::SolverFailure);
  EXPECT_FALSE(Result.Repaired.has_value());
}

TEST(Robustness, TightDeltaBoundMakesRepairInfeasible) {
  Rng R(502);
  Network Net = makeReluNet(R);
  Vector X = randomVector(R, 4);
  Vector Y = Net.evaluate(X);
  // Demand a huge output shift under a tiny per-parameter box.
  PointSpec Spec;
  Spec.push_back({X,
                  boxConstraint(Vector{Y[0] + 100.0, Y[1], Y[2]},
                                Vector{Y[0] + 101.0, Y[1], Y[2]}),
                  std::nullopt});
  // RowMargin must be zero: the spec pins outputs 1 and 2 exactly, and
  // any positive margin would empty those equality rows.
  RepairOptions Tight;
  Tight.DeltaBound = 1e-3;
  Tight.RowMargin = 0.0;
  EXPECT_EQ(repairPoints(Net, 2, Spec, Tight).Status,
            RepairStatus::Infeasible);
  // The same spec is feasible with a generous box.
  RepairOptions Loose;
  Loose.DeltaBound = 1e6;
  Loose.RowMargin = 0.0;
  EXPECT_EQ(repairPoints(Net, 2, Spec, Loose).Status,
            RepairStatus::Success);
}

TEST(Robustness, ZeroCgRoundsFallsBackToFullSolve) {
  Rng R(503);
  Network Net = makeReluNet(R);
  PointSpec Spec;
  for (int I = 0; I < 5; ++I)
    Spec.push_back({randomVector(R, 4),
                    classificationConstraint(3, R.uniformInt(0, 2), 1e-3),
                    std::nullopt});
  RepairOptions Options;
  Options.MaxCgRounds = 0; // generation exhausted immediately
  RepairResult Result = repairPoints(Net, 2, Spec, Options);
  EXPECT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_LE(Result.Stats.VerifiedViolation, 1e-6);
}

TEST(Robustness, TinyCgBatchStillConverges) {
  Rng R(504);
  Network Net = makeReluNet(R);
  PointSpec Spec;
  for (int I = 0; I < 8; ++I)
    Spec.push_back({randomVector(R, 4),
                    classificationConstraint(3, R.uniformInt(0, 2), 1e-3),
                    std::nullopt});
  RepairOptions Options;
  Options.CgBatch = 1;
  Options.MaxCgRounds = 200;
  RepairResult A = repairPoints(Net, 2, Spec, Options);
  RepairOptions Reference;
  Reference.MaxCgRounds = 0;
  RepairResult B = repairPoints(Net, 2, Spec, Reference);
  ASSERT_EQ(A.Status, RepairStatus::Success);
  ASSERT_EQ(B.Status, RepairStatus::Success);
  EXPECT_NEAR(A.DeltaL1, B.DeltaL1, 1e-5 * (1.0 + B.DeltaL1));
}

TEST(Robustness, RowMarginTightensTheRepair) {
  // A larger margin produces a repair at least as large (the feasible
  // set shrinks), and strictly separates the winning class.
  Rng R(505);
  Network Net = makeReluNet(R);
  Vector X = randomVector(R, 4);
  int Target = (Net.classify(X) + 1) % 3;
  auto Run = [&](double Margin) {
    PointSpec Spec;
    Spec.push_back({X, classificationConstraint(3, Target, Margin),
                    std::nullopt});
    RepairOptions Options;
    Options.RowMargin = 0.0;
    return repairPoints(Net, 2, Spec, Options);
  };
  RepairResult Small = Run(1e-6);
  RepairResult Large = Run(0.5);
  ASSERT_EQ(Small.Status, RepairStatus::Success);
  ASSERT_EQ(Large.Status, RepairStatus::Success);
  EXPECT_GE(Large.DeltaL1, Small.DeltaL1 - 1e-9);
  Vector Y = Large.Repaired->evaluate(X);
  for (int O = 0; O < 3; ++O) {
    if (O != Target) {
      EXPECT_GE(Y[Target] - Y[O], 0.5 - 1e-6);
    }
  }
}

TEST(Robustness, DuplicateSpecPointsAreHarmless) {
  Rng R(506);
  Network Net = makeReluNet(R);
  Vector X = randomVector(R, 4);
  PointSpec Spec;
  for (int I = 0; I < 4; ++I)
    Spec.push_back({X, classificationConstraint(3, 1, 1e-3), std::nullopt});
  RepairResult Result = repairPoints(Net, 2, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_EQ(Result.Repaired->classify(X), 1);
}

TEST(Robustness, DegenerateSegmentPolytope) {
  // A zero-length segment is a single point; polytope repair handles it
  // as one region with two coincident key points.
  Rng R(507);
  Network Net = makeReluNet(R);
  Vector X = randomVector(R, 4);
  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{SegmentPolytope{X, X},
                              classificationConstraint(3, 0, 1e-3)});
  RepairResult Result = repairPolytopes(Net, 2, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_EQ(Result.Repaired->classify(X), 0);
}

TEST(Robustness, LpIterationBudgetRespected) {
  // Even pathological budgets terminate and report honestly.
  lp::LinearProgram P;
  Rng R(508);
  for (int J = 0; J < 20; ++J)
    P.addVariable(-1.0, 1.0, R.normal());
  for (int I = 0; I < 40; ++I) {
    std::vector<int> Index;
    std::vector<double> Value;
    for (int J = 0; J < 20; ++J) {
      Index.push_back(J);
      Value.push_back(R.normal());
    }
    P.addRowLe(std::move(Index), std::move(Value), R.uniform(1.0, 5.0));
  }
  lp::SimplexOptions Options;
  Options.MaxIterations = 3;
  lp::LpSolution S = lp::solveLp(P, Options);
  EXPECT_TRUE(S.Status == lp::SolveStatus::IterationLimit ||
              S.Status == lp::SolveStatus::Optimal);
  EXPECT_LE(S.Iterations, 3 + 1);
}

} // namespace
