//===- tests/repair_test.cpp - point/polytope repair tests --------------------===//
//
// Reproduces the paper's §3 worked examples exactly (including the
// l1-minimal deltas), checks Theorem 5.4/6.4 level guarantees
// (satisfaction, minimality vs. alternatives, infeasibility detection),
// and sweeps randomized repair problems with and without constraint
// generation.
//
//===----------------------------------------------------------------------===//

#include "core/PointRepair.h"
#include "core/PolytopeRepair.h"

#include "api/RepairEngine.h"
#include "data/ShapeWorld.h"
#include "nn/ActivationLayers.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "tests/SpecRowsChecks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace {

using namespace prdnn;
using namespace prdnn::test;

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

Network makeFigure3Network() {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0}, {1.0}, {1.0}}), Vector{0.0, 0.0, -1.0}));
  Net.addLayer(std::make_unique<ReLULayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0, -1.0, 1.0}}), Vector{0.0}));
  return Net;
}

/// Mask matching the paper's drawn network: the three x->h weights and
/// h3's bias are repairable; h1/h2 biases do not exist in Figure 3 and
/// are frozen.
std::vector<bool> figure3Mask() {
  // Param layout for fc 3x1: W(3) then bias(3).
  return {true, true, true, false, false, true};
}

Network makeRandomReluClassifier(Rng &R, int InputSize, int Hidden,
                                 int Classes) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, Hidden, InputSize, 0.9),
      randomVector(R, Hidden, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(Hidden));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, Hidden, Hidden, 0.9), randomVector(R, Hidden, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(Hidden));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, Classes, Hidden, 0.9),
      randomVector(R, Classes, 0.3)));
  return Net;
}

// --- Paper §3.1 worked example ----------------------------------------------

TEST(PointRepair, PaperSection31ExactDeltas) {
  // Spec (Equation 2): -1 <= N'(0.5) <= -0.8 and -0.2 <= N'(1.5) <= 0.
  // Paper's l1-minimal repair of the first layer: Delta2 = 0.6,
  // Delta3 = 1.1333..., all others 0 (total 26/15).
  Network Net = makeFigure3Network();
  PointSpec Spec;
  Spec.push_back({Vector{0.5},
                  boxConstraint(Vector{-1.0}, Vector{-0.8}),
                  std::nullopt});
  Spec.push_back({Vector{1.5},
                  boxConstraint(Vector{-0.2}, Vector{0.0}),
                  std::nullopt});

  RepairOptions Options;
  Options.Objective = lp::Norm::L1;
  Options.ParamMask = figure3Mask();
  Options.RowMargin = 0.0;
  RepairResult Result = repairPoints(Net, 0, Spec, Options);

  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_NEAR(Result.Delta[0], 0.0, 1e-6);        // x->h1
  EXPECT_NEAR(Result.Delta[1], 0.6, 1e-6);        // x->h2
  EXPECT_NEAR(Result.Delta[2], 17.0 / 15.0, 1e-6); // x->h3 = 1.1333
  EXPECT_NEAR(Result.Delta[5], 0.0, 1e-6);        // h3 bias
  EXPECT_NEAR(Result.DeltaL1, 0.6 + 17.0 / 15.0, 1e-6);

  // Repaired values match Figure 5(c): N5(0.5) = -0.8, N5(1.5) = -0.2.
  const DecoupledNetwork &N5 = *Result.Repaired;
  EXPECT_NEAR(N5.evaluate(Vector{0.5})[0], -0.8, 1e-7);
  EXPECT_NEAR(N5.evaluate(Vector{1.5})[0], -0.2, 1e-7);

  // Locality: the linear regions are unchanged (Theorem 4.6), so the
  // repaired DDNN still maps x = -0.5 like N1 does outside the repair.
  EXPECT_NEAR(N5.evaluate(Vector{-0.5})[0], -0.5, 1e-7);
}

TEST(PolytopeRepair, PaperSection32SingleWeightChange) {
  // Spec (Equation 3): for all x in [0.5, 1.5], -0.8 <= N'(x) <= -0.4.
  // Paper: key points {0.5, 1, 1, 1.5}; l1-minimal repair is the single
  // change Delta2 = -0.2.
  Network Net = makeFigure3Network();
  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{
      SegmentPolytope{Vector{0.5}, Vector{1.5}},
      boxConstraint(Vector{-0.8}, Vector{-0.4})});

  RepairOptions Options;
  Options.Objective = lp::Norm::L1;
  Options.ParamMask = figure3Mask();
  Options.RowMargin = 0.0;
  RepairResult Result = repairPolytopes(Net, 0, Spec, Options);

  ASSERT_EQ(Result.Status, RepairStatus::Success);
  // Two linear regions overlap [0.5, 1.5] -> 4 key points (1 appears
  // twice, once per region; Appendix B).
  EXPECT_EQ(Result.Stats.KeyPoints, 4);
  EXPECT_EQ(Result.Stats.LinearRegions, 2);
  EXPECT_NEAR(Result.Delta[1], -0.2, 1e-6);
  EXPECT_NEAR(Result.DeltaL1, 0.2, 1e-6);

  // Figure 5(d): N6(0.5) = -0.4 ... N6(1.5) = -0.5; verify the spec on
  // dense samples of the segment (the whole point of Theorem 6.4).
  const DecoupledNetwork &N6 = *Result.Repaired;
  for (int I = 0; I <= 100; ++I) {
    double X = 0.5 + I / 100.0;
    double Y = N6.evaluate(Vector{X})[0];
    EXPECT_LE(Y, -0.4 + 1e-7) << "x = " << X;
    EXPECT_GE(Y, -0.8 - 1e-7) << "x = " << X;
  }
}

// --- Guarantees ---------------------------------------------------------------

TEST(PointRepair, InfeasibleSpecDetected) {
  // Contradictory constraints on the same point: no repair of any layer
  // can satisfy them.
  Network Net = makeFigure3Network();
  PointSpec Spec;
  Spec.push_back({Vector{0.5}, boxConstraint(Vector{1.0}, Vector{2.0}),
                  std::nullopt});
  Spec.push_back({Vector{0.5}, boxConstraint(Vector{-2.0}, Vector{-1.0}),
                  std::nullopt});
  for (int LayerIdx : Net.parameterizedLayerIndices()) {
    RepairResult Result = repairPoints(Net, LayerIdx, Spec);
    EXPECT_EQ(Result.Status, RepairStatus::Infeasible);
  }
}

TEST(PointRepair, AlreadySatisfiedSpecYieldsZeroDelta) {
  Network Net = makeFigure3Network();
  PointSpec Spec;
  Spec.push_back({Vector{0.5}, boxConstraint(Vector{-1.0}, Vector{0.0}),
                  std::nullopt});
  RepairResult Result = repairPoints(Net, 0, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_NEAR(Result.DeltaL1, 0.0, 1e-9);
}

TEST(PointRepair, MinimalityAgainstHandConstructedAlternative) {
  // Force N(0.5) from -0.5 to exactly -1.0 by repairing the output
  // layer. Output layer params: (w1, w2, w3, b); at x=0.5 only h2=0.5
  // is active, so the constraint is -0.5 + 0.5 dw2 + db = -1. The
  // l1-minimal solution is db = -0.5 (cost 0.5) rather than dw2 = -1.
  Network Net = makeFigure3Network();
  PointSpec Spec;
  Spec.push_back({Vector{0.5}, boxConstraint(Vector{-1.0}, Vector{-1.0}),
                  std::nullopt});
  RepairOptions Options;
  Options.RowMargin = 0.0;
  RepairResult Result = repairPoints(Net, 2, Spec, Options);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_NEAR(Result.DeltaL1, 0.5, 1e-6);
  EXPECT_NEAR(Result.Delta[3], -0.5, 1e-6); // the bias
}

TEST(PointRepair, LInfObjectiveSpreadsTheChange) {
  // Same constraint under l-infinity: spreading over w2 and b is now
  // optimal with max-magnitude 1/3 (dw2 * 0.5 + db = -0.5 with
  // |dw2|,|db| <= t minimized at t = 1/3).
  Network Net = makeFigure3Network();
  PointSpec Spec;
  Spec.push_back({Vector{0.5}, boxConstraint(Vector{-1.0}, Vector{-1.0}),
                  std::nullopt});
  RepairOptions Options;
  Options.Objective = lp::Norm::LInf;
  Options.RowMargin = 0.0;
  RepairResult Result = repairPoints(Net, 2, Spec, Options);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_NEAR(Result.DeltaLInf, 1.0 / 3.0, 1e-6);
}

// --- Randomized sweeps ---------------------------------------------------------

struct RepairSweepParams {
  uint64_t Seed;
  int Points;
  bool UseCg;
};

class RepairSweep : public ::testing::TestWithParam<RepairSweepParams> {};

TEST_P(RepairSweep, RepairedNetworkSatisfiesClassificationSpec) {
  RepairSweepParams Params = GetParam();
  Rng R(Params.Seed);
  const int Classes = 4;
  Network Net = makeRandomReluClassifier(R, 5, 12, Classes);

  // Ask for a (random) target class on each point - the typical "buggy
  // points" workload. Repairs the output layer, where a fix always
  // exists for generic inputs.
  PointSpec Spec;
  std::vector<Vector> Xs;
  for (int I = 0; I < Params.Points; ++I) {
    Vector X = randomVector(R, 5, 1.5);
    int Target = R.uniformInt(0, Classes - 1);
    Spec.push_back({X, classificationConstraint(Classes, Target, 1e-3),
                    std::nullopt});
    Xs.push_back(std::move(X));
  }

  RepairOptions Options;
  if (!Params.UseCg)
    Options.MaxCgRounds = 0; // the full LP in one round
  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairResult Result = repairPoints(Net, OutputLayer, Spec, Options);
  ASSERT_EQ(Result.Status, RepairStatus::Success);

  // Every repaired point is now classified as requested (P1 efficacy =
  // 100%), measured on the network, not the LP.
  for (size_t I = 0; I < Spec.size(); ++I) {
    Vector Y = Result.Repaired->evaluate(Spec[I].X);
    EXPECT_LE(Spec[I].Constraint.violation(Y), 1e-6) << "point " << I;
  }
  EXPECT_LE(Result.Stats.VerifiedViolation, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairSweep,
    ::testing::Values(RepairSweepParams{41, 1, true},
                      RepairSweepParams{42, 3, true},
                      RepairSweepParams{43, 6, true},
                      RepairSweepParams{44, 10, true},
                      RepairSweepParams{45, 6, false},
                      RepairSweepParams{46, 10, false},
                      RepairSweepParams{47, 16, true},
                      RepairSweepParams{48, 16, false}));

TEST(PointRepair, ConstraintGenerationMatchesFullSolve) {
  // CG is an exact method: the optimal objective must match the full LP.
  Rng R(51);
  Network Net = makeRandomReluClassifier(R, 4, 10, 3);
  PointSpec Spec;
  for (int I = 0; I < 8; ++I)
    Spec.push_back({randomVector(R, 4, 1.5),
                    classificationConstraint(3, R.uniformInt(0, 2), 1e-3),
                    std::nullopt});
  int OutputLayer = Net.parameterizedLayerIndices().back();

  RepairOptions WithCg;
  RepairOptions Without;
  Without.MaxCgRounds = 0;
  RepairResult A = repairPoints(Net, OutputLayer, Spec, WithCg);
  RepairResult B = repairPoints(Net, OutputLayer, Spec, Without);
  ASSERT_EQ(A.Status, RepairStatus::Success);
  ASSERT_EQ(B.Status, RepairStatus::Success);
  // MaxCgRounds = 0 skips generation: one round over every row.
  EXPECT_EQ(B.Stats.CgRounds, 0);
  EXPECT_EQ(B.Stats.LpRowsUsed, B.Stats.SpecRows);
  EXPECT_NEAR(A.DeltaL1, B.DeltaL1, 1e-5 * (1.0 + B.DeltaL1));
}

TEST(PolytopeRepair, SegmentSpecHoldsOnDenseSamples) {
  Rng R(61);
  Network Net = makeRandomReluClassifier(R, 4, 10, 3);
  // Pick a segment and demand its current majority class everywhere
  // along it (with a positive margin) - a "repair the corridor" spec.
  Vector A = randomVector(R, 4);
  Vector B = randomVector(R, 4);
  int Target = Net.classify(A);

  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{SegmentPolytope{A, B},
                              classificationConstraint(3, Target, 1e-3)});
  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairResult Result = repairPolytopes(Net, OutputLayer, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_GT(Result.Stats.KeyPoints, 0);

  for (int I = 0; I <= 200; ++I) {
    double T = I / 200.0;
    Vector X = B;
    X -= A;
    X *= T;
    X += A;
    EXPECT_EQ(Result.Repaired->classify(X), Target) << "t = " << T;
  }
}

TEST(PolytopeRepair, PlaneSpecHoldsOnDenseSamples) {
  Rng R(62);
  Network Net = makeRandomReluClassifier(R, 4, 8, 3);
  Vector Origin = randomVector(R, 4);
  Vector E1 = randomVector(R, 4, 0.8);
  Vector E2 = randomVector(R, 4, 0.8);
  auto At = [&](double S, double T) {
    Vector V = Origin;
    V += E1 * S;
    V += E2 * T;
    return V;
  };
  int Target = Net.classify(At(0.5, 0.5));

  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{
      PlanePolytope{{At(0, 0), At(1, 0), At(1, 1), At(0, 1)}},
      classificationConstraint(3, Target, 1e-3)});
  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairResult Result = repairPolytopes(Net, OutputLayer, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);

  Rng Sampler(63);
  for (int I = 0; I < 300; ++I) {
    Vector X = At(Sampler.uniform(), Sampler.uniform());
    EXPECT_EQ(Result.Repaired->classify(X), Target);
  }
}

TEST(PointRepair, FrozenParametersStayFrozen) {
  Network Net = makeFigure3Network();
  PointSpec Spec;
  Spec.push_back({Vector{0.5}, boxConstraint(Vector{-1.0}, Vector{-0.9}),
                  std::nullopt});
  RepairOptions Options;
  // Only the h2 bias (index 4) may move.
  Options.ParamMask = std::vector<bool>{false, false, false, false, true,
                                        false};
  RepairResult Result = repairPoints(Net, 0, Spec, Options);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  for (int P = 0; P < 6; ++P) {
    if (P != 4) {
      EXPECT_EQ(Result.Delta[static_cast<size_t>(P)], 0.0) << "param " << P;
    }
  }
  EXPECT_GT(std::fabs(Result.Delta[4]), 1e-9);
}

// --- Batched engine determinism ----------------------------------------------
//
// The batched pipeline promises thread-count-invariant results: the
// repaired Delta must match bit-for-bit between a 1-thread and an
// N-thread run, with and without constraint generation.

TEST(PointRepair, DeltaIdenticalAcrossThreadCounts) {
  Rng R(71);
  Network Net = makeRandomReluClassifier(R, 5, 14, 3);
  PointSpec Spec;
  for (int I = 0; I < 40; ++I) {
    Vector X = randomVector(R, 5);
    Spec.push_back({X, classificationConstraint(3, I % 3, 1e-3),
                    I % 4 == 0 ? std::optional<NetworkPattern>(
                                     computePattern(Net, X))
                               : std::nullopt});
  }
  int OutputLayer = Net.parameterizedLayerIndices().back();
  for (bool UseCg : {false, true}) {
    RepairOptions Options;
    if (!UseCg)
      Options.MaxCgRounds = 0;

    setGlobalThreadCount(1);
    RepairResult Single = repairPoints(Net, OutputLayer, Spec, Options);
    setGlobalThreadCount(4);
    RepairResult Multi = repairPoints(Net, OutputLayer, Spec, Options);
    setGlobalThreadCount(1);

    ASSERT_EQ(Single.Status, Multi.Status) << "cg " << UseCg;
    ASSERT_EQ(Single.Delta.size(), Multi.Delta.size());
    for (size_t P = 0; P < Single.Delta.size(); ++P)
      EXPECT_EQ(Single.Delta[P], Multi.Delta[P])
          << "param " << P << " cg " << UseCg;
    EXPECT_EQ(Single.Stats.SpecRows, Multi.Stats.SpecRows);
  }
}

TEST(PolytopeRepair, KeyPointsIdenticalAcrossThreadCounts) {
  Rng R(72);
  Network Net = makeRandomReluClassifier(R, 4, 10, 3);
  PolytopeSpec Spec;
  for (int I = 0; I < 6; ++I) {
    Vector A = randomVector(R, 4), B = randomVector(R, 4);
    Spec.push_back(SpecPolytope{
        SegmentPolytope{A, B},
        classificationConstraint(3, Net.classify(A), 1e-3)});
  }

  setGlobalThreadCount(1);
  PointSpec Single = keyPointSpec(Net, Spec);
  setGlobalThreadCount(4);
  PointSpec Multi = keyPointSpec(Net, Spec);
  setGlobalThreadCount(1);

  ASSERT_EQ(Single.size(), Multi.size());
  for (size_t P = 0; P < Single.size(); ++P) {
    EXPECT_EQ(Single[P].X.maxAbsDiff(Multi[P].X), 0.0) << "point " << P;
    ASSERT_TRUE(Single[P].Pattern.has_value());
    ASSERT_TRUE(Multi[P].Pattern.has_value());
    EXPECT_TRUE(*Single[P].Pattern == *Multi[P].Pattern) << "point " << P;
  }
}

TEST(PointRepair, StatsTimingPopulatedOnAllPaths) {
  // OtherSeconds/TotalSeconds must be stamped on early exits too.
  Network Net = makeFigure3Network();
  PointSpec Impossible;
  // y <= -1 and y >= 1 simultaneously: infeasible for any Delta.
  Impossible.push_back({Vector{0.5},
                        boxConstraint(Vector{1.0}, Vector{1.5}),
                        std::nullopt});
  Impossible.push_back({Vector{0.5},
                        boxConstraint(Vector{-1.5}, Vector{-1.0}),
                        std::nullopt});
  RepairResult Result = repairPoints(Net, 0, Impossible);
  EXPECT_EQ(Result.Status, RepairStatus::Infeasible);
  EXPECT_GT(Result.Stats.TotalSeconds, 0.0);
  EXPECT_GE(Result.Stats.OtherSeconds, 0.0);
  EXPECT_GE(Result.Stats.TotalSeconds,
            Result.Stats.JacobianSeconds + Result.Stats.LpSeconds +
                Result.Stats.OtherSeconds - 1e-9);
}

TEST(PointRepair, PhaseSecondsPartitionTotalAndCoverTheSolves) {
  // JacobianSeconds + LpSeconds + OtherSeconds == TotalSeconds, and the
  // Lp phase's wall time covers every simplex kernel it ran - on a
  // multi-round success, the full-LP round, and an infeasible exit.
  Rng R(73);
  Network Net = makeRandomReluClassifier(R, 5, 12, 4);
  PointSpec Spec;
  for (int I = 0; I < 30; ++I)
    Spec.push_back({randomVector(R, 5, 1.5),
                    classificationConstraint(4, I % 4, 1e-3), std::nullopt});
  PointSpec Impossible;
  Impossible.push_back({Vector{0.1, 0.2, 0.3, 0.4, 0.5},
                        boxConstraint(Vector{1, -1e9, -1e9, -1e9},
                                      Vector{2, 1e9, 1e9, 1e9}),
                        std::nullopt});
  Impossible.push_back({Vector{0.1, 0.2, 0.3, 0.4, 0.5},
                        boxConstraint(Vector{-2, -1e9, -1e9, -1e9},
                                      Vector{-1, 1e9, 1e9, 1e9}),
                        std::nullopt});
  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairOptions FewRows;
  FewRows.CgBatch = 2;
  RepairOptions Full;
  Full.MaxCgRounds = 0;

  struct Case {
    const char *Name;
    const PointSpec *Spec;
    RepairOptions Options;
    RepairStatus Expect;
  };
  for (const Case &C : {Case{"cg", &Spec, FewRows, RepairStatus::Success},
                        Case{"full", &Spec, Full, RepairStatus::Success},
                        Case{"infeasible", &Impossible, RepairOptions(),
                             RepairStatus::Infeasible}}) {
    SCOPED_TRACE(C.Name);
    RepairResult Result = repairPoints(Net, OutputLayer, *C.Spec, C.Options);
    ASSERT_EQ(Result.Status, C.Expect);
    const RepairStats &S = Result.Stats;
    EXPECT_NEAR(S.JacobianSeconds + S.LpSeconds + S.OtherSeconds,
                S.TotalSeconds, 1e-9);
    const lp::SimplexStats &K = S.LpKernels;
    EXPECT_GE(S.LpSeconds, K.PricingSeconds + K.FtranSeconds +
                               K.BtranSeconds + K.RatioSeconds +
                               K.UpdateSeconds + K.RefactorSeconds);
    EXPECT_GT(S.LpSeconds, 0.0);
  }
}

TEST(PointRepair, SuccessReportsMarginNextToItsTolerance) {
  Rng R(74);
  Network Net = makeRandomReluClassifier(R, 4, 10, 3);
  PointSpec Spec;
  for (int I = 0; I < 8; ++I)
    Spec.push_back({randomVector(R, 4, 1.5),
                    classificationConstraint(3, I % 3, 1e-3), std::nullopt});
  RepairOptions Options;
  Options.Lp.FeasTol = 1e-8;
  RepairResult Result = repairPoints(Net, 2, Spec, Options);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_EQ(Result.Stats.VerifyTolerance, 100 * 1e-8 + 1e-9);
  EXPECT_LE(Result.Stats.VerifiedViolation, Result.Stats.VerifyTolerance);
  // The reported margin is the repaired DDNN's own worst violation.
  double Worst = 0.0;
  for (const SpecPoint &P : Spec)
    Worst = std::max(Worst,
                     P.Constraint.violation(Result.Repaired->evaluate(P.X)));
  EXPECT_EQ(Result.Stats.VerifiedViolation, Worst);
}

TEST(PointRepair, MaxCgRoundsZeroMatchesMultiRoundOptimum) {
  // The l1 optimum value is unique, so constraint generation over many
  // rounds and the full LP in one round agree to rounding.
  Rng R(75);
  Network Net = makeRandomReluClassifier(R, 5, 12, 4);
  PointSpec Spec;
  for (int I = 0; I < 40; ++I)
    Spec.push_back({randomVector(R, 5, 1.5),
                    classificationConstraint(4, R.uniformInt(0, 3), 1e-3),
                    std::nullopt});
  int Solved = 0;
  for (int Layer : Net.parameterizedLayerIndices()) {
    RepairOptions Cg;
    Cg.CgBatch = 3;
    RepairOptions Full;
    Full.MaxCgRounds = 0;
    RepairResult A = repairPoints(Net, Layer, Spec, Cg);
    RepairResult B = repairPoints(Net, Layer, Spec, Full);
    ASSERT_EQ(A.Status, B.Status) << "layer " << Layer;
    if (A.Status != RepairStatus::Success)
      continue;
    ++Solved;
    EXPECT_GE(A.Stats.CgRounds, 3) << "layer " << Layer;
    EXPECT_LT(A.Stats.LpRowsUsed, B.Stats.LpRowsUsed) << "layer " << Layer;
    EXPECT_NEAR(A.DeltaL1, B.DeltaL1, 1e-9 * B.DeltaL1) << "layer " << Layer;
  }
  EXPECT_GT(Solved, 0);
}

TEST(PointRepair, MultiRoundRepairBitIdenticalAcrossThreadsAndCache) {
  Rng R(76);
  auto Net = std::make_shared<Network>(makeRandomReluClassifier(R, 5, 14, 4));
  PointSpec Spec;
  for (int I = 0; I < 60; ++I) {
    Vector X = randomVector(R, 5, 1.5);
    std::optional<NetworkPattern> Pinned;
    if (I % 3 == 0)
      Pinned = computePattern(*Net, X);
    Spec.push_back({std::move(X), classificationConstraint(4, I % 4, 1e-3),
                    std::move(Pinned)});
  }
  RepairOptions Options;
  Options.CgBatch = 2;
  RepairRequest Request = RepairRequest::points(Net, 2, Spec, Options);

  EngineOptions NoCache;
  NoCache.EnableCache = false;
  setGlobalThreadCount(1);
  RepairReport Reference = RepairEngine(NoCache).run(Request);
  ASSERT_EQ(Reference.Status, RepairStatus::Success);
  ASSERT_GE(Reference.Result.Stats.CgRounds, 3);

  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    RepairEngine Cached;
    for (const RepairReport &Report :
         {RepairEngine(NoCache).run(Request), Cached.run(Request),
          Cached.run(Request)}) {
      SCOPED_TRACE(Threads);
      ASSERT_EQ(Report.Status, Reference.Status);
      const RepairResult &A = Report.Result, &B = Reference.Result;
      ASSERT_EQ(A.Delta.size(), B.Delta.size());
      for (size_t P = 0; P < A.Delta.size(); ++P)
        EXPECT_EQ(A.Delta[P], B.Delta[P]) << "param " << P;
      EXPECT_EQ(A.Stats.CgRounds, B.Stats.CgRounds);
      EXPECT_EQ(A.Stats.LpRowsUsed, B.Stats.LpRowsUsed);
      EXPECT_EQ(A.Stats.VerifiedViolation, B.Stats.VerifiedViolation);
    }
  }
  setGlobalThreadCount(1);
}

// --- Lazy rows (core/SpecRows.h) ----------------------------------------------

/// A spec over \p Net whose every third point is pinned to the pattern
/// of a nearby input (so pinning matters), with classification rows.
PointSpec makeMixedSpec(Rng &R, const Network &Net, int Points) {
  PointSpec Spec;
  int Classes = Net.outputSize();
  for (int I = 0; I < Points; ++I) {
    Vector X = randomVector(R, Net.inputSize(), 1.5);
    std::optional<NetworkPattern> Pinned;
    if (I % 3 == 0) {
      Vector Near = X;
      Near += randomVector(R, Net.inputSize(), 0.05);
      Pinned = computePattern(Net, Near);
    }
    Spec.push_back({std::move(X),
                    classificationConstraint(Classes, I % Classes, 1e-3),
                    std::move(Pinned)});
  }
  return Spec;
}

TEST(SpecRows, ReluRowsAreSeededJacobianRows) {
  // 300 points, every third pinned, 900 rows: a full ask spans several
  // row chunks. Layer 2 has frozen parameters.
  Rng R(77);
  Network Net = makeRandomReluClassifier(R, 5, 12, 4);
  PointSpec Spec = makeMixedSpec(R, Net, 300);
  for (int Layer : Net.parameterizedLayerIndices()) {
    SCOPED_TRACE(Layer);
    int NumParams = cast<LinearLayer>(Net.layer(Layer)).numParams();
    std::vector<int> Effective;
    for (int P = 0; P < NumParams; ++P)
      if (Layer != 2 || P % 3 != 1)
        Effective.push_back(P);
    detail::SpecRows Shape(Net, Layer, Spec, Effective, 1e-6);
    EXPECT_GT(Shape.numRows(), 2 * Shape.chunkRows());
    expectRowsAreSeededJacobianRows(Net, Layer, Spec, Effective, 1e-6, R);
  }
}

TEST(SpecRows, ConvMaxPoolRowsAreSeededJacobianRows) {
  // Both conv layers of the Task 1 shapes classifier (barely trained):
  // the suffix of layer 0 crosses MaxPool, a conv layer's default
  // batched VJP and Flatten. 36 points of 8 rows, every third pinned.
  Rng R(80);
  Network Net = data::trainShapeClassifier(/*TrainCount=*/9, /*Epochs=*/1, R);
  PointSpec Spec = makeMixedSpec(R, Net, 36);
  for (int Layer : {0, 3}) {
    SCOPED_TRACE(Layer);
    std::vector<int> Effective(
        static_cast<size_t>(cast<LinearLayer>(Net.layer(Layer)).numParams()));
    std::iota(Effective.begin(), Effective.end(), 0);
    expectRowsAreSeededJacobianRows(Net, Layer, Spec, Effective, 1e-6, R);
  }
}

TEST(SpecRows, ScanEqualsRowActivityAtRandomDelta) {
  // Theorem 4.5: the DDNN's output is affine in Delta, so the forward
  // scan's s_k is the LP row's Coef . Delta - Hi with the margin backed
  // out, up to rounding - for unpinned and pinned points alike.
  Rng R(78);
  Network Net = makeRandomReluClassifier(R, 5, 12, 4);
  PointSpec Spec = makeMixedSpec(R, Net, 60);
  const double Margin = 1e-6;
  for (int Layer : Net.parameterizedLayerIndices()) {
    SCOPED_TRACE(Layer);
    int NumParams = cast<LinearLayer>(Net.layer(Layer)).numParams();
    std::vector<int> Effective(static_cast<size_t>(NumParams));
    std::iota(Effective.begin(), Effective.end(), 0);
    detail::SpecRows Rows = computedRows(Net, Layer, Spec, Effective, Margin);
    std::vector<int> All(static_cast<size_t>(Rows.numRows()));
    std::iota(All.begin(), All.end(), 0);
    std::vector<std::vector<double>> Coef;
    ASSERT_TRUE(collectCoefs(Rows, All, Coef));
    for (int Trial = 0; Trial < 3; ++Trial) {
      std::vector<double> Delta(static_cast<size_t>(NumParams));
      for (double &D : Delta)
        D = 0.2 * R.normal();
      std::vector<double> S = Rows.scan(Delta);
      for (int Row = 0; Row < Rows.numRows(); ++Row) {
        double Activity = 0.0;
        for (int E = 0; E < NumParams; ++E)
          Activity += Coef[static_cast<size_t>(Row)][static_cast<size_t>(E)] *
                      Delta[static_cast<size_t>(E)];
        double Want = Activity - Rows.hi(Row) - Margin;
        double Scale = 1.0 + std::fabs(Activity) + std::fabs(Rows.hi(Row));
        EXPECT_NEAR(S[static_cast<size_t>(Row)], Want, 1e-9 * Scale)
            << "row " << Row;
      }
    }
  }
}

TEST(SpecRows, CoefsStopAtCancelBetweenBatches) {
  Rng R(79);
  Network Net = makeRandomReluClassifier(R, 5, 12, 4);
  PointSpec Spec = makeMixedSpec(R, Net, 300);
  std::vector<int> Effective(
      static_cast<size_t>(cast<LinearLayer>(Net.layer(4)).numParams()));
  std::iota(Effective.begin(), Effective.end(), 0);
  detail::SpecRows Rows = computedRows(Net, 4, Spec, Effective, 0.0);
  ASSERT_LT(Rows.chunkRows(), Rows.numRows());
  std::vector<int> All(static_cast<size_t>(Rows.numRows()));
  std::iota(All.begin(), All.end(), 0);
  int Polls = 0;
  std::vector<std::vector<double>> Got;
  EXPECT_FALSE(collectCoefs(Rows, All, Got, [&] { return ++Polls == 1; }));
  EXPECT_EQ(Polls, 1); // polled between chunks, not before the first

  // One chunk's worth of rows is never polled.
  std::vector<int> OneChunk(All.begin(), All.begin() + Rows.chunkRows());
  Polls = 0;
  EXPECT_TRUE(
      collectCoefs(Rows, OneChunk, Got, [&] { return ++Polls == 1; }));
  EXPECT_EQ(Polls, 0);
}

} // namespace
