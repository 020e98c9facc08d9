//===- tests/smooth_repair_test.cpp - repair with non-PWL activations ----------===//
//
// §5: "Our Provable Pointwise Repair algorithm makes no restrictions on
// the activation functions used by N." These tests exercise point
// repair of Tanh and Sigmoid networks, where the DDNN linearizes the
// smooth activations around the activation channel's values
// (Definition 4.2, Figure 6(b)); the repair is exact *for the DDNN*.
//
//===----------------------------------------------------------------------===//

#include "core/PointRepair.h"

#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "tests/SpecRowsChecks.h"

#include <gtest/gtest.h>

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

enum class SmoothKind { Tanh, Sigmoid, Mixed };

Network makeSmoothNetwork(Rng &R, SmoothKind Kind) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 8, 4, 0.8), randomVector(R, 8, 0.2)));
  if (Kind == SmoothKind::Sigmoid)
    Net.addLayer(std::make_unique<SigmoidLayer>(8));
  else
    Net.addLayer(std::make_unique<TanhLayer>(8));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 6, 8, 0.8), randomVector(R, 6, 0.2)));
  if (Kind == SmoothKind::Mixed)
    Net.addLayer(std::make_unique<SigmoidLayer>(6));
  else
    Net.addLayer(std::make_unique<TanhLayer>(6));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 3, 6, 0.8), randomVector(R, 3, 0.2)));
  return Net;
}

struct SmoothParams {
  uint64_t Seed;
  SmoothKind Kind;
  int LayerChoice; // index into parameterizedLayerIndices()
};

class SmoothRepair : public ::testing::TestWithParam<SmoothParams> {};

TEST_P(SmoothRepair, DdnnSatisfiesSpecExactly) {
  SmoothParams Params = GetParam();
  Rng R(Params.Seed);
  Network Net = makeSmoothNetwork(R, Params.Kind);
  int LayerIdx = Net.parameterizedLayerIndices()[Params.LayerChoice];

  // Demand shifted outputs on a couple of points.
  PointSpec Spec;
  for (int I = 0; I < 3; ++I) {
    Vector X = randomVector(R, 4);
    Vector Y = Net.evaluate(X);
    Vector Lo(3), Hi(3);
    for (int O = 0; O < 3; ++O) {
      double Shift = 0.3 * R.normal();
      Lo[O] = Y[O] + Shift - 0.05;
      Hi[O] = Y[O] + Shift + 0.05;
    }
    Spec.push_back({std::move(X), boxConstraint(Lo, Hi), std::nullopt});
  }

  RepairResult Result = repairPoints(Net, LayerIdx, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  // The DDNN (with linearized smooth activations) satisfies the spec
  // exactly - that is the §5 guarantee. The stats carry the re-verified
  // violation measured on the DDNN itself.
  EXPECT_LE(Result.Stats.VerifiedViolation, 1e-6);
  for (const SpecPoint &P : Spec)
    EXPECT_LE(P.Constraint.violation(Result.Repaired->evaluate(P.X)), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmoothRepair,
    ::testing::Values(SmoothParams{81, SmoothKind::Tanh, 0},
                      SmoothParams{82, SmoothKind::Tanh, 1},
                      SmoothParams{83, SmoothKind::Tanh, 2},
                      SmoothParams{84, SmoothKind::Sigmoid, 0},
                      SmoothParams{85, SmoothKind::Sigmoid, 2},
                      SmoothParams{86, SmoothKind::Mixed, 1},
                      SmoothParams{87, SmoothKind::Mixed, 2}));

TEST(SmoothRepair, FinalLinearLayerAlsoFixesTheCoupledNetwork) {
  // When the repaired layer is the *final* layer, no activation sits
  // downstream, so the DDNN repair transfers verbatim to the plain
  // network even with smooth activations ("if the final layer of the
  // DNN is linear ... repairing just the output layer is actually an
  // LP", §1).
  Rng R(88);
  Network Net = makeSmoothNetwork(R, SmoothKind::Tanh);
  int Last = Net.parameterizedLayerIndices().back();

  PointSpec Spec;
  Vector X = randomVector(R, 4);
  Vector Y = Net.evaluate(X);
  Spec.push_back({X,
                  boxConstraint(Vector{Y[0] + 0.5, Y[1], Y[2]},
                                Vector{Y[0] + 0.6, Y[1], Y[2]}),
                  std::nullopt});
  RepairOptions Options;
  Options.RowMargin = 0.0;
  RepairResult Result = repairPoints(Net, Last, Spec, Options);
  ASSERT_EQ(Result.Status, RepairStatus::Success);

  Network Coupled = Net;
  cast<LinearLayer>(Coupled.layer(Last)).addToParams(Result.Delta);
  EXPECT_LE(Spec[0].Constraint.violation(Coupled.evaluate(X)), 1e-7);
}

TEST(SmoothRepair, EarlierLayerRepairIsDdnnOnly) {
  // For non-final layers of a smooth network, the repaired function is
  // the DDNN; the coupled network only satisfies the spec
  // approximately (first-order). This documents the intended semantics.
  Rng R(89);
  Network Net = makeSmoothNetwork(R, SmoothKind::Tanh);
  int First = Net.parameterizedLayerIndices().front();

  PointSpec Spec;
  Vector X = randomVector(R, 4);
  Vector Y = Net.evaluate(X);
  Spec.push_back({X,
                  boxConstraint(Vector{Y[0] + 0.2, Y[1] - 1.0, Y[2] - 1.0},
                                Vector{Y[0] + 0.3, Y[1] + 1.0, Y[2] + 1.0}),
                  std::nullopt});
  RepairResult Result = repairPoints(Net, First, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  // DDNN: exact.
  EXPECT_LE(Spec[0].Constraint.violation(Result.Repaired->evaluate(X)),
            1e-6);
}

TEST(SmoothRepair, ScanEqualsRowActivityAtRandomDelta) {
  // The constraint-generation scan evaluates the DDNN, whose smooth
  // activations are linearized around the activation channel; with
  // that channel fixed the output is affine in Delta (Theorem 4.5), so
  // each row's s_k equals its LP row's Coef . Delta - Hi with the
  // margin backed out, up to rounding, for every layer and thread count.
  const double Margin = 1e-6;
  for (SmoothKind Kind :
       {SmoothKind::Tanh, SmoothKind::Sigmoid, SmoothKind::Mixed}) {
    Rng R(90 + static_cast<int>(Kind));
    Network Net = makeSmoothNetwork(R, Kind);
    PointSpec Spec;
    for (int I = 0; I < 12; ++I) {
      Vector X = randomVector(R, 4);
      Vector Y = Net.evaluate(X);
      Vector Lo(3), Hi(3);
      for (int O = 0; O < 3; ++O) {
        Lo[O] = Y[O] - 0.1 + 0.2 * R.normal();
        Hi[O] = Lo[O] + 0.1;
      }
      Spec.push_back({std::move(X), boxConstraint(Lo, Hi), std::nullopt});
    }
    for (int Layer : Net.parameterizedLayerIndices()) {
      SCOPED_TRACE(Layer);
      int NumParams = cast<LinearLayer>(Net.layer(Layer)).numParams();
      std::vector<int> Effective(static_cast<size_t>(NumParams));
      std::iota(Effective.begin(), Effective.end(), 0);
      std::vector<double> Delta(static_cast<size_t>(NumParams));
      for (double &D : Delta)
        D = 0.3 * R.normal();
      std::vector<double> Reference;
      for (int Threads : {1, 4}) {
        setGlobalThreadCount(Threads);
        detail::SpecState State = computedState(Net, Spec, {Layer});
        detail::SpecRows Rows(State, Layer, Effective, Margin);
        std::vector<int> All(static_cast<size_t>(Rows.numRows()));
        std::iota(All.begin(), All.end(), 0);
        std::vector<std::vector<double>> Coef;
        ASSERT_TRUE(collectCoefs(Rows, All, Coef));
        std::vector<double> S = Rows.scan(Delta);
        for (int Row = 0; Row < Rows.numRows(); ++Row) {
          double Activity = 0.0;
          for (int E = 0; E < NumParams; ++E)
            Activity +=
                Coef[static_cast<size_t>(Row)][static_cast<size_t>(E)] *
                Delta[static_cast<size_t>(E)];
          double Want = Activity - Rows.hi(Row) - Margin;
          double Scale = 1.0 + std::fabs(Activity) + std::fabs(Rows.hi(Row));
          EXPECT_NEAR(S[static_cast<size_t>(Row)], Want, 1e-9 * Scale)
              << "row " << Row;
        }
        if (Reference.empty())
          Reference = S;
        else
          EXPECT_EQ(S, Reference); // bit-identical across thread counts
      }
      setGlobalThreadCount(1);
    }
  }
}

TEST(SmoothRepair, ScanIsTheRepairedDdnnBitForBit) {
  // The value channel linearizes Tanh and Sigmoid at the stored
  // activation channel. 12,800 points: the 8-wide activation loops go
  // to the pool at 4 threads.
  for (SmoothKind Kind :
       {SmoothKind::Tanh, SmoothKind::Sigmoid, SmoothKind::Mixed}) {
    SCOPED_TRACE(static_cast<int>(Kind));
    Rng R(97 + static_cast<int>(Kind));
    Network Net = makeSmoothNetwork(R, Kind);
    PointSpec Spec;
    for (int I = 0; I < 12800; ++I) {
      Vector X = randomVector(R, 4);
      Vector Y = Net.evaluate(X);
      Spec.push_back({std::move(X),
                      boxConstraint(Y, Y + Vector::constant(3, 0.1)),
                      std::nullopt});
    }
    expectScanIsTheRepairedDdnn(Net, Spec, R);
  }
}

TEST(SmoothRepair, RowsAreSeededJacobianRows) {
  // The seeded backward pass linearizes Tanh and Sigmoid at the stored
  // activation channel. 48 points of 6 box rows: a full ask spans two
  // row chunks.
  for (SmoothKind Kind : {SmoothKind::Tanh, SmoothKind::Sigmoid}) {
    Rng R(95 + static_cast<int>(Kind));
    Network Net = makeSmoothNetwork(R, Kind);
    PointSpec Spec;
    for (int I = 0; I < 48; ++I) {
      Vector X = randomVector(R, 4);
      Vector Y = Net.evaluate(X);
      Vector Hi = Y + Vector::constant(3, 0.1);
      Spec.push_back({std::move(X), boxConstraint(Y, Hi), std::nullopt});
    }
    for (int Layer : Net.parameterizedLayerIndices()) {
      SCOPED_TRACE(Layer);
      std::vector<int> Effective(
          static_cast<size_t>(cast<LinearLayer>(Net.layer(Layer)).numParams()));
      std::iota(Effective.begin(), Effective.end(), 0);
      expectRowsAreSeededJacobianRows(Net, Layer, Spec, Effective, 1e-6, R);
    }
  }
}

} // namespace
