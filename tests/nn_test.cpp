//===- tests/nn_test.cpp - layer/network/Jacobian tests ----------------------===//
//
// Covers: forward semantics of every layer kind, the casting hierarchy,
// finite-difference gradient checks for parameter gradients and VJPs,
// activation patterns and pinned evaluation, the exactness property of
// parameter Jacobians under pinned patterns (the computational core of
// Theorem 4.5), and serialization round-trips.
//
//===----------------------------------------------------------------------===//

#include "core/SpecRows.h"
#include "nn/ActivationLayers.h"
#include "nn/ActivationPattern.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "nn/Network.h"
#include "nn/PoolLayers.h"
#include "nn/Serialization.h"

#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

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

/// The paper's running example N1 (Figure 3(a)):
///   h = ReLU([-1; 1; 1] x + [0; 0; -1]),  y = [-1 -1 1] h.
Network makeFigure3Network() {
  Network Net;
  Matrix W1 = Matrix::fromRows({{-1.0}, {1.0}, {1.0}});
  Vector B1{0.0, 0.0, -1.0};
  Net.addLayer(std::make_unique<FullyConnectedLayer>(W1, B1));
  Net.addLayer(std::make_unique<ReLULayer>(3));
  Matrix W2 = Matrix::fromRows({{-1.0, -1.0, 1.0}});
  Vector B2{0.0};
  Net.addLayer(std::make_unique<FullyConnectedLayer>(W2, B2));
  return Net;
}

/// A random PWL network mixing FC / ReLU / LeakyReLU / HardTanh.
Network makeRandomPwlNetwork(Rng &R, int InputSize, int Depth) {
  Network Net;
  int Size = InputSize;
  for (int D = 0; D < Depth; ++D) {
    int Next = R.uniformInt(3, 7);
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, Next, Size, 0.8), randomVector(R, Next, 0.3)));
    switch (R.uniformInt(0, 2)) {
    case 0:
      Net.addLayer(std::make_unique<ReLULayer>(Next));
      break;
    case 1:
      Net.addLayer(std::make_unique<LeakyReLULayer>(Next, 0.1));
      break;
    default:
      Net.addLayer(std::make_unique<HardTanhLayer>(Next));
      break;
    }
    Size = Next;
  }
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 2, Size, 0.8), randomVector(R, 2, 0.3)));
  return Net;
}

// --- Layer forward semantics -------------------------------------------------

TEST(Layers, FullyConnectedForward) {
  FullyConnectedLayer Fc(Matrix::fromRows({{1.0, 2.0}, {-1.0, 0.5}}),
                         Vector{0.5, -0.5});
  Vector Out = Fc.apply(Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(Out[0], 3.5);
  EXPECT_DOUBLE_EQ(Out[1], -1.0);
}

TEST(Layers, ReLUForwardAndPattern) {
  ReLULayer Relu(3);
  Vector Out = Relu.apply(Vector{-1.0, 0.0, 2.0});
  EXPECT_DOUBLE_EQ(Out[0], 0.0);
  EXPECT_DOUBLE_EQ(Out[1], 0.0);
  EXPECT_DOUBLE_EQ(Out[2], 2.0);
  std::vector<int> Pat = Relu.pattern(Vector{-1.0, 0.0, 2.0});
  // Appendix C: exactly 0 linearizes to the zero region.
  EXPECT_EQ(Pat, (std::vector<int>{0, 0, 1}));
}

TEST(Layers, HardTanhRegions) {
  HardTanhLayer H(3);
  Vector Out = H.apply(Vector{-2.0, 0.5, 3.0});
  EXPECT_DOUBLE_EQ(Out[0], -1.0);
  EXPECT_DOUBLE_EQ(Out[1], 0.5);
  EXPECT_DOUBLE_EQ(Out[2], 1.0);
  EXPECT_EQ(H.pattern(Vector{-2.0, 0.5, 3.0}),
            (std::vector<int>{-1, 0, 1}));
  // Pinned saturated region evaluates to the constant piece.
  Vector Pinned = H.applyWithPattern(Vector{0.0, 0.0, 0.0},
                                     std::vector<int>{-1, 0, 1});
  EXPECT_DOUBLE_EQ(Pinned[0], -1.0);
  EXPECT_DOUBLE_EQ(Pinned[1], 0.0);
  EXPECT_DOUBLE_EQ(Pinned[2], 1.0);
}

TEST(Layers, LeakyReLUForward) {
  LeakyReLULayer L(2, 0.1);
  Vector Out = L.apply(Vector{-2.0, 3.0});
  EXPECT_DOUBLE_EQ(Out[0], -0.2);
  EXPECT_DOUBLE_EQ(Out[1], 3.0);
}

TEST(Layers, TanhSigmoidLinearizationExactAtCenter) {
  // Linearize[f, c](c) = f(c) (the property Theorem 4.4 relies on).
  TanhLayer T(2);
  SigmoidLayer S(2);
  Vector C{0.3, -1.2};
  EXPECT_LT(T.applyLinearized(C, C).maxAbsDiff(T.apply(C)), 1e-12);
  EXPECT_LT(S.applyLinearized(C, C).maxAbsDiff(S.apply(C)), 1e-12);
}

TEST(Layers, TanhLinearizedMatchesFigure6) {
  // Figure 6(b): linearize tanh around -1 and evaluate elsewhere.
  TanhLayer T(1);
  Vector Center{-1.0};
  Vector In{0.5};
  double Expected =
      std::tanh(-1.0) + (1.0 - std::tanh(-1.0) * std::tanh(-1.0)) * 1.5;
  EXPECT_NEAR(T.applyLinearized(Center, In)[0], Expected, 1e-12);
}

TEST(Layers, MaxPoolForwardPatternPinned) {
  // 1 channel, 2x4 input, 2x2 windows, stride 2 -> 1x2 output.
  MaxPool2DLayer Pool(1, 2, 4, 2, 2, 2);
  Vector In{1.0, 5.0, 2.0, 0.0, //
            3.0, -1.0, 7.0, 2.0};
  Vector Out = Pool.apply(In);
  ASSERT_EQ(Out.size(), 2);
  EXPECT_DOUBLE_EQ(Out[0], 5.0);
  EXPECT_DOUBLE_EQ(Out[1], 7.0);
  std::vector<int> Pat = Pool.pattern(In);
  EXPECT_EQ(Pat[0], 1); // top-right of the first window
  EXPECT_EQ(Pat[1], 2); // bottom-left of the second window
  // Pinned evaluation selects the pinned taps regardless of values.
  Vector Other{9.0, 0.0, 0.0, 9.0, //
               0.0, 0.0, 0.0, 0.0};
  Vector Pinned = Pool.applyWithPattern(Other, Pat);
  EXPECT_DOUBLE_EQ(Pinned[0], 0.0);
  EXPECT_DOUBLE_EQ(Pinned[1], 0.0);
  // Linearization around a center equals selection at its argmax.
  EXPECT_LT(Pool.applyLinearized(In, Other).maxAbsDiff(Pinned), 1e-12);
}

TEST(Layers, AvgPoolForward) {
  AvgPool2DLayer Pool(1, 2, 2, 2, 2, 2);
  Vector Out = Pool.apply(Vector{1.0, 2.0, 3.0, 6.0});
  ASSERT_EQ(Out.size(), 1);
  EXPECT_DOUBLE_EQ(Out[0], 3.0);
}

TEST(Layers, Conv2DForwardKnownValues) {
  // 1x3x3 input, one 2x2 kernel of ones, stride 1, no padding.
  std::vector<double> Kernel{1.0, 1.0, 1.0, 1.0};
  std::vector<double> Bias{0.5};
  Conv2DLayer Conv(1, 3, 3, 1, 2, 2, 1, 0, Kernel, Bias);
  Vector In{1.0, 2.0, 3.0, //
            4.0, 5.0, 6.0, //
            7.0, 8.0, 9.0};
  Vector Out = Conv.apply(In);
  ASSERT_EQ(Out.size(), 4);
  EXPECT_DOUBLE_EQ(Out[0], 1 + 2 + 4 + 5 + 0.5);
  EXPECT_DOUBLE_EQ(Out[3], 5 + 6 + 8 + 9 + 0.5);
}

TEST(Layers, Conv2DPaddingAndStride) {
  std::vector<double> Kernel{1.0};
  std::vector<double> Bias{0.0};
  // 1x1 kernel, stride 2, pad 0 over 1x4x4: output 1x2x2 samples the
  // even grid.
  Conv2DLayer Conv(1, 4, 4, 1, 1, 1, 2, 0, Kernel, Bias);
  Vector In(16);
  for (int I = 0; I < 16; ++I)
    In[I] = I;
  Vector Out = Conv.apply(In);
  ASSERT_EQ(Out.size(), 4);
  EXPECT_DOUBLE_EQ(Out[0], 0.0);
  EXPECT_DOUBLE_EQ(Out[1], 2.0);
  EXPECT_DOUBLE_EQ(Out[2], 8.0);
  EXPECT_DOUBLE_EQ(Out[3], 10.0);
}

// --- Casting hierarchy -------------------------------------------------------

TEST(Layers, CastingHierarchy) {
  FullyConnectedLayer Fc(Matrix::identity(2), Vector(2));
  ReLULayer Relu(2);
  MaxPool2DLayer Pool(1, 2, 2, 2, 2, 2);
  AvgPool2DLayer Avg(1, 2, 2, 2, 2, 2);

  Layer *L = &Fc;
  EXPECT_TRUE(isa<LinearLayer>(L));
  EXPECT_FALSE(isa<ActivationLayer>(L));
  EXPECT_TRUE(isa<FullyConnectedLayer>(L));

  L = &Relu;
  EXPECT_TRUE(isa<ActivationLayer>(L));
  EXPECT_TRUE(isa<ElementwiseActivation>(L));
  EXPECT_FALSE(isa<LinearLayer>(L));

  L = &Pool;
  EXPECT_TRUE(isa<ActivationLayer>(L));
  EXPECT_FALSE(isa<ElementwiseActivation>(L));
  EXPECT_TRUE(L->isPiecewiseLinear());

  L = &Avg;
  EXPECT_TRUE(isa<LinearLayer>(L));
  EXPECT_EQ(dyn_cast<ActivationLayer>(L), nullptr);
}

// --- Gradient checks ---------------------------------------------------------

/// Central finite differences of Layer::apply wrt params, dotted with a
/// random output direction, compared against accumulateParamGrad.
void checkParamGradient(LinearLayer &L, Rng &R) {
  Vector In = randomVector(R, L.inputSize());
  Vector Dir = randomVector(R, L.outputSize());
  std::vector<double> Grad(static_cast<size_t>(L.numParams()), 0.0);
  L.accumulateParamGrad(In, Dir, Grad);

  std::vector<double> Params;
  L.getParams(Params);
  const double Eps = 1e-6;
  for (int P = 0; P < L.numParams(); ++P) {
    std::vector<double> Mod = Params;
    Mod[P] += Eps;
    L.setParams(Mod);
    double Plus = L.apply(In).dot(Dir);
    Mod[P] -= 2 * Eps;
    L.setParams(Mod);
    double Minus = L.apply(In).dot(Dir);
    L.setParams(Params);
    double Fd = (Plus - Minus) / (2 * Eps);
    EXPECT_NEAR(Grad[P], Fd, 1e-5 * (1.0 + std::fabs(Fd))) << "param " << P;
  }
}

TEST(Gradients, FullyConnectedParamGrad) {
  Rng R(101);
  FullyConnectedLayer Fc(randomMatrix(R, 4, 3), randomVector(R, 4));
  checkParamGradient(Fc, R);
}

TEST(Gradients, Conv2DParamGrad) {
  Rng R(102);
  std::vector<double> Kernel(2 * 1 * 2 * 2);
  std::vector<double> Bias(2);
  for (double &V : Kernel)
    V = R.normal();
  for (double &V : Bias)
    V = R.normal();
  Conv2DLayer Conv(1, 4, 4, 2, 2, 2, 1, 1, Kernel, Bias);
  checkParamGradient(Conv, R);
}

/// Input VJP against finite differences for any layer.
void checkInputVjp(const Layer &L, const Vector &In, Rng &R) {
  Vector Dir = randomVector(R, L.outputSize());
  Vector Vjp;
  if (const auto *Linear = dyn_cast<LinearLayer>(&L))
    Vjp = Linear->vjpLinear(Dir);
  else
    Vjp = cast<ActivationLayer>(L).vjpLinearized(In, Dir);
  const double Eps = 1e-6;
  for (int I = 0; I < L.inputSize(); ++I) {
    Vector Plus = In, Minus = In;
    Plus[I] += Eps;
    Minus[I] -= Eps;
    double Fd = (L.apply(Plus).dot(Dir) - L.apply(Minus).dot(Dir)) / (2 * Eps);
    EXPECT_NEAR(Vjp[I], Fd, 1e-5 * (1.0 + std::fabs(Fd))) << "input " << I;
  }
}

TEST(Gradients, InputVjpAllLayerKinds) {
  Rng R(103);
  {
    FullyConnectedLayer Fc(randomMatrix(R, 3, 5), randomVector(R, 3));
    checkInputVjp(Fc, randomVector(R, 5), R);
  }
  {
    std::vector<double> Kernel(1 * 1 * 3 * 3);
    for (double &V : Kernel)
      V = R.normal();
    Conv2DLayer Conv(1, 4, 4, 1, 3, 3, 1, 1, Kernel, {0.1});
    checkInputVjp(Conv, randomVector(R, 16), R);
  }
  {
    // Offset inputs away from kinks so finite differences are valid.
    TanhLayer T(4);
    checkInputVjp(T, randomVector(R, 4), R);
    SigmoidLayer S(4);
    checkInputVjp(S, randomVector(R, 4), R);
    ReLULayer Relu(4);
    Vector In = randomVector(R, 4);
    for (int I = 0; I < 4; ++I)
      if (std::fabs(In[I]) < 0.1)
        In[I] = 0.5;
    checkInputVjp(Relu, In, R);
    AvgPool2DLayer Avg(1, 2, 2, 2, 2, 2);
    checkInputVjp(Avg, randomVector(R, 4), R);
  }
}

// --- Network / pattern semantics ---------------------------------------------

TEST(Network, Figure3ForwardValues) {
  Network Net = makeFigure3Network();
  EXPECT_NEAR(Net.evaluate(Vector{0.5})[0], -0.5, 1e-12);
  EXPECT_NEAR(Net.evaluate(Vector{1.5})[0], -1.0, 1e-12);
  EXPECT_NEAR(Net.evaluate(Vector{-0.5})[0], -0.5, 1e-12);
  EXPECT_NEAR(Net.evaluate(Vector{-1.0})[0], -1.0, 1e-12);
  EXPECT_NEAR(Net.evaluate(Vector{2.0})[0], -1.0, 1e-12);
}

TEST(Network, DeepCopyIsIndependent) {
  Network Net = makeFigure3Network();
  Network Copy = Net;
  auto &Fc = cast<FullyConnectedLayer>(Copy.layer(0));
  std::vector<double> Params;
  Fc.getParams(Params);
  for (double &P : Params)
    P += 1.0;
  Fc.setParams(Params);
  EXPECT_NE(Copy.evaluate(Vector{0.5})[0], Net.evaluate(Vector{0.5})[0]);
  EXPECT_NEAR(Net.evaluate(Vector{0.5})[0], -0.5, 1e-12);
}

TEST(Network, ParameterizedLayerIndices) {
  Network Net = makeFigure3Network();
  EXPECT_EQ(Net.parameterizedLayerIndices(), (std::vector<int>{0, 2}));
  EXPECT_EQ(Net.totalParams(), (3 + 3) + (3 + 1));
}

TEST(Network, PatternPinnedEqualsPlainOnSameInput) {
  Rng R(104);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Network Net = makeRandomPwlNetwork(R, 3, 2);
    Vector X = randomVector(R, 3);
    NetworkPattern Pat = computePattern(Net, X);
    Vector Plain = Net.evaluate(X);
    Vector Pinned = evaluateWithPattern(Net, X, Pat);
    EXPECT_LT(Plain.maxAbsDiff(Pinned), 1e-9);
  }
}

TEST(Network, PatternExtendsRegionAffineFunction) {
  // Pinning x0's pattern and evaluating at x gives the affine extension
  // of x0's region; for x in the same region it matches evaluate(x).
  Network Net = makeFigure3Network();
  NetworkPattern Pat = computePattern(Net, Vector{0.5});
  // Same region [0, 1]:
  EXPECT_NEAR(evaluateWithPattern(Net, Vector{0.25}, Pat)[0], -0.25, 1e-12);
  // Affine extension beyond the region: region [0,1] has N(x) = -x.
  EXPECT_NEAR(evaluateWithPattern(Net, Vector{1.5}, Pat)[0], -1.5, 1e-12);
}

// --- Parameter Jacobians (Theorem 4.5 machinery) ----------------------------

TEST(Jacobian, MatchesPaperRunningExample) {
  // Paper §3.1: with Delta over (w_x->h1, w_x->h2, w_x->h3, bias terms),
  // J at X1 = 0.5 has -0.5 on the x->h2 weight, and J at X2 = 1.5 is
  // (0, -1.5, 1.5) on the weights with 1 on h3's bias.
  Network Net = makeFigure3Network();
  JacobianResult R1 = paramJacobian(Net, 0, Vector{0.5});
  // Param layout: W(3x1) rows then bias(3).
  ASSERT_EQ(R1.J.rows(), 1);
  ASSERT_EQ(R1.J.cols(), 6);
  EXPECT_NEAR(R1.J(0, 0), 0.0, 1e-12);   // x->h1 (h1 inactive)
  EXPECT_NEAR(R1.J(0, 1), -0.5, 1e-12);  // x->h2
  EXPECT_NEAR(R1.J(0, 2), 0.0, 1e-12);   // x->h3 (h3 inactive)
  EXPECT_NEAR(R1.J(0, 4), -1.0, 1e-12);  // h2 bias
  EXPECT_NEAR(R1.Output[0], -0.5, 1e-12);

  JacobianResult R2 = paramJacobian(Net, 0, Vector{1.5});
  EXPECT_NEAR(R2.J(0, 1), -1.5, 1e-12); // x->h2
  EXPECT_NEAR(R2.J(0, 2), 1.5, 1e-12);  // x->h3
  EXPECT_NEAR(R2.J(0, 5), 1.0, 1e-12);  // h3 bias
  EXPECT_NEAR(R2.Output[0], -1.0, 1e-12);
}

struct JacobianSweepParams {
  uint64_t Seed;
  int Depth;
};

class JacobianExactness
    : public ::testing::TestWithParam<JacobianSweepParams> {};

TEST_P(JacobianExactness, PinnedPatternMakesJacobianExact) {
  // The core of Theorem 4.5: with the activation pattern pinned (the
  // DDNN value channel), N'(x; Delta) = N(x) + J Delta holds *exactly*,
  // even for large Delta.
  Rng R(GetParam().Seed);
  Network Net = makeRandomPwlNetwork(R, 4, GetParam().Depth);
  std::vector<int> ParamLayers = Net.parameterizedLayerIndices();
  Vector X = randomVector(R, 4);
  NetworkPattern Pat = computePattern(Net, X);

  for (int LayerIdx : ParamLayers) {
    JacobianResult Jr = paramJacobian(Net, LayerIdx, X, &Pat);
    auto &Target = cast<FullyConnectedLayer>(Net.layer(LayerIdx));
    int NumParams = Target.numParams();

    // Large random delta.
    std::vector<double> Delta(static_cast<size_t>(NumParams));
    for (double &D : Delta)
      D = 2.0 * R.normal();

    Network Perturbed = Net;
    cast<FullyConnectedLayer>(Perturbed.layer(LayerIdx)).addToParams(Delta);

    Vector Predicted = Jr.Output;
    Predicted += Jr.J.apply(Vector(Delta));
    Vector Actual = evaluateWithPattern(Perturbed, X, Pat);
    EXPECT_LT(Actual.maxAbsDiff(Predicted), 1e-8)
        << "layer " << LayerIdx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JacobianExactness,
    ::testing::Values(JacobianSweepParams{201, 1}, JacobianSweepParams{202, 2},
                      JacobianSweepParams{203, 3}, JacobianSweepParams{204, 4},
                      JacobianSweepParams{205, 2}, JacobianSweepParams{206, 3},
                      JacobianSweepParams{207, 1}, JacobianSweepParams{208,
                                                                       4}));

TEST(Jacobian, SmallDeltaMatchesUnpinnedEvaluation) {
  // For deltas small enough not to flip any activation, the plain
  // (coupled) network also satisfies the linear model.
  Rng R(210);
  Network Net = makeRandomPwlNetwork(R, 3, 2);
  Vector X = randomVector(R, 3);
  int LayerIdx = Net.parameterizedLayerIndices().front();
  JacobianResult Jr = paramJacobian(Net, LayerIdx, X);
  auto &Target = cast<FullyConnectedLayer>(Net.layer(LayerIdx));
  std::vector<double> Delta(static_cast<size_t>(Target.numParams()));
  for (double &D : Delta)
    D = 1e-7 * R.normal();
  Network Perturbed = Net;
  cast<FullyConnectedLayer>(Perturbed.layer(LayerIdx)).addToParams(Delta);
  Vector Predicted = Jr.Output;
  Predicted += Jr.J.apply(Vector(Delta));
  EXPECT_LT(Perturbed.evaluate(X).maxAbsDiff(Predicted), 1e-10);
}

TEST(Jacobian, ConvLayerExactUnderPinnedPattern) {
  Rng R(211);
  // conv -> relu -> maxpool -> fc network.
  Network Net;
  std::vector<double> Kernel(2 * 1 * 3 * 3);
  for (double &V : Kernel)
    V = 0.5 * R.normal();
  Net.addLayer(std::make_unique<Conv2DLayer>(1, 6, 6, 2, 3, 3, 1, 1, Kernel,
                                             std::vector<double>{0.1, -0.1}));
  Net.addLayer(std::make_unique<ReLULayer>(2 * 6 * 6));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(2, 6, 6, 2, 2, 2));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 3, 2 * 3 * 3, 0.5), randomVector(R, 3, 0.2)));
  Vector X = randomVector(R, 36);
  NetworkPattern Pat = computePattern(Net, X);

  for (int LayerIdx : Net.parameterizedLayerIndices()) {
    JacobianResult Jr = paramJacobian(Net, LayerIdx, X, &Pat);
    auto &Target = cast<LinearLayer>(Net.layer(LayerIdx));
    std::vector<double> Delta(static_cast<size_t>(Target.numParams()));
    for (double &D : Delta)
      D = R.normal();
    Network Perturbed = Net;
    cast<LinearLayer>(Perturbed.layer(LayerIdx)).addToParams(Delta);
    Vector Predicted = Jr.Output;
    Predicted += Jr.J.apply(Vector(Delta));
    Vector Actual = evaluateWithPattern(Perturbed, X, Pat);
    EXPECT_LT(Actual.maxAbsDiff(Predicted), 1e-8) << "layer " << LayerIdx;
  }
}

TEST(Jacobian, ConvParamJacobianRowsEqualTapWalk) {
  // paramJacobian's stencil sweep against accumulateParamGrad, which
  // walks the taps one by one: each row equals the gradient of its
  // backward row, bit for bit. Padding and stride give border outputs;
  // zeros in the input and in M exercise the skips.
  Rng R(213);
  std::vector<double> Kernel(3 * 2 * 3 * 3);
  for (double &V : Kernel)
    V = R.normal();
  Conv2DLayer Conv(2, 7, 6, 3, 3, 3, 2, 1, Kernel, {0.1, -0.2, 0.3});
  Vector In = randomVector(R, Conv.inputSize());
  for (int I = 0; I < In.size(); I += 4)
    In[I] = 0.0;
  Matrix M = randomMatrix(R, 3, Conv.outputSize());
  for (int O = 0; O < Conv.outputSize(); O += 3)
    M(1, O) = 0.0;
  Matrix J(M.rows(), Conv.numParams());
  Conv.paramJacobian(M, In, J);
  for (int Row = 0; Row < M.rows(); ++Row) {
    std::vector<double> Walk(static_cast<size_t>(Conv.numParams()), 0.0);
    Conv.accumulateParamGrad(In, M.row(Row), Walk);
    for (int P = 0; P < Conv.numParams(); ++P)
      EXPECT_EQ(J(Row, P), Walk[static_cast<size_t>(P)])
          << "row " << Row << " param " << P;
  }
}

TEST(Jacobian, SmoothActivationsFirstOrder) {
  // For tanh networks the Jacobian is first-order accurate: error decays
  // quadratically in the perturbation size.
  Rng R(212);
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 4, 3),
                                                     randomVector(R, 4)));
  Net.addLayer(std::make_unique<TanhLayer>(4));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 2, 4),
                                                     randomVector(R, 2)));
  Vector X = randomVector(R, 3);
  JacobianResult Jr = paramJacobian(Net, 0, X);
  auto &Target = cast<FullyConnectedLayer>(Net.layer(0));
  std::vector<double> Dir(static_cast<size_t>(Target.numParams()));
  for (double &D : Dir)
    D = R.normal();

  auto ErrorAt = [&](double Scale) {
    std::vector<double> Delta = Dir;
    for (double &D : Delta)
      D *= Scale;
    Network Perturbed = Net;
    cast<FullyConnectedLayer>(Perturbed.layer(0)).addToParams(Delta);
    Vector Predicted = Jr.Output;
    Predicted += Jr.J.apply(Vector(Delta));
    return Perturbed.evaluate(X).maxAbsDiff(Predicted);
  };
  double E1 = ErrorAt(1e-3);
  double E2 = ErrorAt(1e-4);
  // Quadratic decay: shrinking the step 10x shrinks error ~100x.
  EXPECT_LT(E2, E1 / 30.0);
}

// --- Serialization -----------------------------------------------------------

// --- Batched engine ----------------------------------------------------------
//
// The batch APIs promise bit-for-bit agreement with the per-point
// paths for any thread count; every comparison below therefore demands
// a max-abs-diff of exactly 0.0.

TEST(Batch, NetworkApplyBatchMatchesEvaluateBitForBit) {
  Rng R(401);
  Network Net = makeRandomPwlNetwork(R, 5, 3);
  const int NumPoints = 23;
  std::vector<Vector> Points;
  for (int I = 0; I < NumPoints; ++I)
    Points.push_back(randomVector(R, 5));
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    Matrix Out = Net.applyBatch(Matrix::fromRowVectors(Points));
    ASSERT_EQ(Out.rows(), NumPoints);
    for (int I = 0; I < NumPoints; ++I)
      EXPECT_EQ(Out.row(I).maxAbsDiff(
                    Net.evaluate(Points[static_cast<size_t>(I)])),
                0.0)
          << "point " << I << " with " << Threads << " threads";
  }
  setGlobalThreadCount(1);
}

TEST(Batch, ConvApplyBatchMatchesApply) {
  // Conv2D's flat-tap batched kernel must agree with apply exactly.
  Rng R(402);
  Conv2DLayer Conv(/*InChannels=*/1, /*InHeight=*/4, /*InWidth=*/4,
                   /*OutChannels=*/2, /*KernelH=*/2, /*KernelW=*/2,
                   /*Stride=*/1, /*Pad=*/0,
                   {0.5, -0.25, 1.0, 0.75, -0.5, 0.25, -1.0, 0.125},
                   {0.1, -0.2});
  std::vector<Vector> Points;
  for (int I = 0; I < 9; ++I)
    Points.push_back(randomVector(R, Conv.inputSize()));
  Matrix Out = Conv.applyBatch(Matrix::fromRowVectors(Points));
  for (int I = 0; I < 9; ++I)
    EXPECT_EQ(Out.row(I).maxAbsDiff(
                  Conv.apply(Points[static_cast<size_t>(I)])),
              0.0);
}

TEST(Batch, ComputePatternBatchMatchesScalar) {
  Rng R(403);
  Network Net = makeRandomPwlNetwork(R, 4, 3);
  std::vector<Vector> Points;
  for (int I = 0; I < 11; ++I)
    Points.push_back(randomVector(R, 4));
  std::vector<NetworkPattern> Batch =
      computePatternBatch(Net, Matrix::fromRowVectors(Points));
  ASSERT_EQ(Batch.size(), Points.size());
  for (size_t I = 0; I < Points.size(); ++I)
    EXPECT_TRUE(Batch[I] == computePattern(Net, Points[I]))
        << "point " << I;
}

TEST(Batch, SpecStateRowsAreIntermediatesBitForBit) {
  // The shared Delta = 0 forward state of core/SpecRows, computed in
  // uneven chunks at 1 and 4 threads: each stored row is the point's
  // Network::intermediates entry (intermediatesWithPattern for a pinned
  // point, every third), and the outputs are the last one. A PWL net
  // and a conv + MaxPool2D net (MaxPool2D's per-row applyRows), whose
  // 1,536-wide ReLU and max-pool go to the pool at 4 threads in a chunk
  // of 70 points.
  Rng R(404);
  Network Pwl = makeRandomPwlNetwork(R, 5, 4);
  Network Conv;
  std::vector<double> Kernel(6 * 1 * 3 * 3);
  for (double &V : Kernel)
    V = 0.5 * R.normal();
  Conv.addLayer(std::make_unique<Conv2DLayer>(
      1, 16, 16, 6, 3, 3, 1, 1, Kernel, std::vector<double>(6, 0.1)));
  Conv.addLayer(std::make_unique<ReLULayer>(6 * 16 * 16));
  Conv.addLayer(std::make_unique<MaxPool2DLayer>(6, 16, 16, 2, 2, 2));
  Conv.addLayer(std::make_unique<FlattenLayer>(6 * 8 * 8));
  Conv.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 64, 6 * 8 * 8, 0.1), randomVector(R, 64, 0.3)));
  Conv.addLayer(std::make_unique<LeakyReLULayer>(64, 0.1));
  Conv.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 3, 64, 0.5), randomVector(R, 3, 0.3)));

  for (auto [Net, NumPoints] : {std::pair<const Network *, int>{&Pwl, 300},
                                {&Conv, 80}}) {
    PointSpec Spec;
    for (int I = 0; I < NumPoints; ++I) {
      Vector X = randomVector(R, Net->inputSize());
      std::optional<NetworkPattern> Pinned;
      if (I % 3 == 0) {
        Vector Near = X;
        Near += randomVector(R, Net->inputSize(), 0.05);
        Pinned = computePattern(*Net, Near);
      }
      Spec.push_back({std::move(X),
                      classificationConstraint(Net->outputSize(), 0, 0.0),
                      std::move(Pinned)});
    }
    std::vector<int> Candidates = Net->parameterizedLayerIndices();
    for (int Threads : {1, 4}) {
      setGlobalThreadCount(Threads);
      detail::SpecState State(*Net, Spec, {Candidates.back(), Candidates[0]});
      for (int Base = 0; Base < NumPoints; Base += 70)
        State.compute(Base, std::min(NumPoints, Base + 70));
      for (int P = 0; P < NumPoints; ++P) {
        const SpecPoint &Point = Spec[static_cast<size_t>(P)];
        std::vector<Vector> Want =
            Point.Pattern ? intermediatesWithPattern(*Net, Point.X,
                                                     *Point.Pattern)
                          : Net->intermediates(Point.X);
        for (int I = 0; I < Net->numLayers(); ++I) {
          bool Stored = I == Candidates[0] || I == Candidates.back() ||
                        (I > Candidates[0] && !Net->layer(I).isLinear());
          ASSERT_EQ(State.input(I).cols() > 0, Stored) << "layer " << I;
          if (Stored)
            EXPECT_EQ(State.input(I).row(P).maxAbsDiff(
                          Want[static_cast<size_t>(I)]),
                      0.0)
                << "point " << P << " layer " << I << " threads " << Threads;
        }
        EXPECT_EQ(State.output().row(P).maxAbsDiff(Want.back()), 0.0)
            << "point " << P << " threads " << Threads;
      }
    }
  }
  setGlobalThreadCount(1);
}

TEST(Serialization, RoundTripAllLayerKinds) {
  Rng R(301);
  Network Net;
  std::vector<double> Kernel(2 * 1 * 3 * 3);
  for (double &V : Kernel)
    V = R.normal();
  Net.addLayer(std::make_unique<Conv2DLayer>(1, 6, 6, 2, 3, 3, 1, 1, Kernel,
                                             std::vector<double>{0.3, -0.2}));
  Net.addLayer(std::make_unique<ReLULayer>(72));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(2, 6, 6, 2, 2, 2));
  Net.addLayer(std::make_unique<AvgPool2DLayer>(2, 3, 3, 3, 3, 3));
  Net.addLayer(std::make_unique<FlattenLayer>(2));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 4, 2),
                                                     randomVector(R, 4)));
  Net.addLayer(std::make_unique<LeakyReLULayer>(4, 0.01));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 3, 4),
                                                     randomVector(R, 3)));
  Net.addLayer(std::make_unique<HardTanhLayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 2, 3),
                                                     randomVector(R, 2)));
  Net.addLayer(std::make_unique<TanhLayer>(2));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 2, 2),
                                                     randomVector(R, 2)));
  Net.addLayer(std::make_unique<SigmoidLayer>(2));

  std::ostringstream Os;
  writeNetwork(Net, Os);
  std::istringstream Is(Os.str());
  std::optional<Network> Loaded = readNetwork(Is);
  ASSERT_TRUE(Loaded.has_value());
  ASSERT_EQ(Loaded->numLayers(), Net.numLayers());
  for (int Trial = 0; Trial < 10; ++Trial) {
    Vector X = randomVector(R, 36);
    EXPECT_LT(Loaded->evaluate(X).maxAbsDiff(Net.evaluate(X)), 1e-12);
  }
}

TEST(Serialization, RejectsMalformedInput) {
  {
    std::istringstream Is("not-a-network v1\nlayers 0\n");
    EXPECT_FALSE(readNetwork(Is).has_value());
  }
  {
    std::istringstream Is("prdnn-network v2\nlayers 0\n");
    EXPECT_FALSE(readNetwork(Is).has_value());
  }
  {
    std::istringstream Is("prdnn-network v1\nlayers 1\nfc 2 2\n1 2 3\n");
    EXPECT_FALSE(readNetwork(Is).has_value()); // truncated params
  }
  {
    std::istringstream Is("prdnn-network v1\nlayers 1\nwat 3\n");
    EXPECT_FALSE(readNetwork(Is).has_value()); // unknown layer kind
  }
}

TEST(Serialization, EmptyNetworkRoundTrip) {
  Network Net;
  std::ostringstream Os;
  writeNetwork(Net, Os);
  std::istringstream Is(Os.str());
  std::optional<Network> Loaded = readNetwork(Is);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numLayers(), 0);
}

} // namespace
