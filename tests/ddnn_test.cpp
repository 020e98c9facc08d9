//===- tests/ddnn_test.cpp - Decoupled DNN tests -----------------------------===//
//
// Executable versions of the paper's §4 theorems:
//  - Theorem 4.4: DecoupledNetwork::fromNetwork(N) == N as functions.
//  - Theorem 4.5: DDNN output is affine in a value layer's parameters.
//  - Theorem 4.6: value-channel edits do not move the linear regions.
//
//===----------------------------------------------------------------------===//

#include "core/DecoupledNetwork.h"

#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "nn/PoolLayers.h"
#include "persist/Serialize.h"
#include "support/Casting.h"
#include "support/Rng.h"
#include "syrenn/LineTransform.h"

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

enum class NetFlavor { Relu, Mixed, Smooth, Conv };

Network makeNetwork(Rng &R, NetFlavor Flavor) {
  Network Net;
  switch (Flavor) {
  case NetFlavor::Relu: {
    int Sizes[] = {4, 6, 5, 3};
    for (int I = 0; I + 1 < 4; ++I) {
      Net.addLayer(std::make_unique<FullyConnectedLayer>(
          randomMatrix(R, Sizes[I + 1], Sizes[I], 0.8),
          randomVector(R, Sizes[I + 1], 0.3)));
      if (I + 2 < 4)
        Net.addLayer(std::make_unique<ReLULayer>(Sizes[I + 1]));
    }
    break;
  }
  case NetFlavor::Mixed: {
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 6, 4, 0.8), randomVector(R, 6, 0.3)));
    Net.addLayer(std::make_unique<LeakyReLULayer>(6, 0.1));
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 5, 6, 0.8), randomVector(R, 5, 0.3)));
    Net.addLayer(std::make_unique<HardTanhLayer>(5));
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 3, 5, 0.8), randomVector(R, 3, 0.3)));
    break;
  }
  case NetFlavor::Smooth: {
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 6, 4, 0.8), randomVector(R, 6, 0.3)));
    Net.addLayer(std::make_unique<TanhLayer>(6));
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 5, 6, 0.8), randomVector(R, 5, 0.3)));
    Net.addLayer(std::make_unique<SigmoidLayer>(5));
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 3, 5, 0.8), randomVector(R, 3, 0.3)));
    break;
  }
  case NetFlavor::Conv: {
    std::vector<double> Kernel(2 * 1 * 3 * 3);
    for (double &V : Kernel)
      V = 0.5 * R.normal();
    Net.addLayer(std::make_unique<Conv2DLayer>(
        1, 4, 4, 2, 3, 3, 1, 1, Kernel, std::vector<double>{0.1, -0.1}));
    Net.addLayer(std::make_unique<ReLULayer>(32));
    Net.addLayer(std::make_unique<MaxPool2DLayer>(2, 4, 4, 2, 2, 2));
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 3, 8, 0.5), randomVector(R, 3, 0.2)));
    break;
  }
  }
  return Net;
}

class TheoremSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, NetFlavor>> {};

TEST_P(TheoremSweep, Theorem44FromNetworkIsIdentity) {
  auto [Seed, Flavor] = GetParam();
  Rng R(Seed);
  Network Net = makeNetwork(R, Flavor);
  DecoupledNetwork Ddnn = DecoupledNetwork::fromNetwork(Net);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Vector X = randomVector(R, Net.inputSize(), 1.5);
    EXPECT_LT(Ddnn.evaluate(X).maxAbsDiff(Net.evaluate(X)), 1e-10);
  }
}

TEST_P(TheoremSweep, Theorem45OutputAffineInValueLayer) {
  auto [Seed, Flavor] = GetParam();
  Rng R(Seed + 1000);
  Network Net = makeNetwork(R, Flavor);
  Vector X = randomVector(R, Net.inputSize());

  for (int LayerIdx : Net.parameterizedLayerIndices()) {
    auto MakePerturbed = [&](const std::vector<double> &Delta) {
      DecoupledNetwork D = DecoupledNetwork::fromNetwork(Net);
      cast<LinearLayer>(D.valueChannel().layer(LayerIdx)).addToParams(Delta);
      return D.evaluate(X);
    };
    int P = cast<LinearLayer>(Net.layer(LayerIdx)).numParams();
    std::vector<double> D1(static_cast<size_t>(P)), D2(D1), Mix(D1);
    for (int I = 0; I < P; ++I) {
      D1[I] = R.normal();
      D2[I] = R.normal();
      Mix[I] = 0.7 * D1[I] - 1.3 * D2[I];
    }
    Vector Base = DecoupledNetwork::fromNetwork(Net).evaluate(X);
    Vector Y1 = MakePerturbed(D1);
    Vector Y2 = MakePerturbed(D2);
    Vector YMix = MakePerturbed(Mix);
    // Affinity: f(a D1 + b D2) - f(0) == a (f(D1)-f(0)) + b (f(D2)-f(0)).
    Vector Expected = Base;
    Expected += (Y1 - Base) * 0.7;
    Expected += (Y2 - Base) * (-1.3);
    EXPECT_LT(YMix.maxAbsDiff(Expected), 1e-7) << "layer " << LayerIdx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(NetFlavor::Relu, NetFlavor::Mixed,
                                         NetFlavor::Smooth,
                                         NetFlavor::Conv)));

TEST(Ddnn, Theorem46ValueEditsPreserveLinearRegions) {
  Rng R(77);
  Network Net = makeNetwork(R, NetFlavor::Relu);
  Vector A = randomVector(R, 4, 2.0);
  Vector B = randomVector(R, 4, 2.0);
  LinePartition Before = lineRegions(Net, A, B);

  // Edit the value channel massively; the activation channel (which
  // decides the regions) is untouched, so the DDNN's regions are those
  // of the activation channel: identical.
  DecoupledNetwork Ddnn = DecoupledNetwork::fromNetwork(Net);
  for (int LayerIdx : Net.parameterizedLayerIndices()) {
    auto &L = cast<LinearLayer>(Ddnn.valueChannel().layer(LayerIdx));
    std::vector<double> Delta(static_cast<size_t>(L.numParams()));
    for (double &D : Delta)
      D = 3.0 * R.normal();
    L.addToParams(Delta);
  }
  LinePartition After = lineRegions(Ddnn.activationChannel(), A, B);
  ASSERT_EQ(Before.Ts.size(), After.Ts.size());
  for (size_t I = 0; I < Before.Ts.size(); ++I)
    EXPECT_NEAR(Before.Ts[I], After.Ts[I], 1e-12);

  // And the DDNN is affine within each original region. Note that a
  // DDNN with edited value weights is in general *discontinuous* at
  // region boundaries (the value pre-activations need not vanish where
  // the activation pre-activations do), so the endpoints must be
  // evaluated under the region's pinned pattern - exactly the
  // Appendix B treatment of key points.
  for (int Piece = 0; Piece < Before.numPieces(); ++Piece) {
    double T0 = Before.Ts[static_cast<size_t>(Piece)];
    double T1 = Before.Ts[static_cast<size_t>(Piece) + 1];
    NetworkPattern Pattern = computePattern(
        Ddnn.activationChannel(), Before.pointAt(Before.midpoint(Piece)));
    Vector Y0 = Ddnn.evaluateWithPattern(Before.pointAt(T0), Pattern);
    Vector Y1 = Ddnn.evaluateWithPattern(Before.pointAt(T1), Pattern);
    Vector YMid = Ddnn.evaluate(Before.pointAt(0.5 * (T0 + T1)));
    Vector Avg = (Y0 + Y1) * 0.5;
    EXPECT_LT(YMid.maxAbsDiff(Avg), 1e-7) << "piece " << Piece;
    // Interior plain evaluation agrees with pinned evaluation.
    Vector YMidPinned =
        Ddnn.evaluateWithPattern(Before.pointAt(0.5 * (T0 + T1)), Pattern);
    EXPECT_LT(YMid.maxAbsDiff(YMidPinned), 1e-9) << "piece " << Piece;
  }
}

TEST(Ddnn, MismatchedChannelsRejected) {
  // Channels must agree layerwise; deserializeDecoupled rejects
  // mismatches as Corrupt.
  Rng R(5);
  Network A = makeNetwork(R, NetFlavor::Relu);
  Network B = makeNetwork(R, NetFlavor::Smooth);
  persist::ByteWriter W;
  persist::serializeNetwork(A, W);
  persist::serializeNetwork(B, W);
  persist::ByteReader Reader(W.buffer().data(), W.buffer().size());
  EXPECT_FALSE(persist::deserializeDecoupled(Reader).has_value());
  EXPECT_EQ(Reader.error(), persist::CodecError::Corrupt);
}

TEST(Ddnn, SerializationRoundTrip) {
  Rng R(6);
  Network Net = makeNetwork(R, NetFlavor::Mixed);
  DecoupledNetwork Ddnn = DecoupledNetwork::fromNetwork(Net);
  auto &L = cast<LinearLayer>(
      Ddnn.valueChannel().layer(Net.parameterizedLayerIndices()[0]));
  std::vector<double> Delta(static_cast<size_t>(L.numParams()), 0.25);
  L.addToParams(Delta);

  persist::ByteWriter W;
  persist::serializeDecoupled(Ddnn, W);
  persist::ByteReader Reader(W.buffer().data(), W.buffer().size());
  std::optional<DecoupledNetwork> Loaded =
      persist::deserializeDecoupled(Reader);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Reader.remaining(), 0u);
  // Bit-exact parameters: the decoded DDNN computes the same bits.
  for (int Trial = 0; Trial < 10; ++Trial) {
    Vector X = randomVector(R, Net.inputSize());
    EXPECT_EQ(Loaded->evaluate(X).maxAbsDiff(Ddnn.evaluate(X)), 0.0);
  }
}

TEST(Ddnn, AccuracyCountsDdnnSemantics) {
  Rng R(7);
  Network Net = makeNetwork(R, NetFlavor::Relu);
  DecoupledNetwork Ddnn = DecoupledNetwork::fromNetwork(Net);
  std::vector<Vector> Inputs;
  std::vector<int> Labels;
  for (int I = 0; I < 20; ++I) {
    Inputs.push_back(randomVector(R, 4));
    Labels.push_back(Net.classify(Inputs.back()));
  }
  EXPECT_DOUBLE_EQ(Ddnn.accuracy(Inputs, Labels), 1.0);
}

} // namespace
