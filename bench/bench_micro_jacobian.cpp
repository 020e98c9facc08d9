//===- bench/bench_micro_jacobian.cpp - Jacobian microbenchmarks ---------------===//
//
// RQ4 support: cost of the closed-form parameter Jacobian per layer of
// the Task-1 conv architecture (the paper's Figure 7(b) shows Jacobians
// dominating its PyTorch-based pipeline; ours are cheap, which shifts
// the time budget to the LP - recorded in EXPERIMENTS.md).
//
// BM_SpecState and BM_SpecScan time a repair job's Jacobian phase as the
// engine runs it - the spec's Delta = 0 forward state, one batched pass
// (core/SpecRows.h, SpecState) - and one constraint-generation scan, at
// two workload shapes: 0 is acas-slices' (258 pinned key points on a
// 5-12x5-5 ReLU net, every layer a candidate, scanned at the first), 1
// fog-lines' (316 pinned key points of 9 rows on the 256-32-32-10
// digits net, repaired at layer 2). An entry whose scan at Delta = 0
// disagrees with its right-hand sides is marked as an error.
//
//===----------------------------------------------------------------------===//

#include "core/SpecRows.h"
#include "nn/ActivationLayers.h"
#include "nn/ActivationPattern.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "nn/PoolLayers.h"
#include "support/Casting.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <numeric>
#include <string>

using namespace prdnn;

namespace {

Network makeConvNet(Rng &R) {
  Network Net;
  auto RandomConv = [&R](int InC, int InH, int InW, int OutC, int K) {
    std::vector<double> Kernels(
        static_cast<size_t>(OutC) * InC * K * K);
    for (double &V : Kernels)
      V = 0.3 * R.normal();
    return std::make_unique<Conv2DLayer>(InC, InH, InW, OutC, K, K, 1, 1,
                                         std::move(Kernels),
                                         std::vector<double>(OutC, 0.0));
  };
  auto RandomFc = [&R](int Out, int In) {
    Matrix W(Out, In);
    for (int I = 0; I < Out; ++I)
      for (int J = 0; J < In; ++J)
        W(I, J) = 0.3 * R.normal();
    return std::make_unique<FullyConnectedLayer>(std::move(W), Vector(Out));
  };
  Net.addLayer(RandomConv(3, 16, 16, 6, 3));
  Net.addLayer(std::make_unique<ReLULayer>(6 * 16 * 16));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(6, 16, 16, 2, 2, 2));
  Net.addLayer(RandomConv(6, 8, 8, 8, 3));
  Net.addLayer(std::make_unique<ReLULayer>(8 * 8 * 8));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(8, 8, 8, 2, 2, 2));
  Net.addLayer(RandomFc(24, 8 * 4 * 4));
  Net.addLayer(std::make_unique<ReLULayer>(24));
  Net.addLayer(RandomFc(9, 24));
  return Net;
}

void BM_ParamJacobian(benchmark::State &State) {
  Rng R(11);
  Network Net = makeConvNet(R);
  std::vector<int> Layers = Net.parameterizedLayerIndices();
  int LayerIdx = Layers[static_cast<size_t>(State.range(0))];
  Vector X(Net.inputSize());
  for (int I = 0; I < X.size(); ++I)
    X[I] = R.uniform();
  for (auto _ : State) {
    JacobianResult Jr = paramJacobian(Net, LayerIdx, X);
    benchmark::DoNotOptimize(Jr.J.rows());
  }
  State.SetLabel(Net.layer(LayerIdx).describe());
}

void BM_ForwardPass(benchmark::State &State) {
  Rng R(12);
  Network Net = makeConvNet(R);
  Vector X(Net.inputSize());
  for (int I = 0; I < X.size(); ++I)
    X[I] = R.uniform();
  for (auto _ : State) {
    Vector Y = Net.evaluate(X);
    benchmark::DoNotOptimize(Y[0]);
  }
}

/// A ReLU net: Widths[0] inputs, then FC + ReLU per hidden width, then
/// an FC to the last width; He-scaled random weights.
Network makeReluNet(Rng &R, const std::vector<int> &Widths) {
  Network Net;
  for (size_t I = 1; I < Widths.size(); ++I) {
    Matrix W(Widths[I], Widths[I - 1]);
    double Scale = std::sqrt(2.0 / Widths[I - 1]);
    for (int Row = 0; Row < W.rows(); ++Row)
      for (int Col = 0; Col < W.cols(); ++Col)
        W(Row, Col) = Scale * R.normal();
    Vector B(Widths[I]);
    for (int Row = 0; Row < B.size(); ++Row)
      B[Row] = 0.1 * R.normal();
    Net.addLayer(std::make_unique<FullyConnectedLayer>(std::move(W),
                                                       std::move(B)));
    if (I + 1 < Widths.size())
      Net.addLayer(std::make_unique<ReLULayer>(Widths[I]));
  }
  return Net;
}

/// One of the two shapes of the file comment: the net, its spec of
/// key points pinned to the pattern of a point nearby, the candidate
/// layers and the layer scanned.
struct SpecShape {
  Network Net;
  PointSpec Spec;
  std::vector<int> Candidates;
  int ScanLayer = 0;
};

SpecShape makeSpecShape(int Which) {
  Rng R(13 + Which);
  SpecShape S;
  int NumPoints = 258;
  if (Which == 0) {
    S.Net = makeReluNet(R, {5, 12, 12, 12, 12, 12, 5});
  } else {
    S.Net = makeReluNet(R, {256, 32, 32, 10});
    NumPoints = 316;
  }
  S.Candidates = Which == 0 ? S.Net.parameterizedLayerIndices()
                            : std::vector<int>{2};
  S.ScanLayer = S.Candidates[0];
  int Outputs = S.Net.outputSize();
  for (int P = 0; P < NumPoints; ++P) {
    Vector X(S.Net.inputSize());
    for (int I = 0; I < X.size(); ++I)
      X[I] = R.uniform();
    Vector Near = X;
    for (int I = 0; I < Near.size(); ++I)
      Near[I] += 0.01 * R.normal();
    S.Spec.push_back({std::move(X),
                      classificationConstraint(Outputs, P % Outputs, 0.0),
                      computePattern(S.Net, Near)});
  }
  return S;
}

detail::SpecState computedState(const SpecShape &S) {
  detail::SpecState State(S.Net, S.Spec, S.Candidates);
  for (int Base = 0; Base < State.numPoints();
       Base += detail::SpecState::chunkPoints())
    State.compute(Base, std::min(State.numPoints(),
                                 Base + detail::SpecState::chunkPoints()));
  return State;
}

void BM_SpecState(benchmark::State &State) {
  SpecShape S = makeSpecShape(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    detail::SpecState Computed = computedState(S);
    benchmark::DoNotOptimize(Computed.output().rowData(0));
  }
  State.SetLabel(std::to_string(S.Spec.size()) + " points");
}

void BM_SpecScan(benchmark::State &State) {
  SpecShape S = makeSpecShape(static_cast<int>(State.range(0)));
  detail::SpecState Computed = computedState(S);
  int NumParams = cast<LinearLayer>(S.Net.layer(S.ScanLayer)).numParams();
  std::vector<int> Effective(static_cast<size_t>(NumParams));
  std::iota(Effective.begin(), Effective.end(), 0);
  const double Margin = 1e-6;
  detail::SpecRows Rows(Computed, S.ScanLayer, Effective, Margin);
  // At Delta = 0 each row's scan is -(hi + margin), up to rounding.
  std::vector<double> AtZero = Rows.scan(std::vector<double>(NumParams, 0.0));
  for (int Row = 0; Row < Rows.numRows(); ++Row) {
    double Want = -(Rows.hi(Row) + Margin);
    if (std::fabs(AtZero[static_cast<size_t>(Row)] - Want) >
        1e-9 * (1.0 + std::fabs(Want))) {
      State.SkipWithError("scan at Delta = 0 misses its right-hand side");
      return;
    }
  }
  Rng R(17);
  std::vector<double> Delta(static_cast<size_t>(NumParams));
  for (double &D : Delta)
    D = 0.01 * R.normal();
  for (auto _ : State) {
    std::vector<double> Scan = Rows.scan(Delta);
    benchmark::DoNotOptimize(Scan.data());
  }
  State.SetLabel(std::to_string(Rows.numRows()) + " rows");
}

} // namespace

BENCHMARK(BM_SpecState)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SpecScan)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ParamJacobian)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ForwardPass)->Unit(benchmark::kMicrosecond);
