//===- bench/bench_micro_syrenn.cpp - LinRegions microbenchmarks ---------------===//
//
// RQ4 support: cost of the exact 1-D line transform and 2-D plane
// transform as network width grows (the paper reports LinRegions as a
// small fraction of total repair time; these benches confirm it).
//
//===----------------------------------------------------------------------===//

#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Rng.h"
#include "syrenn/LineTransform.h"
#include "syrenn/PlaneTransform.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

using namespace prdnn;

namespace {

Network makeFcNet(Rng &R, int InputSize, int Hidden, int Depth, int Out) {
  Network Net;
  int Size = InputSize;
  auto RandomFc = [&R](int OutSize, int InSize) {
    Matrix W(OutSize, InSize);
    for (int I = 0; I < OutSize; ++I)
      for (int J = 0; J < InSize; ++J)
        W(I, J) = R.normal() / std::sqrt(InSize);
    Vector B(OutSize);
    for (int I = 0; I < OutSize; ++I)
      B[I] = 0.1 * R.normal();
    return std::make_unique<FullyConnectedLayer>(std::move(W), std::move(B));
  };
  for (int D = 0; D < Depth; ++D) {
    Net.addLayer(RandomFc(Hidden, Size));
    Net.addLayer(std::make_unique<ReLULayer>(Hidden));
    Size = Hidden;
  }
  Net.addLayer(RandomFc(Out, Size));
  return Net;
}

void BM_LineRegions(benchmark::State &State) {
  Rng R(21);
  int Hidden = static_cast<int>(State.range(0));
  Network Net = makeFcNet(R, 32, Hidden, 2, 10);
  Vector A(32), B(32);
  for (int I = 0; I < 32; ++I) {
    A[I] = R.normal();
    B[I] = R.normal();
  }
  int Pieces = 0;
  for (auto _ : State) {
    LinePartition P = lineRegions(Net, A, B);
    Pieces = P.numPieces();
    benchmark::DoNotOptimize(Pieces);
  }
  State.SetLabel("hidden " + std::to_string(Hidden) + ", " +
                 std::to_string(Pieces) + " pieces");
}

/// The plane shape: regions live after each activation layer, from the
/// transform of \p Net's prefixes that end in an activation.
std::string liveAfterActivations(const Network &Net,
                                 const std::vector<Vector> &Polygon) {
  std::string Shape;
  Network Prefix;
  for (int L = 0; L < Net.numLayers(); ++L) {
    Prefix.addLayer(Net.layer(L).clone());
    if (Net.layer(L).isLinear())
      continue;
    Shape += (Shape.empty() ? "" : "/") +
             std::to_string(planeRegions(Prefix, Polygon).size());
  }
  return Shape;
}

void BM_PlaneRegions(benchmark::State &State) {
  Rng R(22);
  int Hidden = static_cast<int>(State.range(0));
  int Depth = static_cast<int>(State.range(1));
  Network Net = makeFcNet(R, 5, Hidden, Depth, 5);
  Vector O(5), E1(5), E2(5);
  for (int I = 0; I < 5; ++I) {
    O[I] = 0.3 * R.normal();
    E1[I] = R.normal();
    E2[I] = R.normal();
  }
  std::vector<Vector> Polygon = {O, O + E1, O + E1 + E2, O + E2};
  size_t Regions = 0;
  for (auto _ : State) {
    std::vector<PlaneRegion> Result = planeRegions(Net, Polygon);
    Regions = Result.size();
    benchmark::DoNotOptimize(Regions);
  }
  State.SetLabel("hidden " + std::to_string(Hidden) + " x" +
                 std::to_string(Depth) + ", " + std::to_string(Regions) +
                 " regions, live after each activation " +
                 liveAfterActivations(Net, Polygon));
}

} // namespace

BENCHMARK(BM_LineRegions)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
// Widths 8-24 at depth 3, and the ACAS shape: 5 inputs, 5 hidden
// layers of 12.
BENCHMARK(BM_PlaneRegions)
    ->Args({8, 3})
    ->Args({16, 3})
    ->Args({24, 3})
    ->Args({12, 5})
    ->Unit(benchmark::kMillisecond);
