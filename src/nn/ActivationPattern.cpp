//===- nn/ActivationPattern.cpp ----------------------------------------------===//

#include "nn/ActivationPattern.h"

#include "support/Casting.h"
#include "support/Parallel.h"

#include <cassert>

using namespace prdnn;

NetworkPattern prdnn::computePattern(const Network &Net, const Vector &X) {
  assert(Net.isPiecewiseLinear() &&
         "activation patterns require a PWL network");
  NetworkPattern Result;
  Result.Patterns.resize(static_cast<size_t>(Net.numLayers()));
  Vector Current = X;
  for (int I = 0; I < Net.numLayers(); ++I) {
    const Layer &L = Net.layer(I);
    if (const auto *Act = dyn_cast<ActivationLayer>(&L))
      Result.Patterns[static_cast<size_t>(I)] = Act->pattern(Current);
    Current = L.apply(Current);
  }
  return Result;
}

std::vector<NetworkPattern> prdnn::computePatternBatch(const Network &Net,
                                                       const Matrix &Xs) {
  assert(Net.isPiecewiseLinear() &&
         "activation patterns require a PWL network");
  int NumPoints = Xs.rows();
  std::vector<NetworkPattern> Result(static_cast<size_t>(NumPoints));
  for (auto &Pattern : Result)
    Pattern.Patterns.resize(static_cast<size_t>(Net.numLayers()));
  Matrix Current = Xs;
  for (int I = 0; I < Net.numLayers(); ++I) {
    const Layer &L = Net.layer(I);
    double Values = static_cast<double>(NumPoints) * L.inputSize();
    if (const auto *Act = dyn_cast<ActivationLayer>(&L))
      parallelFor(0, NumPoints, Values, [&](std::int64_t P) {
        Result[static_cast<size_t>(P)].Patterns[static_cast<size_t>(I)] =
            Act->pattern(Current.row(static_cast<int>(P)));
      });
    Current = L.applyBatch(Current);
  }
  return Result;
}

std::vector<NetworkPattern>
prdnn::computePatternBatch(const Network &Net,
                           const std::vector<Vector> &Xs) {
  if (Xs.empty())
    return {};
  return computePatternBatch(Net, Matrix::fromRowVectors(Xs));
}

std::vector<Vector>
prdnn::intermediatesWithPattern(const Network &Net, const Vector &X,
                                const NetworkPattern &Pattern) {
  assert(static_cast<int>(Pattern.Patterns.size()) == Net.numLayers() &&
         "pattern layer count mismatch");
  std::vector<Vector> Values;
  Values.reserve(static_cast<size_t>(Net.numLayers()) + 1);
  Values.push_back(X);
  for (int I = 0; I < Net.numLayers(); ++I) {
    const Layer &L = Net.layer(I);
    if (const auto *Act = dyn_cast<ActivationLayer>(&L))
      Values.push_back(Act->applyWithPattern(
          Values.back(), Pattern.Patterns[static_cast<size_t>(I)]));
    else
      Values.push_back(L.apply(Values.back()));
  }
  return Values;
}

Vector prdnn::evaluateWithPattern(const Network &Net, const Vector &X,
                                  const NetworkPattern &Pattern) {
  return intermediatesWithPattern(Net, X, Pattern).back();
}
