//===- nn/Network.cpp -------------------------------------------------------===//

#include "nn/Network.h"

#include "nn/LinearLayers.h"
#include "support/Casting.h"

#include <cassert>

using namespace prdnn;

Network::Network(const Network &Other) {
  Layers.reserve(Other.Layers.size());
  for (const auto &L : Other.Layers)
    Layers.push_back(L->clone());
}

Network &Network::operator=(const Network &Other) {
  if (this == &Other)
    return *this;
  Layers.clear();
  Layers.reserve(Other.Layers.size());
  for (const auto &L : Other.Layers)
    Layers.push_back(L->clone());
  return *this;
}

int Network::addLayer(std::unique_ptr<Layer> L) {
  assert(L && "null layer");
  assert((Layers.empty() || Layers.back()->outputSize() == L->inputSize()) &&
         "adjacent layer sizes must match");
  Layers.push_back(std::move(L));
  return numLayers() - 1;
}

int Network::inputSize() const {
  assert(!Layers.empty() && "empty network");
  return Layers.front()->inputSize();
}

int Network::outputSize() const {
  assert(!Layers.empty() && "empty network");
  return Layers.back()->outputSize();
}

Vector Network::evaluate(const Vector &X) const {
  Vector Current = X;
  for (const auto &L : Layers)
    Current = L->apply(Current);
  return Current;
}

Matrix Network::applyBatch(const Matrix &Xs) const {
  Matrix Current = Xs;
  for (const auto &L : Layers)
    Current = L->applyBatch(Current);
  return Current;
}

std::vector<Vector> Network::intermediates(const Vector &X) const {
  std::vector<Vector> Values;
  Values.reserve(Layers.size() + 1);
  Values.push_back(X);
  for (const auto &L : Layers)
    Values.push_back(L->apply(Values.back()));
  return Values;
}

bool Network::isPiecewiseLinear() const {
  for (const auto &L : Layers)
    if (!L->isPiecewiseLinear())
      return false;
  return true;
}

std::vector<int> Network::parameterizedLayerIndices() const {
  std::vector<int> Result;
  for (int I = 0; I < numLayers(); ++I) {
    const auto *Linear = dyn_cast<LinearLayer>(&layer(I));
    if (Linear && Linear->numParams() > 0)
      Result.push_back(I);
  }
  return Result;
}

int Network::totalParams() const {
  int Total = 0;
  for (int I = 0; I < numLayers(); ++I)
    if (const auto *Linear = dyn_cast<LinearLayer>(&layer(I)))
      Total += Linear->numParams();
  return Total;
}

std::string Network::describe() const {
  std::string Result;
  for (const auto &L : Layers) {
    Result += L->describe();
    Result += '\n';
  }
  return Result;
}

double prdnn::accuracy(const Network &Net, const std::vector<Vector> &Inputs,
                       const std::vector<int> &Labels) {
  assert(Inputs.size() == Labels.size() && "inputs/labels length mismatch");
  if (Inputs.empty())
    return 0.0;
  int Correct = 0;
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (Net.classify(Inputs[I]) == Labels[I])
      ++Correct;
  return static_cast<double>(Correct) / static_cast<double>(Inputs.size());
}
