//===- core/DecoupledNetwork.cpp ---------------------------------------------===//

#include "core/DecoupledNetwork.h"

#include "support/Casting.h"

#include <cassert>

using namespace prdnn;

DecoupledNetwork DecoupledNetwork::fromNetwork(const Network &Net) {
  return DecoupledNetwork(Net, Net);
}

DecoupledNetwork::DecoupledNetwork(Network Activation, Network Value)
    : Activation(std::move(Activation)), Value(std::move(Value)) {
  assert(this->Activation.numLayers() == this->Value.numLayers() &&
         "channel layer counts must match");
#ifndef NDEBUG
  for (int I = 0; I < this->Activation.numLayers(); ++I) {
    assert(this->Activation.layer(I).getKind() ==
               this->Value.layer(I).getKind() &&
           "channel layer kinds must match");
    assert(this->Activation.layer(I).inputSize() ==
               this->Value.layer(I).inputSize() &&
           this->Activation.layer(I).outputSize() ==
               this->Value.layer(I).outputSize() &&
           "channel layer shapes must match");
  }
#endif
}

Vector DecoupledNetwork::evaluate(const Vector &X) const {
  // Definition 4.3. VA tracks the activation channel (plain semantics);
  // VV tracks the value channel, whose activation layers apply the
  // linearization of sigma around the activation channel's input.
  Vector VA = X;
  Vector VV = X;
  for (int I = 0; I < numLayers(); ++I) {
    const Layer &LA = Activation.layer(I);
    const Layer &LV = Value.layer(I);
    if (const auto *Act = dyn_cast<ActivationLayer>(&LV)) {
      Vector NextV = Act->applyLinearized(/*Center=*/VA, VV);
      VA = LA.apply(VA);
      VV = std::move(NextV);
    } else {
      VA = LA.apply(VA);
      VV = LV.apply(VV);
    }
  }
  return VV;
}

Vector DecoupledNetwork::evaluateWithPattern(
    const Vector &X, const NetworkPattern &Pattern) const {
  return prdnn::evaluateWithPattern(Value, X, Pattern);
}

double DecoupledNetwork::accuracy(const std::vector<Vector> &Inputs,
                                  const std::vector<int> &Labels) const {
  assert(Inputs.size() == Labels.size() && "inputs/labels length mismatch");
  if (Inputs.empty())
    return 0.0;
  int Correct = 0;
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (classify(Inputs[I]) == Labels[I])
      ++Correct;
  return static_cast<double>(Correct) / static_cast<double>(Inputs.size());
}
