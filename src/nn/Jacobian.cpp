//===- nn/Jacobian.cpp -------------------------------------------------------===//

#include "nn/Jacobian.h"

#include "nn/LinearLayers.h"
#include "support/Casting.h"

#include <cassert>

using namespace prdnn;

JacobianResult prdnn::paramJacobian(const Network &Net, int LayerIndex,
                                    const Vector &X,
                                    const NetworkPattern *Pinned) {
  assert(LayerIndex >= 0 && LayerIndex < Net.numLayers() &&
         "layer index out of range");
  const auto *Target = dyn_cast<LinearLayer>(&Net.layer(LayerIndex));
  assert(Target && Target->numParams() > 0 &&
         "Jacobian target must be a parameterized linear layer");

  std::vector<Vector> Values =
      Pinned ? intermediatesWithPattern(Net, X, *Pinned)
             : Net.intermediates(X);

  int OutDim = Net.outputSize();
  // M = d(net output) / d(layer i output), accumulated backward from the
  // identity at the output layer.
  Matrix M = Matrix::identity(OutDim);
  for (int I = Net.numLayers() - 1; I > LayerIndex; --I) {
    const Layer &L = Net.layer(I);
    Matrix Next(OutDim, L.inputSize());
    for (int R = 0; R < OutDim; ++R) {
      Vector GradOut = M.row(R);
      Vector GradIn;
      if (const auto *Linear = dyn_cast<LinearLayer>(&L)) {
        GradIn = Linear->vjpLinear(GradOut);
      } else {
        const auto &Act = cast<ActivationLayer>(L);
        if (Pinned && L.isPiecewiseLinear())
          GradIn = Act.vjpWithPattern(
              Pinned->Patterns[static_cast<size_t>(I)], GradOut);
        else
          GradIn = Act.vjpLinearized(Values[static_cast<size_t>(I)], GradOut);
      }
      Next.setRow(R, GradIn);
    }
    M = std::move(Next);
  }

  JacobianResult Result;
  Result.J = Matrix(OutDim, Target->numParams());
  Target->paramJacobian(M, Values[static_cast<size_t>(LayerIndex)], Result.J);
  Result.Output = Values.back();
  return Result;
}
