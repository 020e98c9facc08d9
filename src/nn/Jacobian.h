//===- nn/Jacobian.h - parameter Jacobians under fixed patterns -*- C++ -*-===//
///
/// \file
/// Computes the Jacobian of the network output with respect to the
/// parameters of one linear layer, holding all activation linearizations
/// fixed - i.e. the quantity D_{params} N'(x) of Algorithm 1, line 5.
/// By Theorem 4.5 this linearization is *exact* for a DDNN when only
/// that value-channel layer changes:
///
///    N'(x; Delta) = N(x) + J_x Delta.
///
/// The paper computes these with PyTorch autodiff; here they come from a
/// closed-form backward accumulation through the layers' vector-Jacobian
/// products. Passing a pinned NetworkPattern computes the Jacobian "as
/// if x belongs to that linear region" (Appendix B), which Algorithm 2
/// needs for key points lying on region boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_NN_JACOBIAN_H
#define PRDNN_NN_JACOBIAN_H

#include "nn/ActivationPattern.h"
#include "nn/Network.h"

namespace prdnn {

struct JacobianResult {
  /// outputSize x numParams(LayerIndex); N'(x; Delta) = Output + J Delta.
  Matrix J;
  /// N(x), evaluated under the pinned pattern when one is given.
  Vector Output;
};

/// See file comment. \p LayerIndex must name a parameterized linear
/// layer; \p Pinned (optional) fixes the activation pattern used both
/// for the forward values and the backward masks.
JacobianResult paramJacobian(const Network &Net, int LayerIndex,
                             const Vector &X,
                             const NetworkPattern *Pinned = nullptr);

} // namespace prdnn

#endif // PRDNN_NN_JACOBIAN_H
