//===- core/DecoupledNetwork.h - Decoupled DNNs (paper §4) -----*- C++ -*-===//
///
/// \file
/// The Decoupled DNN architecture (Definitions 4.1 and 4.3): two
/// channels with identical layer structure. The *activation channel*
/// runs the network normally and decides, per activation layer, the
/// linearization center; the *value channel* runs its own parameters
/// through Linearize[sigma, center] instead of sigma. Consequences used
/// throughout the library:
///
///  - Theorem 4.4: fromNetwork(N) computes exactly N.
///  - Theorem 4.5: the output is affine in any single value-channel
///    layer's parameters (see nn/Jacobian.h).
///  - Theorem 4.6: for PWL networks, value-channel edits do not move
///    the linear regions (they are decided by the activation channel).
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CORE_DECOUPLEDNETWORK_H
#define PRDNN_CORE_DECOUPLEDNETWORK_H

#include "nn/ActivationPattern.h"
#include "nn/Network.h"

#include <vector>

namespace prdnn {

/// A Decoupled DNN; see file comment.
class DecoupledNetwork {
public:
  /// Theorem 4.4 construction: both channels copy \p Net, so the DDNN
  /// computes exactly the same function.
  static DecoupledNetwork fromNetwork(const Network &Net);

  /// General constructor; channels must have identical layer structure
  /// (same kinds and shapes per index).
  DecoupledNetwork(Network Activation, Network Value);

  const Network &activationChannel() const { return Activation; }
  const Network &valueChannel() const { return Value; }
  /// Mutable value channel: this is what repair edits (Algorithm 1,
  /// line 9).
  Network &valueChannel() { return Value; }

  int inputSize() const { return Activation.inputSize(); }
  int outputSize() const { return Value.outputSize(); }
  int numLayers() const { return Activation.numLayers(); }

  /// DDNN semantics (Definition 4.3): activation channel fixes the
  /// linearization centers, value channel produces the output.
  Vector evaluate(const Vector &X) const;

  int classify(const Vector &X) const { return evaluate(X).argmax(); }

  /// Evaluates the value channel under an explicitly pinned activation
  /// pattern (PWL networks; Appendix B).
  Vector evaluateWithPattern(const Vector &X,
                             const NetworkPattern &Pattern) const;

  /// Fraction of inputs classified as their label (by DDNN semantics).
  double accuracy(const std::vector<Vector> &Inputs,
                  const std::vector<int> &Labels) const;

private:
  Network Activation;
  Network Value;
};

} // namespace prdnn

#endif // PRDNN_CORE_DECOUPLEDNETWORK_H
