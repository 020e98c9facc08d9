//===- nn/Network.h - feed-forward network ---------------------*- C++ -*-===//
///
/// \file
/// A feed-forward network as a sequence of layers (Definition 2.1/2.2,
/// generalized to arbitrary interleavings of linear and activation
/// layers). Owns its layers; copyable via deep clone.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_NN_NETWORK_H
#define PRDNN_NN_NETWORK_H

#include "nn/Layer.h"

#include <memory>
#include <vector>

namespace prdnn {

/// Feed-forward DNN: N(v) = L_n(...L_2(L_1(v))).
class Network {
public:
  Network() = default;
  Network(Network &&) = default;
  Network &operator=(Network &&) = default;
  Network(const Network &Other);
  Network &operator=(const Network &Other);

  /// Appends a layer; adjacent layer sizes must match. Returns its
  /// index.
  int addLayer(std::unique_ptr<Layer> L);

  int numLayers() const { return static_cast<int>(Layers.size()); }
  Layer &layer(int Index) { return *Layers[static_cast<size_t>(Index)]; }
  const Layer &layer(int Index) const {
    return *Layers[static_cast<size_t>(Index)];
  }

  int inputSize() const;
  int outputSize() const;

  /// Forward evaluation N(x) (Definition 2.2).
  Vector evaluate(const Vector &X) const;

  /// Batched forward evaluation: row p of the result is N(row p of
  /// \p Xs), bit-for-bit equal to evaluate() on that row. Linear layers
  /// run as blocked GEMMs, activations as fused sweeps, both on the
  /// global thread pool (support/Parallel.h).
  Matrix applyBatch(const Matrix &Xs) const;

  /// Argmax of the output (classification).
  int classify(const Vector &X) const { return evaluate(X).argmax(); }

  /// Inputs to every layer plus the final output: result[i] is the
  /// input of layer i, result[numLayers()] is N(x).
  std::vector<Vector> intermediates(const Vector &X) const;

  /// True iff every layer is PWL (required for polytope repair, §6).
  bool isPiecewiseLinear() const;

  /// Indices of layers carrying repairable parameters (FC/Conv).
  std::vector<int> parameterizedLayerIndices() const;

  /// Total parameter count across all layers.
  int totalParams() const;

  /// Multi-line architecture summary.
  std::string describe() const;

private:
  std::vector<std::unique_ptr<Layer>> Layers;
};

/// Fraction of \p Inputs whose argmax matches \p Labels.
double accuracy(const Network &Net, const std::vector<Vector> &Inputs,
                const std::vector<int> &Labels);

} // namespace prdnn

#endif // PRDNN_NN_NETWORK_H
