//===- nn/Layer.h - layer class hierarchy ----------------------*- C++ -*-===//
///
/// \file
/// The layer hierarchy underlying prdnn::Network. The paper formalizes a
/// DNN as alternating (W, sigma) pairs (Definition 2.1); real
/// architectures interleave arbitrary linear maps (fully-connected,
/// convolution, average pooling) with activations, so we model a network
/// as a layer sequence and split the hierarchy accordingly:
///
///   Layer
///   |- LinearLayer       (affine maps; FC and Conv carry parameters)
///   |- ActivationLayer   (sigma; PWL ones also expose discrete patterns)
///
/// ActivationLayer exposes the two operations the DDNN semantics need
/// (Definition 4.3): Linearize[sigma, Center] evaluation and its
/// vector-Jacobian product, plus - for piecewise-linear activations -
/// evaluation under a *pinned* discrete activation pattern, which is how
/// Appendix B's region-pinned key points are realized.
///
/// Uses LLVM-style `classof` discrimination (support/Casting.h), no RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_NN_LAYER_H
#define PRDNN_NN_LAYER_H

#include "linalg/Matrix.h"
#include "linalg/Vector.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace prdnn {

/// Discriminator for the Layer hierarchy. Order matters: linear kinds
/// first, then piecewise-linear activations, then smooth activations
/// (classof range checks rely on it).
enum class LayerKind {
  // Linear layers.
  FullyConnected,
  Conv2D,
  AvgPool2D,
  Flatten,
  // Piecewise-linear activations.
  ReLU,
  LeakyReLU,
  HardTanh,
  MaxPool2D,
  // Smooth activations.
  Tanh,
  Sigmoid,
};

const char *toString(LayerKind Kind);

/// Abstract network layer; see file comment for the hierarchy.
class Layer {
public:
  virtual ~Layer();

  LayerKind getKind() const { return Kind; }

  virtual int inputSize() const = 0;
  virtual int outputSize() const = 0;

  /// Standard forward evaluation.
  virtual Vector apply(const Vector &In) const = 0;

  /// Batched forward evaluation: \p In holds one input per row, the
  /// result one output per row (bit-for-bit equal to apply() on each
  /// row). The default runs apply() row by row on the global thread
  /// pool; FullyConnectedLayer overrides with a blocked GEMM and
  /// ElementwiseActivation with a fused elementwise sweep.
  virtual Matrix applyBatch(const Matrix &In) const;

  virtual std::unique_ptr<Layer> clone() const = 0;

  /// One-line human-readable description ("fc 10x100", "relu 64", ...).
  virtual std::string describe() const = 0;

  /// True for layers computing affine functions of their input.
  bool isLinear() const { return Kind <= LayerKind::Flatten; }

  /// True unless the layer is a smooth (non-PWL) activation.
  bool isPiecewiseLinear() const { return Kind < LayerKind::Tanh; }

protected:
  explicit Layer(LayerKind Kind) : Kind(Kind) {}

private:
  LayerKind Kind;
};

/// A layer computing an affine function In -> W In + b (possibly with
/// structure, e.g. convolution). FullyConnected and Conv2D carry
/// repairable parameters; AvgPool2D and Flatten are parameter-free.
class LinearLayer : public Layer {
public:
  static bool classof(const Layer *L) { return L->isLinear(); }

  /// Vector-Jacobian product W^T * GradOut.
  virtual Vector vjpLinear(const Vector &GradOut) const = 0;

  /// Batched VJP: row r of the result is vjpLinear(row r of GradOut),
  /// bit-for-bit. This is how core/SpecRows sweeps a block of seeded LP
  /// rows back through the layer at once: the default runs vjpLinear
  /// row by row on the global thread pool, and FullyConnectedLayer
  /// overrides with a single GEMM GradOut * W.
  virtual Matrix vjpLinearBatch(const Matrix &GradOut) const;

  /// Number of repairable parameters (0 for parameter-free layers).
  virtual int numParams() const { return 0; }

  /// Copies the parameters into \p Out (resized to numParams()).
  virtual void getParams(std::vector<double> &Out) const;

  /// Overwrites the parameters from \p In (size numParams()).
  virtual void setParams(const std::vector<double> &In);

  /// Adds \p Delta to the parameters (size numParams()); this is the
  /// repair update of Algorithm 1, line 9.
  virtual void addToParams(const std::vector<double> &Delta);

  /// Accumulates d(loss)/d(params) given the layer input and the
  /// gradient at the layer output (for SGD training and fine-tuning).
  virtual void accumulateParamGrad(const Vector &In, const Vector &GradOut,
                                   std::vector<double> &Accum) const;

  /// Accumulates the parameter Jacobian: given M = d(net output)/d(layer
  /// output) (rows = network outputs), adds M * d(layer output)/d(params)
  /// at input \p In into \p J (shape M.rows() x numParams()).
  virtual void paramJacobian(const Matrix &M, const Vector &In,
                             Matrix &J) const;

protected:
  using Layer::Layer;
};

/// Maps every vector of \p Rows through \p L with one applyBatch call
/// (row p becomes L.apply(Rows[p]), bit-for-bit). The batching hook for
/// callers that keep their points in a std::vector<Vector> (the SyReNN
/// transforms).
void applyBatchToRows(const Layer &L, std::vector<Vector> &Rows);

/// An activation layer sigma. All activations support linearization
/// around a center (Definition 4.2); piecewise-linear ones additionally
/// expose discrete activation patterns (Definition 2.5).
class ActivationLayer : public Layer {
public:
  static bool classof(const Layer *L) { return !L->isLinear(); }

  /// Discrete activation pattern at pre-activation \p In (PWL only).
  /// Encoding is per-kind: ReLU/LeakyReLU 0/1, HardTanh -1/0/1,
  /// MaxPool2D the in-window argmax index.
  virtual std::vector<int> pattern(const Vector &In) const;

  /// Evaluates under a pinned pattern instead of deriving the pattern
  /// from \p In (PWL only). Realizes Appendix B's "repair the vertex as
  /// if it belongs to a specific linear region".
  virtual Vector applyWithPattern(const Vector &In,
                                  const std::vector<int> &Pat) const;

  /// Linearize[sigma, Center](In) = sigma(Center) + Dsigma(Center) *
  /// (In - Center) (Definition 4.2). Exact for PWL activations away
  /// from region boundaries; the value channel of a DDNN is evaluated
  /// through this.
  virtual Vector applyLinearized(const Vector &Center,
                                 const Vector &In) const = 0;

  /// Vector-Jacobian product through Dsigma(Center).
  virtual Vector vjpLinearized(const Vector &Center,
                               const Vector &GradOut) const = 0;

  /// Batched evaluation with a rule per row, bit-for-bit: row r of the
  /// result is applyWithPattern(row r of \p In, *Pinned[r]) when
  /// Pinned[r] is set, else applyLinearized(center r, row r of \p In)
  /// when \p Centers is set - center r being the inputSize() values at
  /// Centers + r * inputSize() - else apply(row r of \p In). \p Pinned
  /// is empty (no row pinned) or holds one entry per row. core/SpecRows
  /// runs blocks of spec points through the layer with it: the job's
  /// Delta = 0 forward state without centers, the repaired DDNN's value
  /// channel with them. The default maps the rows one by one;
  /// ElementwiseActivation overrides with a fused row loop. Either goes
  /// to the pool only from kParallelFlopThreshold entries on.
  virtual Matrix
  applyRows(const Matrix &In, const double *Centers,
            std::span<const std::vector<int> *const> Pinned) const;

  /// Vector-Jacobian product through the pinned pattern (PWL only).
  virtual Vector vjpWithPattern(const std::vector<int> &Pat,
                                const Vector &GradOut) const;

  /// Appends every fraction s in (0, 1) at which the activation pattern
  /// changes along the pre-activation segment Left -> Right (PWL only).
  /// Over-approximation is allowed (extra fractions merely oversubdivide
  /// the partition); missing a genuine change is not. Used by the
  /// SyReNN line/plane transforms.
  virtual void appendCrossings(const Vector &Left, const Vector &Right,
                               std::vector<double> &Fractions) const;

protected:
  using Layer::Layer;
};

} // namespace prdnn

#endif // PRDNN_NN_LAYER_H
