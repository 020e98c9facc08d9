//===- nn/ActivationLayers.h - elementwise activations ---------*- C++ -*-===//
///
/// \file
/// Elementwise activation layers. ReLU, LeakyReLU and HardTanh are
/// piecewise-linear (Definition 2.4) and participate in polytope repair;
/// Tanh and Sigmoid are smooth and supported by pointwise repair only
/// (paper §5, "Assumptions on the DNN").
///
/// The shared elementwise machinery lives in ElementwiseActivation;
/// subclasses provide the scalar function, its derivative, and - for
/// PWL kinds - the discrete region encoding.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_NN_ACTIVATIONLAYERS_H
#define PRDNN_NN_ACTIVATIONLAYERS_H

#include "nn/Layer.h"

namespace prdnn {

/// Base for activations applied independently per coordinate.
class ElementwiseActivation : public ActivationLayer {
public:
  static bool classof(const Layer *L) {
    return !L->isLinear() && L->getKind() != LayerKind::MaxPool2D;
  }

  int inputSize() const override { return Size; }
  int outputSize() const override { return Size; }

  Vector apply(const Vector &In) const override;
  /// applyRows with no centers and no pinned row.
  Matrix applyBatch(const Matrix &In) const override;
  /// One fused loop over the rows, each by its own rule.
  Matrix
  applyRows(const Matrix &In, const double *Centers,
            std::span<const std::vector<int> *const> Pinned) const override;
  Vector applyLinearized(const Vector &Center, const Vector &In) const override;
  Vector vjpLinearized(const Vector &Center,
                       const Vector &GradOut) const override;

  // PWL-only entry points; ElementwiseActivation implements them in
  // terms of regionOf/regionValue and subclasses opt in by overriding
  // isRegional() to true.
  std::vector<int> pattern(const Vector &In) const override;
  Vector applyWithPattern(const Vector &In,
                          const std::vector<int> &Pat) const override;
  Vector vjpWithPattern(const std::vector<int> &Pat,
                        const Vector &GradOut) const override;
  void appendCrossings(const Vector &Left, const Vector &Right,
                       std::vector<double> &Fractions) const override;

  /// Scalar pre-activation thresholds separating the affine pieces
  /// (PWL only): {0} for (Leaky)ReLU, {-1, 1} for HardTanh.
  virtual std::vector<double> thresholds() const;

protected:
  ElementwiseActivation(LayerKind Kind, int Size)
      : ActivationLayer(Kind), Size(Size) {}

  /// Scalar activation value.
  virtual double value(double X) const = 0;
  /// Scalar derivative (one-sided convention at kinks; ReLU'(0) = 0 per
  /// Appendix C).
  virtual double derivative(double X) const = 0;

  /// Discrete linear-region id of scalar input \p X (PWL only).
  virtual int regionOf(double X) const;
  /// Value of the region-\p R affine piece at \p X (PWL only).
  virtual double regionValue(int R, double X) const;
  /// Slope of the region-\p R affine piece (PWL only).
  virtual double regionSlope(int R) const;

private:
  int Size;
};

/// ReLU (Definition 2.3). Regions: 0 = inactive (zero), 1 = active
/// (identity). At exactly 0 the zero region is chosen, consistently
/// (Appendix C).
class ReLULayer : public ElementwiseActivation {
public:
  explicit ReLULayer(int Size)
      : ElementwiseActivation(LayerKind::ReLU, Size) {}
  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::ReLU;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLULayer>(inputSize());
  }
  std::string describe() const override;

protected:
  double value(double X) const override { return X > 0.0 ? X : 0.0; }
  double derivative(double X) const override { return X > 0.0 ? 1.0 : 0.0; }
  int regionOf(double X) const override { return X > 0.0 ? 1 : 0; }
  double regionValue(int R, double X) const override { return R ? X : 0.0; }
  double regionSlope(int R) const override { return R ? 1.0 : 0.0; }

public:
  std::vector<double> thresholds() const override { return {0.0}; }
};

/// LeakyReLU with negative-side slope \p Alpha. Regions: 0 = negative
/// side, 1 = positive side.
class LeakyReLULayer : public ElementwiseActivation {
public:
  LeakyReLULayer(int Size, double Alpha)
      : ElementwiseActivation(LayerKind::LeakyReLU, Size), Alpha(Alpha) {}
  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::LeakyReLU;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<LeakyReLULayer>(inputSize(), Alpha);
  }
  std::string describe() const override;
  double alpha() const { return Alpha; }

protected:
  double value(double X) const override { return X > 0.0 ? X : Alpha * X; }
  double derivative(double X) const override {
    return X > 0.0 ? 1.0 : Alpha;
  }
  int regionOf(double X) const override { return X > 0.0 ? 1 : 0; }
  double regionValue(int R, double X) const override {
    return R ? X : Alpha * X;
  }
  double regionSlope(int R) const override { return R ? 1.0 : Alpha; }

public:
  std::vector<double> thresholds() const override { return {0.0}; }

private:
  double Alpha;
};

/// HardTanh: clamp to [-1, 1]. Regions: -1 = saturated low, 0 = linear,
/// 1 = saturated high.
class HardTanhLayer : public ElementwiseActivation {
public:
  explicit HardTanhLayer(int Size)
      : ElementwiseActivation(LayerKind::HardTanh, Size) {}
  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::HardTanh;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<HardTanhLayer>(inputSize());
  }
  std::string describe() const override;

protected:
  double value(double X) const override {
    return X < -1.0 ? -1.0 : (X > 1.0 ? 1.0 : X);
  }
  double derivative(double X) const override {
    return (X > -1.0 && X < 1.0) ? 1.0 : 0.0;
  }
  int regionOf(double X) const override {
    return X < -1.0 ? -1 : (X > 1.0 ? 1 : 0);
  }
  double regionValue(int R, double X) const override {
    return R == 0 ? X : static_cast<double>(R);
  }
  double regionSlope(int R) const override { return R == 0 ? 1.0 : 0.0; }

public:
  std::vector<double> thresholds() const override { return {-1.0, 1.0}; }
};

/// Hyperbolic tangent (smooth; pointwise repair only).
class TanhLayer : public ElementwiseActivation {
public:
  explicit TanhLayer(int Size)
      : ElementwiseActivation(LayerKind::Tanh, Size) {}
  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::Tanh;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<TanhLayer>(inputSize());
  }
  std::string describe() const override;

protected:
  double value(double X) const override;
  double derivative(double X) const override;
};

/// Logistic sigmoid (smooth; pointwise repair only).
class SigmoidLayer : public ElementwiseActivation {
public:
  explicit SigmoidLayer(int Size)
      : ElementwiseActivation(LayerKind::Sigmoid, Size) {}
  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::Sigmoid;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<SigmoidLayer>(inputSize());
  }
  std::string describe() const override;

protected:
  double value(double X) const override;
  double derivative(double X) const override;
};

} // namespace prdnn

#endif // PRDNN_NN_ACTIVATIONLAYERS_H
