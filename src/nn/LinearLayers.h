//===- nn/LinearLayers.h - FC / Conv2D / Flatten layers --------*- C++ -*-===//
///
/// \file
/// The parameterized linear layers (fully-connected and 2-D convolution,
/// both repairable by Algorithms 1 and 2) plus the trivial Flatten
/// marker layer.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_NN_LINEARLAYERS_H
#define PRDNN_NN_LINEARLAYERS_H

#include "nn/Layer.h"

namespace prdnn {

/// Dense affine layer: In -> W In + b.
/// Parameter layout: W row-major (outputSize x inputSize), then b.
class FullyConnectedLayer : public LinearLayer {
public:
  FullyConnectedLayer(Matrix Weights, Vector Bias);

  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::FullyConnected;
  }

  int inputSize() const override { return Weights.cols(); }
  int outputSize() const override { return Weights.rows(); }

  Vector apply(const Vector &In) const override;
  /// Blocked GEMM In * W^T with the bias broadcast over rows.
  Matrix applyBatch(const Matrix &In) const override;
  std::unique_ptr<Layer> clone() const override;
  std::string describe() const override;

  Vector vjpLinear(const Vector &GradOut) const override;
  /// Single GEMM GradOut * W (row-wise W^T products).
  Matrix vjpLinearBatch(const Matrix &GradOut) const override;
  int numParams() const override {
    return Weights.rows() * Weights.cols() + Bias.size();
  }
  void getParams(std::vector<double> &Out) const override;
  void setParams(const std::vector<double> &In) override;
  void addToParams(const std::vector<double> &Delta) override;
  void accumulateParamGrad(const Vector &In, const Vector &GradOut,
                           std::vector<double> &Accum) const override;
  void paramJacobian(const Matrix &M, const Vector &In,
                     Matrix &J) const override;

  const Matrix &weights() const { return Weights; }
  const Vector &bias() const { return Bias; }

private:
  Matrix Weights;
  Vector Bias;
};

/// 2-D convolution over a (Channels, Height, Width) tensor flattened
/// row-major into a Vector. Parameter layout: kernels
/// (OutChannels x InChannels x KernelH x KernelW) row-major, then one
/// bias per output channel.
class Conv2DLayer : public LinearLayer {
public:
  Conv2DLayer(int InChannels, int InHeight, int InWidth, int OutChannels,
              int KernelH, int KernelW, int Stride, int Pad,
              std::vector<double> Kernels, std::vector<double> Bias);

  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::Conv2D;
  }

  int inputSize() const override { return InC * InH * InW; }
  int outputSize() const override { return OutC * OutH * OutW; }

  Vector apply(const Vector &In) const override;
  /// Flat-tap kernel over every row (see buildTapTable).
  Matrix applyBatch(const Matrix &In) const override;
  std::unique_ptr<Layer> clone() const override;
  std::string describe() const override;

  Vector vjpLinear(const Vector &GradOut) const override;
  int numParams() const override {
    return OutC * InC * KH * KW + OutC;
  }
  void getParams(std::vector<double> &Out) const override;
  void setParams(const std::vector<double> &In) override;
  void addToParams(const std::vector<double> &Delta) override;
  void accumulateParamGrad(const Vector &In, const Vector &GradOut,
                           std::vector<double> &Accum) const override;
  void paramJacobian(const Matrix &M, const Vector &In,
                     Matrix &J) const override;

  int inChannels() const { return InC; }
  int inHeight() const { return InH; }
  int inWidth() const { return InW; }
  int outChannels() const { return OutC; }
  int outHeight() const { return OutH; }
  int outWidth() const { return OutW; }
  int kernelHeight() const { return KH; }
  int kernelWidth() const { return KW; }
  int stride() const { return Stride; }
  int padding() const { return Pad; }

private:
  int InC, InH, InW;
  int OutC, KH, KW, Stride, Pad;
  int OutH, OutW;
  std::vector<double> Kernels;
  std::vector<double> Bias;

  /// One in-range (input index, kernel parameter index) contribution to
  /// some output position.
  struct Tap {
    int In, Param;
  };
  /// Taps grouped by output position in forEachTap emission order:
  /// output o's taps are Taps[TapOffsets[o] .. TapOffsets[o+1]). Built
  /// once at construction so the forward/VJP hot loops run over flat
  /// arrays instead of re-deriving the six-deep tap geometry per point
  /// (the batched engine's conv kernels iterate this table).
  std::vector<Tap> Taps;
  std::vector<int> TapOffsets;
  /// Interior fast path: outputs whose window is unclipped by padding
  /// share one input-offset stencil (InteriorOffsets, in (C,Y,X) tap
  /// order) and read their kernel parameters contiguously, so the
  /// forward loop needs no per-tap index pairs. InteriorBase[o] is the
  /// window's input base index, or -1 for border outputs (which use the
  /// generic tap list). Accumulation order is unchanged either way.
  std::vector<int> InteriorBase;
  std::vector<int> InteriorOffsets;
  void buildTapTable();

  /// Forward kernel for one input row (see buildTapTable).
  void forwardRow(const double *InRow, double *OutRow) const;

  /// Invokes Fn(OutIndex, InIndex, ParamIndex) for every (output
  /// position, kernel entry) pair whose input position is in range, and
  /// Fn(OutIndex, -1, BiasParamIndex) for each bias contribution.
  template <typename FnT> void forEachTap(FnT Fn) const;
};

/// Shape marker; the identity on flat vectors. Kept so that serialized
/// architectures document where tensors become flat.
class FlattenLayer : public LinearLayer {
public:
  explicit FlattenLayer(int Size) : LinearLayer(LayerKind::Flatten),
                                    Size(Size) {}

  static bool classof(const Layer *L) {
    return L->getKind() == LayerKind::Flatten;
  }

  int inputSize() const override { return Size; }
  int outputSize() const override { return Size; }
  Vector apply(const Vector &In) const override { return In; }
  Matrix applyBatch(const Matrix &In) const override { return In; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<FlattenLayer>(Size);
  }
  std::string describe() const override;
  Vector vjpLinear(const Vector &GradOut) const override { return GradOut; }
  Matrix vjpLinearBatch(const Matrix &GradOut) const override {
    return GradOut;
  }

private:
  int Size;
};

} // namespace prdnn

#endif // PRDNN_NN_LINEARLAYERS_H
