//===- nn/Layer.cpp --------------------------------------------------------===//

#include "nn/Layer.h"

#include "support/Error.h"
#include "support/Parallel.h"

using namespace prdnn;

const char *prdnn::toString(LayerKind Kind) {
  switch (Kind) {
  case LayerKind::FullyConnected:
    return "fc";
  case LayerKind::Conv2D:
    return "conv";
  case LayerKind::AvgPool2D:
    return "avgpool";
  case LayerKind::Flatten:
    return "flatten";
  case LayerKind::ReLU:
    return "relu";
  case LayerKind::LeakyReLU:
    return "leakyrelu";
  case LayerKind::HardTanh:
    return "hardtanh";
  case LayerKind::MaxPool2D:
    return "maxpool";
  case LayerKind::Tanh:
    return "tanh";
  case LayerKind::Sigmoid:
    return "sigmoid";
  }
  PRDNN_UNREACHABLE("bad LayerKind");
}

Layer::~Layer() = default;

Matrix Layer::applyBatch(const Matrix &In) const {
  assert(In.cols() == inputSize() && "batched input size mismatch");
  Matrix Out(In.rows(), outputSize());
  parallelFor(0, In.rows(), [&](std::int64_t R) {
    Out.setRow(static_cast<int>(R), apply(In.row(static_cast<int>(R))));
  });
  return Out;
}

void prdnn::applyBatchToRows(const Layer &L, std::vector<Vector> &Rows) {
  Matrix Out = L.applyBatch(Matrix::fromRowVectors(Rows));
  for (size_t I = 0; I < Rows.size(); ++I)
    Rows[I] = Out.row(static_cast<int>(I));
}

Matrix LinearLayer::vjpLinearBatch(const Matrix &GradOut) const {
  assert(GradOut.cols() == outputSize() && "batched gradient size mismatch");
  Matrix Out(GradOut.rows(), inputSize());
  parallelFor(0, GradOut.rows(), [&](std::int64_t R) {
    Out.setRow(static_cast<int>(R),
               vjpLinear(GradOut.row(static_cast<int>(R))));
  });
  return Out;
}

void LinearLayer::getParams(std::vector<double> &Out) const {
  Out.clear();
  assert(numParams() == 0 && "parameterized layer must override getParams");
}

void LinearLayer::setParams(const std::vector<double> &In) {
  (void)In;
  assert(numParams() == 0 && "parameterized layer must override setParams");
}

void LinearLayer::addToParams(const std::vector<double> &Delta) {
  (void)Delta;
  assert(numParams() == 0 && "parameterized layer must override addToParams");
}

void LinearLayer::accumulateParamGrad(const Vector &In, const Vector &GradOut,
                                      std::vector<double> &Accum) const {
  (void)In;
  (void)GradOut;
  (void)Accum;
  assert(numParams() == 0 &&
         "parameterized layer must override accumulateParamGrad");
}

void LinearLayer::paramJacobian(const Matrix &M, const Vector &In,
                                Matrix &J) const {
  (void)M;
  (void)In;
  (void)J;
  PRDNN_UNREACHABLE("paramJacobian requested on a parameter-free layer");
}

Matrix ActivationLayer::applyRows(
    const Matrix &In, const double *Centers,
    std::span<const std::vector<int> *const> Pinned) const {
  assert(In.cols() == inputSize() && "batched input size mismatch");
  assert((Pinned.empty() || static_cast<int>(Pinned.size()) == In.rows()) &&
         "one pinned pattern slot per row");
  Matrix Out(In.rows(), outputSize());
  auto Rows = [&](std::int64_t Begin, std::int64_t End) {
    for (int R = static_cast<int>(Begin); R < End; ++R) {
      const std::vector<int> *Pattern =
          Pinned.empty() ? nullptr : Pinned[static_cast<size_t>(R)];
      if (Pattern) {
        Out.setRow(R, applyWithPattern(In.row(R), *Pattern));
      } else if (Centers) {
        const double *C = Centers + static_cast<size_t>(R) * inputSize();
        Out.setRow(R, applyLinearized(Vector(std::vector<double>(
                                          C, C + inputSize())),
                                      In.row(R)));
      } else {
        Out.setRow(R, apply(In.row(R)));
      }
    }
  };
  if (static_cast<double>(In.rows()) * inputSize() >= kParallelFlopThreshold)
    parallelForRanges(0, In.rows(), Rows);
  else
    Rows(0, In.rows());
  return Out;
}

std::vector<int> ActivationLayer::pattern(const Vector &In) const {
  (void)In;
  PRDNN_UNREACHABLE("activation patterns require a piecewise-linear layer");
}

Vector ActivationLayer::applyWithPattern(const Vector &In,
                                         const std::vector<int> &Pat) const {
  (void)In;
  (void)Pat;
  PRDNN_UNREACHABLE("pinned-pattern evaluation requires a PWL layer");
}

Vector ActivationLayer::vjpWithPattern(const std::vector<int> &Pat,
                                       const Vector &GradOut) const {
  (void)Pat;
  (void)GradOut;
  PRDNN_UNREACHABLE("pinned-pattern VJP requires a PWL layer");
}

void ActivationLayer::appendCrossings(const Vector &Left, const Vector &Right,
                                      std::vector<double> &Fractions) const {
  (void)Left;
  (void)Right;
  (void)Fractions;
  PRDNN_UNREACHABLE("pattern crossings require a PWL layer");
}
