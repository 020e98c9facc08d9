//===- nn/ActivationLayers.cpp ----------------------------------------------===//

#include "nn/ActivationLayers.h"

#include "support/Error.h"
#include "support/Parallel.h"

#include <cassert>
#include <cmath>
#include <cstdio>

using namespace prdnn;

Vector ElementwiseActivation::apply(const Vector &In) const {
  assert(In.size() == Size && "activation input size mismatch");
  Vector Out(Size);
  for (int I = 0; I < Size; ++I)
    Out[I] = value(In[I]);
  return Out;
}

Matrix ElementwiseActivation::applyBatch(const Matrix &In) const {
  return applyRows(In, nullptr, {});
}

Matrix ElementwiseActivation::applyRows(
    const Matrix &In, const double *Centers,
    std::span<const std::vector<int> *const> Pinned) const {
  assert(In.cols() == Size && "activation input size mismatch");
  assert((Pinned.empty() || static_cast<int>(Pinned.size()) == In.rows()) &&
         "one pinned pattern slot per row");
  Matrix Out(In.rows(), Size);
  // Each row's arithmetic is apply's, applyLinearized's or
  // applyWithPattern's, element for element.
  auto Rows = [&](std::int64_t Begin, std::int64_t End) {
    for (int R = static_cast<int>(Begin); R < End; ++R) {
      const double *X = In.rowData(R);
      double *Y = Out.rowData(R);
      const std::vector<int> *Pattern =
          Pinned.empty() ? nullptr : Pinned[static_cast<size_t>(R)];
      if (Pattern) {
        assert(isPiecewiseLinear() && static_cast<int>(Pattern->size()) == Size &&
               "pinned patterns require a PWL activation of the row's size");
        const int *P = Pattern->data();
        for (int I = 0; I < Size; ++I)
          Y[I] = regionValue(P[I], X[I]);
      } else if (Centers) {
        const double *C = Centers + static_cast<size_t>(R) * Size;
        for (int I = 0; I < Size; ++I)
          Y[I] = value(C[I]) + derivative(C[I]) * (X[I] - C[I]);
      } else {
        for (int I = 0; I < Size; ++I)
          Y[I] = value(X[I]);
      }
    }
  };
  if (static_cast<double>(In.rows()) * Size >= kParallelFlopThreshold)
    parallelForRanges(0, In.rows(), Rows);
  else
    Rows(0, In.rows());
  return Out;
}

Vector ElementwiseActivation::applyLinearized(const Vector &Center,
                                              const Vector &In) const {
  // Linearize[sigma, Center](In) = sigma(c) + sigma'(c) (In - c),
  // coordinatewise (Definition 4.2).
  assert(Center.size() == Size && In.size() == Size &&
         "activation input size mismatch");
  Vector Out(Size);
  for (int I = 0; I < Size; ++I) {
    double C = Center[I];
    Out[I] = value(C) + derivative(C) * (In[I] - C);
  }
  return Out;
}

Vector ElementwiseActivation::vjpLinearized(const Vector &Center,
                                            const Vector &GradOut) const {
  assert(Center.size() == Size && GradOut.size() == Size &&
         "activation gradient size mismatch");
  Vector Out(Size);
  for (int I = 0; I < Size; ++I)
    Out[I] = derivative(Center[I]) * GradOut[I];
  return Out;
}

std::vector<int> ElementwiseActivation::pattern(const Vector &In) const {
  assert(isPiecewiseLinear() && "patterns require a PWL activation");
  assert(In.size() == Size && "activation input size mismatch");
  std::vector<int> Pat(static_cast<size_t>(Size));
  for (int I = 0; I < Size; ++I)
    Pat[I] = regionOf(In[I]);
  return Pat;
}

Vector ElementwiseActivation::applyWithPattern(
    const Vector &In, const std::vector<int> &Pat) const {
  assert(isPiecewiseLinear() && "pinned patterns require a PWL activation");
  assert(static_cast<int>(Pat.size()) == Size && "pattern size mismatch");
  Vector Out(Size);
  for (int I = 0; I < Size; ++I)
    Out[I] = regionValue(Pat[I], In[I]);
  return Out;
}

Vector ElementwiseActivation::vjpWithPattern(const std::vector<int> &Pat,
                                             const Vector &GradOut) const {
  assert(isPiecewiseLinear() && "pinned patterns require a PWL activation");
  assert(static_cast<int>(Pat.size()) == Size && "pattern size mismatch");
  Vector Out(Size);
  for (int I = 0; I < Size; ++I)
    Out[I] = regionSlope(Pat[I]) * GradOut[I];
  return Out;
}

void ElementwiseActivation::appendCrossings(
    const Vector &Left, const Vector &Right,
    std::vector<double> &Fractions) const {
  assert(isPiecewiseLinear() && "pattern crossings require a PWL activation");
  assert(Left.size() == inputSize() && Right.size() == inputSize() &&
         "crossing segment size mismatch");
  std::vector<double> Thresholds = thresholds();
  for (int I = 0; I < inputSize(); ++I) {
    for (double Th : Thresholds) {
      double L = Left[I] - Th, R = Right[I] - Th;
      if ((L < 0.0 && R > 0.0) || (L > 0.0 && R < 0.0))
        Fractions.push_back(L / (L - R));
    }
  }
}

std::vector<double> ElementwiseActivation::thresholds() const {
  PRDNN_UNREACHABLE("thresholds on a non-PWL activation");
}

int ElementwiseActivation::regionOf(double X) const {
  (void)X;
  PRDNN_UNREACHABLE("regionOf on a non-PWL activation");
}

double ElementwiseActivation::regionValue(int R, double X) const {
  (void)R;
  (void)X;
  PRDNN_UNREACHABLE("regionValue on a non-PWL activation");
}

double ElementwiseActivation::regionSlope(int R) const {
  (void)R;
  PRDNN_UNREACHABLE("regionSlope on a non-PWL activation");
}

std::string ReLULayer::describe() const {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "relu %d", inputSize());
  return Buffer;
}

std::string LeakyReLULayer::describe() const {
  char Buffer[48];
  std::snprintf(Buffer, sizeof(Buffer), "leakyrelu %d (alpha=%g)",
                inputSize(), Alpha);
  return Buffer;
}

std::string HardTanhLayer::describe() const {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "hardtanh %d", inputSize());
  return Buffer;
}

double TanhLayer::value(double X) const { return std::tanh(X); }

double TanhLayer::derivative(double X) const {
  double T = std::tanh(X);
  return 1.0 - T * T;
}

std::string TanhLayer::describe() const {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "tanh %d", inputSize());
  return Buffer;
}

double SigmoidLayer::value(double X) const {
  return 1.0 / (1.0 + std::exp(-X));
}

double SigmoidLayer::derivative(double X) const {
  double S = value(X);
  return S * (1.0 - S);
}

std::string SigmoidLayer::describe() const {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "sigmoid %d", inputSize());
  return Buffer;
}
