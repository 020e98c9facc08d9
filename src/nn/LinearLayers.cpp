//===- nn/LinearLayers.cpp -------------------------------------------------===//

#include "nn/LinearLayers.h"

#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace prdnn;

// --- FullyConnectedLayer -----------------------------------------------------

FullyConnectedLayer::FullyConnectedLayer(Matrix Weights, Vector Bias)
    : LinearLayer(LayerKind::FullyConnected), Weights(std::move(Weights)),
      Bias(std::move(Bias)) {
  assert(this->Weights.rows() == this->Bias.size() &&
         "bias dimension must match output dimension");
}

Vector FullyConnectedLayer::apply(const Vector &In) const {
  Vector Out = Weights.apply(In);
  Out += Bias;
  return Out;
}

Matrix FullyConnectedLayer::applyBatch(const Matrix &In) const {
  assert(In.cols() == inputSize() && "batched input size mismatch");
  Matrix Out = In.multiplyTransposed(Weights);
  for (int R = 0; R < Out.rows(); ++R) {
    double *Row = Out.rowData(R);
    for (int C = 0; C < Out.cols(); ++C)
      Row[C] += Bias[C];
  }
  return Out;
}

std::unique_ptr<Layer> FullyConnectedLayer::clone() const {
  return std::make_unique<FullyConnectedLayer>(Weights, Bias);
}

std::string FullyConnectedLayer::describe() const {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "fc %dx%d", Weights.rows(),
                Weights.cols());
  return Buffer;
}

Vector FullyConnectedLayer::vjpLinear(const Vector &GradOut) const {
  return Weights.applyTransposed(GradOut);
}

Matrix FullyConnectedLayer::vjpLinearBatch(const Matrix &GradOut) const {
  assert(GradOut.cols() == outputSize() && "batched gradient size mismatch");
  // Row r of GradOut * W is W^T (row r), with the same inner
  // accumulation order (and zero-skips) as applyTransposed.
  return GradOut.multiply(Weights);
}

void FullyConnectedLayer::getParams(std::vector<double> &Out) const {
  Out.resize(static_cast<size_t>(numParams()));
  size_t P = 0;
  for (int R = 0; R < Weights.rows(); ++R)
    for (int C = 0; C < Weights.cols(); ++C)
      Out[P++] = Weights(R, C);
  for (int R = 0; R < Bias.size(); ++R)
    Out[P++] = Bias[R];
}

void FullyConnectedLayer::setParams(const std::vector<double> &In) {
  assert(static_cast<int>(In.size()) == numParams() && "bad parameter count");
  size_t P = 0;
  for (int R = 0; R < Weights.rows(); ++R)
    for (int C = 0; C < Weights.cols(); ++C)
      Weights(R, C) = In[P++];
  for (int R = 0; R < Bias.size(); ++R)
    Bias[R] = In[P++];
}

void FullyConnectedLayer::addToParams(const std::vector<double> &Delta) {
  assert(static_cast<int>(Delta.size()) == numParams() &&
         "bad parameter count");
  size_t P = 0;
  for (int R = 0; R < Weights.rows(); ++R)
    for (int C = 0; C < Weights.cols(); ++C)
      Weights(R, C) += Delta[P++];
  for (int R = 0; R < Bias.size(); ++R)
    Bias[R] += Delta[P++];
}

void FullyConnectedLayer::accumulateParamGrad(
    const Vector &In, const Vector &GradOut,
    std::vector<double> &Accum) const {
  assert(static_cast<int>(Accum.size()) == numParams() &&
         "gradient accumulator size mismatch");
  int Rows = Weights.rows(), Cols = Weights.cols();
  size_t P = 0;
  for (int R = 0; R < Rows; ++R) {
    double G = GradOut[R];
    if (G == 0.0) {
      P += static_cast<size_t>(Cols);
      continue;
    }
    for (int C = 0; C < Cols; ++C)
      Accum[P++] += G * In[C];
  }
  for (int R = 0; R < Rows; ++R)
    Accum[P++] += GradOut[R];
}

void FullyConnectedLayer::paramJacobian(const Matrix &M, const Vector &In,
                                        Matrix &J) const {
  // Layer output z = W In + b, so dz_p/dW_pq = In_q and dz_p/db_p = 1;
  // J[r, (p,q)] = M[r,p] * In_q, J[r, bias_p] = M[r,p].
  assert(M.cols() == outputSize() && "backward matrix shape mismatch");
  assert(J.rows() == M.rows() && J.cols() == numParams() &&
         "Jacobian shape mismatch");
  int Rows = Weights.rows(), Cols = Weights.cols();
  int BiasBase = Rows * Cols;
  for (int R = 0; R < M.rows(); ++R) {
    double *JRow = J.rowData(R);
    const double *MRow = M.rowData(R);
    for (int P = 0; P < Rows; ++P) {
      double Scale = MRow[P];
      if (Scale == 0.0)
        continue;
      double *Block = JRow + static_cast<size_t>(P) * Cols;
      for (int Q = 0; Q < Cols; ++Q)
        Block[Q] += Scale * In[Q];
      JRow[BiasBase + P] += Scale;
    }
  }
}

// --- Conv2DLayer -------------------------------------------------------------

Conv2DLayer::Conv2DLayer(int InChannels, int InHeight, int InWidth,
                         int OutChannels, int KernelH, int KernelW,
                         int Stride, int Pad, std::vector<double> Kernels,
                         std::vector<double> Bias)
    : LinearLayer(LayerKind::Conv2D), InC(InChannels), InH(InHeight),
      InW(InWidth), OutC(OutChannels), KH(KernelH), KW(KernelW),
      Stride(Stride), Pad(Pad), Kernels(std::move(Kernels)),
      Bias(std::move(Bias)) {
  assert(Stride >= 1 && "stride must be positive");
  assert(Pad >= 0 && "negative padding");
  OutH = (InH + 2 * Pad - KH) / Stride + 1;
  OutW = (InW + 2 * Pad - KW) / Stride + 1;
  assert(OutH > 0 && OutW > 0 && "kernel larger than padded input");
  assert(static_cast<int>(this->Kernels.size()) == OutC * InC * KH * KW &&
         "kernel parameter count mismatch");
  assert(static_cast<int>(this->Bias.size()) == OutC &&
         "bias parameter count mismatch");
  buildTapTable();
}

void Conv2DLayer::buildTapTable() {
  // Interior stencil: offsets relative to the window base, in the same
  // (C, Y, X) order forEachTap emits.
  InteriorOffsets.clear();
  InteriorOffsets.reserve(static_cast<size_t>(InC) * KH * KW);
  for (int C = 0; C < InC; ++C)
    for (int Y = 0; Y < KH; ++Y)
      for (int X = 0; X < KW; ++X)
        InteriorOffsets.push_back((C * InH + Y) * InW + X);
  InteriorBase.assign(static_cast<size_t>(outputSize()), -1);
  for (int K = 0; K < OutC; ++K)
    for (int OY = 0; OY < OutH; ++OY)
      for (int OX = 0; OX < OutW; ++OX) {
        int IY = OY * Stride - Pad, IX = OX * Stride - Pad;
        if (IY < 0 || IX < 0 || IY + KH > InH || IX + KW > InW)
          continue;
        InteriorBase[static_cast<size_t>((K * OutH + OY) * OutW + OX)] =
            IY * InW + IX;
      }

  // Explicit taps only for the border outputs the stencil can't serve;
  // interior outputs (the vast majority) would never read theirs.
  TapOffsets.assign(static_cast<size_t>(outputSize()) + 1, 0);
  Taps.clear();
  forEachTap([&](int OutIndex, int InIndex, int ParamIndex) {
    if (InIndex < 0 || InteriorBase[static_cast<size_t>(OutIndex)] >= 0)
      return;
    Taps.push_back({InIndex, ParamIndex});
    // forEachTap emits outputs in ascending order, so this finalizes
    // the offset of every output once its taps are done.
    TapOffsets[static_cast<size_t>(OutIndex) + 1] =
        static_cast<int>(Taps.size());
  });
  for (int O = 0; O < outputSize(); ++O)
    TapOffsets[static_cast<size_t>(O) + 1] =
        std::max(TapOffsets[static_cast<size_t>(O)],
                 TapOffsets[static_cast<size_t>(O) + 1]);
}

template <typename FnT> void Conv2DLayer::forEachTap(FnT Fn) const {
  for (int K = 0; K < OutC; ++K) {
    for (int OY = 0; OY < OutH; ++OY) {
      for (int OX = 0; OX < OutW; ++OX) {
        int OutIndex = (K * OutH + OY) * OutW + OX;
        for (int C = 0; C < InC; ++C) {
          for (int Y = 0; Y < KH; ++Y) {
            int IY = OY * Stride - Pad + Y;
            if (IY < 0 || IY >= InH)
              continue;
            for (int X = 0; X < KW; ++X) {
              int IX = OX * Stride - Pad + X;
              if (IX < 0 || IX >= InW)
                continue;
              int InIndex = (C * InH + IY) * InW + IX;
              int ParamIndex = ((K * InC + C) * KH + Y) * KW + X;
              Fn(OutIndex, InIndex, ParamIndex);
            }
          }
        }
        Fn(OutIndex, -1, OutC * InC * KH * KW + K);
      }
    }
  }
}

// Shared forward kernel: flat-tap sweep with the interior stencil fast
// path; tap order (hence accumulation order) matches forEachTap
// exactly, with the bias added last as before.
void Conv2DLayer::forwardRow(const double *InRow, double *OutRow) const {
  int PlaneSize = OutH * OutW;
  int KernelSize = InC * KH * KW;
  const int *Offsets = InteriorOffsets.data();
  for (int O = 0; O < outputSize(); ++O) {
    double Sum = 0.0;
    int Base = InteriorBase[static_cast<size_t>(O)];
    if (Base >= 0) {
      const double *KParams =
          Kernels.data() +
          static_cast<size_t>(O / PlaneSize) * KernelSize;
      const double *Window = InRow + Base;
      for (int T = 0; T < KernelSize; ++T)
        Sum += KParams[T] * Window[Offsets[T]];
    } else {
      for (int T = TapOffsets[static_cast<size_t>(O)],
               TEnd = TapOffsets[static_cast<size_t>(O) + 1];
           T < TEnd; ++T)
        Sum +=
            Kernels[static_cast<size_t>(Taps[static_cast<size_t>(T)].Param)] *
            InRow[Taps[static_cast<size_t>(T)].In];
    }
    OutRow[O] = Sum + Bias[static_cast<size_t>(O / PlaneSize)];
  }
}

Vector Conv2DLayer::apply(const Vector &In) const {
  assert(In.size() == inputSize() && "conv input size mismatch");
  Vector Out(outputSize());
  forwardRow(In.data(), Out.data());
  return Out;
}

Matrix Conv2DLayer::applyBatch(const Matrix &In) const {
  assert(In.cols() == inputSize() && "batched input size mismatch");
  Matrix Out(In.rows(), outputSize());
  double Flops = static_cast<double>(In.rows()) * outputSize() * InC * KH * KW;
  parallelForRanges(
      0, In.rows(), Flops, [&](std::int64_t Begin, std::int64_t End) {
        for (int R = static_cast<int>(Begin); R < End; ++R)
          forwardRow(In.rowData(R), Out.rowData(R));
      });
  return Out;
}

std::unique_ptr<Layer> Conv2DLayer::clone() const {
  return std::make_unique<Conv2DLayer>(InC, InH, InW, OutC, KH, KW, Stride,
                                       Pad, Kernels, Bias);
}

std::string Conv2DLayer::describe() const {
  char Buffer[96];
  std::snprintf(Buffer, sizeof(Buffer),
                "conv %dx%dx%d -> %dx%dx%d (k=%dx%d s=%d p=%d)", InC, InH,
                InW, OutC, OutH, OutW, KH, KW, Stride, Pad);
  return Buffer;
}

Vector Conv2DLayer::vjpLinear(const Vector &GradOut) const {
  assert(GradOut.size() == outputSize() && "conv gradient size mismatch");
  Vector GradIn(inputSize());
  // Flat-tap scatter in forEachTap order (bit-identical accumulation),
  // with the interior stencil fast path mirroring forwardRow.
  double *GradData = GradIn.data();
  int PlaneSize = OutH * OutW;
  int KernelSize = InC * KH * KW;
  const int *Offsets = InteriorOffsets.data();
  for (int O = 0; O < outputSize(); ++O) {
    double G = GradOut[O];
    int Base = InteriorBase[static_cast<size_t>(O)];
    if (Base >= 0) {
      const double *KParams =
          Kernels.data() +
          static_cast<size_t>(O / PlaneSize) * KernelSize;
      double *Window = GradData + Base;
      for (int T = 0; T < KernelSize; ++T)
        Window[Offsets[T]] += KParams[T] * G;
    } else {
      for (int T = TapOffsets[static_cast<size_t>(O)],
               TEnd = TapOffsets[static_cast<size_t>(O) + 1];
           T < TEnd; ++T)
        GradData[Taps[static_cast<size_t>(T)].In] +=
            Kernels[static_cast<size_t>(Taps[static_cast<size_t>(T)].Param)] *
            G;
    }
  }
  return GradIn;
}

void Conv2DLayer::getParams(std::vector<double> &Out) const {
  Out = Kernels;
  Out.insert(Out.end(), Bias.begin(), Bias.end());
}

void Conv2DLayer::setParams(const std::vector<double> &In) {
  assert(static_cast<int>(In.size()) == numParams() && "bad parameter count");
  size_t KernelCount = Kernels.size();
  std::copy(In.begin(), In.begin() + KernelCount, Kernels.begin());
  std::copy(In.begin() + KernelCount, In.end(), Bias.begin());
}

void Conv2DLayer::addToParams(const std::vector<double> &Delta) {
  assert(static_cast<int>(Delta.size()) == numParams() &&
         "bad parameter count");
  size_t KernelCount = Kernels.size();
  for (size_t I = 0; I < KernelCount; ++I)
    Kernels[I] += Delta[I];
  for (size_t I = 0; I < Bias.size(); ++I)
    Bias[I] += Delta[KernelCount + I];
}

void Conv2DLayer::accumulateParamGrad(const Vector &In, const Vector &GradOut,
                                      std::vector<double> &Accum) const {
  assert(static_cast<int>(Accum.size()) == numParams() &&
         "gradient accumulator size mismatch");
  forEachTap([&](int OutIndex, int InIndex, int ParamIndex) {
    double G = GradOut[OutIndex];
    if (G == 0.0)
      return;
    if (InIndex < 0)
      Accum[static_cast<size_t>(ParamIndex)] += G;
    else
      Accum[static_cast<size_t>(ParamIndex)] += G * In[InIndex];
  });
}

void Conv2DLayer::paramJacobian(const Matrix &M, const Vector &In,
                                Matrix &J) const {
  assert(M.cols() == outputSize() && "backward matrix shape mismatch");
  assert(J.rows() == M.rows() && J.cols() == numParams() &&
         "Jacobian shape mismatch");
  // Flat-tap sweep with the interior stencil fast path, as forwardRow.
  // Each parameter accumulates its outputs in ascending order, with
  // forEachTap's zero-skips: the bits of a tap-by-tap walk.
  int PlaneSize = OutH * OutW;
  int KernelSize = InC * KH * KW;
  int BiasBase = OutC * KernelSize;
  const int *Offsets = InteriorOffsets.data();
  for (int R = 0; R < M.rows(); ++R) {
    const double *MRow = M.rowData(R);
    double *JRow = J.rowData(R);
    for (int O = 0; O < outputSize(); ++O) {
      double Scale = MRow[O];
      if (Scale == 0.0)
        continue;
      int K = O / PlaneSize;
      int Base = InteriorBase[static_cast<size_t>(O)];
      if (Base >= 0) {
        double *KParams = JRow + static_cast<size_t>(K) * KernelSize;
        const double *Window = In.data() + Base;
        for (int T = 0; T < KernelSize; ++T) {
          double Factor = Window[Offsets[T]];
          if (Factor != 0.0)
            KParams[T] += Scale * Factor;
        }
      } else {
        for (int T = TapOffsets[static_cast<size_t>(O)],
                 TEnd = TapOffsets[static_cast<size_t>(O) + 1];
             T < TEnd; ++T) {
          double Factor = In[Taps[static_cast<size_t>(T)].In];
          if (Factor != 0.0)
            JRow[Taps[static_cast<size_t>(T)].Param] += Scale * Factor;
        }
      }
      JRow[BiasBase + K] += Scale;
    }
  }
}

// --- FlattenLayer ------------------------------------------------------------

std::string FlattenLayer::describe() const {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "flatten %d", Size);
  return Buffer;
}
