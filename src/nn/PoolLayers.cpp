//===- nn/PoolLayers.cpp ----------------------------------------------------===//

#include "nn/PoolLayers.h"

#include "support/Parallel.h"

#include <cassert>
#include <cstdio>
#include <limits>

using namespace prdnn;

PoolGeometry::PoolGeometry(int Channels, int InH, int InW, int WindowH,
                           int WindowW, int Stride)
    : Channels(Channels), InH(InH), InW(InW), WindowH(WindowH),
      WindowW(WindowW), Stride(Stride) {
  assert(Stride >= 1 && "pool stride must be positive");
  assert((InH - WindowH) % Stride == 0 && (InW - WindowW) % Stride == 0 &&
         "pool windows must tile the input exactly");
  OutH = (InH - WindowH) / Stride + 1;
  OutW = (InW - WindowW) / Stride + 1;
  assert(OutH > 0 && OutW > 0 && "pool window larger than input");
}

// --- MaxPool2DLayer ----------------------------------------------------------

MaxPool2DLayer::MaxPool2DLayer(int Channels, int InH, int InW, int WindowH,
                               int WindowW, int Stride)
    : ActivationLayer(LayerKind::MaxPool2D),
      Geo(Channels, InH, InW, WindowH, WindowW, Stride) {}

Vector MaxPool2DLayer::apply(const Vector &In) const {
  assert(In.size() == inputSize() && "maxpool input size mismatch");
  Vector Out =
      Vector::constant(outputSize(), -std::numeric_limits<double>::infinity());
  Geo.forEachTap([&](int OutIndex, int InIndex, int Tap) {
    (void)Tap;
    if (In[InIndex] > Out[OutIndex])
      Out[OutIndex] = In[InIndex];
  });
  return Out;
}

Matrix MaxPool2DLayer::applyBatch(const Matrix &In) const {
  assert(In.cols() == inputSize() && "batched input size mismatch");
  Matrix Out(In.rows(), outputSize());
  auto Rows = [&](std::int64_t Begin, std::int64_t End) {
    for (int R = static_cast<int>(Begin); R < End; ++R) {
      const double *InRow = In.rowData(R);
      double *OutRow = Out.rowData(R);
      for (int O = 0; O < outputSize(); ++O)
        OutRow[O] = -std::numeric_limits<double>::infinity();
      Geo.forEachTap([&](int OutIndex, int InIndex, int Tap) {
        (void)Tap;
        if (InRow[InIndex] > OutRow[OutIndex])
          OutRow[OutIndex] = InRow[InIndex];
      });
    }
  };
  parallelForRanges(0, In.rows(),
                    static_cast<double>(In.rows()) * inputSize(), Rows);
  return Out;
}

std::unique_ptr<Layer> MaxPool2DLayer::clone() const {
  return std::make_unique<MaxPool2DLayer>(Geo.Channels, Geo.InH, Geo.InW,
                                          Geo.WindowH, Geo.WindowW,
                                          Geo.Stride);
}

std::string MaxPool2DLayer::describe() const {
  char Buffer[80];
  std::snprintf(Buffer, sizeof(Buffer), "maxpool %dx%dx%d (w=%dx%d s=%d)",
                Geo.Channels, Geo.InH, Geo.InW, Geo.WindowH, Geo.WindowW,
                Geo.Stride);
  return Buffer;
}

std::vector<int> MaxPool2DLayer::pattern(const Vector &In) const {
  assert(In.size() == inputSize() && "maxpool input size mismatch");
  std::vector<int> Pat(static_cast<size_t>(outputSize()), 0);
  Vector Best =
      Vector::constant(outputSize(), -std::numeric_limits<double>::infinity());
  Geo.forEachTap([&](int OutIndex, int InIndex, int Tap) {
    // Strict comparison: the first maximum wins, giving a consistent
    // choice on window-tie boundaries.
    if (In[InIndex] > Best[OutIndex]) {
      Best[OutIndex] = In[InIndex];
      Pat[static_cast<size_t>(OutIndex)] = Tap;
    }
  });
  return Pat;
}

Vector MaxPool2DLayer::applyWithPattern(const Vector &In,
                                        const std::vector<int> &Pat) const {
  assert(In.size() == inputSize() && "maxpool input size mismatch");
  assert(static_cast<int>(Pat.size()) == outputSize() &&
         "maxpool pattern size mismatch");
  Vector Out(outputSize());
  Geo.forEachTap([&](int OutIndex, int InIndex, int Tap) {
    if (Pat[static_cast<size_t>(OutIndex)] == Tap)
      Out[OutIndex] = In[InIndex];
  });
  return Out;
}

Vector MaxPool2DLayer::applyLinearized(const Vector &Center,
                                       const Vector &In) const {
  // Linearize[max, c](x) selects, for each window, the coordinate that
  // attains the max at the center: max(c) + (x - c)[argmax] = x[argmax].
  return applyWithPattern(In, pattern(Center));
}

Vector MaxPool2DLayer::vjpLinearized(const Vector &Center,
                                     const Vector &GradOut) const {
  return vjpWithPattern(pattern(Center), GradOut);
}

Vector MaxPool2DLayer::vjpWithPattern(const std::vector<int> &Pat,
                                      const Vector &GradOut) const {
  assert(GradOut.size() == outputSize() && "maxpool gradient size mismatch");
  assert(static_cast<int>(Pat.size()) == outputSize() &&
         "maxpool pattern size mismatch");
  Vector GradIn(inputSize());
  Geo.forEachTap([&](int OutIndex, int InIndex, int Tap) {
    if (Pat[static_cast<size_t>(OutIndex)] == Tap)
      GradIn[InIndex] += GradOut[OutIndex];
  });
  return GradIn;
}

void MaxPool2DLayer::appendCrossings(const Vector &Left, const Vector &Right,
                                     std::vector<double> &Fractions) const {
  assert(Left.size() == inputSize() && Right.size() == inputSize() &&
         "crossing segment size mismatch");
  // The in-window argmax can change wherever two window entries cross;
  // collecting every pairwise crossing over-approximates the true
  // pattern-change set, which only oversubdivides (sound).
  int WindowSize = Geo.WindowH * Geo.WindowW;
  std::vector<int> Taps(static_cast<size_t>(WindowSize));
  for (int C = 0; C < Geo.Channels; ++C)
    for (int OY = 0; OY < Geo.OutH; ++OY)
      for (int OX = 0; OX < Geo.OutW; ++OX) {
        int T = 0;
        for (int Y = 0; Y < Geo.WindowH; ++Y)
          for (int X = 0; X < Geo.WindowW; ++X) {
            int IY = OY * Geo.Stride + Y;
            int IX = OX * Geo.Stride + X;
            Taps[static_cast<size_t>(T++)] = (C * Geo.InH + IY) * Geo.InW + IX;
          }
        for (int A = 0; A < WindowSize; ++A)
          for (int B = A + 1; B < WindowSize; ++B) {
            double L = Left[Taps[A]] - Left[Taps[B]];
            double R = Right[Taps[A]] - Right[Taps[B]];
            if ((L < 0.0 && R > 0.0) || (L > 0.0 && R < 0.0))
              Fractions.push_back(L / (L - R));
          }
      }
}

// --- AvgPool2DLayer ----------------------------------------------------------

AvgPool2DLayer::AvgPool2DLayer(int Channels, int InH, int InW, int WindowH,
                               int WindowW, int Stride)
    : LinearLayer(LayerKind::AvgPool2D),
      Geo(Channels, InH, InW, WindowH, WindowW, Stride) {}

Vector AvgPool2DLayer::apply(const Vector &In) const {
  assert(In.size() == inputSize() && "avgpool input size mismatch");
  Vector Out(outputSize());
  double Scale = 1.0 / (Geo.WindowH * Geo.WindowW);
  Geo.forEachTap([&](int OutIndex, int InIndex, int Tap) {
    (void)Tap;
    Out[OutIndex] += Scale * In[InIndex];
  });
  return Out;
}

std::unique_ptr<Layer> AvgPool2DLayer::clone() const {
  return std::make_unique<AvgPool2DLayer>(Geo.Channels, Geo.InH, Geo.InW,
                                          Geo.WindowH, Geo.WindowW,
                                          Geo.Stride);
}

std::string AvgPool2DLayer::describe() const {
  char Buffer[80];
  std::snprintf(Buffer, sizeof(Buffer), "avgpool %dx%dx%d (w=%dx%d s=%d)",
                Geo.Channels, Geo.InH, Geo.InW, Geo.WindowH, Geo.WindowW,
                Geo.Stride);
  return Buffer;
}

Vector AvgPool2DLayer::vjpLinear(const Vector &GradOut) const {
  assert(GradOut.size() == outputSize() && "avgpool gradient size mismatch");
  Vector GradIn(inputSize());
  double Scale = 1.0 / (Geo.WindowH * Geo.WindowW);
  Geo.forEachTap([&](int OutIndex, int InIndex, int Tap) {
    (void)Tap;
    GradIn[InIndex] += Scale * GradOut[OutIndex];
  });
  return GradIn;
}
