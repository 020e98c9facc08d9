//===- examples/DemoNetworks.h - shared demo builders ----------*- C++ -*-===//
///
/// \file
/// The seeded network / spec builders shared by the example programs
/// and tests (examples/repair_server.cpp, examples/fleet_serve.cpp,
/// tests/serve_test.cpp): small ReLU
/// MLPs, flip-to-runner-up classification specs, segment polytope
/// specs, and the bit-identity check every demo's determinism gate
/// uses. Header-only so non-library binaries can share them without a
/// new target; everything is deterministic given the caller's Rng.
///
/// RNG discipline: each builder consumes its Rng in a fixed order
/// (weights matrix, then bias vector, per layer) - changing that order
/// changes every demo's networks and thereby its outputs, so keep it.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_EXAMPLES_DEMONETWORKS_H
#define PRDNN_EXAMPLES_DEMONETWORKS_H

#include "core/PolytopeRepair.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Rng.h"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace prdnn {
namespace demo {

inline Vector randomVector(Rng &R, int Size, double Scale = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = Scale * R.normal();
  return V;
}

inline Matrix randomMatrix(Rng &R, int Rows, int Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = Scale * R.normal();
  return M;
}

/// Fully-connected ReLU MLP over \p Sizes (input size first), with one
/// weight/bias scale pair per linear layer. No ReLU after the last
/// linear layer. Parameterized layers sit at even indices 0, 2, ...
inline Network makeReluMlp(Rng &R, const std::vector<int> &Sizes,
                           const std::vector<double> &WeightScales,
                           const std::vector<double> &BiasScales) {
  Network Net;
  for (size_t L = 0; L + 1 < Sizes.size(); ++L) {
    // Matrix first, then bias: the fixed consumption order (see the
    // file comment).
    Matrix W = randomMatrix(R, Sizes[L + 1], Sizes[L], WeightScales[L]);
    Vector B = randomVector(R, Sizes[L + 1], BiasScales[L]);
    Net.addLayer(
        std::make_unique<FullyConnectedLayer>(std::move(W), std::move(B)));
    if (L + 2 < Sizes.size())
      Net.addLayer(std::make_unique<ReLULayer>(Sizes[L + 1]));
  }
  return Net;
}

/// 8 -> 24 -> 24 -> 5 ReLU classifier (parameterized layers 0, 2, 4).
inline Network makeClassifier(Rng &R) {
  return makeReluMlp(R, {8, 24, 24, 5}, {0.8, 0.7, 0.8}, {0.3, 0.3, 0.3});
}

/// 2 -> 12 -> 2 regressor for segment (polytope) jobs.
inline Network makeRegressor(Rng &R) {
  return makeReluMlp(R, {2, 12, 2}, {0.9, 0.8}, {0.2, 0.2});
}

/// Classification spec: every third point flips to its runner-up class.
inline PointSpec makeFlipSpec(const Network &Net, Rng &R, int Count) {
  PointSpec Spec;
  for (int I = 0; I < Count; ++I) {
    Vector X = randomVector(R, Net.inputSize());
    Vector Y = Net.evaluate(X);
    int Top = Y.argmax();
    int Target = Top;
    if (I % 3 == 0) {
      double Best = -1e300;
      for (int C = 0; C < Y.size(); ++C)
        if (C != Top && Y[C] > Best) {
          Best = Y[C];
          Target = C;
        }
    }
    Spec.push_back({std::move(X),
                    classificationConstraint(Net.outputSize(), Target, 1e-3),
                    std::nullopt});
  }
  return Spec;
}

/// Segment spec: outputs along a random segment must stay in a box
/// slightly tighter than what the network currently produces.
inline PolytopeSpec makeSegmentSpec(const Network &Net, Rng &R,
                                    int Segments) {
  PolytopeSpec Spec;
  for (int S = 0; S < Segments; ++S) {
    Vector A = randomVector(R, Net.inputSize());
    Vector B = randomVector(R, Net.inputSize());
    Vector Lo(Net.outputSize()), Hi(Net.outputSize());
    Vector Ya = Net.evaluate(A), Yb = Net.evaluate(B);
    for (int O = 0; O < Net.outputSize(); ++O) {
      double Mid = 0.5 * (Ya[O] + Yb[O]);
      double Span = std::max(1.0, std::fabs(Ya[O] - Yb[O]));
      Lo[O] = Mid - 1.2 * Span;
      Hi[O] = Mid + 1.2 * Span;
    }
    Spec.push_back(SpecPolytope{SegmentPolytope{A, B},
                                boxConstraint(Lo, Hi)});
  }
  return Spec;
}

/// Exact equality of two repair results - status, every Delta bit, and
/// the norms. The check behind every demo's determinism gate.
inline bool bitIdentical(const RepairResult &A, const RepairResult &B) {
  if (A.Status != B.Status || A.Delta.size() != B.Delta.size())
    return false;
  for (size_t I = 0; I < A.Delta.size(); ++I)
    if (A.Delta[I] != B.Delta[I])
      return false;
  return A.DeltaL1 == B.DeltaL1 && A.DeltaLInf == B.DeltaLInf;
}

} // namespace demo
} // namespace prdnn

#endif // PRDNN_EXAMPLES_DEMONETWORKS_H
