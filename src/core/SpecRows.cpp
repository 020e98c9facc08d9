//===- core/SpecRows.cpp -----------------------------------------------------===//

#include "core/SpecRows.h"

#include "nn/ActivationPattern.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace prdnn;
using namespace prdnn::detail;

SpecRows::SpecRows(const Network &Net, int LayerIndex, const PointSpec &Spec,
                   std::vector<int> Effective, double RowMargin)
    : Net(Net), LayerIndex(LayerIndex), Spec(Spec),
      Effective(std::move(Effective)), RowMargin(RowMargin) {
  int NumPoints = numPoints();
  RowOffset.assign(static_cast<size_t>(NumPoints) + 1, 0);
  for (int P = 0; P < NumPoints; ++P) {
    assert(Spec[static_cast<size_t>(P)].Constraint.A.cols() ==
               Net.outputSize() &&
           "constraint output dimension mismatch");
    RowOffset[static_cast<size_t>(P) + 1] =
        RowOffset[static_cast<size_t>(P)] +
        Spec[static_cast<size_t>(P)].Constraint.numRows();
  }
  RowPoint.resize(static_cast<size_t>(RowOffset.back()));
  for (int P = 0; P < NumPoints; ++P)
    std::fill(RowPoint.begin() + RowOffset[static_cast<size_t>(P)],
              RowPoint.begin() + RowOffset[static_cast<size_t>(P) + 1], P);
  Hi.resize(RowPoint.size());

  // Live batch storage of paramJacobianBatch per point: Jacobian +
  // stacked backward matrix + layer intermediates.
  std::int64_t MaxWidth = 0, SumWidths = Net.inputSize();
  for (int I = 0; I < Net.numLayers(); ++I) {
    MaxWidth = std::max<std::int64_t>(MaxWidth, Net.layer(I).outputSize());
    SumWidths += Net.layer(I).outputSize();
  }
  int NumParams = cast<LinearLayer>(Net.layer(LayerIndex)).numParams();
  std::int64_t BytesPerPoint =
      static_cast<std::int64_t>(8) *
      (static_cast<std::int64_t>(Net.outputSize()) * NumParams +
       Net.outputSize() * MaxWidth + SumWidths);
  ChunkPoints = static_cast<int>(std::clamp<std::int64_t>(
      (64 << 20) / std::max<std::int64_t>(1, BytesPerPoint), 1, 256));

  State.resize(static_cast<size_t>(Net.numLayers() - LayerIndex));
  for (int I = LayerIndex; I < Net.numLayers(); ++I)
    if (I == LayerIndex || isa<ActivationLayer>(&Net.layer(I)))
      State[static_cast<size_t>(I - LayerIndex)] =
          Matrix(NumPoints, Net.layer(I).inputSize());
}

void SpecRows::computeState(int Begin, int End) {
  parallelFor(Begin, End, [&](std::int64_t PIdx) {
    int P = static_cast<int>(PIdx);
    const SpecPoint &Point = Spec[static_cast<size_t>(P)];
    std::vector<Vector> Values =
        Point.Pattern ? intermediatesWithPattern(Net, Point.X, *Point.Pattern)
                      : Net.intermediates(Point.X);
    for (size_t S = 0; S < State.size(); ++S)
      if (State[S].rows() > 0)
        State[S].setRow(P, Values[static_cast<size_t>(LayerIndex) + S]);
    const OutputConstraint &C = Point.Constraint;
    const Vector &Y = Values.back();
    for (int K = 0; K < C.numRows(); ++K) {
      double Activity = 0.0;
      for (int O = 0; O < C.A.cols(); ++O) {
        double AKo = C.A(K, O);
        if (AKo != 0.0)
          Activity += AKo * Y[O];
      }
      Hi[static_cast<size_t>(RowOffset[static_cast<size_t>(P)] + K)] =
          C.B[K] - Activity - RowMargin;
    }
  });
}

std::vector<double> SpecRows::scan(const std::vector<double> &DeltaEff) const {
  const auto &Target = cast<LinearLayer>(Net.layer(LayerIndex));
  std::vector<double> Full(static_cast<size_t>(Target.numParams()), 0.0);
  for (size_t E = 0; E < Effective.size(); ++E)
    Full[static_cast<size_t>(Effective[E])] = DeltaEff[E];
  std::unique_ptr<Layer> Shifted = Target.clone();
  cast<LinearLayer>(*Shifted).addToParams(Full);

  std::vector<double> S(RowPoint.size());
  parallelFor(0, numPoints(), [&](std::int64_t PIdx) {
    int P = static_cast<int>(PIdx);
    const SpecPoint &Point = Spec[static_cast<size_t>(P)];
    // The repaired DDNN's value channel from layer L on; its prefix is
    // unchanged by Delta.
    Vector Y = Shifted->apply(State[0].row(P));
    for (int I = LayerIndex + 1; I < Net.numLayers(); ++I) {
      const Layer &L = Net.layer(I);
      const auto *Act = dyn_cast<ActivationLayer>(&L);
      if (!Act)
        Y = L.apply(Y);
      else if (Point.Pattern)
        Y = Act->applyWithPattern(
            Y, Point.Pattern->Patterns[static_cast<size_t>(I)]);
      else
        Y = Act->applyLinearized(
            State[static_cast<size_t>(I - LayerIndex)].row(P), Y);
    }
    // Same order as OutputConstraint::violation.
    const OutputConstraint &C = Point.Constraint;
    for (int K = 0; K < C.numRows(); ++K) {
      double Activity = 0.0;
      const double *ARow = C.A.rowData(K);
      for (int O = 0; O < C.A.cols(); ++O)
        Activity += ARow[O] * Y[O];
      S[static_cast<size_t>(RowOffset[static_cast<size_t>(P)] + K)] =
          Activity - C.B[K];
    }
  });
  return S;
}

bool SpecRows::coefs(const std::vector<int> &Rows,
                     std::vector<std::vector<double>> &Out,
                     const std::function<bool()> &Cancel) const {
  size_t N = Rows.size();
  Out.assign(N, {});
  std::vector<int> Points;
  Points.reserve(N);
  for (int R : Rows)
    Points.push_back(RowPoint[static_cast<size_t>(R)]);
  std::sort(Points.begin(), Points.end());
  Points.erase(std::unique(Points.begin(), Points.end()), Points.end());
  // Slot[J]: the position of row J's point in Points.
  std::vector<int> Slot(N);
  for (size_t J = 0; J < N; ++J)
    Slot[J] = static_cast<int>(
        std::lower_bound(Points.begin(), Points.end(),
                         RowPoint[static_cast<size_t>(Rows[J])]) -
        Points.begin());

  int NumEff = static_cast<int>(Effective.size());
  int NumBatchPoints = static_cast<int>(Points.size());
  for (int Base = 0; Base < NumBatchPoints; Base += ChunkPoints) {
    if (Base > 0 && Cancel && Cancel())
      return false;
    int Count = std::min(ChunkPoints, NumBatchPoints - Base);
    std::vector<Vector> Xs;
    std::vector<const NetworkPattern *> Pinned;
    bool AnyPinned = false;
    for (int I = Base; I < Base + Count; ++I) {
      const SpecPoint &P =
          Spec[static_cast<size_t>(Points[static_cast<size_t>(I)])];
      Xs.push_back(P.X);
      Pinned.push_back(P.Pattern ? &*P.Pattern : nullptr);
      AnyPinned = AnyPinned || P.Pattern.has_value();
    }
    if (!AnyPinned)
      Pinned.clear(); // pure batched forward, no per-row dispatch
    std::vector<JacobianResult> Jrs =
        paramJacobianBatch(Net, LayerIndex, Xs, Pinned);
    parallelFor(0, static_cast<std::int64_t>(N), [&](std::int64_t JIdx) {
      size_t J = static_cast<size_t>(JIdx);
      if (Slot[J] < Base || Slot[J] >= Base + Count)
        return; // another batch's row
      int Row = Rows[J];
      int P = RowPoint[static_cast<size_t>(Row)];
      int K = Row - RowOffset[static_cast<size_t>(P)];
      const OutputConstraint &C = Spec[static_cast<size_t>(P)].Constraint;
      const JacobianResult &Jr = Jrs[static_cast<size_t>(Slot[J] - Base)];
      std::vector<double> &Coef = Out[J];
      Coef.assign(static_cast<size_t>(NumEff), 0.0);
      for (int O = 0; O < C.A.cols(); ++O) {
        double AKo = C.A(K, O);
        if (AKo == 0.0)
          continue;
        const double *JRow = Jr.J.rowData(O);
        for (int E = 0; E < NumEff; ++E)
          Coef[static_cast<size_t>(E)] += AKo * JRow[Effective[E]];
      }
    });
  }
  return true;
}
