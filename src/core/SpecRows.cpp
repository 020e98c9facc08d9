//===- core/SpecRows.cpp -----------------------------------------------------===//

#include "core/SpecRows.h"

#include "nn/ActivationLayers.h"
#include "nn/ActivationPattern.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>

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

  // Rows per coefs() chunk: the seed block and its successor, at the
  // widest layer boundary of the suffix, stay within 16 MiB.
  std::int64_t MaxWidth = Net.outputSize();
  for (int I = LayerIndex + 1; I < Net.numLayers(); ++I)
    MaxWidth = std::max<std::int64_t>(MaxWidth, Net.layer(I).inputSize());
  ChunkRows = static_cast<int>(std::clamp<std::int64_t>(
      (16 << 20) / (2 * 8 * MaxWidth), 1, 256));

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

bool SpecRows::coefs(const std::vector<int> &Rows, const CoefSink &Put,
                     const std::function<bool()> &Cancel) const {
  const auto &Target = cast<LinearLayer>(Net.layer(LayerIndex));
  int NumAsked = static_cast<int>(Rows.size());
  // Positions in Rows, ordered by point: a point's rows sit together in
  // a chunk and share its activation scales, pattern and parameter
  // Jacobian sweep. Sharing moves no bits; every row's arithmetic is the
  // same as when it is asked for alone.
  std::vector<int> Order(Rows.size());
  std::iota(Order.begin(), Order.end(), 0);
  auto PointAt = [&](int Position) {
    return RowPoint[static_cast<size_t>(Rows[static_cast<size_t>(Position)])];
  };
  std::stable_sort(Order.begin(), Order.end(),
                   [&](int A, int B) { return PointAt(A) < PointAt(B); });

  for (int Base = 0; Base < NumAsked; Base += ChunkRows) {
    if (Base > 0 && Cancel && Cancel())
      return false;
    int Count = std::min(ChunkRows, NumAsked - Base);
    auto PositionOf = [&](int J) {
      return Order[static_cast<size_t>(Base + J)];
    };
    // Block rows [Group[G], Group[G + 1]) belong to one point.
    std::vector<int> Group;
    for (int J = 0; J < Count; ++J)
      if (J == 0 || PointAt(PositionOf(J)) != PointAt(PositionOf(J - 1)))
        Group.push_back(J);
    Group.push_back(Count);
    // Runs Fn(P, Begin, End) for every group: on the pool when the
    // chunk's rows touch at least 1e5 values each of Width, as the
    // GEMMs decide (linalg/Matrix.cpp), else inline.
    auto ForEachGroup = [&](std::int64_t Width, const auto &Fn) {
      std::int64_t NumGroups = static_cast<std::int64_t>(Group.size()) - 1;
      auto Range = [&](std::int64_t GBegin, std::int64_t GEnd) {
        for (std::int64_t G = GBegin; G < GEnd; ++G) {
          int Begin = Group[static_cast<size_t>(G)];
          Fn(PointAt(PositionOf(Begin)), Begin,
             Group[static_cast<size_t>(G) + 1]);
        }
      };
      if (Count * Width >= 100000)
        parallelForRanges(0, NumGroups, Range);
      else
        Range(0, NumGroups);
    };

    // Seed: row J of the block is A_k of the chunk's J-th row.
    Matrix Block(Count, Net.outputSize());
    for (int J = 0; J < Count; ++J) {
      int Row = Rows[static_cast<size_t>(PositionOf(J))];
      int P = RowPoint[static_cast<size_t>(Row)];
      const Matrix &A = Spec[static_cast<size_t>(P)].Constraint.A;
      const double *ARow = A.rowData(Row - RowOffset[static_cast<size_t>(P)]);
      std::copy(ARow, ARow + A.cols(), Block.rowData(J));
    }
    // Back through the suffix L+1..n, linearized at each row's point:
    // by its pinned pattern at a PWL layer, else at the stored center.
    for (int I = Net.numLayers() - 1; I > LayerIndex; --I) {
      const Layer &L = Net.layer(I);
      if (const auto *Linear = dyn_cast<LinearLayer>(&L)) {
        Block = Linear->vjpLinearBatch(Block);
        continue;
      }
      const auto &Act = cast<ActivationLayer>(L);
      const Matrix &Center = State[static_cast<size_t>(I - LayerIndex)];
      auto PinnedPattern = [&](int P) -> const std::vector<int> * {
        const std::optional<NetworkPattern> &Pinned =
            Spec[static_cast<size_t>(P)].Pattern;
        return Pinned && L.isPiecewiseLinear()
                   ? &Pinned->Patterns[static_cast<size_t>(I)]
                   : nullptr;
      };
      if (isa<ElementwiseActivation>(&L)) {
        // Diagonal: the point's VJP of the all-ones vector is its scale
        // vector, and scaling a row by it is that row's own VJP.
        ForEachGroup(L.outputSize(), [&](int P, int Begin, int End) {
          Vector Ones = Vector::constant(L.outputSize(), 1.0);
          const std::vector<int> *Pattern = PinnedPattern(P);
          Vector Scale = Pattern ? Act.vjpWithPattern(*Pattern, Ones)
                                 : Act.vjpLinearized(Center.row(P), Ones);
          for (int J = Begin; J < End; ++J) {
            double *Row = Block.rowData(J);
            for (int C = 0; C < L.outputSize(); ++C)
              Row[C] *= Scale[C];
          }
        });
        continue;
      }
      // MaxPool2D, the one other activation: its linearization at a
      // center is the center's pattern (vjpLinearized is vjpWithPattern
      // of pattern(Center)), found once per point.
      Matrix Next(Count, L.inputSize());
      ForEachGroup(L.inputSize(), [&](int P, int Begin, int End) {
        const std::vector<int> *Pattern = PinnedPattern(P);
        std::vector<int> AtCenter;
        if (!Pattern) {
          AtCenter = Act.pattern(Center.row(P));
          Pattern = &AtCenter;
        }
        for (int J = Begin; J < End; ++J)
          Next.setRow(J, Act.vjpWithPattern(*Pattern, Block.row(J)));
      });
      Block = std::move(Next);
    }
    // Each point's rows, times its layer-L parameter Jacobian, restricted
    // to the effective parameters.
    ForEachGroup(Target.numParams(), [&](int P, int Begin, int End) {
      Matrix M(End - Begin, Block.cols());
      std::copy(Block.rowData(Begin),
                Block.rowData(Begin) + static_cast<size_t>(M.rows()) * M.cols(),
                M.rowData(0));
      Matrix Jac(M.rows(), Target.numParams());
      Target.paramJacobian(M, State[0].row(P), Jac);
      std::vector<double> Coef(Effective.size());
      for (int J = Begin; J < End; ++J) {
        const double *JRow = Jac.rowData(J - Begin);
        for (size_t E = 0; E < Effective.size(); ++E)
          Coef[E] = JRow[Effective[E]];
        Put(PositionOf(J), Coef.data());
      }
    });
  }
  return true;
}
