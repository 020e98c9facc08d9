//===- core/SpecRows.cpp -----------------------------------------------------===//

#include "core/SpecRows.h"

#include "cache/Fingerprint.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>

using namespace prdnn;
using namespace prdnn::detail;

namespace {

/// Runs \p Fn(Begin, End) over blocks of rows [0, NumRows), each block
/// to be taken through layers [First, n) of \p Net as one batch: on the
/// pool when that work - a linear layer's inputs times its outputs per
/// row, an activation's inputs - reaches kParallelFlopThreshold, else
/// as one block inline. The layers' own loops run inline in a block, so
/// a pass makes one fan-out at most, and every part of it, copies and
/// activations included, runs on the pool.
void forRowBlocks(const Network &Net, int First, int NumRows,
                  const std::function<void(std::int64_t, std::int64_t)> &Fn) {
  double PerRow = 0.0;
  for (int I = First; I < Net.numLayers(); ++I) {
    const Layer &L = Net.layer(I);
    PerRow += L.isLinear() ? static_cast<double>(L.inputSize()) *
                                 L.outputSize()
                           : L.inputSize();
  }
  if (PerRow * NumRows >= kParallelFlopThreshold)
    parallelForRanges(0, NumRows, Fn);
  else if (NumRows > 0)
    Fn(0, NumRows);
}

/// Rows [Begin, Begin + Count) of \p M as a matrix of their own.
Matrix rowBlock(const Matrix &M, int Begin, int Count) {
  Matrix Block(Count, M.cols());
  if (Count > 0)
    std::copy(M.rowData(Begin),
              M.rowData(Begin) + static_cast<size_t>(Count) * M.cols(),
              Block.rowData(0));
  return Block;
}

/// Writes \p Block into rows [Begin, Begin + Block.rows()) of \p M.
void putRows(const Matrix &Block, int Begin, Matrix &M) {
  if (Block.rows() > 0)
    std::copy(Block.rowData(0),
              Block.rowData(0) + static_cast<size_t>(Block.rows()) *
                                     Block.cols(),
              M.rowData(Begin));
}

/// \p Rows' entries [Begin, Begin + Count), or \p Rows itself when empty.
std::span<const std::vector<int> *const>
pinnedBlock(std::span<const std::vector<int> *const> Rows, int Begin,
            int Count) {
  return Rows.empty() ? Rows
                      : Rows.subspan(static_cast<size_t>(Begin),
                                     static_cast<size_t>(Count));
}

} // namespace

SpecState::SpecState(const Network &Net, const PointSpec &Spec,
                     const std::vector<int> &Candidates)
    : Net(Net), Spec(Spec) {
  assert(!Candidates.empty() && "a repair needs a candidate layer");
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

  auto NumLayers = static_cast<size_t>(Net.numLayers());
  Inputs.resize(NumLayers);
  for (int Layer : Candidates)
    Inputs[static_cast<size_t>(Layer)] =
        Matrix(NumPoints, Net.layer(Layer).inputSize());
  int First = *std::min_element(Candidates.begin(), Candidates.end());
  for (int I = First + 1; I < Net.numLayers(); ++I)
    if (isa<ActivationLayer>(&Net.layer(I)))
      Inputs[static_cast<size_t>(I)] =
          Matrix(NumPoints, Net.layer(I).inputSize());
  Output = Matrix(NumPoints, Net.outputSize());

  Pinned.resize(NumLayers);
  bool AnyPinned = std::any_of(Spec.begin(), Spec.end(), [](const SpecPoint &P) {
    return P.Pattern.has_value();
  });
  for (int I = 0; AnyPinned && I < Net.numLayers(); ++I) {
    if (!isa<ActivationLayer>(&Net.layer(I)))
      continue;
    std::vector<const std::vector<int> *> &At = Pinned[static_cast<size_t>(I)];
    At.resize(static_cast<size_t>(NumPoints), nullptr);
    for (int P = 0; P < NumPoints; ++P)
      if (const std::optional<NetworkPattern> &Pattern =
              Spec[static_cast<size_t>(P)].Pattern)
        At[static_cast<size_t>(P)] =
            &Pattern->Patterns[static_cast<size_t>(I)];
  }
}

void SpecState::compute(int Begin, int End) {
  forRowBlocks(Net, 0, End - Begin, [&](std::int64_t B, std::int64_t E) {
    int First = Begin + static_cast<int>(B), Count = static_cast<int>(E - B);
    Matrix Current(Count, Net.inputSize());
    for (int P = 0; P < Count; ++P)
      Current.setRow(P, Spec[static_cast<size_t>(First + P)].X);
    for (int I = 0; I < Net.numLayers(); ++I) {
      Matrix &Stored = Inputs[static_cast<size_t>(I)];
      if (Stored.cols() > 0)
        putRows(Current, First, Stored);
      const Layer &L = Net.layer(I);
      if (const auto *Act = dyn_cast<ActivationLayer>(&L))
        Current = Act->applyRows(Current, nullptr,
                                 pinnedBlock(pinned(I), First, Count));
      else
        Current = L.applyBatch(Current);
    }
    putRows(Current, First, Output);
  });
}

void SpecState::hashSpec() {
  Hasher H;
  H.i32(static_cast<int>(Spec.size()));
  for (const SpecPoint &Point : Spec) {
    hashVector(H, Point.X);
    const Matrix &A = Point.Constraint.A;
    H.i32(A.rows());
    H.i32(A.cols());
    for (int R = 0; R < A.rows(); ++R)
      H.doubles(A.rowData(R), static_cast<size_t>(A.cols()));
    hashVector(H, Point.Constraint.B);
    H.i32(Point.Pattern ? static_cast<int>(Point.Pattern->Patterns.size())
                        : -1);
    if (Point.Pattern)
      for (const std::vector<int> &Layer : Point.Pattern->Patterns) {
        H.i32(static_cast<int>(Layer.size()));
        H.bytes(Layer.data(), Layer.size() * sizeof(int));
      }
  }
  SpecDigest = H.digest();
}

SpecRows::SpecRows(const SpecState &State, int LayerIndex,
                   std::vector<int> Effective, double RowMargin)
    : State(State), Net(State.network()), LayerIndex(LayerIndex),
      Effective(std::move(Effective)) {
  assert(State.input(LayerIndex).cols() ==
             Net.layer(LayerIndex).inputSize() &&
         "the layer is not one of the state's candidates");
  // Rows per coefs() chunk: the seed block and its successor, at the
  // widest layer boundary of the suffix, stay within 16 MiB.
  std::int64_t MaxWidth = Net.outputSize();
  for (int I = LayerIndex + 1; I < Net.numLayers(); ++I)
    MaxWidth = std::max<std::int64_t>(MaxWidth, Net.layer(I).inputSize());
  ChunkRows = static_cast<int>(std::clamp<std::int64_t>(
      (16 << 20) / (2 * 8 * MaxWidth), 1, 256));

  Hi.resize(static_cast<size_t>(numRows()));
  for (int P = 0; P < numPoints(); ++P) {
    const OutputConstraint &C = State.spec()[static_cast<size_t>(P)].Constraint;
    const double *Y = State.output().rowData(P);
    for (int K = 0; K < C.numRows(); ++K) {
      double Activity = 0.0;
      for (int O = 0; O < C.A.cols(); ++O) {
        double AKo = C.A(K, O);
        if (AKo != 0.0)
          Activity += AKo * Y[O];
      }
      Hi[static_cast<size_t>(State.rowOffset(P) + K)] =
          C.B[K] - Activity - RowMargin;
    }
  }
}

std::vector<double> SpecRows::scan(const std::vector<double> &DeltaEff) const {
  const auto &Target = cast<LinearLayer>(Net.layer(LayerIndex));
  std::vector<double> Full(static_cast<size_t>(Target.numParams()), 0.0);
  for (size_t E = 0; E < Effective.size(); ++E)
    Full[static_cast<size_t>(Effective[E])] = DeltaEff[E];
  std::unique_ptr<Layer> Shifted = Target.clone();
  cast<LinearLayer>(*Shifted).addToParams(Full);

  // The repaired DDNN's value channel from layer L on, a block of points
  // at a time; its prefix is unchanged by Delta.
  std::vector<double> S(static_cast<size_t>(numRows()));
  forRowBlocks(Net, LayerIndex, numPoints(), [&](std::int64_t B,
                                                 std::int64_t E) {
    int First = static_cast<int>(B), Count = static_cast<int>(E - B);
    Matrix Y =
        Shifted->applyBatch(rowBlock(State.input(LayerIndex), First, Count));
    for (int I = LayerIndex + 1; I < Net.numLayers(); ++I) {
      const Layer &L = Net.layer(I);
      if (const auto *Act = dyn_cast<ActivationLayer>(&L))
        Y = Act->applyRows(Y, State.input(I).rowData(First),
                           pinnedBlock(State.pinned(I), First, Count));
      else
        Y = L.applyBatch(Y);
    }
    for (int P = First; P < First + Count; ++P) {
      // Same order as OutputConstraint::violation.
      const OutputConstraint &C =
          State.spec()[static_cast<size_t>(P)].Constraint;
      const double *YRow = Y.rowData(P - First);
      for (int K = 0; K < C.numRows(); ++K) {
        double Activity = 0.0;
        const double *ARow = C.A.rowData(K);
        for (int O = 0; O < C.A.cols(); ++O)
          Activity += ARow[O] * YRow[O];
        S[static_cast<size_t>(State.rowOffset(P) + K)] = Activity - C.B[K];
      }
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
    return State.rowPoint(Rows[static_cast<size_t>(Position)]);
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
    // chunk's rows touch at least kParallelFlopThreshold values of
    // Width, as the GEMMs decide (linalg/Matrix.h), else inline.
    auto ForEachGroup = [&](std::int64_t Width, const auto &Fn) {
      std::int64_t NumGroups = static_cast<std::int64_t>(Group.size()) - 1;
      auto Range = [&](std::int64_t GBegin, std::int64_t GEnd) {
        for (std::int64_t G = GBegin; G < GEnd; ++G) {
          int Begin = Group[static_cast<size_t>(G)];
          Fn(PointAt(PositionOf(Begin)), Begin,
             Group[static_cast<size_t>(G) + 1]);
        }
      };
      if (static_cast<double>(Count) * Width >= kParallelFlopThreshold)
        parallelForRanges(0, NumGroups, Range);
      else
        Range(0, NumGroups);
    };

    // Seed: row J of the block is A_k of the chunk's J-th row.
    Matrix Block(Count, Net.outputSize());
    for (int J = 0; J < Count; ++J) {
      int Row = Rows[static_cast<size_t>(PositionOf(J))];
      int P = State.rowPoint(Row);
      const Matrix &A = State.spec()[static_cast<size_t>(P)].Constraint.A;
      const double *ARow = A.rowData(Row - State.rowOffset(P));
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
      const Matrix &Center = State.input(I);
      auto PinnedPattern = [&](int P) -> const std::vector<int> * {
        const std::optional<NetworkPattern> &Pinned =
            State.spec()[static_cast<size_t>(P)].Pattern;
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
      Target.paramJacobian(M, State.input(LayerIndex).row(P), Jac);
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
