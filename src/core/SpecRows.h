//===- core/SpecRows.h - the repair LP's rows, built lazily ----*- C++ -*-===//
///
/// \file
/// The constraint rows of Algorithm 1's LP for one (network, layer,
/// spec). Row k of spec point x reads
///
///    (A_k J_x) Delta <= b_k - A_k N(x) - RowMargin
///
/// over the layer's effective (unfrozen) parameters, where J_x is the
/// parameter Jacobian of nn/Jacobian.h. By Theorem 4.5 the DDNN's output
/// is affine in Delta once the activation channel is fixed, so a row's
/// violation at any Delta is the spec evaluated on the DDNN with Delta
/// applied: a forward pass of the network's suffix from stored per-point
/// state, with no Jacobian. And row k's coefficients A_k J_x are one
/// vector-Jacobian product seeded with A_k, swept back through that
/// suffix linearized at x (Algorithm 1, line 5): no forward pass and no
/// full J_x.
///
/// That state - the network at Delta = 0 on every spec point - does not
/// depend on the repaired layer, so it is one object per job: SpecState,
/// computed batched, a layer at a time, before any attempt of a sweep
/// runs, and read by every attempt. SpecRows is one attempt's view of
/// it: the right-hand sides at its layer (hi), violation scans as a
/// batched forward pass of the suffix (scan), and coefficients only for
/// the rows its caller asks for (coefs) - constraint generation asks for
/// the few rows it appends to the LP.
///
/// Bits: SpecState's rows are Network::intermediates (or
/// intermediatesWithPattern for a pinned point) of that point, bit for
/// bit, so hi() equals b_k - A_k N(x) - RowMargin with N(x) the Output
/// of a per-point paramJacobian. coefs() equals A_k J_x up to rounding:
/// the product is associated as (A_k dy/dz) dz/dtheta, with z the
/// repaired layer's output, rather than as A_k (dy/dz dz/dtheta). A
/// row's coefficient bits depend on that row alone: not on which rows
/// are asked with it, their order, the chunk it lands in or the thread
/// count - so a repair's LP, and its Delta, are too. Each row of scan()
/// equals DecoupledNetwork::evaluate (evaluateWithPattern for a pinned
/// point) on the repaired network. All of it is deterministic for any
/// thread count. A SpecState lives for one job and a SpecRows for one
/// repair attempt; nothing here is cached.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CORE_SPECROWS_H
#define PRDNN_CORE_SPECROWS_H

#include "core/Specification.h"
#include "nn/Network.h"
#include "support/Hash.h"

#include <functional>
#include <span>
#include <vector>

namespace prdnn::detail {

/// The spec's Delta = 0 forward state for one job; see the file comment.
/// It keeps only what repairs of the candidate layers read: the input of
/// each candidate layer, the input of each activation layer after the
/// first candidate (the Center of ActivationLayer::applyLinearized),
/// and the outputs - one point per row.
class SpecState {
public:
  /// \p Net and \p Spec must outlive the object. \p Candidates lists the
  /// parameterized linear layers the job may repair.
  SpecState(const Network &Net, const PointSpec &Spec,
            const std::vector<int> &Candidates);

  const Network &network() const { return Net; }
  const PointSpec &spec() const { return Spec; }
  int numPoints() const { return static_cast<int>(Spec.size()); }
  int numRows() const { return static_cast<int>(RowPoint.size()); }
  /// Point P's rows are [rowOffset(P), rowOffset(P + 1)).
  int rowOffset(int Point) const {
    return RowOffset[static_cast<size_t>(Point)];
  }
  /// The point row \p Row belongs to.
  int rowPoint(int Row) const { return RowPoint[static_cast<size_t>(Row)]; }

  /// Points per compute() call in the job's Jacobian phase: its
  /// cancellation and progress granularity. The state itself is
  /// allocated for every point up front.
  static constexpr int chunkPoints() { return 256; }

  /// Runs points [Begin, End) through the network at Delta = 0 as one
  /// batch, a layer at a time: applyBatch at a linear layer, one
  /// ActivationLayer::applyRows that honours each row's pinned pattern
  /// at an activation. Every point must be covered once before the
  /// state is read.
  void compute(int Begin, int End);

  /// The stored input of layer \p Layer: a candidate, or an activation
  /// layer after the first candidate.
  const Matrix &input(int Layer) const {
    return Inputs[static_cast<size_t>(Layer)];
  }
  /// N(x) (pattern-pinned where the point is), one point per row.
  const Matrix &output() const { return Output; }
  /// At activation layer \p Layer, each point's pinned pattern or null;
  /// empty when no point is pinned (ActivationLayer::applyRows).
  std::span<const std::vector<int> *const> pinned(int Layer) const {
    return Pinned[static_cast<size_t>(Layer)];
  }

  /// Digests the spec - every point's X, constraint A and b, and pinned
  /// pattern - for the LpSolution cache key (src/cache/README.md): once
  /// per job, and only for a job with a cache.
  void hashSpec();
  /// The digest hashSpec() took.
  const Digest128 &specDigest() const { return SpecDigest; }

private:
  const Network &Net;
  const PointSpec &Spec;
  std::vector<int> RowOffset;
  std::vector<int> RowPoint;
  /// Per layer: its stored input (see input()), else empty.
  std::vector<Matrix> Inputs;
  Matrix Output;
  /// Per layer: see pinned().
  std::vector<std::vector<const std::vector<int> *>> Pinned;
  Digest128 SpecDigest;
};

/// One repair attempt's rows at layer L; see the file comment.
class SpecRows {
public:
  /// Binds \p State, which must outlive the object and be computed, to
  /// layer \p LayerIndex (one of its candidates) and computes every
  /// row's right-hand side. \p Effective lists the layer's unfrozen
  /// parameter indices in ascending order.
  SpecRows(const SpecState &State, int LayerIndex, std::vector<int> Effective,
           double RowMargin);

  int numPoints() const { return State.numPoints(); }
  int numRows() const { return State.numRows(); }
  /// Coefficients per row: the effective parameters.
  int numEffective() const { return static_cast<int>(Effective.size()); }

  /// Rows per chunk of coefs(): capped at 256 and at 16 MiB of seed
  /// block.
  int chunkRows() const { return ChunkRows; }

  /// Row \p Row's right-hand side b_k - A_k N(x) - RowMargin.
  double hi(int Row) const { return Hi[static_cast<size_t>(Row)]; }

  /// s_k = A_k y(Delta) - b_k for every row k, where y(Delta) is the
  /// DDNN's output with the layer's effective parameters moved by
  /// \p DeltaEff. The row's own LP violation is s_k + RowMargin. One
  /// batched pass over the suffix: the moved layer's applyBatch, then
  /// per layer applyBatch or one linearized ActivationLayer::applyRows.
  std::vector<double> scan(const std::vector<double> &DeltaEff) const;

  /// Receives asked row number \p Position's coefficients: one per
  /// effective parameter, valid for the call only.
  using CoefSink = std::function<void(int Position, const double *Coef)>;

  /// The coefficients A_k J_x of \p Rows over the effective parameters,
  /// handed to \p Put once per asked row, Position its index in \p Rows:
  /// chunkRows() rows at a time, each chunk one seeded backward pass
  /// over the stored state. Put may run concurrently on pool threads,
  /// for distinct positions in no set order; the repair writes each row
  /// straight into its LP row (lp::DeltaLp::setConstraint). \p Cancel,
  /// when set, is polled between chunks; once it returns true, coefs()
  /// stops and returns false, with some rows never handed over.
  bool coefs(const std::vector<int> &Rows, const CoefSink &Put,
             const std::function<bool()> &Cancel = nullptr) const;

private:
  const SpecState &State;
  const Network &Net;
  int LayerIndex;
  std::vector<int> Effective;
  int ChunkRows;
  std::vector<double> Hi;
};

} // namespace prdnn::detail

#endif // PRDNN_CORE_SPECROWS_H
