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
/// full J_x. SpecRows therefore keeps only that state and the right-hand
/// sides (computeState), answers violation scans with a forward pass
/// (scan), and builds coefficients only for the rows its caller asks for
/// (coefs) - constraint generation asks for the few rows it appends to
/// the LP.
///
/// Bits: hi() equals b_k - A_k N(x) - RowMargin with N(x) the Output of
/// a per-point paramJacobian, bit for bit. coefs() equals A_k J_x up to
/// rounding: the product is associated as (A_k dy/dz) dz/dtheta, with z
/// the repaired layer's output, rather than as A_k (dy/dz dz/dtheta).
/// A row's coefficient bits depend on that row alone: not on which rows
/// are asked with it, their order, the chunk it lands in or the thread
/// count - so a repair's LP, and its Delta, are too.
/// scan() equals DecoupledNetwork::evaluate (evaluateWithPattern for a
/// pinned point) on the repaired network. All three are deterministic
/// for any thread count. The state lives as long as the object - one
/// repair call; nothing here is cached.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CORE_SPECROWS_H
#define PRDNN_CORE_SPECROWS_H

#include "core/Specification.h"
#include "nn/Network.h"

#include <functional>
#include <vector>

namespace prdnn::detail {

/// See the file comment.
class SpecRows {
public:
  /// \p Net and \p Spec must outlive the object. \p LayerIndex names a
  /// parameterized linear layer; \p Effective lists its unfrozen
  /// parameter indices in ascending order.
  SpecRows(const Network &Net, int LayerIndex, const PointSpec &Spec,
           std::vector<int> Effective, double RowMargin);

  int numPoints() const { return static_cast<int>(Spec.size()); }
  int numRows() const { return static_cast<int>(RowPoint.size()); }
  /// Coefficients per row: the effective parameters.
  int numEffective() const { return static_cast<int>(Effective.size()); }

  /// Points per computeState call in the repair's Jacobian phase: its
  /// cancellation and progress granularity. The state itself is
  /// allocated for every point up front; coefs() chunks by rows.
  int chunkPoints() const { return 256; }

  /// Rows per chunk of coefs(): capped at 256 and at 16 MiB of seed
  /// block.
  int chunkRows() const { return ChunkRows; }

  /// Records the Delta = 0 forward state and the rows' right-hand sides
  /// for points [Begin, End). Every point must be covered once before
  /// hi() or scan() reads it.
  void computeState(int Begin, int End);

  /// Row \p Row's right-hand side b_k - A_k N(x) - RowMargin.
  double hi(int Row) const { return Hi[static_cast<size_t>(Row)]; }

  /// s_k = A_k y(Delta) - b_k for every row k, where y(Delta) is the
  /// DDNN's output with the layer's effective parameters moved by
  /// \p DeltaEff. The row's own LP violation is s_k + RowMargin.
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
  const Network &Net;
  int LayerIndex;
  const PointSpec &Spec;
  std::vector<int> Effective;
  double RowMargin;
  int ChunkRows;
  /// Point P's rows are [RowOffset[P], RowOffset[P + 1]); row R belongs
  /// to point RowPoint[R].
  std::vector<int> RowOffset;
  std::vector<int> RowPoint;
  /// State[0] holds the value-channel input of the repaired layer L, one
  /// point per row, and State[I - L] for every activation layer I > L
  /// the activation channel's input there: the Center of
  /// ActivationLayer::applyLinearized (a pinned point uses its pattern
  /// instead). Linear layers' slots stay empty.
  std::vector<Matrix> State;
  std::vector<double> Hi;
};

} // namespace prdnn::detail

#endif // PRDNN_CORE_SPECROWS_H
