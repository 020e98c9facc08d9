//===- linalg/Matrix.h - dense row-major matrix ----------------*- C++ -*-===//
///
/// \file
/// Dense row-major matrix of doubles. Used for layer weights, the
/// backward accumulation matrices in nn/Jacobian.h, the simplex
/// solver's basis inverse, and - one point or LP row per row - the
/// batches flowing through the repair engine (Layer::applyBatch, the
/// seeded row blocks of core/SpecRows swept by vjpLinearBatch).
///
/// The matrix products are cache-blocked and pass their flops to the
/// global thread pool's rule for when a loop goes to the pool
/// (support/Parallel.h). Each output row is produced by exactly one
/// task, and every element is one linalg::kernelDot or a fixed ascending
/// sequence of linalg::kernelAxpy updates, so results are bit-for-bit
/// independent of the thread count and of the host (linalg/Kernels.h).
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LINALG_MATRIX_H
#define PRDNN_LINALG_MATRIX_H

#include "linalg/Kernels.h"
#include "linalg/Vector.h"

#include <cassert>
#include <vector>

namespace prdnn {

/// Dense row-major matrix.
class Matrix {
public:
  Matrix() : NumRows(0), NumCols(0) {}

  /// Zero matrix with \p Rows x \p Cols entries.
  Matrix(int Rows, int Cols)
      : NumRows(Rows), NumCols(Cols),
        Values(static_cast<size_t>(Rows) * static_cast<size_t>(Cols), 0.0) {
    assert(Rows >= 0 && Cols >= 0 && "negative matrix shape");
  }

  static Matrix identity(int Size);

  /// Builds a matrix from nested initializer rows (for tests/examples).
  static Matrix fromRows(std::initializer_list<std::initializer_list<double>>
                             Rows);

  /// Stacks \p Rows (all of equal dimension) as the rows of a matrix:
  /// the standard way a batch of points becomes a batch matrix.
  static Matrix fromRowVectors(const std::vector<Vector> &Rows);

  int rows() const { return NumRows; }
  int cols() const { return NumCols; }

  double operator()(int Row, int Col) const {
    assert(Row >= 0 && Row < NumRows && Col >= 0 && Col < NumCols &&
           "matrix index out of range");
    return Values[static_cast<size_t>(Row) * NumCols + Col];
  }
  double &operator()(int Row, int Col) {
    assert(Row >= 0 && Row < NumRows && Col >= 0 && Col < NumCols &&
           "matrix index out of range");
    return Values[static_cast<size_t>(Row) * NumCols + Col];
  }

  const double *rowData(int Row) const {
    assert(Row >= 0 && Row < NumRows && "row index out of range");
    return Values.data() + static_cast<size_t>(Row) * NumCols;
  }
  double *rowData(int Row) {
    assert(Row >= 0 && Row < NumRows && "row index out of range");
    return Values.data() + static_cast<size_t>(Row) * NumCols;
  }

  /// Copies row \p Row into a Vector.
  Vector row(int Row) const;

  /// Overwrites row \p Row with \p V (dimension must equal cols()).
  void setRow(int Row, const Vector &V);

  /// Matrix-vector product A*x: one kernelDot per row.
  Vector apply(const Vector &X) const;

  /// Transposed product A^T * x.
  Vector applyTransposed(const Vector &X) const;

  /// Matrix-matrix product (*this) * Other. Cache-blocked over the
  /// inner dimension and parallel over output rows for large operands;
  /// the per-element accumulation order matches the naive ikj loop
  /// exactly.
  Matrix multiply(const Matrix &Other) const;

  /// Product against a transposed right operand: (*this) * Other^T,
  /// with Other stored row-major (so each output entry is a dot product
  /// of two contiguous rows). This is the batched fully-connected
  /// forward kernel: Out = In * W^T.
  Matrix multiplyTransposed(const Matrix &Other) const;

  Matrix transposed() const;

  Matrix &operator+=(const Matrix &Other);
  Matrix &operator*=(double Scale);

  /// Largest absolute entry.
  double normInf() const;

  /// Largest absolute difference against \p Other (shapes must match).
  double maxAbsDiff(const Matrix &Other) const;

private:
  int NumRows, NumCols;
  std::vector<double> Values;
};

} // namespace prdnn

#endif // PRDNN_LINALG_MATRIX_H
