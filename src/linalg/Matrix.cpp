//===- linalg/Matrix.cpp ---------------------------------------------------===//

#include "linalg/Matrix.h"

#include "support/Parallel.h"

#include <algorithm>
#include <cmath>

using namespace prdnn;

namespace {

/// K-dimension block size for the GEMM kernels: 256 doubles (2 KB) of
/// the left row stay hot while the matching right-rows block streams.
constexpr int kGemmKBlock = 256;

} // namespace

Matrix Matrix::identity(int Size) {
  Matrix Result(Size, Size);
  for (int I = 0; I < Size; ++I)
    Result(I, I) = 1.0;
  return Result;
}

Matrix Matrix::fromRows(
    std::initializer_list<std::initializer_list<double>> Rows) {
  int NumRows = static_cast<int>(Rows.size());
  int NumCols = NumRows == 0 ? 0 : static_cast<int>(Rows.begin()->size());
  Matrix Result(NumRows, NumCols);
  int R = 0;
  for (const auto &Row : Rows) {
    assert(static_cast<int>(Row.size()) == NumCols && "ragged matrix rows");
    int C = 0;
    for (double V : Row)
      Result(R, C++) = V;
    ++R;
  }
  return Result;
}

Matrix Matrix::fromRowVectors(const std::vector<Vector> &Rows) {
  int NumRows = static_cast<int>(Rows.size());
  int NumCols = NumRows == 0 ? 0 : Rows.front().size();
  Matrix Result(NumRows, NumCols);
  for (int R = 0; R < NumRows; ++R) {
    assert(Rows[static_cast<size_t>(R)].size() == NumCols &&
           "ragged matrix rows");
    Result.setRow(R, Rows[static_cast<size_t>(R)]);
  }
  return Result;
}

Vector Matrix::row(int Row) const {
  Vector Result(NumCols);
  const double *Data = rowData(Row);
  for (int C = 0; C < NumCols; ++C)
    Result[C] = Data[C];
  return Result;
}

void Matrix::setRow(int Row, const Vector &V) {
  assert(V.size() == NumCols && "row width mismatch");
  double *Data = rowData(Row);
  for (int C = 0; C < NumCols; ++C)
    Data[C] = V[C];
}

Vector Matrix::apply(const Vector &X) const {
  assert(X.size() == NumCols && "matrix-vector shape mismatch");
  Vector Result(NumRows);
  for (int R = 0; R < NumRows; ++R)
    Result[R] = linalg::kernelDot(rowData(R), X.data(), NumCols);
  return Result;
}

Vector Matrix::applyTransposed(const Vector &X) const {
  assert(X.size() == NumRows && "matrix-vector shape mismatch");
  Vector Result(NumCols);
  for (int R = 0; R < NumRows; ++R) {
    double Scale = X[R];
    if (Scale == 0.0)
      continue;
    linalg::kernelAxpy(Result.data(), rowData(R), Scale, NumCols);
  }
  return Result;
}

Matrix Matrix::multiply(const Matrix &Other) const {
  assert(NumCols == Other.NumRows && "matrix-matrix shape mismatch");
  Matrix Result(NumRows, Other.NumCols);
  // Blocked ikj kernel: K-blocks ascend, so each output element
  // accumulates in the same order (with the same zero-skips) as the
  // naive loop - blocking and threading never change the result bits.
  auto RowRange = [&](std::int64_t RowBegin, std::int64_t RowEnd) {
    for (int KBlock = 0; KBlock < NumCols; KBlock += kGemmKBlock) {
      int KEnd = std::min(KBlock + kGemmKBlock, NumCols);
      for (int R = static_cast<int>(RowBegin); R < RowEnd; ++R) {
        const double *LhsRow = rowData(R);
        double *OutRow = Result.rowData(R);
        for (int K = KBlock; K < KEnd; ++K) {
          double Scale = LhsRow[K];
          if (Scale == 0.0)
            continue;
          linalg::kernelAxpy(OutRow, Other.rowData(K), Scale, Other.NumCols);
        }
      }
    }
  };
  double Flops = static_cast<double>(NumRows) * NumCols * Other.NumCols;
  if (Flops >= kParallelFlopThreshold)
    parallelForRanges(0, NumRows, RowRange);
  else
    RowRange(0, NumRows);
  return Result;
}

Matrix Matrix::multiplyTransposed(const Matrix &Other) const {
  assert(NumCols == Other.NumCols && "matrix-matrix shape mismatch");
  Matrix Result(NumRows, Other.NumRows);
  auto RowRange = [&](std::int64_t RowBegin, std::int64_t RowEnd) {
    for (int R = static_cast<int>(RowBegin); R < RowEnd; ++R) {
      const double *LhsRow = rowData(R);
      double *OutRow = Result.rowData(R);
      for (int O = 0; O < Other.NumRows; ++O)
        OutRow[O] = linalg::kernelDot(Other.rowData(O), LhsRow, NumCols);
    }
  };
  double Flops = static_cast<double>(NumRows) * NumCols * Other.NumRows;
  if (Flops >= kParallelFlopThreshold)
    parallelForRanges(0, NumRows, RowRange);
  else
    RowRange(0, NumRows);
  return Result;
}

Matrix Matrix::transposed() const {
  Matrix Result(NumCols, NumRows);
  for (int R = 0; R < NumRows; ++R)
    for (int C = 0; C < NumCols; ++C)
      Result(C, R) = (*this)(R, C);
  return Result;
}

Matrix &Matrix::operator+=(const Matrix &Other) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "matrix shape mismatch");
  for (size_t I = 0, E = Values.size(); I < E; ++I)
    Values[I] += Other.Values[I];
  return *this;
}

Matrix &Matrix::operator*=(double Scale) {
  for (double &V : Values)
    V *= Scale;
  return *this;
}

double Matrix::normInf() const {
  double Max = 0.0;
  for (double V : Values)
    Max = std::max(Max, std::fabs(V));
  return Max;
}

double Matrix::maxAbsDiff(const Matrix &Other) const {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "matrix shape mismatch");
  double Max = 0.0;
  for (size_t I = 0, E = Values.size(); I < E; ++I)
    Max = std::max(Max, std::fabs(Values[I] - Other.Values[I]));
  return Max;
}
