//===- linalg/Kernels.h - dense dot and axpy kernels -----------*- C++ -*-===//
///
/// \file
/// The two primitives behind every dense hot loop (GEMM in Matrix.cpp,
/// the simplex pricing/FTRAN/BTRAN/refactorization loops in
/// lp/Simplex.cpp): dot and axpy.
///
/// Both are defined so that their result bits depend only on their
/// inputs - not on the ISA, the compiler's vectorization choices, or
/// the thread count. Each is a fixed sequence of IEEE-754 multiplies
/// and adds (no FMA: the library is built with -ffp-contract=off and
/// exports that flag to everything that inlines this header), and IEEE
/// add and multiply are correctly rounded, so any evaluation that keeps
/// that sequence - scalar, SSE2, AVX2, AVX-512 - produces the same
/// bits. src/linalg/README.md has the definition and its measurement;
/// tests/kernels_test.cpp pins it with known-answer checks and a golden
/// digest.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LINALG_KERNELS_H
#define PRDNN_LINALG_KERNELS_H

namespace prdnn {
namespace linalg {

/// Dot product sum_i A[i]*B[i] in a fixed 8-lane order.
///
/// The first N - N%8 products accumulate into lane I%8 (each lane
/// starts at +0.0 and adds its products in ascending I); the lanes
/// combine in the fixed tree ((S0+S4)+(S2+S6)) + ((S1+S5)+(S3+S7));
/// the remaining N%8 products are then added in ascending order. For
/// N < 8 this is exactly the plain left-to-right loop.
inline double kernelDot(const double *A, const double *B, int N) {
  double S[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const int Body = N - N % 8;
  for (int I = 0; I < Body; I += 8)
    for (int L = 0; L < 8; ++L)
      S[L] += A[I + L] * B[I + L];
  double Sum =
      ((S[0] + S[4]) + (S[2] + S[6])) + ((S[1] + S[5]) + (S[3] + S[7]));
  for (int I = Body; I < N; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

/// Y[i] += Scale * X[i], elementwise. Callers' zero-skips (skipping
/// Scale == 0 entirely) stay at the call site and are part of the
/// caller's accumulation order.
///
/// A subtraction loop `Y[i] -= F * X[i]` routes through here as
/// kernelAxpy(Y, X, -F, N): IEEE negation is exact and
/// a + (-t) == a - t, so the bits are unchanged.
inline void kernelAxpy(double *Y, const double *X, double Scale, int N) {
  for (int I = 0; I < N; ++I)
    Y[I] += Scale * X[I];
}

} // namespace linalg
} // namespace prdnn

#endif // PRDNN_LINALG_KERNELS_H
