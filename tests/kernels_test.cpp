//===- tests/kernels_test.cpp - kernel bit-contract tests ---------------------===//
//
// The dense kernels' bit contract (src/linalg/README.md): kernelDot is
// a fixed 8-lane reduction whose bits depend only on its inputs, so it
// matches an in-test lane reference bit for bit, equals the plain loop
// below 8 products, and propagates NaN, signed zero, infinities and
// subnormals; the Matrix entry points match per-element references at
// any thread count; and a golden digest over one point repair and a few
// GEMMs, built from integer-derived data only, pins the bits across
// hosts, ISAs and builds. Runs under the CI ThreadSanitizer job and in
// the generic-arch (no AVX2) job.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"

#include "core/PointRepair.h"
#include "linalg/Matrix.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "persist/Codec.h"
#include "support/Hash.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

namespace {

using namespace prdnn;

std::uint64_t bits(double V) {
  std::uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Values spanning 2^-20 .. 2^20 with both signs, so that summation
/// order shows in the low bits.
double mixedValue(Rng &R) {
  double Mag = static_cast<double>(1 << R.uniformInt(0, 20));
  if (R.uniformInt(0, 1))
    Mag = 1.0 / Mag;
  return R.uniform(-1.0, 1.0) * Mag;
}

std::vector<double> mixedValues(Rng &R, int N) {
  std::vector<double> V(static_cast<size_t>(N));
  for (double &X : V)
    X = mixedValue(R);
  return V;
}

Matrix mixedMatrix(Rng &R, int Rows, int Cols) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = mixedValue(R);
  return M;
}

/// The definition of kernelDot, written out independently: products
/// I < N - N%8 go to lane I%8, the lanes combine in the fixed tree, the
/// tail follows in order.
double laneReference(const double *A, const double *B, int N) {
  double Lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  int Body = N / 8 * 8;
  for (int I = 0; I < Body; ++I)
    Lane[I % 8] += A[I] * B[I];
  double Sum = ((Lane[0] + Lane[4]) + (Lane[2] + Lane[6])) +
               ((Lane[1] + Lane[5]) + (Lane[3] + Lane[7]));
  for (int I = Body; I < N; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

double plainLoop(const double *A, const double *B, int N) {
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

// --- kernelDot known answers -------------------------------------------------

TEST(KernelDot, MatchesLaneReferenceBitwise) {
  Rng R(301);
  int DiffersFromPlain = 0;
  for (int Trial = 0; Trial < 20; ++Trial) {
    for (int N = 0; N <= 40; ++N) {
      std::vector<double> A = mixedValues(R, N), B = mixedValues(R, N);
      double Got = linalg::kernelDot(A.data(), B.data(), N);
      ASSERT_EQ(bits(Got), bits(laneReference(A.data(), B.data(), N)))
          << "N = " << N;
      if (bits(Got) != bits(plainLoop(A.data(), B.data(), N)))
        ++DiffersFromPlain;
    }
  }
  // The data is spread widely enough that the lane order is visible:
  // a reference that degenerated into the plain loop would fail here.
  EXPECT_GT(DiffersFromPlain, 0);
}

TEST(KernelDot, BelowEightProductsIsThePlainLoop) {
  Rng R(302);
  for (int Trial = 0; Trial < 200; ++Trial) {
    for (int N = 0; N < 8; ++N) {
      std::vector<double> A = mixedValues(R, N), B = mixedValues(R, N);
      EXPECT_EQ(bits(linalg::kernelDot(A.data(), B.data(), N)),
                bits(plainLoop(A.data(), B.data(), N)))
          << "N = " << N;
    }
  }
}

TEST(KernelDot, PropagatesNaNSignedZeroInfinityAndSubnormals) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  auto Dot = [](const std::vector<double> &A, const std::vector<double> &B) {
    return linalg::kernelDot(A.data(), B.data(), static_cast<int>(A.size()));
  };
  for (int N : {5, 8, 19}) {
    std::vector<double> Ones(static_cast<size_t>(N), 1.0);
    // NaN in a lane and in the tail.
    for (int At : {0, N - 1}) {
      std::vector<double> A(static_cast<size_t>(N), 0.5);
      A[static_cast<size_t>(At)] = NaN;
      EXPECT_TRUE(std::isnan(Dot(A, Ones))) << N << " " << At;
    }
    // +inf stays +inf; +inf and -inf meet as NaN; inf * 0 is NaN.
    std::vector<double> A(static_cast<size_t>(N), 0.25);
    A[1] = Inf;
    EXPECT_EQ(Dot(A, Ones), Inf) << N;
    A[static_cast<size_t>(N - 1)] = -Inf;
    EXPECT_TRUE(std::isnan(Dot(A, Ones))) << N;
    std::vector<double> Zeros(static_cast<size_t>(N), 0.0);
    EXPECT_TRUE(std::isnan(Dot(A, Zeros))) << N;
    // Every product -0.0: the sum starts at +0.0, so the result is +0.0
    // exactly as for the plain loop.
    std::vector<double> NegZeros(static_cast<size_t>(N), -0.0);
    EXPECT_EQ(bits(Dot(NegZeros, Ones)), bits(0.0)) << N;
    // Subnormal products are summed exactly, never flushed to zero.
    std::vector<double> Tiny(static_cast<size_t>(N), 5e-310);
    EXPECT_EQ(Dot(Tiny, Ones), laneReference(Tiny.data(), Ones.data(), N));
    EXPECT_GT(Dot(Tiny, Ones), 0.0) << N;
  }
  EXPECT_EQ(bits(linalg::kernelDot(nullptr, nullptr, 0)), bits(0.0));
}

// --- Matrix entry points -----------------------------------------------------

TEST(KernelDot, MatrixEntryPointsMatchPerElementReferences) {
  Rng R(303);
  // K crosses the 256-wide GEMM block, and M*K*N is above the flop
  // threshold, so the blocked parallel paths run.
  const int M = 37, K = 300, N = 21;
  Matrix A = mixedMatrix(R, M, K);
  Matrix B = mixedMatrix(R, K, N);
  Matrix Bt = mixedMatrix(R, N, K);
  std::vector<double> X = mixedValues(R, K);
  std::vector<double> Xt = mixedValues(R, M);
  for (int I = 0; I < M; I += 3) // zero-skips are part of the order
    A(I, I % K) = 0.0;
  Xt[4] = 0.0;

  // multiply: ascending k per element, skipping zero left entries.
  Matrix RefMul(M, N);
  for (int I = 0; I < M; ++I)
    for (int Kk = 0; Kk < K; ++Kk)
      if (A(I, Kk) != 0.0)
        for (int J = 0; J < N; ++J)
          RefMul(I, J) += A(I, Kk) * B(Kk, J);
  Matrix RefMulT(M, N);
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J)
      RefMulT(I, J) = laneReference(Bt.rowData(J), A.rowData(I), K);
  std::vector<double> RefApply(static_cast<size_t>(M));
  for (int I = 0; I < M; ++I)
    RefApply[static_cast<size_t>(I)] =
        laneReference(A.rowData(I), X.data(), K);
  std::vector<double> RefApplyT(static_cast<size_t>(K), 0.0);
  for (int I = 0; I < M; ++I) {
    double Scale = Xt[static_cast<size_t>(I)];
    if (Scale != 0.0)
      for (int Kk = 0; Kk < K; ++Kk)
        RefApplyT[static_cast<size_t>(Kk)] += Scale * A(I, Kk);
  }

  Vector XV(K), XtV(M);
  for (int Kk = 0; Kk < K; ++Kk)
    XV[Kk] = X[static_cast<size_t>(Kk)];
  for (int I = 0; I < M; ++I)
    XtV[I] = Xt[static_cast<size_t>(I)];

  int Saved = globalThreadCount();
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    Matrix Mul = A.multiply(B);
    Matrix MulT = A.multiplyTransposed(Bt);
    Vector Y = A.apply(XV);
    Vector Yt = A.applyTransposed(XtV);
    for (int I = 0; I < M; ++I) {
      EXPECT_EQ(bits(Y[I]), bits(RefApply[static_cast<size_t>(I)]))
          << "apply row " << I << ", threads " << Threads;
      for (int J = 0; J < N; ++J) {
        EXPECT_EQ(bits(Mul(I, J)), bits(RefMul(I, J)))
            << "multiply " << I << "," << J << ", threads " << Threads;
        EXPECT_EQ(bits(MulT(I, J)), bits(RefMulT(I, J)))
            << "multiplyTransposed " << I << "," << J << ", threads "
            << Threads;
      }
    }
    for (int Kk = 0; Kk < K; ++Kk)
      EXPECT_EQ(bits(Yt[Kk]), bits(RefApplyT[static_cast<size_t>(Kk)]))
          << "applyTransposed " << Kk << ", threads " << Threads;
  }
  setGlobalThreadCount(Saved);
}

// --- Golden digest -----------------------------------------------------------

/// A small exact value from integers alone: multiples of 1/16 in
/// [-9/16, 9/16]. No libm and no Rng::normal, so the inputs are the
/// same bits on every host.
double intValue(int Seed, int I, int J) {
  return static_cast<double>((Seed * 5 + I * 7 + J * 13) % 19 - 9) / 16.0;
}

/// intValue entries divided by \p Divisor (IEEE division is correctly
/// rounded, so host-stable too; 7 gives non-dyadic values).
Matrix intMatrix(int Seed, int Rows, int Cols, double Divisor = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = intValue(Seed, I, J) / Divisor;
  return M;
}

Vector intVector(int Seed, int Size, double Divisor = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = intValue(Seed, I, 0) / 2.0 / Divisor;
  return V;
}

/// A 12-20-17-4 ReLU classifier with intMatrix / intVector parameters.
Network digestNetwork(int Seed, double Divisor) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      intMatrix(Seed, 20, 12, Divisor), intVector(Seed + 1, 20, Divisor)));
  Net.addLayer(std::make_unique<ReLULayer>(20));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      intMatrix(Seed + 2, 17, 20, Divisor), intVector(Seed + 3, 17, Divisor)));
  Net.addLayer(std::make_unique<ReLULayer>(17));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      intMatrix(Seed + 4, 4, 17, Divisor), intVector(Seed + 5, 4, Divisor)));
  return Net;
}

/// Two point repairs and three GEMMs, hashed: the Delta bits, then the
/// products' bits. The first repair's data are multiples of 1/16, so
/// its LP rows sum exactly and only the simplex arithmetic reaches its
/// Delta; the second's weights are sevenths, so its rows round and the
/// order of the row arithmetic shows in its Delta.
Digest128 goldenDigest() {
  PointSpec Spec;
  for (int P = 0; P < 6; ++P) {
    Vector X(12);
    for (int J = 0; J < 12; ++J)
      X[J] = static_cast<double>((P * 5 + J * 3) % 11 - 5) / 4.0;
    Spec.push_back({X, classificationConstraint(4, P % 4, 1.0 / 64.0),
                    std::nullopt});
  }
  Hasher H;
  for (auto [Seed, Divisor, Layer] :
       {std::tuple{1, 1.0, 2}, std::tuple{11, 7.0, 0}}) {
    RepairResult Result =
        repairPoints(digestNetwork(Seed, Divisor), Layer, Spec);
    EXPECT_EQ(Result.Status, RepairStatus::Success);
    EXPECT_GT(Result.DeltaL1, 0.0);
    H.doubles(Result.Delta.data(), Result.Delta.size());
  }
  Matrix A = intMatrix(7, 13, 29);
  Matrix C = A.multiply(intMatrix(8, 29, 11));
  Matrix D = A.multiplyTransposed(intMatrix(9, 11, 29));
  Vector Y = A.apply(intVector(10, 29));
  H.doubles(C.rowData(0), static_cast<size_t>(C.rows() * C.cols()));
  H.doubles(D.rowData(0), static_cast<size_t>(D.rows() * D.cols()));
  H.doubles(Y.data(), static_cast<size_t>(Y.size()));
  return H.digest();
}

TEST(KernelDot, GoldenDigestIsStableAcrossHostsAndThreadCounts) {
  // The checked-in bits of the kernel arithmetic and of two point
  // repairs. Changing these constants means every stored LP solution
  // and repaired network changes bits too: it requires a
  // persist::kFormatVersion bump (persist/Codec.h), so that old stores
  // and old peers degrade to recomputes instead of serving stale bits.
  // The version also moves for wire and store layout changes, which
  // leave the constant alone. Version 7 moved it: LP rows became seeded
  // vector-Jacobian products, which round differently, and the sevenths
  // repair shows that where the 1/16 repair's exact sums cannot.
  // Version 10 moved it: round 1 of a repair LP became a dual simplex
  // from the slack basis, which reaches a different optimal vertex.
  // Version 11 (the wire lost SimplexOptions::ScaleRows) kept it.
  static_assert(persist::kFormatVersion == 11,
                "a kernel-bits change must bump kFormatVersion and the "
                "golden digest together");
  const Digest128 Golden = {0x642f02841a9fab11ull, 0x9d145fc1ac58bfb0ull};

  int Saved = globalThreadCount();
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    Digest128 Got = goldenDigest();
    EXPECT_EQ(Got.Hi, Golden.Hi) << std::hex << "threads " << Threads
                                 << ": 0x" << Got.Hi << ", 0x" << Got.Lo;
    EXPECT_EQ(Got.Lo, Golden.Lo) << std::hex << "threads " << Threads
                                 << ": 0x" << Got.Hi << ", 0x" << Got.Lo;
  }
  setGlobalThreadCount(Saved);
}

} // namespace
