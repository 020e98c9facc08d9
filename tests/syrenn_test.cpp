//===- tests/syrenn_test.cpp - LinRegions transform tests --------------------===//
//
// The 1-D transform is validated against the paper's worked example
// (Equation 1) and by the defining property of a linear-region
// partition: the network is affine on each piece (midpoint test) and
// the pieces cover [0, 1]. The 2-D transform is validated by area
// conservation, per-region affineness, and pattern constancy, and its
// region lists are checked bit for bit against a frozen copy of the
// unit-major transform it replaced.
//
//===----------------------------------------------------------------------===//

#include "syrenn/LineTransform.h"
#include "syrenn/PlaneTransform.h"

#include "core/PolytopeRepair.h"
#include "nn/ActivationLayers.h"
#include "nn/ActivationPattern.h"
#include "nn/LinearLayers.h"
#include "nn/PoolLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace {

using namespace prdnn;

Vector randomVector(Rng &R, int Size, double Scale = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = Scale * R.normal();
  return V;
}

Matrix randomMatrix(Rng &R, int Rows, int Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = Scale * R.normal();
  return M;
}

Network makeFigure3Network() {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0}, {1.0}, {1.0}}), Vector{0.0, 0.0, -1.0}));
  Net.addLayer(std::make_unique<ReLULayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0, -1.0, 1.0}}), Vector{0.0}));
  return Net;
}

Network makeRandomReluNetwork(Rng &R, int InputSize, int Hidden, int Depth,
                              int OutputSize) {
  Network Net;
  int Size = InputSize;
  for (int D = 0; D < Depth; ++D) {
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, Hidden, Size, 1.2), randomVector(R, Hidden, 0.4)));
    Net.addLayer(std::make_unique<ReLULayer>(Hidden));
    Size = Hidden;
  }
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, OutputSize, Size, 1.2),
      randomVector(R, OutputSize, 0.4)));
  return Net;
}

// --- Frozen reference: the unit-major plane transform --------------------
//
// The transform as it was before the per-polygon layer pass: each unit
// and threshold sweeps every live polygon, copying the ones it does not
// cross. planeRegions must reproduce its region lists bit for bit.

namespace reference {

struct WorkPolygon {
  std::vector<Vector> Input;
  std::vector<std::pair<double, double>> Plane;
  std::vector<Vector> Vals;

  int size() const { return static_cast<int>(Input.size()); }
};

double planeArea(const std::vector<std::pair<double, double>> &Pts) {
  double Twice = 0.0;
  int N = static_cast<int>(Pts.size());
  for (int I = 0; I < N; ++I) {
    const auto &[X1, Y1] = Pts[static_cast<size_t>(I)];
    const auto &[X2, Y2] = Pts[static_cast<size_t>((I + 1) % N)];
    Twice += X1 * Y2 - X2 * Y1;
  }
  return 0.5 * Twice;
}

void dedupe(WorkPolygon &Poly) {
  WorkPolygon Out;
  int N = Poly.size();
  for (int I = 0; I < N; ++I) {
    int Prev = (I + N - 1) % N;
    double Dx = Poly.Plane[I].first - Poly.Plane[Prev].first;
    double Dy = Poly.Plane[I].second - Poly.Plane[Prev].second;
    if (N > 1 && Dx * Dx + Dy * Dy < 1e-22)
      continue;
    Out.Input.push_back(Poly.Input[I]);
    Out.Plane.push_back(Poly.Plane[I]);
    Out.Vals.push_back(Poly.Vals[I]);
  }
  Poly = std::move(Out);
}

bool isDegenerate(const WorkPolygon &Poly) {
  return Poly.size() < 3 || std::fabs(planeArea(Poly.Plane)) < 1e-14;
}

void splitPolygon(const WorkPolygon &Poly, int Unit, double Threshold,
                  std::vector<WorkPolygon> &Out) {
  int N = Poly.size();
  std::vector<double> D(static_cast<size_t>(N));
  double Scale = 0.0;
  for (int I = 0; I < N; ++I) {
    D[I] = Poly.Vals[I][Unit] - Threshold;
    Scale = std::max(Scale, std::fabs(D[I]));
  }
  double Eps = 1e-10 * std::max(1.0, Scale);

  bool AnyPos = false, AnyNeg = false;
  for (double V : D) {
    AnyPos |= V > Eps;
    AnyNeg |= V < -Eps;
  }
  if (!AnyPos || !AnyNeg) {
    Out.push_back(Poly);
    return;
  }

  WorkPolygon Pos, Neg;
  for (int I = 0; I < N; ++I) {
    int Next = (I + 1) % N;
    if (D[I] >= -Eps) {
      Pos.Input.push_back(Poly.Input[I]);
      Pos.Plane.push_back(Poly.Plane[I]);
      Pos.Vals.push_back(Poly.Vals[I]);
    }
    if (D[I] <= Eps) {
      Neg.Input.push_back(Poly.Input[I]);
      Neg.Plane.push_back(Poly.Plane[I]);
      Neg.Vals.push_back(Poly.Vals[I]);
    }
    bool Crosses = (D[I] > Eps && D[Next] < -Eps) ||
                   (D[I] < -Eps && D[Next] > Eps);
    if (!Crosses)
      continue;
    double S = D[I] / (D[I] - D[Next]);
    Vector In = Poly.Input[Next];
    In -= Poly.Input[I];
    In *= S;
    In += Poly.Input[I];
    Vector Val = Poly.Vals[Next];
    Val -= Poly.Vals[I];
    Val *= S;
    Val += Poly.Vals[I];
    std::pair<double, double> Pl{
        Poly.Plane[I].first + S * (Poly.Plane[Next].first -
                                   Poly.Plane[I].first),
        Poly.Plane[I].second + S * (Poly.Plane[Next].second -
                                    Poly.Plane[I].second)};
    Pos.Input.push_back(In);
    Pos.Plane.push_back(Pl);
    Pos.Vals.push_back(Val);
    Neg.Input.push_back(std::move(In));
    Neg.Plane.push_back(Pl);
    Neg.Vals.push_back(std::move(Val));
  }
  dedupe(Pos);
  dedupe(Neg);
  if (!isDegenerate(Pos))
    Out.push_back(std::move(Pos));
  if (!isDegenerate(Neg))
    Out.push_back(std::move(Neg));
}

std::vector<PlaneRegion> planeRegions(const Network &Net,
                                      const std::vector<Vector> &Polygon) {
  const Vector &Origin = Polygon.front();
  Vector U1 = Polygon[1];
  U1 -= Origin;
  U1 *= 1.0 / U1.norm2();
  Vector U2;
  for (size_t I = 2; I < Polygon.size(); ++I) {
    Vector W = Polygon[I];
    W -= Origin;
    Vector Proj = U1 * W.dot(U1);
    W -= Proj;
    double N2 = W.norm2();
    if (N2 > 1e-9) {
      W *= 1.0 / N2;
      U2 = std::move(W);
      break;
    }
  }

  WorkPolygon Initial;
  for (const Vector &V : Polygon) {
    Vector Rel = V;
    Rel -= Origin;
    Initial.Input.push_back(V);
    Initial.Plane.push_back({Rel.dot(U1), Rel.dot(U2)});
    Initial.Vals.push_back(V);
  }
  dedupe(Initial);

  std::vector<WorkPolygon> Polys = {std::move(Initial)};
  std::vector<WorkPolygon> Next;
  for (int LayerIdx = 0; LayerIdx < Net.numLayers(); ++LayerIdx) {
    const Layer &L = Net.layer(LayerIdx);
    if (const auto *Linear = dyn_cast<LinearLayer>(&L)) {
      for (WorkPolygon &Poly : Polys)
        applyBatchToRows(*Linear, Poly.Vals);
      continue;
    }
    const auto &Act = cast<ElementwiseActivation>(L);
    std::vector<double> Thresholds = Act.thresholds();
    for (int Unit = 0; Unit < Act.inputSize(); ++Unit) {
      for (double Th : Thresholds) {
        Next.clear();
        for (const WorkPolygon &Poly : Polys)
          splitPolygon(Poly, Unit, Th, Next);
        std::swap(Polys, Next);
      }
    }
    for (WorkPolygon &Poly : Polys)
      for (Vector &V : Poly.Vals)
        V = Act.apply(V);
  }

  std::vector<PlaneRegion> Result;
  for (WorkPolygon &Poly : Polys) {
    PlaneRegion Region;
    Region.InputVertices = std::move(Poly.Input);
    Region.PlaneVertices = std::move(Poly.Plane);
    Result.push_back(std::move(Region));
  }
  return Result;
}

} // namespace reference

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool sameBits(const Vector &A, const Vector &B) {
  if (A.size() != B.size())
    return false;
  for (int I = 0; I < A.size(); ++I)
    if (!sameBits(A[I], B[I]))
      return false;
  return true;
}

/// Region count, order and every vertex coordinate, bit for bit.
void expectSameRegions(const std::vector<PlaneRegion> &Want,
                       const std::vector<PlaneRegion> &Got,
                       const std::string &What) {
  ASSERT_EQ(Want.size(), Got.size()) << What;
  for (size_t R = 0; R < Want.size(); ++R) {
    const PlaneRegion &A = Want[R], &B = Got[R];
    ASSERT_EQ(A.InputVertices.size(), B.InputVertices.size())
        << What << " region " << R;
    ASSERT_EQ(A.PlaneVertices.size(), B.PlaneVertices.size())
        << What << " region " << R;
    for (size_t V = 0; V < A.InputVertices.size(); ++V) {
      EXPECT_TRUE(sameBits(A.InputVertices[V], B.InputVertices[V]))
          << What << " region " << R << " vertex " << V;
      EXPECT_TRUE(sameBits(A.PlaneVertices[V].first,
                           B.PlaneVertices[V].first) &&
                  sameBits(A.PlaneVertices[V].second,
                           B.PlaneVertices[V].second))
          << What << " region " << R << " plane vertex " << V;
    }
  }
}

/// planeRegions against the frozen reference at pool sizes 1 and 4.
void expectMatchesReference(const Network &Net,
                            const std::vector<Vector> &Polygon,
                            const std::string &What) {
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    std::vector<PlaneRegion> Want = reference::planeRegions(Net, Polygon);
    std::vector<PlaneRegion> Got = planeRegions(Net, Polygon);
    expectSameRegions(Want, Got,
                      What + " at " + std::to_string(Threads) + " threads");
  }
  setGlobalThreadCount(defaultThreadCount());
}

/// An ACAS-shaped network: linear layers of width \p Hidden interleaved
/// with \p Depth activation layers made by \p MakeAct.
template <typename MakeActT>
Network makeActivationNetwork(Rng &R, int InputSize, int Hidden, int Depth,
                              int OutputSize, MakeActT MakeAct) {
  Network Net;
  int Size = InputSize;
  for (int D = 0; D < Depth; ++D) {
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, Hidden, Size, 1.2 / std::sqrt(Size)),
        randomVector(R, Hidden, 0.4)));
    Net.addLayer(MakeAct(Hidden));
    Size = Hidden;
  }
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, OutputSize, Size, 1.2 / std::sqrt(Size)),
      randomVector(R, OutputSize, 0.4)));
  return Net;
}

/// A random quadrilateral in a random 2-D affine subspace of R^Size.
std::vector<Vector> randomSquare(Rng &R, int Size, double Scale) {
  Vector Origin = randomVector(R, Size, 0.3);
  Vector E1 = randomVector(R, Size, Scale);
  Vector E2 = randomVector(R, Size, Scale);
  return {Origin, Origin + E1, Origin + E1 + E2, Origin + E2};
}

// --- 1-D -----------------------------------------------------------------

TEST(LineTransform, Figure3Equation1) {
  // LinRegions(N1, [-1, 2]) = {[-1, 0], [0, 1], [1, 2]} (Equation 1).
  Network Net = makeFigure3Network();
  LinePartition P = lineRegions(Net, Vector{-1.0}, Vector{2.0});
  ASSERT_EQ(P.numPieces(), 3);
  // Breakpoints in t-space over [-1, 2]: x = 0 at t = 1/3, x = 1 at 2/3.
  EXPECT_NEAR(P.Ts[0], 0.0, 1e-12);
  EXPECT_NEAR(P.Ts[1], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(P.Ts[2], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(P.Ts[3], 1.0, 1e-12);
}

TEST(LineTransform, EndpointsAlwaysPresent) {
  Network Net = makeFigure3Network();
  LinePartition P = lineRegions(Net, Vector{0.2}, Vector{0.8});
  // Entirely inside one region.
  ASSERT_EQ(P.numPieces(), 1);
  EXPECT_DOUBLE_EQ(P.Ts.front(), 0.0);
  EXPECT_DOUBLE_EQ(P.Ts.back(), 1.0);
}

TEST(LineTransform, PointAtInterpolates) {
  LinePartition P;
  P.A = Vector{0.0, 10.0};
  P.B = Vector{2.0, 20.0};
  Vector Mid = P.pointAt(0.5);
  EXPECT_DOUBLE_EQ(Mid[0], 1.0);
  EXPECT_DOUBLE_EQ(Mid[1], 15.0);
}

class LineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LineSweep, PartitionIsAffinePerPieceAndPatternsConstant) {
  Rng R(GetParam());
  Network Net = makeRandomReluNetwork(R, 3, 8, 2, 2);
  Vector A = randomVector(R, 3, 2.0);
  Vector B = randomVector(R, 3, 2.0);
  LinePartition P = lineRegions(Net, A, B);

  ASSERT_GE(P.numPieces(), 1);
  EXPECT_DOUBLE_EQ(P.Ts.front(), 0.0);
  EXPECT_DOUBLE_EQ(P.Ts.back(), 1.0);
  for (size_t I = 0; I + 1 < P.Ts.size(); ++I)
    EXPECT_LT(P.Ts[I], P.Ts[I + 1]);

  for (int Piece = 0; Piece < P.numPieces(); ++Piece) {
    double T0 = P.Ts[static_cast<size_t>(Piece)];
    double T1 = P.Ts[static_cast<size_t>(Piece) + 1];
    // Affine on the piece: midpoint value equals endpoint average ...
    Vector Y0 = Net.evaluate(P.pointAt(T0));
    Vector Y1 = Net.evaluate(P.pointAt(T1));
    Vector Mid = Net.evaluate(P.pointAt(0.5 * (T0 + T1)));
    EXPECT_LT(Mid.maxAbsDiff((Y0 + Y1) * 0.5), 1e-7) << "piece " << Piece;
    // ... and at random interior convex combinations too.
    for (int Trial = 0; Trial < 3; ++Trial) {
      double S = R.uniform(0.05, 0.95);
      Vector Ys = Net.evaluate(P.pointAt(T0 + S * (T1 - T0)));
      Vector Expect = Y0 * (1.0 - S) + Y1 * S;
      EXPECT_LT(Ys.maxAbsDiff(Expect), 1e-7);
    }
    // Patterns agree at interior samples of the same piece.
    NetworkPattern PatMid =
        computePattern(Net, P.pointAt(P.midpoint(Piece)));
    NetworkPattern PatOther = computePattern(
        Net, P.pointAt(T0 + 0.25 * (T1 - T0) + 1e-9));
    EXPECT_TRUE(PatMid == PatOther) << "piece " << Piece;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LineSweep,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(LineTransform, MaxPoolCrossingsSubdivide) {
  // conv-free network with a maxpool: regions change where window
  // entries cross.
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{1.0}, {-1.0}, {0.5}, {0.0}}),
      Vector{0.0, 0.0, 0.0, 0.2}));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(1, 2, 2, 2, 2, 2));
  LinePartition P = lineRegions(Net, Vector{-2.0}, Vector{2.0});
  ASSERT_GE(P.numPieces(), 2);
  // Function is max(x, -x, x/2, 0.2): affine per piece.
  for (int Piece = 0; Piece < P.numPieces(); ++Piece) {
    double T0 = P.Ts[static_cast<size_t>(Piece)];
    double T1 = P.Ts[static_cast<size_t>(Piece) + 1];
    Vector Y0 = Net.evaluate(P.pointAt(T0));
    Vector Y1 = Net.evaluate(P.pointAt(T1));
    Vector Mid = Net.evaluate(P.pointAt(0.5 * (T0 + T1)));
    EXPECT_LT(Mid.maxAbsDiff((Y0 + Y1) * 0.5), 1e-9);
  }
}

TEST(LineTransform, HardTanhDoubleThreshold) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{1.0}}), Vector{0.0}));
  Net.addLayer(std::make_unique<HardTanhLayer>(1));
  LinePartition P = lineRegions(Net, Vector{-3.0}, Vector{3.0});
  // Pieces: [-3,-1], [-1,1], [1,3].
  ASSERT_EQ(P.numPieces(), 3);
  EXPECT_NEAR(P.Ts[1], (-1.0 + 3.0) / 6.0, 1e-9);
}

// --- 2-D -----------------------------------------------------------------

class PlaneSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlaneSweep, RegionsTileThePolygonAndAreAffine) {
  Rng R(GetParam());
  Network Net = makeRandomReluNetwork(R, 4, 6, 2, 2);

  // An axis-aligned square embedded in a random 2-D affine subspace.
  Vector Origin = randomVector(R, 4);
  Vector E1 = randomVector(R, 4);
  Vector E2 = randomVector(R, 4);
  auto At = [&](double S, double T) {
    Vector V = Origin;
    V += E1 * S;
    V += E2 * T;
    return V;
  };
  std::vector<Vector> Polygon = {At(0, 0), At(1, 0), At(1, 1), At(0, 1)};

  std::vector<PlaneRegion> Regions = planeRegions(Net, Polygon);
  ASSERT_GE(Regions.size(), 1u);

  // Area conservation in the plane frame.
  double TotalArea = 0.0;
  for (const PlaneRegion &Region : Regions)
    TotalArea += Region.area();
  // The square's area in the orthonormal plane frame equals the area of
  // the parallelogram-mapped unit square: compute it from the frame.
  PlaneRegion Whole;
  Whole.InputVertices = Polygon;
  // Recompute expected area via the cross-product formula in the plane.
  double L1 = E1.norm2();
  Vector E2Orth = E2;
  Vector Proj = E1 * (E2.dot(E1) / (L1 * L1));
  E2Orth -= Proj;
  double ExpectedArea = L1 * E2Orth.norm2();
  EXPECT_NEAR(TotalArea, ExpectedArea, 1e-6 * ExpectedArea);

  // Affine within each region; pattern constant at interior points.
  for (const PlaneRegion &Region : Regions) {
    Vector C = Region.centroid();
    Vector Yc = Net.evaluate(C);
    NetworkPattern Pat = computePattern(Net, C);
    int N = static_cast<int>(Region.InputVertices.size());
    // Midpoint of centroid and each vertex stays in the (convex) region.
    for (int I = 0; I < N; ++I) {
      Vector MidPoint = (Region.InputVertices[static_cast<size_t>(I)] + C) *
                        0.5;
      Vector Expected =
          (Net.evaluate(Region.InputVertices[static_cast<size_t>(I)]) + Yc) *
          0.5;
      EXPECT_LT(Net.evaluate(MidPoint).maxAbsDiff(Expected), 1e-6);
      // Interior points share the centroid's pattern.
      Vector Inner = C;
      Inner += (Region.InputVertices[static_cast<size_t>(I)] - C) * 0.9;
      Vector YInner = Net.evaluate(Inner);
      Vector YLinear = Yc + (Net.evaluate(MidPoint) - Yc) * (0.9 / 0.5);
      EXPECT_LT(YInner.maxAbsDiff(YLinear), 1e-5);
    }
    (void)Pat;
  }
}

TEST_P(PlaneSweep, RegionsMatchFrozenReference) {
  // The polygon of RegionsTileThePolygonAndAreAffine, drawn the same way.
  Rng R(GetParam());
  Network Net = makeRandomReluNetwork(R, 4, 6, 2, 2);
  Vector Origin = randomVector(R, 4);
  Vector E1 = randomVector(R, 4);
  Vector E2 = randomVector(R, 4);
  std::vector<Vector> Polygon = {Origin, Origin + E1, Origin + E1 + E2,
                                 Origin + E2};
  expectMatchesReference(Net, Polygon,
                         "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlaneSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST(PlaneTransform, RegionsMatchFrozenReferenceForEveryActivation) {
  // ReLU and LeakyReLU split at 0; HardTanh at -1 and then 1, so one
  // unit can split a polygon twice.
  auto Relu = [](int Size) { return std::make_unique<ReLULayer>(Size); };
  auto Leaky = [](int Size) {
    return std::make_unique<LeakyReLULayer>(Size, 0.1);
  };
  auto HardTanh = [](int Size) {
    return std::make_unique<HardTanhLayer>(Size);
  };
  for (std::uint64_t Seed : {41, 42, 43}) {
    Rng R(Seed);
    Network ReluNet = makeActivationNetwork(R, 3, 8, 3, 2, Relu);
    Network LeakyNet = makeActivationNetwork(R, 3, 8, 3, 2, Leaky);
    Network TanhNet = makeActivationNetwork(R, 3, 8, 3, 2, HardTanh);
    std::vector<Vector> Polygon = randomSquare(R, 3, 2.0);
    std::string Tag = " seed " + std::to_string(Seed);
    EXPECT_GT(planeRegions(TanhNet, Polygon).size(), 1u) << Tag;
    expectMatchesReference(ReluNet, Polygon, "relu" + Tag);
    expectMatchesReference(LeakyNet, Polygon, "leaky relu" + Tag);
    expectMatchesReference(TanhNet, Polygon, "hardtanh" + Tag);
  }
}

TEST(PlaneTransform, RegionsMatchFrozenReferenceOnAcasShapedNetwork) {
  // 5 inputs and 5 hidden ReLU layers of 12: the shape of the ACAS
  // networks Task 3 slices.
  Rng R(45);
  Network Net = makeActivationNetwork(
      R, 5, 12, 5, 5, [](int Size) { return std::make_unique<ReLULayer>(Size); });
  for (int Slice = 0; Slice < 4; ++Slice) {
    std::vector<Vector> Polygon = randomSquare(R, 5, 1.0);
    EXPECT_GT(planeRegions(Net, Polygon).size(), 10u) << "slice " << Slice;
    expectMatchesReference(Net, Polygon, "slice " + std::to_string(Slice));
  }
}

TEST(PlaneTransform, KeyPointSpecMatchesFrozenReferenceAtEveryPoolSize) {
  // keyPoints runs one transform per polytope on the pool; every key
  // point is a region vertex, in polytope then region order.
  Rng R(47);
  Network Net = makeActivationNetwork(
      R, 5, 12, 5, 5, [](int Size) { return std::make_unique<ReLULayer>(Size); });
  PolytopeSpec Spec;
  std::vector<Vector> Want;
  for (int P = 0; P < 3; ++P) {
    std::vector<Vector> Polygon = randomSquare(R, 5, 1.0);
    for (const PlaneRegion &Region : reference::planeRegions(Net, Polygon))
      Want.insert(Want.end(), Region.InputVertices.begin(),
                  Region.InputVertices.end());
    Spec.push_back(SpecPolytope{PlanePolytope{std::move(Polygon)},
                                classificationConstraint(5, P)});
  }
  std::vector<PointSpec> Runs;
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    Runs.push_back(keyPointSpec(Net, Spec));
  }
  setGlobalThreadCount(defaultThreadCount());
  for (const PointSpec &Points : Runs) {
    ASSERT_EQ(Points.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_TRUE(sameBits(Points[I].X, Want[I])) << "key point " << I;
  }
  for (size_t I = 0; I < Want.size(); ++I) {
    ASSERT_TRUE(Runs[0][I].Pattern && Runs[1][I].Pattern);
    EXPECT_TRUE(*Runs[0][I].Pattern == *Runs[1][I].Pattern)
        << "key point " << I;
  }
}

TEST(PlaneTransform, ImproperPlanesAreRecognized) {
  Vector O{0.0, 0.0}, A{1.0, 0.0}, B{1.0, 1.0}, C{2.0, 2.0};
  EXPECT_TRUE(isProperPlane({O, A, B}));
  EXPECT_FALSE(isProperPlane({O, A}));                    // 2 vertices
  EXPECT_FALSE(isProperPlane({O, O, A}));                 // first edge 0
  EXPECT_FALSE(isProperPlane({O, B, C}));                 // collinear
  EXPECT_FALSE(isProperPlane({O, A, Vector{1.0, 0.0, 0.0}})); // sizes
  // A proper frame, but the deduplicated polygon has no area.
  EXPECT_FALSE(isProperPlane({O, A, Vector{2.0, 1e-8}, A}));
}

TEST(PlaneTransform, SingleRegionForAffineNetwork) {
  Rng R(31);
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 3, 3),
                                                     randomVector(R, 3)));
  std::vector<Vector> Polygon = {Vector{0.0, 0.0, 0.0}, Vector{1.0, 0.0, 0.0},
                                 Vector{1.0, 1.0, 0.0}, Vector{0.0, 1.0, 0.0}};
  std::vector<PlaneRegion> Regions = planeRegions(Net, Polygon);
  ASSERT_EQ(Regions.size(), 1u);
  EXPECT_NEAR(Regions[0].area(), 1.0, 1e-9);
}

TEST(PlaneTransform, SplitCountMatchesSimpleGeometry) {
  // One ReLU over x: splits the square into x<0 and x>0 halves.
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{1.0, 0.0}}), Vector{0.0}));
  Net.addLayer(std::make_unique<ReLULayer>(1));
  std::vector<Vector> Polygon = {Vector{-1.0, -1.0}, Vector{1.0, -1.0},
                                 Vector{1.0, 1.0}, Vector{-1.0, 1.0}};
  std::vector<PlaneRegion> Regions = planeRegions(Net, Polygon);
  ASSERT_EQ(Regions.size(), 2u);
  EXPECT_NEAR(Regions[0].area() + Regions[1].area(), 4.0, 1e-9);
  EXPECT_NEAR(Regions[0].area(), 2.0, 1e-9);
}

} // namespace
