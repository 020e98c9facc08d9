//===- syrenn/PlaneTransform.cpp ----------------------------------------------===//

#include "syrenn/PlaneTransform.h"

#include "nn/ActivationLayers.h"
#include "support/Casting.h"

#include <cassert>
#include <cmath>
#include <optional>

using namespace prdnn;

std::size_t PlaneRegion::approxBytes() const {
  std::size_t Total = sizeof(*this) +
                      PlaneVertices.size() * sizeof(std::pair<double, double>);
  for (const Vector &V : InputVertices)
    Total += sizeof(Vector) +
             static_cast<std::size_t>(V.size()) * sizeof(double);
  return Total;
}

Vector PlaneRegion::centroid() const {
  assert(!InputVertices.empty() && "centroid of empty polygon");
  Vector Sum(InputVertices.front().size());
  for (const Vector &V : InputVertices)
    Sum += V;
  Sum *= 1.0 / static_cast<double>(InputVertices.size());
  return Sum;
}

double PlaneRegion::area() const {
  double Twice = 0.0;
  int N = static_cast<int>(PlaneVertices.size());
  for (int I = 0; I < N; ++I) {
    const auto &[X1, Y1] = PlaneVertices[static_cast<size_t>(I)];
    const auto &[X2, Y2] = PlaneVertices[static_cast<size_t>((I + 1) % N)];
    Twice += X1 * Y2 - X2 * Y1;
  }
  return 0.5 * std::fabs(Twice);
}

namespace {

/// Working polygon: input-space vertices, plane coordinates, and the
/// current layer's value at each vertex.
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

/// Removes consecutive (plane-coordinate) duplicates, in place.
void dedupe(WorkPolygon &Poly) {
  int N = Poly.size();
  int Kept = 0;
  for (int I = 0; I < N; ++I) {
    // Slot Prev is still unwritten: a kept vertex moves to a slot at or
    // below its own index.
    int Prev = (I + N - 1) % N;
    double Dx = Poly.Plane[I].first - Poly.Plane[Prev].first;
    double Dy = Poly.Plane[I].second - Poly.Plane[Prev].second;
    if (N > 1 && Dx * Dx + Dy * Dy < 1e-22)
      continue;
    if (Kept != I) {
      Poly.Input[Kept] = std::move(Poly.Input[I]);
      Poly.Plane[Kept] = Poly.Plane[I];
      Poly.Vals[Kept] = std::move(Poly.Vals[I]);
    }
    ++Kept;
  }
  Poly.Input.erase(Poly.Input.begin() + Kept, Poly.Input.end());
  Poly.Plane.erase(Poly.Plane.begin() + Kept, Poly.Plane.end());
  Poly.Vals.erase(Poly.Vals.begin() + Kept, Poly.Vals.end());
}

bool isDegenerate(const WorkPolygon &Poly) {
  return Poly.size() < 3 || std::fabs(planeArea(Poly.Plane)) < 1e-14;
}

/// \p Polygon in an orthonormal frame (U1, U2) of its plane, with
/// consecutive repeats removed; nullopt when the first edge has zero
/// length, every vertex lies on the first edge's line, or what is left
/// has no area.
std::optional<WorkPolygon> framePolygon(const std::vector<Vector> &Polygon) {
  if (Polygon.size() < 3)
    return std::nullopt;
  const Vector &Origin = Polygon.front();
  for (const Vector &V : Polygon)
    if (V.size() != Origin.size())
      return std::nullopt;
  Vector U1 = Polygon[1];
  U1 -= Origin;
  double N1 = U1.norm2();
  if (!(N1 > 1e-12))
    return std::nullopt;
  U1 *= 1.0 / N1;
  Vector U2;
  bool HaveU2 = false;
  for (size_t I = 2; I < Polygon.size() && !HaveU2; ++I) {
    Vector W = Polygon[I];
    W -= Origin;
    Vector Proj = U1 * W.dot(U1);
    W -= Proj;
    double N2 = W.norm2();
    if (N2 > 1e-9) {
      W *= 1.0 / N2;
      U2 = std::move(W);
      HaveU2 = true;
    }
  }
  if (!HaveU2)
    return std::nullopt;

  WorkPolygon Framed;
  for (const Vector &V : Polygon) {
    Vector Rel = V;
    Rel -= Origin;
    Framed.Input.push_back(V);
    Framed.Plane.push_back({Rel.dot(U1), Rel.dot(U2)});
    Framed.Vals.push_back(V);
  }
  dedupe(Framed);
  if (isDegenerate(Framed))
    return std::nullopt;
  return Framed;
}

/// Fills \p D with the signed distances value[Unit] - Threshold of
/// \p Poly's vertices and returns whether the level set
/// {value[Unit] == Threshold} crosses the polygon: some vertex lies
/// beyond \p Eps on each side.
bool crossedBy(const WorkPolygon &Poly, int Unit, double Threshold,
               std::vector<double> &D, double &Eps) {
  int N = Poly.size();
  D.resize(static_cast<size_t>(N));
  double Scale = 0.0;
  for (int I = 0; I < N; ++I) {
    D[I] = Poly.Vals[I][Unit] - Threshold;
    Scale = std::max(Scale, std::fabs(D[I]));
  }
  Eps = 1e-10 * std::max(1.0, Scale);

  bool AnyPos = false, AnyNeg = false;
  for (double V : D) {
    AnyPos |= V > Eps;
    AnyNeg |= V < -Eps;
  }
  return AnyPos && AnyNeg;
}

/// Appends vertex \p I of \p Poly to \p Side, moving its vectors when
/// \p Move is set.
void appendVertex(WorkPolygon &Side, WorkPolygon &Poly, int I, bool Move) {
  if (Move) {
    Side.Input.push_back(std::move(Poly.Input[I]));
    Side.Vals.push_back(std::move(Poly.Vals[I]));
  } else {
    Side.Input.push_back(Poly.Input[I]);
    Side.Vals.push_back(Poly.Vals[I]);
  }
  Side.Plane.push_back(Poly.Plane[I]);
}

/// Splits \p Poly, which the level set with signed distances \p D
/// crosses (crossedBy), and appends the non-degenerate sides to
/// \p Out: the `>=` side first, then the `<=` side. Consumes \p Poly.
void splitPolygon(WorkPolygon &Poly, const std::vector<double> &D,
                  double Eps, std::vector<WorkPolygon> &Out) {
  int N = Poly.size();
  WorkPolygon Pos, Neg;
  for (WorkPolygon *Side : {&Pos, &Neg}) {
    // A line cuts a convex polygon into sides of at most N + 1 vertices.
    Side->Input.reserve(static_cast<size_t>(N) + 1);
    Side->Plane.reserve(static_cast<size_t>(N) + 1);
    Side->Vals.reserve(static_cast<size_t>(N) + 1);
  }
  for (int I = 0; I < N; ++I) {
    int Next = (I + 1) % N;
    // The crossing point of edge (I, Next), taken before vertex I moves.
    bool Crosses = (D[I] > Eps && D[Next] < -Eps) ||
                   (D[I] < -Eps && D[Next] > Eps);
    Vector In, Val;
    std::pair<double, double> Pl;
    if (Crosses) {
      double S = D[I] / (D[I] - D[Next]);
      In = Poly.Input[Next];
      In -= Poly.Input[I];
      In *= S;
      In += Poly.Input[I];
      Val = Poly.Vals[Next];
      Val -= Poly.Vals[I];
      Val *= S;
      Val += Poly.Vals[I];
      Pl = {Poly.Plane[I].first +
                S * (Poly.Plane[Next].first - Poly.Plane[I].first),
            Poly.Plane[I].second +
                S * (Poly.Plane[Next].second - Poly.Plane[I].second)};
    }
    bool ToPos = D[I] >= -Eps, ToNeg = D[I] <= Eps;
    // Vertex 0 is read again as the last edge's end, and a vertex on the
    // line goes to both sides: those are copied.
    bool Move = I > 0 && !(ToPos && ToNeg);
    if (ToPos)
      appendVertex(Pos, Poly, I, Move);
    if (ToNeg)
      appendVertex(Neg, Poly, I, Move);
    if (!Crosses)
      continue;
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

/// Buffers one activation pass reuses from polygon to polygon.
struct SplitBuffers {
  std::vector<WorkPolygon> Cur, Next;
  std::vector<double> D;
};

/// Takes \p Poly through activation \p Act: splits it by every unit
/// (ascending) and threshold (ascending) of \p Act, keeping a polygon
/// no level set crosses as it is, then maps the children's values
/// through \p Act and appends them to \p Out in order.
void activatePolygon(WorkPolygon &&Poly, const ElementwiseActivation &Act,
                     const std::vector<double> &Thresholds,
                     SplitBuffers &Buffers, std::vector<WorkPolygon> &Out) {
  Buffers.Cur.clear();
  Buffers.Cur.push_back(std::move(Poly));
  for (int Unit = 0; Unit < Act.inputSize(); ++Unit) {
    for (double Th : Thresholds) {
      Buffers.Next.clear();
      for (WorkPolygon &Child : Buffers.Cur) {
        double Eps = 0.0;
        if (crossedBy(Child, Unit, Th, Buffers.D, Eps))
          splitPolygon(Child, Buffers.D, Eps, Buffers.Next);
        else
          Buffers.Next.push_back(std::move(Child));
      }
      std::swap(Buffers.Cur, Buffers.Next);
    }
  }
  for (WorkPolygon &Child : Buffers.Cur) {
    for (Vector &V : Child.Vals)
      V = Act.apply(V);
    Out.push_back(std::move(Child));
  }
}

} // namespace

bool prdnn::isProperPlane(const std::vector<Vector> &Polygon) {
  return framePolygon(Polygon).has_value();
}

std::vector<PlaneRegion>
prdnn::planeRegions(const Network &Net, const std::vector<Vector> &Polygon) {
  assert(Net.isPiecewiseLinear() &&
         "LinRegions requires a piecewise-linear network");
  std::optional<WorkPolygon> Initial = framePolygon(Polygon);
  assert(Initial && "plane transform needs a proper polygon");
  if (!Initial)
    return {};

  std::vector<WorkPolygon> Polys;
  Polys.push_back(std::move(*Initial));
  std::vector<WorkPolygon> Next;
  SplitBuffers Buffers;

  for (int LayerIdx = 0; LayerIdx < Net.numLayers(); ++LayerIdx) {
    const Layer &L = Net.layer(LayerIdx);
    if (L.isLinear()) {
      // Per vertex: Layer::apply is bit-for-bit one row of applyBatch.
      for (WorkPolygon &Poly : Polys)
        for (Vector &V : Poly.Vals)
          V = L.apply(V);
      continue;
    }
    const auto *Act = dyn_cast<ElementwiseActivation>(&L);
    assert(Act && "plane transform supports elementwise PWL activations "
                  "(no max-pool)");
    std::vector<double> Thresholds = Act->thresholds();
    Next.clear();
    for (WorkPolygon &Poly : Polys)
      activatePolygon(std::move(Poly), *Act, Thresholds, Buffers, Next);
    std::swap(Polys, Next);
  }

  std::vector<PlaneRegion> Result;
  Result.reserve(Polys.size());
  for (WorkPolygon &Poly : Polys) {
    PlaneRegion Region;
    Region.InputVertices = std::move(Poly.Input);
    Region.PlaneVertices = std::move(Poly.Plane);
    Result.push_back(std::move(Region));
  }
  return Result;
}
