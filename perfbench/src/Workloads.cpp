//===- perfbench/src/Workloads.cpp ----------------------------------------===//

#include "Workloads.h"

#include "BenchUtil.h"

#include <cstring>
#include <stdexcept>

using namespace prdnn;
using namespace prdnn::data;

namespace perfbench {

namespace {

/// Judging tolerance of a spec point on the repaired DDNN: the
/// library's own re-verification bound (100 * FeasTol + 1e-9 with the
/// default FeasTol of 1e-7), rounded up.
constexpr double kSpecTol = 1e-5;

/// Classification margin of fog-line and Task 1 constraints.
constexpr double kMargin = 1e-4;

Vector lerp(const Vector &A, const Vector &B, double T) {
  Vector X = B;
  X -= A;
  X *= T;
  X += A;
  return X;
}

/// Bilinear point of a slice given by its four corners (in order).
Vector slicePoint(const std::vector<Vector> &Corners, double SA, double SB) {
  Vector X = Corners[0] * ((1 - SA) * (1 - SB));
  X += Corners[1] * (SA * (1 - SB));
  X += Corners[2] * (SA * SB);
  X += Corners[3] * ((1 - SA) * SB);
  return X;
}

// --- Task 2: digits and fog lines --------------------------------------------

using FogLine = bench::Task2Workload::Line;

/// The digits model of Task 2 plus its first \p NumLines clean -> fog
/// lines, as every Task 2 bench builds them.
std::vector<FogLine> addDigitsModel(WorkloadData &W, int NumLines) {
  bench::Task2Workload T = bench::makeTask2Workload(NumLines);
  auto M = std::make_unique<Model>();
  M->Name = "digits";
  M->Net = std::make_shared<const Network>(std::move(T.Net));
  M->Drawdown = std::move(T.CleanTest);
  M->Generalization = std::move(T.FogTest);
  M->DrawdownBefore = T.CleanAccuracy;
  M->GeneralizationBefore = T.FogAccuracy;
  W.Models.push_back(std::move(M));
  return std::move(T.Lines);
}

/// Segment polytope request over the lines [First, Last) at \p Layer
/// (task2Spec of one group), with 25 dense samples per line.
PoolEntry fogEntry(const Model &M, std::vector<FogLine>::const_iterator First,
                   std::vector<FogLine>::const_iterator Last, int Layer,
                   const std::string &Name) {
  PolytopeSpec Spec;
  PoolEntry E;
  E.Name = Name;
  E.M = &M;
  for (auto L = First; L != Last; ++L) {
    Spec.push_back(SpecPolytope{SegmentPolytope{L->Clean, L->Fogged},
                                classificationConstraint(kDigitClasses,
                                                         L->Label, kMargin)});
    const int Steps = 24;
    for (int K = 0; K <= Steps; ++K) {
      E.Dense.Xs.push_back(lerp(L->Clean, L->Fogged, double(K) / Steps));
      E.Dense.Labels.push_back(L->Label);
    }
  }
  E.Request = RepairRequest::polytopes(M.Net, Layer, std::move(Spec));
  return E;
}

// --- Task 3: ACAS slices -----------------------------------------------------

/// Advisory violations of \p Net on a 17x17 grid over \p Slice.
int sliceViolations(const Network &Net, const std::vector<Vector> &Slice,
                    std::vector<Vector> *Out) {
  const int Grid = 16;
  int Violations = 0;
  for (int A = 0; A <= Grid; ++A)
    for (int B = 0; B <= Grid; ++B) {
      Vector X = slicePoint(Slice, double(A) / Grid, double(B) / Grid);
      if (!acasSafeAdvisory(Net.classify(X))) {
        ++Violations;
        if (Out)
          Out->push_back(std::move(X));
      }
    }
  return Violations;
}

struct AcasSetup {
  std::unique_ptr<Model> M;
  std::vector<std::vector<Vector>> Slices;
  int Scans = 0;
};

/// Trains the buggy ACAS net and finds \p NumSlices violating slices for
/// repair plus \p NumOther more whose counterexamples form the
/// generalization set. Throws when no violating slice exists.
AcasSetup makeAcas(int NumSlices, int NumOther, int SetSize) {
  AcasSetup A;
  A.M = std::make_unique<Model>();
  Model &M = *A.M;
  M.Name = "acas";
  M.Safety = true;
  Rng R(9201);
  M.Net = std::make_shared<const Network>(
      trainAcasNetwork(/*Hidden=*/12, /*TrainCount=*/3000, /*Epochs=*/10, R));

  Rng SliceR(3003);
  const int MaxScans = 40000;
  int OtherFound = 0;
  while (A.Scans < MaxScans &&
         (static_cast<int>(A.Slices.size()) < NumSlices ||
          OtherFound < NumOther)) {
    ++A.Scans;
    std::vector<Vector> Slice = randomSafeSlice(SliceR);
    if (static_cast<int>(A.Slices.size()) < NumSlices) {
      if (sliceViolations(*M.Net, Slice, nullptr) > 0)
        A.Slices.push_back(std::move(Slice));
      continue;
    }
    std::vector<Vector> Found;
    if (sliceViolations(*M.Net, Slice, &Found) == 0)
      continue;
    ++OtherFound;
    for (Vector &X : Found)
      if (M.Generalization.size() < SetSize)
        M.Generalization.push(std::move(X), -1);
  }
  if (A.Slices.empty())
    throw std::runtime_error("acas: no violating slice in " +
                             std::to_string(A.Scans) + " scans");

  // Drawdown set: random states the buggy network already gets right.
  Rng DrawR(3004);
  while (M.Drawdown.size() < SetSize) {
    Vector X(kAcasInputs);
    for (int J = 0; J < kAcasInputs; ++J)
      X[J] = DrawR.uniform(-1.0, 1.0);
    int Truth = acasAdvisory(X);
    if (M.Net->classify(X) == Truth)
      M.Drawdown.push(std::move(X), Truth);
  }
  M.DrawdownBefore = 1.0;
  M.GeneralizationBefore = 0.0;
  return A;
}

PolytopeSpec sliceSpec(const std::vector<Vector> &Slice) {
  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{PlanePolytope{Slice},
                              classificationConstraint(kAcasAdvisories,
                                                       AcasCoc)});
  return Spec;
}

void addSliceDense(DenseSamples &D, const std::vector<Vector> &Slice) {
  const int Grid = 25;
  for (int A = 0; A <= Grid; ++A)
    for (int B = 0; B <= Grid; ++B) {
      D.Xs.push_back(slicePoint(Slice, double(A) / Grid, double(B) / Grid));
      D.Labels.push_back(-1);
    }
}

// --- Task 1: ShapeWorld conv net ---------------------------------------------

struct ShapesSetup {
  std::unique_ptr<Model> M;
  Dataset Adversarials, Anchors;
};

ShapesSetup makeShapes(int Requests, int PerRequest) {
  ShapesSetup S;
  S.M = std::make_unique<Model>();
  Model &M = *S.M;
  M.Name = "shapes";
  Rng R(1001);
  M.Net = std::make_shared<const Network>(
      trainShapeClassifier(/*TrainCount=*/900, /*Epochs=*/6, R));
  Rng EvalR(1002);
  M.Drawdown = makeShapeWorld(450, EvalR);
  Rng AdvR(1003);
  // Spec adversarials first, then an equal number held out for
  // generalization.
  Dataset All = makeNaturalAdversarials(*M.Net, 2 * Requests * PerRequest,
                                        AdvR);
  for (int I = 0; I < All.size(); ++I) {
    if (I < Requests * PerRequest)
      S.Adversarials.push(All.Inputs[I], All.Labels[I]);
    else
      M.Generalization.push(All.Inputs[I], All.Labels[I]);
  }
  Rng AnchorR(1004);
  while (S.Anchors.size() < Requests * PerRequest) {
    int Shape = S.Anchors.size() % kShapeClasses;
    Vector Image = makeShapeImage(Shape, AnchorR);
    if (M.Net->classify(Image) == Shape)
      S.Anchors.push(std::move(Image), Shape);
  }
  M.DrawdownBefore =
      accuracy(*M.Net, M.Drawdown.Inputs, M.Drawdown.Labels);
  M.GeneralizationBefore =
      accuracy(*M.Net, M.Generalization.Inputs, M.Generalization.Labels);
  return S;
}

PoolEntry task1Entry(const ShapesSetup &S, int Request, int PerRequest,
                     int Layer) {
  PoolEntry E;
  E.Name = "task1.L" + std::to_string(Layer);
  E.M = S.M.get();
  PointSpec Spec;
  for (const Dataset *D : {&S.Adversarials, &S.Anchors})
    for (int I = Request * PerRequest; I < (Request + 1) * PerRequest; ++I) {
      Spec.push_back({D->Inputs[I],
                      classificationConstraint(kShapeClasses, D->Labels[I],
                                               kMargin),
                      std::nullopt});
      E.Dense.Xs.push_back(D->Inputs[I]);
      E.Dense.Labels.push_back(D->Labels[I]);
    }
  E.Request = RepairRequest::points(S.M->Net, Layer, std::move(Spec));
  return E;
}

// --- Workload assembly -------------------------------------------------------

void buildFogLines(WorkloadData &W, const Sizes &S) {
  const int Small = S.Fog10Groups * S.SmallLines;
  const std::vector<FogLine> Lines =
      addDigitsModel(W, Small + S.Fog25Groups * S.LargeLines);
  const Model &M = *W.Models.back();
  std::vector<int> Layers = M.Net->parameterizedLayerIndices();
  for (int G = 0; G < S.Fog10Groups + S.Fog25Groups; ++G) {
    const bool Large = G >= S.Fog10Groups;
    const int Size = Large ? S.LargeLines : S.SmallLines;
    auto First = Lines.begin() + (Large ? Small + (G - S.Fog10Groups) * Size
                                        : G * Size);
    std::string Tag = "fog" + std::to_string(Size) + ".g" +
                      std::to_string(Large ? G - S.Fog10Groups : G);
    for (int Layer : {Layers[1], Layers[2]})
      W.Pool.push_back(fogEntry(M, First, First + Size, Layer,
                                Tag + ".L" + std::to_string(Layer)));
  }
}

void recordAcas(WorkloadData &W, const AcasSetup &A) {
  W.AcasScans = A.Scans;
  W.AcasSliceCount = static_cast<int>(A.Slices.size());
}

void buildAcasSlices(WorkloadData &W, const Sizes &S) {
  AcasSetup A = makeAcas(S.AcasSlices, S.AcasOther, S.AcasSetSize);
  recordAcas(W, A);
  W.Models.push_back(std::move(A.M));
  const Model &M = *W.Models.back();
  for (size_t I = 0; I < A.Slices.size(); ++I) {
    PoolEntry E;
    E.Name = "acas.s" + std::to_string(I);
    E.M = &M;
    E.Slice = sliceSpec(A.Slices[I]);
    int Regions = 0;
    PointSpec Points = acasKeyPoints(*M.Net, *E.Slice, nullptr, &Regions);
    W.AcasRegions += Regions;
    W.AcasKeyPoints += static_cast<int>(Points.size());
    E.Request = RepairRequest::points(M.Net, kAutoLayer, std::move(Points));
    addSliceDense(E.Dense, A.Slices[I]);
    W.Pool.push_back(std::move(E));
  }
}

void buildServedRepeats(WorkloadData &W, const Sizes &S) {
  // Task 2: fog10 groups at both layers, exact and with one more line.
  const std::vector<FogLine> Lines =
      addDigitsModel(W, S.ServedFogGroups * (S.SmallLines + 1));
  const Model &Digits = *W.Models.back();
  std::vector<int> DigitLayers = Digits.Net->parameterizedLayerIndices();
  for (int G = 0; G < S.ServedFogGroups; ++G) {
    auto First = Lines.begin() + G * (S.SmallLines + 1);
    std::string Tag = "fog" + std::to_string(S.SmallLines) + ".g" +
                      std::to_string(G);
    for (int Layer : {DigitLayers[1], DigitLayers[2]}) {
      std::string L = ".L" + std::to_string(Layer);
      W.Pool.push_back(
          fogEntry(Digits, First, First + S.SmallLines, Layer, Tag + L));
      W.Pool.push_back(fogEntry(Digits, First, First + S.SmallLines + 1,
                                Layer, Tag + "+1" + L));
    }
  }

  // Task 3: single-slice sweeps, and pairs whose prefix is one of them.
  AcasSetup A = makeAcas(S.ServedAcasSlices, S.AcasOther / 2,
                         S.AcasSetSize / 2);
  recordAcas(W, A);
  W.Models.push_back(std::move(A.M));
  const Model &Acas = *W.Models.back();
  std::vector<PointSpec> SlicePoints;
  for (const auto &Slice : A.Slices) {
    int Regions = 0;
    SlicePoints.push_back(
        acasKeyPoints(*Acas.Net, sliceSpec(Slice), nullptr, &Regions));
    W.AcasRegions += Regions;
    W.AcasKeyPoints += static_cast<int>(SlicePoints.back().size());
  }
  for (size_t I = 0; I < A.Slices.size(); ++I) {
    PoolEntry E;
    E.Name = "acas.s" + std::to_string(I);
    E.M = &Acas;
    addSliceDense(E.Dense, A.Slices[I]);
    E.Request = RepairRequest::points(Acas.Net, kAutoLayer, SlicePoints[I]);
    W.Pool.push_back(std::move(E));
    if (I % 2 == 1 || I + 1 >= A.Slices.size())
      continue;
    PoolEntry V;
    V.Name = "acas.s" + std::to_string(I) + "+1";
    V.M = &Acas;
    addSliceDense(V.Dense, A.Slices[I]);
    addSliceDense(V.Dense, A.Slices[I + 1]);
    PointSpec Both = SlicePoints[I];
    Both.insert(Both.end(), SlicePoints[I + 1].begin(),
                SlicePoints[I + 1].end());
    V.Request = RepairRequest::points(Acas.Net, kAutoLayer, std::move(Both));
    W.Pool.push_back(std::move(V));
  }

  // Task 1: Algorithm 1 on the conv net, one request per repairable
  // layer (it has four).
  const int Task1Layers = 4;
  ShapesSetup Shapes = makeShapes(Task1Layers, S.Task1Points);
  std::vector<int> ShapeLayers = Shapes.M->Net->parameterizedLayerIndices();
  if (static_cast<int>(ShapeLayers.size()) != Task1Layers)
    throw std::runtime_error("shapes: expected four repairable layers");
  for (int I = 0; I < Task1Layers; ++I)
    W.Pool.push_back(task1Entry(Shapes, I, S.Task1Points,
                                ShapeLayers[static_cast<size_t>(I)]));
  W.Models.push_back(std::move(Shapes.M));
}

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

bool sameBits(double A, double B) { return std::memcmp(&A, &B, 8) == 0; }

} // namespace

Rng seededRng(std::uint64_t Seed, std::uint64_t Tag) {
  return Rng(Seed * 0x100000001b3ULL + Tag * 0x9e3779b97f4a7c15ULL);
}

const char *toString(Workload W) {
  switch (W) {
  case Workload::FogLines:
    return "fog-lines";
  case Workload::AcasSlices:
    return "acas-slices";
  case Workload::ServedRepeats:
    return "served-repeats";
  }
  return "unknown";
}

std::optional<Workload> parseWorkload(const std::string &Name) {
  for (Workload W : {Workload::FogLines, Workload::AcasSlices,
                     Workload::ServedRepeats})
    if (Name == toString(W))
      return W;
  return std::nullopt;
}

Sizes Sizes::smoke() {
  Sizes S;
  S.Fog10Groups = 1;
  S.Fog25Groups = 1;
  S.SmallLines = 2;
  S.LargeLines = 3;
  S.AcasSlices = 2;
  S.AcasOther = 2;
  S.AcasSetSize = 200;
  S.ServedFogGroups = 1;
  S.ServedAcasSlices = 2;
  S.Task1Points = 3;
  return S;
}

PointSpec acasKeyPoints(const Network &Net, const PolytopeSpec &Slice,
                        double *LinRegionsSeconds, int *Regions) {
  PointSpec Points = keyPointSpec(Net, Slice, LinRegionsSeconds, Regions);
  for (SpecPoint &P : Points) {
    Vector Y = evaluateWithPattern(Net, P.X, *P.Pattern);
    int Target = Y[AcasCoc] >= Y[AcasWeakLeft] ? AcasCoc : AcasWeakLeft;
    P.Constraint = classificationConstraint(kAcasAdvisories, Target, 1e-5);
  }
  return Points;
}

WorkloadData buildWorkload(Workload Kind, const Sizes &S) {
  WorkloadData W;
  W.Kind = Kind;
  switch (Kind) {
  case Workload::FogLines:
    buildFogLines(W, S);
    break;
  case Workload::AcasSlices:
    buildAcasSlices(W, S);
    break;
  case Workload::ServedRepeats:
    buildServedRepeats(W, S);
    break;
  }
  for (const PoolEntry &E : W.Pool)
    if (const auto *Points = std::get_if<PointSpec>(&E.Request.Spec);
        Points && Points->empty())
      throw std::runtime_error(E.Name + ": empty key-point spec");

  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine Serial(SerialOptions);
  for (PoolEntry &E : W.Pool)
    E.Twin = Serial.run(E.Request);
  return W;
}

std::string checkReport(const PoolEntry &E, const RepairReport &R,
                        bool Dense) {
  const RepairReport &T = E.Twin;
  if (R.Status != T.Status)
    return std::string("status ") + prdnn::toString(R.Status) +
           ", reference " + prdnn::toString(T.Status);
  if (R.RepairedLayer != T.RepairedLayer)
    return "repaired layer " + std::to_string(R.RepairedLayer) +
           ", reference " + std::to_string(T.RepairedLayer);
  if (!sameBits(R.Result.Delta, T.Result.Delta) ||
      !sameBits(R.Result.DeltaL1, T.Result.DeltaL1))
    return "Delta differs from the reference";
  if (R.Status != RepairStatus::Success)
    return "";
  if (!R.Result.Repaired)
    return "success without a repaired network";
  const DecoupledNetwork &D = *R.Result.Repaired;

  if (const auto *Points = std::get_if<PointSpec>(&E.Request.Spec)) {
    for (const SpecPoint &P : *Points) {
      Vector Y = P.Pattern ? D.evaluateWithPattern(P.X, *P.Pattern)
                           : D.evaluate(P.X);
      if (P.Constraint.violation(Y) > kSpecTol)
        return "spec point violated by the repaired network";
    }
  } else {
    for (const SpecPolytope &P : std::get<PolytopeSpec>(E.Request.Spec)) {
      std::vector<Vector> Corners;
      if (const auto *Seg = std::get_if<SegmentPolytope>(&P.Shape))
        Corners = {Seg->A, Seg->B};
      else
        Corners = std::get<PlanePolytope>(P.Shape).Vertices;
      for (const Vector &X : Corners)
        if (P.Constraint.violation(D.evaluate(X)) > kSpecTol)
          return "polytope vertex violated by the repaired network";
    }
  }
  if (!Dense)
    return "";
  for (size_t I = 0; I < E.Dense.Xs.size(); ++I) {
    int Advisory = D.classify(E.Dense.Xs[I]);
    bool Ok = E.Dense.Labels[I] < 0 ? acasSafeAdvisory(Advisory)
                                    : Advisory == E.Dense.Labels[I];
    if (!Ok)
      return "dense sample " + std::to_string(I) +
             " violated by the repaired network";
  }
  return "";
}

Quality measureQuality(const Model &M, const DecoupledNetwork &Net) {
  double After = 0.0;
  if (M.Safety) {
    int Safe = 0;
    for (const Vector &X : M.Generalization.Inputs)
      Safe += acasSafeAdvisory(Net.classify(X)) ? 1 : 0;
    After = M.Generalization.size() == 0
                ? 0.0
                : double(Safe) / M.Generalization.size();
  } else {
    After = Net.accuracy(M.Generalization.Inputs, M.Generalization.Labels);
  }
  Quality Q;
  Q.DrawdownAccPct =
      100.0 * Net.accuracy(M.Drawdown.Inputs, M.Drawdown.Labels);
  Q.GeneralizationAccPct = 100.0 * After;
  Q.DrawdownPct = 100.0 * M.DrawdownBefore - Q.DrawdownAccPct;
  Q.GeneralizationPct = Q.GeneralizationAccPct - 100.0 * M.GeneralizationBefore;
  return Q;
}

} // namespace perfbench
