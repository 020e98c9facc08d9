//===- bench/BenchUtil.cpp ---------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

// Provenance macros, defined by CMakeLists.txt for the bench_util
// target; fall back to "unknown" so BenchUtil.cpp still compiles when
// pulled into an ad-hoc build.
#ifndef PRDNN_GIT_SHA
#define PRDNN_GIT_SHA "unknown"
#endif
#ifndef PRDNN_BUILD_TYPE
#define PRDNN_BUILD_TYPE "unknown"
#endif

using namespace prdnn;
using namespace prdnn::bench;
using namespace prdnn::data;

void BenchJson::beginRecord() { Records.emplace_back(); }

void BenchJson::add(const std::string &Key, double Value) {
  assert(!Records.empty() && "beginRecord before add");
  Records.back().push_back({Key, Value});
}

void BenchJson::add(const std::string &Key, int Value) {
  assert(!Records.empty() && "beginRecord before add");
  Records.back().push_back({Key, Value});
}

void BenchJson::add(const std::string &Key, const std::string &Value) {
  assert(!Records.empty() && "beginRecord before add");
  Records.back().push_back({Key, Value});
}

std::string BenchJson::write() const {
  std::string FileName = "BENCH_" + Name + ".json";
  std::ofstream Os(FileName);
  if (!Os)
    return "";
  Os << "{\"bench\": \"" << Name << "\", \"git_sha\": \"" PRDNN_GIT_SHA
     << "\", \"build_type\": \"" PRDNN_BUILD_TYPE
     << "\", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ", \"records\": [";
  for (size_t R = 0; R < Records.size(); ++R) {
    Os << (R == 0 ? "\n" : ",\n") << "  {";
    const auto &Record = Records[R];
    for (size_t E = 0; E < Record.size(); ++E) {
      if (E != 0)
        Os << ", ";
      Os << '"' << Record[E].first << "\": ";
      if (const double *D = std::get_if<double>(&Record[E].second)) {
        if (!std::isfinite(*D)) {
          // NaN/Inf are not valid JSON literals.
          Os << "null";
        } else {
          char Buffer[32];
          std::snprintf(Buffer, sizeof(Buffer), "%.9g", *D);
          Os << Buffer;
        }
      } else if (const int *I = std::get_if<int>(&Record[E].second)) {
        Os << *I;
      } else {
        Os << '"';
        for (char C : std::get<std::string>(Record[E].second)) {
          if (C == '"' || C == '\\')
            Os << '\\';
          Os << C;
        }
        Os << '"';
      }
    }
    Os << "}";
  }
  Os << "\n]}\n";
  Os.close(); // surface close-time write errors in the stream state
  return Os ? FileName : "";
}

double prdnn::bench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Index = static_cast<size_t>(
      std::min<double>(static_cast<double>(Values.size()) - 1.0,
                       P * static_cast<double>(Values.size())));
  return Values[Index];
}

void prdnn::bench::addLatencyRecord(BenchJson &Json,
                                    const obs::HistogramSnapshot &Latency) {
  Json.add("p50_latency_seconds", Latency.quantile(0.50));
  Json.add("p95_latency_seconds", Latency.quantile(0.95));
  Json.add("p99_latency_seconds", Latency.quantile(0.99));
}

void prdnn::bench::writeLatencyHistogram(
    std::ostream &Os, const obs::HistogramSnapshot &Latency) {
  for (std::uint64_t Count : Latency.Counts)
    Os << "lat_bucket " << Count << "\n";
  Os << "lat_sum " << Latency.Sum << "\n";
}

obs::HistogramSnapshot prdnn::bench::latencySnapshotFromCounts(
    const std::vector<std::uint64_t> &Counts, double Sum) {
  obs::HistogramSnapshot Snapshot;
  Snapshot.Edges = obs::defaultLatencyBuckets();
  Snapshot.Counts.assign(Snapshot.Edges.size() + 1, 0);
  if (Counts.size() == Snapshot.Counts.size()) {
    Snapshot.Counts = Counts;
    Snapshot.Sum = Sum;
  }
  return Snapshot;
}

Task1Workload prdnn::bench::makeTask1Workload(int AdversarialCount) {
  Task1Workload W;
  Rng R(1001);
  W.Net = trainShapeClassifier(/*TrainCount=*/1800, /*Epochs=*/8, R);
  Rng EvalR(1002);
  W.Validation = makeShapeWorld(450, EvalR);
  Rng AdvR(1003);
  W.Adversarials = makeNaturalAdversarials(W.Net, AdversarialCount, AdvR);
  // Anchor pool: fresh in-distribution images the network already gets
  // right (disjoint from the validation/drawdown set by seed).
  Rng AnchorR(1004);
  while (W.Anchors.size() < 200) {
    int Shape = W.Anchors.size() % kShapeClasses;
    Vector Image = makeShapeImage(Shape, AnchorR);
    if (W.Net.classify(Image) == Shape)
      W.Anchors.push(std::move(Image), Shape);
  }
  W.ValidationAccuracy =
      accuracy(W.Net, W.Validation.Inputs, W.Validation.Labels);
  W.AdversarialAccuracy =
      accuracy(W.Net, W.Adversarials.Inputs, W.Adversarials.Labels);
  return W;
}

PointSpec prdnn::bench::task1Spec(const Task1Workload &W, int Count,
                                  int AnchorCount) {
  assert(Count <= W.Adversarials.size() && "repair pool too small");
  assert(AnchorCount <= W.Anchors.size() && "anchor pool too small");
  PointSpec Spec;
  for (int I = 0; I < Count; ++I)
    Spec.push_back({W.Adversarials.Inputs[I],
                    classificationConstraint(kShapeClasses,
                                             W.Adversarials.Labels[I], 1e-4),
                    std::nullopt});
  for (int I = 0; I < AnchorCount; ++I)
    Spec.push_back({W.Anchors.Inputs[I],
                    classificationConstraint(kShapeClasses,
                                             W.Anchors.Labels[I], 1e-4),
                    std::nullopt});
  return Spec;
}

Task2Workload prdnn::bench::makeTask2Workload(int MaxLines) {
  Task2Workload W;
  Rng R(2001);
  W.Net = trainDigitClassifier(/*Hidden=*/32, /*TrainCount=*/2500,
                               /*Epochs=*/14, R);
  Rng EvalR(2002);
  W.CleanTest = makeDigits(1000, EvalR);
  Rng FogR(2003);
  for (int I = 0; I < W.CleanTest.size(); ++I)
    W.FogTest.push(fogCorrupt(W.CleanTest.Inputs[I], kDigitImage,
                              kDigitImage, FogR.uniform(0.5, 0.75), FogR),
                   W.CleanTest.Labels[I]);

  // Repair lines: clean digit -> its fogged version, anchored at
  // correctly-classified clean images (as in the paper's construction).
  Rng LineR(2004);
  int Correct2 = 0;
  while (static_cast<int>(W.Lines.size()) < MaxLines) {
    int Digit = static_cast<int>(W.Lines.size()) % kDigitClasses;
    Vector Clean = makeDigitImage(Digit, LineR);
    if (W.Net.classify(Clean) != Digit)
      continue;
    Vector Fog = fogCorrupt(Clean, kDigitImage, kDigitImage,
                            LineR.uniform(0.5, 0.75), LineR);
    if (W.Net.classify(Fog) == Digit)
      ++Correct2;
    W.Lines.push_back(Task2Workload::Line{std::move(Clean), std::move(Fog),
                                          Digit});
  }
  W.CleanAccuracy = accuracy(W.Net, W.CleanTest.Inputs, W.CleanTest.Labels);
  W.FogAccuracy = accuracy(W.Net, W.FogTest.Inputs, W.FogTest.Labels);
  W.LineEndpointAccuracy =
      MaxLines == 0 ? 0.0
                    : static_cast<double>(Correct2) / MaxLines;
  return W;
}

PolytopeSpec prdnn::bench::task2Spec(const Task2Workload &W, int NumLines,
                                     double Margin) {
  assert(NumLines <= static_cast<int>(W.Lines.size()) && "too few lines");
  PolytopeSpec Spec;
  for (int I = 0; I < NumLines; ++I)
    Spec.push_back(SpecPolytope{
        SegmentPolytope{W.Lines[static_cast<size_t>(I)].Clean,
                        W.Lines[static_cast<size_t>(I)].Fogged},
        classificationConstraint(kDigitClasses,
                                 W.Lines[static_cast<size_t>(I)].Label,
                                 Margin)});
  return Spec;
}

Dataset prdnn::bench::task2Samples(const Task2Workload &W, int NumLines,
                                   int Count, Rng &R) {
  Dataset Data;
  for (int I = 0; I < Count; ++I) {
    const Task2Workload::Line &Line =
        W.Lines[static_cast<size_t>(I % NumLines)];
    double T = R.uniform();
    Vector X = Line.Fogged;
    X -= Line.Clean;
    X *= T;
    X += Line.Clean;
    Data.push(std::move(X), Line.Label);
  }
  return Data;
}

Task3Workload prdnn::bench::makeTask3Workload(int NumRepairSlices,
                                              int NumOtherSlices,
                                              int SetSize) {
  Task3Workload W;
  // The recipe whose network really violates the phi_8-style property
  // (integration_test's Task3StyleSliceRepair and perfbench train the
  // same one); a wider, longer-trained net finds no violating slice.
  Rng R(9201);
  W.Net = trainAcasNetwork(/*Hidden=*/12, /*TrainCount=*/3000,
                           /*Epochs=*/10, R);
  Rng TestR(3002);
  Dataset Policy = makeAcasDataset(3000, TestR);
  W.PolicyAccuracy = accuracy(W.Net, Policy.Inputs, Policy.Labels);

  // Violation scan helper over a slice (coarse grid).
  auto SliceViolations = [&](const std::vector<Vector> &Slice,
                             std::vector<Vector> *Out) {
    int Violations = 0;
    const int Grid = 16;
    for (int A = 0; A <= Grid; ++A)
      for (int B = 0; B <= Grid; ++B) {
        double SA = static_cast<double>(A) / Grid;
        double SB = static_cast<double>(B) / Grid;
        Vector X = Slice[0] * ((1 - SA) * (1 - SB));
        X += Slice[1] * (SA * (1 - SB));
        X += Slice[2] * (SA * SB);
        X += Slice[3] * ((1 - SA) * SB);
        if (!data::acasSafeAdvisory(W.Net.classify(X))) {
          ++Violations;
          if (Out)
            Out->push_back(std::move(X));
        }
      }
    return Violations;
  };

  // Repair slices: randomly-selected 2-D planes containing violations.
  Rng SliceR(3003);
  int Scanned = 0;
  while (static_cast<int>(W.RepairSlices.size()) < NumRepairSlices &&
         Scanned < 20000) {
    ++Scanned;
    std::vector<Vector> Slice = data::randomSafeSlice(SliceR);
    if (SliceViolations(Slice, nullptr) > 0)
      W.RepairSlices.push_back(std::move(Slice));
  }

  if (W.RepairSlices.empty())
    fatalError("makeTask3Workload: no violating slice found; the "
               "workload would repair an empty spec");

  // Generalization set: counterexamples harvested from *other*
  // violating slices (at least NumOtherSlices of them, or until the
  // set is full).
  int OtherSlicesUsed = 0;
  while (static_cast<int>(W.Generalization.size()) < SetSize &&
         Scanned < 60000) {
    ++Scanned;
    std::vector<Vector> Slice = data::randomSafeSlice(SliceR);
    std::vector<Vector> Found;
    if (SliceViolations(Slice, &Found) == 0)
      continue;
    ++OtherSlicesUsed;
    for (Vector &X : Found) {
      if (static_cast<int>(W.Generalization.size()) >= SetSize)
        break;
      W.Generalization.push_back(std::move(X));
    }
    if (OtherSlicesUsed >= NumOtherSlices &&
        static_cast<int>(W.Generalization.size()) >= SetSize)
      break;
  }

  // Drawdown set: random states the buggy network already handles
  // correctly (matching the ground-truth policy), same size.
  Rng DrawR(3004);
  while (W.Drawdown.size() < SetSize) {
    Vector X(data::kAcasInputs);
    for (int J = 0; J < data::kAcasInputs; ++J)
      X[J] = DrawR.uniform(-1.0, 1.0);
    int Truth = data::acasAdvisory(X);
    if (W.Net.classify(X) == Truth)
      W.Drawdown.push(std::move(X), Truth);
  }
  return W;
}

PointSpec prdnn::bench::task3Spec(const Task3Workload &W,
                                  double *LinRegionsSeconds,
                                  int *NumRegions, Dataset *FtSamples) {
  PolytopeSpec Raw;
  for (const auto &Slice : W.RepairSlices)
    Raw.push_back(SpecPolytope{
        PlanePolytope{Slice},
        classificationConstraint(data::kAcasAdvisories, data::AcasCoc)});
  PointSpec Points = keyPointSpec(W.Net, Raw, LinRegionsSeconds, NumRegions);
  // Strengthen the disjunctive "COC or weak-left" property per key
  // point to whichever advisory the buggy network ranks higher; any
  // network satisfying the strengthened spec satisfies the property.
  for (SpecPoint &P : Points) {
    Vector Y = evaluateWithPattern(W.Net, P.X, *P.Pattern);
    int Target = Y[data::AcasCoc] >= Y[data::AcasWeakLeft]
                     ? data::AcasCoc
                     : data::AcasWeakLeft;
    P.Constraint =
        classificationConstraint(data::kAcasAdvisories, Target, 1e-5);
    if (FtSamples)
      FtSamples->push(P.X, Target);
  }
  if (Points.empty())
    fatalError("task3Spec: the repair slices yield an empty spec");
  return Points;
}
