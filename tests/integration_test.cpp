//===- tests/integration_test.cpp - end-to-end pipeline tests -----------------===//
//
// Small-scale versions of the three evaluation tasks, exercising the
// full stack: data generation -> training -> spec construction ->
// LinRegions -> Jacobians -> LP -> repaired DDNN -> verification.
//
//===----------------------------------------------------------------------===//

#include "core/PointRepair.h"
#include "core/PolytopeRepair.h"
#include "data/Acas.h"
#include "data/Corruptions.h"
#include "data/Digits.h"
#include "data/ShapeWorld.h"
#include "persist/Serialize.h"
#include "train/FineTune.h"

#include <gtest/gtest.h>

namespace {

using namespace prdnn;
using namespace prdnn::data;

TEST(Integration, Task1StylePointRepair) {
  Rng R(9001);
  Network Net = trainShapeClassifier(900, 5, R);
  Rng EvalR(9002);
  Dataset Validation = makeShapeWorld(180, EvalR);
  Rng AdvR(9003);
  Dataset Adversarials = makeNaturalAdversarials(Net, 18, AdvR);

  PointSpec Spec;
  for (int I = 0; I < Adversarials.size(); ++I)
    Spec.push_back({Adversarials.Inputs[I],
                    classificationConstraint(kShapeClasses,
                                             Adversarials.Labels[I], 1e-4),
                    std::nullopt});
  // Anchor a few correctly-classified points, as the paper's repair
  // sets do ("included a number of non-buggy points").
  int Anchors = 0;
  for (int I = 0; I < Validation.size() && Anchors < 40; ++I) {
    if (Net.classify(Validation.Inputs[I]) != Validation.Labels[I])
      continue;
    Spec.push_back({Validation.Inputs[I],
                    classificationConstraint(kShapeClasses,
                                             Validation.Labels[I], 1e-4),
                    std::nullopt});
    ++Anchors;
  }

  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairResult Result = repairPoints(Net, OutputLayer, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  // P1 efficacy: all adversarials fixed.
  EXPECT_DOUBLE_EQ(
      Result.Repaired->accuracy(Adversarials.Inputs, Adversarials.Labels),
      1.0);
  // P3 locality: drawdown bounded (was ~0% -> stays high).
  EXPECT_GE(Result.Repaired->accuracy(Validation.Inputs, Validation.Labels),
            0.6);
}

TEST(Integration, Task2StyleLineRepair) {
  Rng R(9101);
  Network Net = trainDigitClassifier(16, 1500, 10, R);

  PolytopeSpec Spec;
  Rng LineR(9102);
  while (Spec.size() < 6) {
    int Digit = static_cast<int>(Spec.size()) % kDigitClasses;
    Vector Clean = makeDigitImage(Digit, LineR);
    if (Net.classify(Clean) != Digit)
      continue;
    Vector Fog = fogCorrupt(Clean, kDigitImage, kDigitImage, 0.7, LineR);
    Spec.push_back(SpecPolytope{
        SegmentPolytope{std::move(Clean), std::move(Fog)},
        classificationConstraint(kDigitClasses, Digit, 1e-4)});
  }

  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairResult Result = repairPolytopes(Net, OutputLayer, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_GT(Result.Stats.KeyPoints, 12);
  EXPECT_GT(Result.Stats.LinearRegions, 6);

  // The whole line is provably repaired: dense sampling finds nothing.
  for (const SpecPolytope &P : Spec) {
    const auto &Segment = std::get<SegmentPolytope>(P.Shape);
    for (int S = 0; S <= 40; ++S) {
      Vector X = Segment.B;
      X -= Segment.A;
      X *= S / 40.0;
      X += Segment.A;
      EXPECT_LE(P.Constraint.violation(Result.Repaired->evaluate(X)), 1e-7);
    }
  }
}

TEST(Integration, Task3StyleSliceRepair) {
  Rng R(9201);
  Network Net = trainAcasNetwork(12, 3000, 10, R);

  // Find one violating slice (or accept a clean network).
  Rng SliceR(9202);
  std::vector<Vector> Bad;
  for (int Trial = 0; Trial < 1500 && Bad.empty(); ++Trial) {
    std::vector<Vector> Slice = randomSafeSlice(SliceR);
    for (int A = 0; A <= 10 && Bad.empty(); ++A)
      for (int B = 0; B <= 10; ++B) {
        Vector X = Slice[0] * ((1 - A / 10.0) * (1 - B / 10.0));
        X += Slice[1] * ((A / 10.0) * (1 - B / 10.0));
        X += Slice[2] * ((A / 10.0) * (B / 10.0));
        X += Slice[3] * ((1 - A / 10.0) * (B / 10.0));
        if (!acasSafeAdvisory(Net.classify(X))) {
          Bad = Slice;
          break;
        }
      }
  }
  if (Bad.empty())
    GTEST_SKIP() << "trained network satisfies the property already";

  PolytopeSpec Raw;
  Raw.push_back(SpecPolytope{
      PlanePolytope{Bad},
      classificationConstraint(kAcasAdvisories, AcasCoc)});
  PointSpec Points = keyPointSpec(Net, Raw);
  for (SpecPoint &P : Points) {
    Vector Y = evaluateWithPattern(Net, P.X, *P.Pattern);
    int Target = Y[AcasCoc] >= Y[AcasWeakLeft] ? AcasCoc : AcasWeakLeft;
    P.Constraint = classificationConstraint(kAcasAdvisories, Target, 1e-5);
  }

  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairResult Result = repairPoints(Net, OutputLayer, Points);
  ASSERT_EQ(Result.Status, RepairStatus::Success);

  // Dense check of the property across the repaired slice.
  for (int A = 0; A <= 25; ++A)
    for (int B = 0; B <= 25; ++B) {
      Vector X = Bad[0] * ((1 - A / 25.0) * (1 - B / 25.0));
      X += Bad[1] * ((A / 25.0) * (1 - B / 25.0));
      X += Bad[2] * ((A / 25.0) * (B / 25.0));
      X += Bad[3] * ((1 - A / 25.0) * (B / 25.0));
      EXPECT_TRUE(acasSafeAdvisory(Result.Repaired->classify(X)));
    }
}

TEST(Integration, SaveLoadRepairedNetwork) {
  Rng R(9301);
  Network Net = trainDigitClassifier(12, 800, 6, R);
  PointSpec Spec;
  Rng PointR(9302);
  for (int I = 0; I < 4; ++I) {
    Vector Image = makeDigitImage(I, PointR);
    Spec.push_back({std::move(Image),
                    classificationConstraint(kDigitClasses, I, 1e-4),
                    std::nullopt});
  }
  int OutputLayer = Net.parameterizedLayerIndices().back();
  RepairResult Result = repairPoints(Net, OutputLayer, Spec);
  ASSERT_EQ(Result.Status, RepairStatus::Success);

  persist::ByteWriter W;
  persist::serializeDecoupled(*Result.Repaired, W);
  persist::ByteReader Reader(W.buffer().data(), W.buffer().size());
  std::optional<DecoupledNetwork> Loaded =
      persist::deserializeDecoupled(Reader);
  ASSERT_TRUE(Loaded.has_value());
  for (const SpecPoint &P : Spec)
    EXPECT_LE(P.Constraint.violation(Loaded->evaluate(P.X)), 1e-7);
}

} // namespace
