//===- bench/BenchUtil.h - shared workloads for the bench harness -*- C++ -*-===//
///
/// \file
/// Builders for the three evaluation workloads (§7) shared by the bench
/// binaries, so that every table/figure binary sees the same trained
/// networks and datasets (all seeded and deterministic).
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_BENCH_BENCHUTIL_H
#define PRDNN_BENCH_BENCHUTIL_H

#include "core/PolytopeRepair.h"
#include "data/Acas.h"
#include "data/Corruptions.h"
#include "data/Digits.h"
#include "data/ShapeWorld.h"
#include "train/FineTune.h"

#include <vector>

namespace prdnn {
namespace bench {

/// Task 1 (§7.1): conv ShapeWorld classifier + NAE-style repair pool.
struct Task1Workload {
  Network Net;
  /// Drawdown set: held-out in-distribution validation images.
  Dataset Validation;
  /// Repair pool: misclassified natural-adversarial images.
  Dataset Adversarials;
  /// Non-buggy anchor pool (correctly classified, disjoint from the
  /// validation set): §7 notes the repair sets "included a number of
  /// non-buggy points" - this is what keeps minimal repairs local.
  Dataset Anchors;
  double ValidationAccuracy = 0.0;
  double AdversarialAccuracy = 0.0;
};

Task1Workload makeTask1Workload(int AdversarialCount);

/// Point spec asking for correct classification of the first \p Count
/// adversarials plus \p AnchorCount non-buggy anchor points.
PointSpec task1Spec(const Task1Workload &W, int Count,
                    int AnchorCount = 100);

/// Task 2 (§7.2): digit classifier + clean->fog repair lines.
struct Task2Workload {
  Network Net;
  struct Line {
    Vector Clean, Fogged;
    int Label;
  };
  std::vector<Line> Lines;
  /// Drawdown set: clean test digits.
  Dataset CleanTest;
  /// Generalization set: independently fogged test digits.
  Dataset FogTest;
  double CleanAccuracy = 0.0;
  double FogAccuracy = 0.0;
  double LineEndpointAccuracy = 0.0;
};

Task2Workload makeTask2Workload(int MaxLines);

/// Polytope spec over the first \p NumLines lines.
PolytopeSpec task2Spec(const Task2Workload &W, int NumLines, double Margin);

/// Uniform samples along the first \p NumLines lines (the finite stand-
/// in the FT/MFT baselines train on; the paper samples as many points
/// as the PR key points).
Dataset task2Samples(const Task2Workload &W, int NumLines, int Count,
                     Rng &R);

/// Task 3 (§7.3): ACAS network + violating safe-region slices.
struct Task3Workload {
  Network Net;
  /// 2-D slices (rectangles) of the safe region containing violations.
  std::vector<std::vector<Vector>> RepairSlices;
  /// Counterexample points from *other* slices (generalization set).
  std::vector<Vector> Generalization;
  /// Points the buggy network handles correctly (drawdown set), with
  /// ground-truth policy labels.
  Dataset Drawdown;
  double PolicyAccuracy = 0.0;
};

/// Trains the buggy ACAS network and scans random safe-region slices
/// for violations; aborts with a message when it finds none.
Task3Workload makeTask3Workload(int NumRepairSlices, int NumOtherSlices,
                                int SetSize);

/// The phi_8-style point spec over the repair slices' key points, with
/// the disjunction strengthened per key point to the buggy network's
/// preferred safe advisory (§7.3). Outputs transform time / region
/// counts like keyPointSpec. \p FtSamples, when non-null, receives the
/// matching labeled dataset the FT/MFT baselines train on. Aborts with a
/// message when the spec comes out empty.
PointSpec task3Spec(const Task3Workload &W, double *LinRegionsSeconds,
                    int *NumRegions, Dataset *FtSamples = nullptr);

/// Fraction of \p Points whose advisory under \p Classify is safe.
template <typename ClassifyT>
double safeFraction(const std::vector<Vector> &Points, ClassifyT Classify) {
  if (Points.empty())
    return 0.0;
  int Safe = 0;
  for (const Vector &X : Points)
    if (data::acasSafeAdvisory(Classify(X)))
      ++Safe;
  return static_cast<double>(Safe) / static_cast<double>(Points.size());
}

} // namespace bench
} // namespace prdnn

#endif // PRDNN_BENCH_BENCHUTIL_H
