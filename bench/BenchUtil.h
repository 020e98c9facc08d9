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
#include "obs/Metrics.h"
#include "train/FineTune.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
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

/// Machine-readable benchmark output: accumulates named records of
/// key/value metrics and writes them as BENCH_<name>.json next to the
/// binary, so successive PRs can track the performance trajectory
/// (points/sec, Jacobian/LP seconds, thread count, ...) without
/// scraping the human-readable tables. Every file is stamped with the
/// host's hardware_concurrency, the git commit the tree was configured
/// at, and the CMake build type ("unknown" when not built through the
/// repo's CMakeLists), so archived artifacts stay attributable. Schema:
///
///   { "bench": "<name>", "git_sha": "<sha|unknown>",
///     "build_type": "<Release|...|unknown>", "hardware_concurrency": n,
///     "records": [ {"k": v | "s", ...}, ... ] }
class BenchJson {
public:
  explicit BenchJson(std::string BenchName) : Name(std::move(BenchName)) {}

  /// Starts a new record (one measured configuration).
  void beginRecord();

  void add(const std::string &Key, double Value);
  void add(const std::string &Key, int Value);
  void add(const std::string &Key, const std::string &Value);

  /// Writes BENCH_<name>.json into the working directory and returns
  /// the file name (empty on I/O failure).
  std::string write() const;

private:
  using Value = std::variant<double, int, std::string>;
  std::string Name;
  std::vector<std::vector<std::pair<std::string, Value>>> Records;
};

/// Nearest-rank percentile of \p Values at \p P in [0, 1] (sorts a
/// copy; 0 on empty input): index = min(n - 1, floor(P * n)). For
/// small exact sample sets (a dozen engine jobs); the fleet benches
/// summarize through obs::Histogram instead, so their p50/p95/p99 are
/// the same numbers a live scrape of the serving registry reports.
double percentile(std::vector<double> Values, double P);

/// Adds the p50/p95/p99 of \p Latency (an obs::Histogram snapshot over
/// defaultLatencyBuckets()) to \p Json under "p50_latency_seconds" /
/// "p95..." / "p99..." - the shared key schema of the latency benches.
void addLatencyRecord(BenchJson &Json, const obs::HistogramSnapshot &Latency);

/// Streams \p Latency into a multi-process stats file: one
/// "lat_bucket <count>" line per bucket (in edge order, overflow
/// last) plus "lat_sum <seconds>". The inverse of
/// latencySnapshotFromCounts - the fleet benches' children report
/// bucket counts, not raw samples, so a parent merge is exact and
/// O(buckets) regardless of job count.
void writeLatencyHistogram(std::ostream &Os,
                           const obs::HistogramSnapshot &Latency);

/// Rebuilds a snapshot over defaultLatencyBuckets() from parsed
/// "lat_bucket"/"lat_sum" values. A count vector of the wrong length
/// (torn stats file) yields an all-zero snapshot, which the benches'
/// jobs-served cross-checks then flag.
obs::HistogramSnapshot
latencySnapshotFromCounts(const std::vector<std::uint64_t> &Counts,
                          double Sum);

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
