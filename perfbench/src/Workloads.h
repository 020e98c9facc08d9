//===- perfbench/src/Workloads.h - seeded paper workloads -------*- C++ -*-===//
///
/// \file
/// The inputs of the end-to-end benchmark: the three trained networks of
/// §7 (digits for Task 2, the ACAS stand-in for Task 3, the ShapeWorld
/// conv net for Task 1), the pool of distinct repair requests each
/// workload draws from, the serial, cache-free reference twin of every
/// pool entry, and the checks the benchmark applies to every report from
/// outside the library.
///
/// Everything here comes from fixed seeds: the networks (the system under
/// repair) and what is repaired (the fog lines of each group, the
/// violating ACAS slices, the adversarials and anchors of a Task 1
/// request). The run's --seed only orders and mixes the jobs, because
/// the cost of a repair depends strongly on what is repaired (per-run
/// means moved 17-25% when the seed picked the content), which would
/// drown any regression bound.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "api/RepairEngine.h"
#include "cache/Fingerprint.h"
#include "train/Sgd.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { FogLines, AcasSlices, ServedRepeats };

const char *toString(Workload W);
std::optional<Workload> parseWorkload(const std::string &Name);

/// Sizes of one run; --smoke shrinks every pool to its minimum.
struct Sizes {
  int Fog10Groups = 3;  ///< fog-lines: groups of SmallLines lines
  int Fog25Groups = 1;  ///< fog-lines: groups of LargeLines lines
  int SmallLines = 10;
  int LargeLines = 25;
  int AcasSlices = 10;  ///< acas-slices: violating slices repaired
  int AcasOther = 10;   ///< violating slices feeding generalization
  int AcasSetSize = 2000;
  int ServedFogGroups = 2;  ///< served-repeats: fog10 groups (x2 layers)
  int ServedAcasSlices = 8; ///< served-repeats: single-slice sweeps
  int Task1Points = 10;     ///< adversarials (and anchors) per request

  static Sizes smoke();
};

/// A trained network plus the held-out sets its repairs are judged on.
struct Model {
  std::string Name;
  std::shared_ptr<const prdnn::Network> Net;
  /// Drawdown set: accuracy the repair must not lose.
  prdnn::Dataset Drawdown;
  /// Generalization set: labeled points, or (Safety) ACAS inputs whose
  /// advisory must become safe.
  prdnn::Dataset Generalization;
  bool Safety = false;
  double DrawdownBefore = 0.0;
  double GeneralizationBefore = 0.0;
  prdnn::NetworkFingerprint Fingerprint; ///< set once published
};

/// Points the outside check evaluates on a repaired DDNN. Label >= 0:
/// the DDNN must classify the point as Label; Label < 0: the ACAS
/// advisory must be safe (COC or weak-left).
struct DenseSamples {
  std::vector<prdnn::Vector> Xs;
  std::vector<int> Labels;
};

/// One distinct request a workload draws from, with its reference.
struct PoolEntry {
  std::string Name;
  const Model *M = nullptr;
  /// The request as the library receives it (acas-slices: the key-point
  /// spec is rebuilt from Slice on every job; this copy holds the
  /// reference build).
  prdnn::RepairRequest Request;
  /// acas-slices only: the violating slice the job turns into key
  /// points with keyPointSpec.
  std::optional<prdnn::PolytopeSpec> Slice;
  /// Serial, cache-free RepairEngine::run of Request, made at set-up.
  prdnn::RepairReport Twin;
  DenseSamples Dense;
};

/// Everything a run needs besides the engine or service.
struct WorkloadData {
  Workload Kind = Workload::FogLines;
  std::vector<std::unique_ptr<Model>> Models;
  std::vector<PoolEntry> Pool;
  /// acas: slices scanned, violating slices, regions and key points of
  /// the repair slices (reported in the run's summary line).
  int AcasScans = 0;
  int AcasSliceCount = 0;
  int AcasRegions = 0;
  int AcasKeyPoints = 0;
};

/// Independent random stream \p Tag of the run seed (job order and mix).
prdnn::Rng seededRng(std::uint64_t Seed, std::uint64_t Tag);

/// Builds the workload's models and pool and computes every twin.
/// Throws std::runtime_error when the workload cannot be honest (no
/// violating ACAS slice, an empty key-point spec).
WorkloadData buildWorkload(Workload Kind, const Sizes &S);

/// acas-slices: the phi_8-style key-point spec of \p Slice, each point's
/// target strengthened to the advisory the buggy net ranks higher.
prdnn::PointSpec acasKeyPoints(const prdnn::Network &Net,
                               const prdnn::PolytopeSpec &Slice,
                               double *LinRegionsSeconds, int *Regions);

/// The outside check of one report against its pool entry: same status,
/// layer and bit-identical Delta as the twin; on success the returned
/// DDNN satisfies the spec points and, when \p Dense is set, every dense
/// sample. Returns an empty string when the report passes, else why not.
std::string checkReport(const PoolEntry &E, const prdnn::RepairReport &R,
                        bool Dense);

/// Repair quality of one repaired network, in percent: accuracy on the
/// drawdown and generalization sets after the repair, and the change
/// from the buggy network (points lost on drawdown, gained on
/// generalization).
struct Quality {
  double DrawdownAccPct = 0.0;
  double GeneralizationAccPct = 0.0;
  double DrawdownPct = 0.0;
  double GeneralizationPct = 0.0;
};
Quality measureQuality(const Model &M, const prdnn::DecoupledNetwork &Net);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
