//===- bench/bench_persist_store.cpp - L2 store warm-restart bench -----------===//
//
// The restart scenario the persistent artifact store exists for: a
// fixed mix of point- and polytope-repair requests drains through an
// engine whose cache is backed by an on-disk store, the engine is torn
// down (flushing write-behind), and a *fresh* engine on the same
// directory drains the same mix - its LinRegions partitions, pattern
// batches and LP bases come back from disk instead of being
// recomputed. Baselines: the same
// mix cache-off, cold (empty store), and L1-warm (same engine, second
// drain).
//
// Emits BENCH_persist_store.json: cache-off / cold / L1-warm /
// L2-warm-after-restart jobs-per-sec, the L2-over-cold speedup, store
// bytes and entry counts, L1 and L2 hit rates at 1, 4, and 8 workers,
// plus the max Delta divergence of every drain against the cache-free
// serial wrappers. Self-checking: exits non-zero if any divergence is
// not exactly 0 (the store's determinism contract extends the cache's
// to disk). Run with --smoke (CI) for a reduced job mix.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "api/RepairEngine.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Parallel.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace prdnn;
using namespace prdnn::bench;

namespace {

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

/// 16 -> 48 -> 48 -> 8 ReLU classifier: the LP solves (whose bases L2
/// hits replay after a restart) carry real weight.
Network makeClassifier(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 48, 16, 0.7), randomVector(R, 48, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(48));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 48, 48, 0.6), randomVector(R, 48, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(48));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 8, 48, 0.7), randomVector(R, 8, 0.3)));
  return Net;
}

/// 2 -> 16 -> 2 regressor for the polytope (segment) jobs.
Network makeRegressor(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 2, 0.9), randomVector(R, 16, 0.2)));
  Net.addLayer(std::make_unique<ReLULayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 2, 16, 0.8), randomVector(R, 2, 0.2)));
  return Net;
}

PointSpec makeFlipSpec(const Network &Net, Rng &R, int Count) {
  PointSpec Spec;
  for (int I = 0; I < Count; ++I) {
    Vector X = randomVector(R, Net.inputSize());
    Vector Y = Net.evaluate(X);
    int Top = Y.argmax();
    int Target = Top;
    if (I % 3 == 0) {
      double Best = -1e300;
      for (int C = 0; C < Y.size(); ++C)
        if (C != Top && Y[C] > Best) {
          Best = Y[C];
          Target = C;
        }
    }
    Spec.push_back({std::move(X),
                    classificationConstraint(Net.outputSize(), Target, 1e-3),
                    std::nullopt});
  }
  return Spec;
}

PolytopeSpec makeSegmentSpec(const Network &Net, Rng &R, int Segments) {
  PolytopeSpec Spec;
  for (int S = 0; S < Segments; ++S) {
    Vector A = randomVector(R, Net.inputSize());
    Vector B = randomVector(R, Net.inputSize());
    Vector Lo(Net.outputSize()), Hi(Net.outputSize());
    Vector Ya = Net.evaluate(A), Yb = Net.evaluate(B);
    for (int O = 0; O < Net.outputSize(); ++O) {
      double Mid = 0.5 * (Ya[O] + Yb[O]);
      double Span = std::max(1.0, std::fabs(Ya[O] - Yb[O]));
      Lo[O] = Mid - 1.2 * Span;
      Hi[O] = Mid + 1.2 * Span;
    }
    Spec.push_back(SpecPolytope{SegmentPolytope{A, B},
                                boxConstraint(Lo, Hi)});
  }
  return Spec;
}

double maxDeltaDiff(const RepairResult &A, const RepairResult &B) {
  if (A.Delta.size() != B.Delta.size())
    return 1e300;
  double Max = 0.0;
  for (size_t I = 0; I < A.Delta.size(); ++I)
    Max = std::max(Max, std::fabs(A.Delta[I] - B.Delta[I]));
  return Max;
}

/// Drains \p Requests through \p Engine once; returns wall seconds and
/// accumulates divergence from \p Reference plus job-level store hits.
double drainOnce(RepairEngine &Engine,
                 const std::vector<RepairRequest> &Requests,
                 const std::vector<RepairResult> &Reference,
                 double &MaxDiff, int &Successes,
                 std::int64_t *StoreHits = nullptr) {
  std::vector<JobHandle> Handles;
  Handles.reserve(Requests.size());
  WallTimer Timer;
  for (const RepairRequest &Request : Requests)
    Handles.push_back(Engine.submit(Request));
  for (JobHandle &Handle : Handles)
    Handle.wait();
  double Wall = Timer.seconds();
  for (size_t I = 0; I < Handles.size(); ++I) {
    const RepairReport &Report = Handles[I].report();
    MaxDiff = std::max(MaxDiff, maxDeltaDiff(Report.Result, Reference[I]));
    Successes += Report.Status == RepairStatus::Success;
    if (StoreHits)
      *StoreHits += Report.StoreHits;
  }
  return Wall;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    Smoke = Smoke || std::strcmp(argv[I], "--smoke") == 0;
  const int PointJobs = Smoke ? 6 : 12;
  const int PointsPerJob = Smoke ? 40 : 80;
  const int PolyJobs = Smoke ? 2 : 4;
  const int SegmentsPerJob = Smoke ? 2 : 3;

  namespace fs = std::filesystem;
  const fs::path StoreRoot =
      fs::temp_directory_path() /
      ("prdnn-bench-persist-" +
       std::to_string(
           std::chrono::steady_clock::now().time_since_epoch().count()));

  Rng R(99001);
  auto Classifier = std::make_shared<Network>(makeClassifier(R));
  auto Regressor = std::make_shared<Network>(makeRegressor(R));
  std::printf("=== Persistent artifact store: engine-restart workload "
              "(%d point + %d polytope jobs%s) ===\n",
              PointJobs, PolyJobs, Smoke ? ", smoke" : "");
  std::printf("store root: %s; pool threads: %d; hardware concurrency: "
              "%u\n\n",
              StoreRoot.string().c_str(), globalThreadCount(),
              std::thread::hardware_concurrency());

  const int Layers[] = {0, 2, 4};
  std::vector<RepairRequest> Requests;
  for (int J = 0; J < PointJobs; ++J) {
    Rng SpecR(8000 + J);
    Requests.push_back(RepairRequest::points(
        Classifier, Layers[J % 3],
        makeFlipSpec(*Classifier, SpecR, PointsPerJob)));
  }
  for (int J = 0; J < PolyJobs; ++J) {
    Rng SpecR(8500 + J);
    Requests.push_back(RepairRequest::polytopes(
        Regressor, 2, makeSegmentSpec(*Regressor, SpecR, SegmentsPerJob)));
  }
  int NumJobs = static_cast<int>(Requests.size());

  // Cache-free serial ground truth (one-shot wrappers).
  std::vector<RepairResult> Reference;
  Reference.reserve(Requests.size());
  for (const RepairRequest &Request : Requests) {
    if (Request.isPolytope())
      Reference.push_back(
          repairPolytopes(*Request.Net, Request.LayerIndex,
                          std::get<PolytopeSpec>(Request.Spec)));
    else
      Reference.push_back(repairPoints(
          *Request.Net, Request.LayerIndex,
          std::get<PointSpec>(Request.Spec)));
  }
  int RefSuccesses = 0;
  for (const RepairResult &Result : Reference)
    RefSuccesses += Result.Status == RepairStatus::Success;

  BenchJson Json("persist_store");
  TablePrinter Table({"workers", "mode", "wall(s)", "jobs/s", "vs cold",
                      "L2 hits", "MiB on disk", "max |dDelta|"});
  double WorstDiff = 0.0;
  bool SuccessesOk = true;
  bool SpeedupOk = true;

  for (int Workers : {1, 4, 8}) {
    const std::string StoreDir =
        (StoreRoot / std::to_string(Workers)).string();

    // Cache-off baseline at this concurrency.
    EngineOptions OffOptions;
    OffOptions.NumWorkers = Workers;
    OffOptions.QueueCapacity = NumJobs;
    OffOptions.EnableCache = false;
    RepairEngine OffEngine(OffOptions);
    double OffDiff = 0.0;
    int OffSuccesses = 0;
    double OffWall =
        drainOnce(OffEngine, Requests, Reference, OffDiff, OffSuccesses);

    // Engine A on an empty store: one cold drain (computes and
    // write-behinds), one L1-warm drain, then an orderly teardown
    // (flush, destruct) - the "server shuts down" half of the story.
    EngineOptions StoreOptions;
    StoreOptions.NumWorkers = Workers;
    StoreOptions.QueueCapacity = NumJobs;
    StoreOptions.StoreDirectory = StoreDir;
    double MaxDiff = 0.0;
    int Successes = 0;
    double ColdWall = 0.0, L1Wall = 0.0;
    std::uint64_t StoreWrites = 0;
    {
      RepairEngine Engine(StoreOptions);
      ColdWall = drainOnce(Engine, Requests, Reference, MaxDiff, Successes);
      L1Wall = drainOnce(Engine, Requests, Reference, MaxDiff, Successes);
      Engine.flushStore();
      StoreWrites = Engine.storeStats().Writes;
    }

    // Engine B, freshly constructed on the same directory: the restart.
    std::int64_t L2Hits = 0;
    double L2Wall = 0.0;
    persist::StoreStats RestartStats;
    CacheStats RestartCache;
    {
      RepairEngine Engine(StoreOptions);
      L2Wall = drainOnce(Engine, Requests, Reference, MaxDiff, Successes,
                         &L2Hits);
      RestartStats = Engine.storeStats();
      RestartCache = Engine.cacheStats();
    }

    WorstDiff = std::max(WorstDiff, std::max(MaxDiff, OffDiff));
    SuccessesOk = SuccessesOk && OffSuccesses == RefSuccesses &&
                  Successes == 3 * RefSuccesses;

    double OffJobsPerSec = NumJobs / OffWall;
    double ColdJobsPerSec = NumJobs / ColdWall;
    double L1JobsPerSec = NumJobs / L1Wall;
    double L2JobsPerSec = NumJobs / L2Wall;
    double L2Speedup = L2JobsPerSec / ColdJobsPerSec;
    SpeedupOk = SpeedupOk && L2Speedup > 1.0;

    Json.beginRecord();
    Json.add("workers", Workers);
    Json.add("jobs_per_round", NumJobs);
    Json.add("smoke", Smoke ? 1 : 0);
    Json.add("cache_off_jobs_per_sec", OffJobsPerSec);
    Json.add("cold_jobs_per_sec", ColdJobsPerSec);
    Json.add("l1_warm_jobs_per_sec", L1JobsPerSec);
    Json.add("l2_warm_restart_jobs_per_sec", L2JobsPerSec);
    Json.add("l2_warm_speedup_vs_cold", L2Speedup);
    Json.add("l1_warm_speedup_vs_cold", L1JobsPerSec / ColdJobsPerSec);
    Json.add("store_writes", static_cast<int>(StoreWrites));
    Json.add("store_bytes", static_cast<double>(RestartStats.BytesHeld));
    Json.add("store_entries", static_cast<int>(RestartStats.Entries));
    Json.add("restart_l2_hit_rate", RestartStats.hitRate());
    Json.add("restart_job_store_hits", static_cast<int>(L2Hits));
    Json.add("restart_corrupt_skips",
             static_cast<int>(RestartStats.CorruptSkips));
    Json.add("max_delta_diff_vs_serial", std::max(MaxDiff, OffDiff));
    Json.add("pool_threads", globalThreadCount());
    Json.add("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));

    auto Mib = [](std::uint64_t Bytes) {
      return static_cast<double>(Bytes) / (1024.0 * 1024.0);
    };
    Table.addRow({std::to_string(Workers), "cache-off",
                  formatDouble(OffWall, 3), formatDouble(OffJobsPerSec, 2),
                  formatDouble(OffJobsPerSec / ColdJobsPerSec, 2), "-", "-",
                  OffDiff == 0.0 ? "0" : formatDouble(OffDiff, 12)});
    Table.addRow({std::to_string(Workers), "cold",
                  formatDouble(ColdWall, 3), formatDouble(ColdJobsPerSec, 2),
                  "1.00", "-", "-", "-"});
    Table.addRow({std::to_string(Workers), "L1-warm",
                  formatDouble(L1Wall, 3), formatDouble(L1JobsPerSec, 2),
                  formatDouble(L1JobsPerSec / ColdJobsPerSec, 2), "-", "-",
                  "-"});
    Table.addRow({std::to_string(Workers), "L2-restart",
                  formatDouble(L2Wall, 3), formatDouble(L2JobsPerSec, 2),
                  formatDouble(L2Speedup, 2), std::to_string(L2Hits),
                  formatDouble(Mib(RestartStats.BytesHeld), 2),
                  MaxDiff == 0.0 ? "0" : formatDouble(MaxDiff, 12)});
  }

  Table.print(std::cout);
  std::string JsonFile = Json.write();
  if (!JsonFile.empty())
    std::printf("\nwrote %s\n", JsonFile.c_str());

  std::error_code Ec;
  fs::remove_all(StoreRoot, Ec);

  // Divergence is a hard failure (determinism contract); a missing
  // speedup is reported but only warns - CI machines can be noisy.
  bool Ok = WorstDiff == 0.0 && SuccessesOk;
  if (!SpeedupOk)
    std::printf("note: L2-warm restart was not faster than cold on this "
                "run/machine\n");
  std::printf("%s\n",
              Ok ? "bench_persist_store: cold/L1/L2-restart/cache-off "
                   "bit-identical to serial"
                 : "bench_persist_store: DETERMINISM CHECK FAILED");
  return Ok ? 0 : 1;
}
