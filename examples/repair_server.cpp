//===- examples/repair_server.cpp - many jobs through one engine -------------===//
//
// The RepairEngine as a repair *service*: a dozen repair requests -
// point and polytope specs, fixed layers and auto layer sweeps, over
// two shared (immutable) networks - are submitted concurrently to one
// engine and drain through its bounded FIFO queue and worker threads,
// all sharing the one global compute pool.
//
// While the jobs run, the main thread polls progress snapshots (phase +
// per-phase item counters). When everything is done, every async
// result is compared bit-for-bit against a serial repairPoints /
// repairPolytopes call of the same request - the engine's determinism
// contract. The same mix is then resubmitted *warm*: the engine's
// artifact cache turns the LinRegions phase into lookups and every
// repair takes its LP's solved Delta from the cache instead of solving
// (BasisHits > 0) - and the warm results must still be bit-identical.
// A final high-priority job demonstrates cooperative cancellation (and
// the priority-classed queue).
//
// Finally, the persistent-store restart demo: an engine whose cache is
// backed by an on-disk artifact store drains the same mix, is torn
// down (flushing its write-behind queue), and a *fresh* engine on the
// same directory drains it again - the restarted engine's lookups come
// back from disk (L2 hits), its repairs take the persisted LP
// solutions, and its results are still bit-identical to the serial
// runs.
//
// Exits non-zero if any job fails, diverges from its serial twin, the
// warm pass misses the cache, the cancelled job doesn't report
// Cancelled, or the restarted engine misses the store.
//
//===----------------------------------------------------------------------===//

#include "examples/DemoNetworks.h"

#include "api/RepairEngine.h"
#include "core/PolytopeRepair.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace prdnn;
using namespace prdnn::demo;

int main() {
  Rng R(20260727);
  auto Classifier = std::make_shared<Network>(makeClassifier(R));
  auto Regressor = std::make_shared<Network>(makeRegressor(R));
  std::printf("shared networks: classifier (%d params), regressor "
              "(%d params)\n",
              Classifier->totalParams(), Regressor->totalParams());

  // --- Build the request mix -------------------------------------------------
  // 12 jobs: point repairs across all three classifier layers, segment
  // (polytope) repairs on the regressor, and two auto layer sweeps.
  std::vector<RepairRequest> Requests;
  for (int Layer : {0, 2, 4})
    for (int Seed : {1, 2})
      Requests.push_back(RepairRequest::points(
          Classifier, Layer,
          [&] {
            Rng SpecR(1000 + 10 * Layer + Seed);
            return makeFlipSpec(*Classifier, SpecR, 30);
          }()));
  for (int Seed : {5, 6, 7, 8}) {
    Rng SpecR(2000 + Seed);
    Requests.push_back(RepairRequest::polytopes(
        Regressor, 2, makeSegmentSpec(*Regressor, SpecR, 3)));
  }
  for (int Seed : {9, 10}) {
    Rng SpecR(3000 + Seed);
    RepairRequest Sweep;
    Sweep.Net = Classifier;
    Sweep.Spec = makeFlipSpec(*Classifier, SpecR, 24);
    Sweep.LayerIndex = kAutoLayer; // minimal-norm layer sweep
    Requests.push_back(std::move(Sweep));
  }

  // --- Serial ground truth ---------------------------------------------------
  // The same requests run inline with the cache disabled: a genuinely
  // cache-free reference, so the bit-identity checks below test the
  // concurrent *and* cached paths against independent recomputation.
  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine SerialEngine(SerialOptions); // run() executes inline
  std::vector<RepairReport> Serial;
  for (const RepairRequest &Request : Requests)
    Serial.push_back(SerialEngine.run(Request));

  // --- Concurrent drain ------------------------------------------------------
  EngineOptions Options;
  Options.NumWorkers = 4;
  Options.QueueCapacity = 8; // smaller than the job count: backpressure
  RepairEngine Engine(Options);
  std::printf("submitting %zu jobs to %d workers (queue capacity %d)"
              "...\n\n",
              Requests.size(), Options.NumWorkers, Options.QueueCapacity);

  std::vector<JobHandle> Handles;
  Handles.reserve(Requests.size());
  for (const RepairRequest &Request : Requests)
    Handles.push_back(Engine.submit(Request));

  // Poll progress while the queue drains.
  while (Engine.pendingJobs() > 0) {
    std::string Line = "  [progress]";
    for (const JobHandle &H : Handles) {
      ProgressSnapshot S = H.progress();
      Line += " " + std::to_string(H.id()) + ":" +
              std::string(toString(S.Phase)).substr(0, 3);
    }
    std::printf("%s\n", Line.c_str());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // --- Report and verify -----------------------------------------------------
  std::printf("\n%-4s %-9s %-10s %-6s %-10s %-9s %-9s %s\n", "job",
              "kind", "status", "layer", "|Delta|_1", "queue(ms)",
              "total(ms)", "bit-identical-to-serial");
  int Completed = 0;
  bool AllMatch = true;
  for (size_t I = 0; I < Handles.size(); ++I) {
    const RepairReport &Report = Handles[I].report();
    bool Match = bitIdentical(Report.Result, Serial[I].Result) &&
                 Report.Status == Serial[I].Status &&
                 Report.RepairedLayer == Serial[I].RepairedLayer;
    AllMatch = AllMatch && Match;
    Completed += Report.Status == RepairStatus::Success;
    std::printf("%-4llu %-9s %-10s %-6d %-10.4f %-9.1f %-9.1f %s\n",
                static_cast<unsigned long long>(Report.JobId),
                Requests[I].isPolytope()
                    ? "polytope"
                    : (Requests[I].isSweep() ? "sweep" : "points"),
                toString(Report.Status), Report.RepairedLayer,
                Report.Result.DeltaL1, 1e3 * Report.QueueSeconds,
                1e3 * Report.TotalSeconds, Match ? "yes" : "NO");
  }

  // --- Warm resubmission: the artifact cache at work -------------------------
  // The same requests again: SyReNN transforms, pattern batches and
  // simplex bases now come from the engine's shared cache, and the
  // results are still bit-identical (the cache's determinism
  // contract).
  std::vector<JobHandle> WarmHandles;
  WarmHandles.reserve(Requests.size());
  for (const RepairRequest &Request : Requests)
    WarmHandles.push_back(Engine.submit(Request));
  bool WarmMatch = true;
  std::int64_t WarmHits = 0, WarmMisses = 0, WarmLpHits = 0;
  for (size_t I = 0; I < WarmHandles.size(); ++I) {
    const RepairReport &Report = WarmHandles[I].report();
    WarmMatch = WarmMatch && bitIdentical(Report.Result, Serial[I].Result) &&
                Report.Status == Serial[I].Status;
    WarmHits += Report.CacheHits;
    WarmMisses += Report.CacheMisses;
    // Resubmitted repairs take their cached Delta: zero pivots, same
    // bits (the bitIdentical check above is what makes "warm" safe).
    WarmLpHits += Report.Result.Stats.BasisHits;
  }
  CacheStats Stats = Engine.cacheStats();
  std::printf("\nwarm pass: %lld cache hits / %lld misses across jobs "
              "(%lld cached LP solutions); results %s first pass\n",
              static_cast<long long>(WarmHits),
              static_cast<long long>(WarmMisses),
              static_cast<long long>(WarmLpHits),
              WarmMatch ? "bit-identical to" : "DIVERGED from");
  std::printf("engine cache: %.1f%% hit rate, %llu entries, %.2f MiB held "
              "(budget %.0f MiB), %llu evictions\n",
              100.0 * Stats.hitRate(),
              static_cast<unsigned long long>(Stats.Entries),
              static_cast<double>(Stats.BytesHeld) / (1024.0 * 1024.0),
              static_cast<double>(Stats.BudgetBytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(Stats.Evictions));

  // --- Cancellation demo (submitted as High priority) ------------------------
  Rng CancelR(4001);
  RepairRequest DoomedRequest = RepairRequest::points(
      Classifier, 4, makeFlipSpec(*Classifier, CancelR, 600));
  DoomedRequest.JobPriority = RepairRequest::Priority::High;
  JobHandle Doomed = Engine.submit(std::move(DoomedRequest));
  Doomed.cancel();
  const RepairReport &DoomedReport = Doomed.report();
  std::printf("\ncancellation demo: job %llu -> %s (%.1fms)\n",
              static_cast<unsigned long long>(DoomedReport.JobId),
              toString(DoomedReport.Status),
              1e3 * DoomedReport.TotalSeconds);

  // --- Warm restart: the persistent artifact store at work -------------------
  // A repair service that restarts should not re-derive every SyReNN
  // transform and LP solution from scratch: an engine backed by an
  // on-disk store leaves its artifacts behind, and its successor reads
  // them back (bit-identically) on first touch.
  namespace fs = std::filesystem;
  const fs::path StoreDir =
      fs::temp_directory_path() /
      ("prdnn-repair-server-" +
       std::to_string(
           std::chrono::steady_clock::now().time_since_epoch().count()));
  EngineOptions StoreOptions;
  StoreOptions.NumWorkers = 4;
  StoreOptions.QueueCapacity = 8;
  StoreOptions.StoreDirectory = StoreDir.string();
  {
    RepairEngine FirstLife(StoreOptions);
    std::vector<JobHandle> ColdHandles;
    for (const RepairRequest &Request : Requests)
      ColdHandles.push_back(FirstLife.submit(Request));
    for (JobHandle &Handle : ColdHandles)
      Handle.wait();
    // Orderly shutdown: drain the asynchronous write-behind queue so
    // the successor finds every artifact on disk.
    FirstLife.flushStore();
    std::printf("\nstore engine (first life): %llu artifacts written to "
                "%s\n",
                static_cast<unsigned long long>(
                    FirstLife.storeStats().Writes),
                StoreDir.string().c_str());
  } // engine destroyed - in a real server, the process exits here

  RepairEngine SecondLife(StoreOptions);
  std::vector<JobHandle> RestartHandles;
  for (const RepairRequest &Request : Requests)
    RestartHandles.push_back(SecondLife.submit(Request));
  bool RestartMatch = true;
  std::int64_t RestartStoreHits = 0, RestartLpHits = 0;
  for (size_t I = 0; I < RestartHandles.size(); ++I) {
    const RepairReport &Report = RestartHandles[I].report();
    RestartMatch = RestartMatch &&
                   bitIdentical(Report.Result, Serial[I].Result) &&
                   Report.Status == Serial[I].Status;
    RestartStoreHits += Report.StoreHits;
    // LP solutions persist too: the fresh engine takes the Deltas its
    // predecessor left on disk - still bit-identically.
    RestartLpHits += Report.Result.Stats.BasisHits;
  }
  persist::StoreStats RestartStats = SecondLife.storeStats();
  std::printf("restarted engine: %lld L2 (disk) hits across jobs "
              "(%lld cached LP solutions), %.1f%% store hit rate, "
              "%.2f MiB on disk; results %s serial runs\n",
              static_cast<long long>(RestartStoreHits),
              static_cast<long long>(RestartLpHits),
              100.0 * RestartStats.hitRate(),
              static_cast<double>(RestartStats.BytesHeld) /
                  (1024.0 * 1024.0),
              RestartMatch ? "bit-identical to" : "DIVERGED from");
  {
    std::error_code Ec;
    fs::remove_all(StoreDir, Ec);
  }

  bool Ok = AllMatch && WarmMatch && WarmHits > 0 && WarmLpHits > 0 &&
            Completed >= 8 &&
            DoomedReport.Status == RepairStatus::Cancelled &&
            RestartMatch && RestartStoreHits > 0 && RestartLpHits > 0;
  std::printf("\n%d/%zu jobs succeeded; results %s serial runs; "
              "cancellation %s\n",
              Completed, Handles.size(),
              AllMatch ? "bit-identical to" : "DIVERGED from",
              DoomedReport.Status == RepairStatus::Cancelled ? "ok"
                                                             : "FAILED");
  std::printf("%s\n", Ok ? "repair_server: all checks passed"
                         : "repair_server: CHECKS FAILED");
  return Ok ? 0 : 1;
}
