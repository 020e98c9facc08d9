//===- api/RepairEngine.h - repair-as-a-service over the pool --*- C++ -*-===//
///
/// \file
/// The unified entry point of the library: one engine serving many
/// repair requests - synchronously (run) or as queued jobs (submit)
/// with future-backed results, monotonic progress snapshots, and
/// cooperative cancellation.
///
/// Mapping to the paper:
///
///   RepairRequest{PointSpec}    -> Algorithm 1 (repairPoints, §5):
///     Jacobian phase = lines 4-6 (the spec's Delta = 0 forward state,
///     one batched pass per job that every sweep attempt reads, and
///     each attempt's rows' right-hand sides; core/SpecRows.h), Lp
///     phase = lines 7-8 (norm-minimal Delta by LP, with constraint
///     generation: forward scans of the DDNN pick the rows, and
///     Jacobian rows are built only for those), Verify phase = lines
///     9-10 (apply Delta; the last scan re-verified the spec on the
///     DDNN itself).
///   RepairRequest{PolytopeSpec} -> Algorithm 2 (repairPolytopes, §6):
///     a LinRegions phase (SyReNN transform, line 2) reduces each
///     polytope to key points with pinned activation patterns
///     (Appendix B), then Algorithm 1's phases run on those points.
///   LayerIndex = kAutoLayer     -> the evaluation methodology of §7
///     as a first-class mode: attempt every candidate layer and return
///     the attempt minimizing the objective norm of Delta (ties break
///     to the earliest candidate, so sweeps are deterministic).
///
/// Concurrency model: submit() enqueues onto a bounded, priority-
/// classed queue (RepairRequest::Priority; strict class order, FIFO
/// within a class; submit blocks while the queue is full) drained by
/// NumWorkers job threads.
/// Jobs run the normal repair pipeline, whose data-parallel loops all
/// go through the one global thread pool (support/Parallel.h). Loops
/// of concurrent jobs share its workers - each job thread runs its own
/// loop's chunks, idle workers serve the oldest loop first - so N
/// concurrent jobs share the machine instead of oversubscribing it,
/// and every job's numeric results are bit-for-bit identical to a
/// serial run() of the same request (the pool's determinism contract).
/// Serial phases (notably the simplex solve) overlap freely across
/// workers. An auto-layer sweep runs its candidate attempts as one
/// pool loop, one candidate per chunk, and each attempt runs its own
/// parallel loops inline; a job with a checkpoint hook runs its
/// attempts in a plain loop on its job thread. Neither the pool size
/// nor which thread ran an attempt changes a result.
///
/// Cancellation is cooperative: JobHandle::cancel() raises a flag the
/// pipeline polls at phase/chunk boundaries and between simplex
/// iterations; the job resolves with RepairStatus::Cancelled and
/// stamped timing stats. Queued jobs cancel without running.
///
/// The engine owns one content-addressed ArtifactCache shared by all
/// its jobs (EngineOptions::EnableCache / CacheBudgetBytes): repeated
/// (network, layer, spec-prefix) keys - auto-layer sweeps, repeated-
/// spec server workloads, iterative patch loops - reuse SyReNN
/// transforms, pattern batches and solved repair LPs instead of
/// recomputing them, with single-flight insertion so concurrent jobs
/// on the same key compute once. Hits are bit-for-bit identical to
/// recomputation, so warm runs equal cold runs exactly (see
/// cache/README.md for the determinism contract). With
/// EngineOptions::StoreDirectory set, the cache is additionally backed
/// by a persistent on-disk store (persist/ArtifactStore.h): a *fresh*
/// engine on the same directory starts warm, and engines in other
/// processes share the same artifacts - same determinism contract,
/// enforced by tests/persist_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_API_REPAIRENGINE_H
#define PRDNN_API_REPAIRENGINE_H

#include "api/RepairReport.h"
#include "api/RepairRequest.h"
#include "cache/ArtifactCache.h"
#include "core/RepairContext.h"
#include "obs/Telemetry.h"

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace prdnn {

namespace detail {
struct EngineJob;
} // namespace detail

struct EngineOptions {
  /// Job threads draining the queue: how many repairs execute
  /// concurrently. Their data-parallel phases share the global pool;
  /// see the file comment.
  int NumWorkers = 1;
  /// Bounded queue capacity, totalled across priority classes;
  /// submit() blocks while the queue is full (backpressure instead of
  /// unbounded memory growth).
  int QueueCapacity = 64;
  /// Own an ArtifactCache (cache/ArtifactCache.h) shared by every job
  /// of this engine: repeated (network, layer, spec-prefix) keys turn
  /// the LinRegions phase into lookups and reuse solved LPs. Hits are
  /// bit-for-bit identical to recomputation (test-enforced), so the
  /// default on never changes results - disable only to reclaim the
  /// memory. Per-request opt-out: RepairOptions::UseCache.
  bool EnableCache = true;
  /// Byte budget of the cache's LRU (0 behaves like EnableCache =
  /// false).
  std::size_t CacheBudgetBytes = std::size_t(256) << 20;
  /// Directory of a persistent artifact store (persist/ArtifactStore.h)
  /// backing the cache as an L2 tier: misses read through to disk,
  /// inserts write behind asynchronously, so a fresh engine pointed at
  /// the same directory starts warm (server restarts), and concurrent
  /// engines / processes share one store safely (atomic
  /// write-temp-then-rename publication). Empty = no store. Requires
  /// the cache (EnableCache with a non-zero budget); L2 hits are
  /// bit-for-bit identical to recomputation, and a corrupted entry
  /// degrades to a recompute, never a wrong answer.
  std::string StoreDirectory;
  /// On-disk byte budget of the store (LRU-by-mtime GC).
  std::size_t StoreBudgetBytes = std::size_t(1) << 30;
  /// Queue aging, bounding the starvation the strict-class priority
  /// queue designs in: a queued job is *served* as if promoted one
  /// priority class per AgingSeconds waited (a Low job becomes
  /// Neutral-equivalent after AgingSeconds and High-equivalent after
  /// 2x), with ties between equal effective classes breaking to the
  /// earlier submission. 0 (the default) disables aging, preserving
  /// strict class order. Scheduling only - results are unaffected.
  double AgingSeconds = 0.0;
  /// Telemetry sink (obs/Telemetry.h): when set, the engine registers
  /// queue/cache/store collectors with its MetricsRegistry, records
  /// job lifecycle counters and phase/kernel timings, and feeds each
  /// job's phase spans into its TraceBuffer. Null (the default) is
  /// "off": no registration, no recording, and - by the standing
  /// invariant, test-enforced - bit-for-bit identical repair results.
  /// Sharing one Telemetry across an engine, a RepairService, and an
  /// RpcServer yields one unified exposition page.
  std::shared_ptr<obs::Telemetry> Telemetry;
};

/// One observation of an engine's job queue, in the spirit of
/// ProgressSnapshot: plain data, safe to take concurrently with
/// submits and running jobs, consumed by admission controllers
/// (serve/AdmissionController.h) and the latency benches.
struct EngineQueueStats {
  /// Jobs queued across all priority classes (excludes running).
  int Depth = 0;
  /// Queued jobs per RepairRequest::Priority class, indexed by the
  /// enum value (High = 0, Neutral = 1, Low = 2).
  std::array<int, 3> QueuedByClass{};
  /// Jobs a worker is currently executing.
  int Running = 0;
  /// Seconds the longest-queued job has waited so far (0 when the
  /// queue is empty). Queues are FIFO within a class, so this is the
  /// max over the class fronts.
  double OldestWaitSeconds = 0.0;
};

/// Handle to a submitted job. Copyable (shared state); the default-
/// constructed handle is invalid.
class JobHandle {
public:
  JobHandle() = default;

  bool valid() const { return State != nullptr; }
  std::uint64_t id() const;

  /// True once the report is ready (never blocks).
  bool done() const;

  /// Blocks until the report is ready.
  void wait() const;

  /// Blocks until the report is ready or \p Seconds elapse; true when
  /// the job finished. A timeout leaves the job untouched (it keeps
  /// running and can be waited on again) - the deadline primitive of
  /// the RPC server's Await exchange.
  bool waitFor(double Seconds) const;

  /// Blocks until ready, then returns the report. The reference stays
  /// valid for the handle's lifetime.
  const RepairReport &report() const;

  /// Current progress (never blocks; safe while the job runs).
  ProgressSnapshot progress() const;

  /// Requests cooperative cancellation; see the file comment.
  void cancel() const;

private:
  friend class RepairEngine;
  explicit JobHandle(std::shared_ptr<detail::EngineJob> State)
      : State(std::move(State)) {}

  std::shared_ptr<detail::EngineJob> State;
};

class RepairEngine {
public:
  explicit RepairEngine(EngineOptions Options = EngineOptions());

  /// Cancels still-queued jobs (they resolve as Cancelled without
  /// running), drains submitters parked in backpressure (their jobs
  /// also resolve as Cancelled), lets in-flight jobs finish, and joins
  /// the workers. Cancel running jobs explicitly first if you need a
  /// fast exit.
  ~RepairEngine();

  RepairEngine(const RepairEngine &) = delete;
  RepairEngine &operator=(const RepairEngine &) = delete;

  /// Executes \p Request on the calling thread and returns its report;
  /// does not touch the job queue, so concurrent run() calls (and
  /// run() next to submitted jobs) are fine.
  RepairReport run(const RepairRequest &Request);

  /// Enqueues \p Request; blocks while the queue is full. \p
  /// CheckpointHook, when set, is installed on the job's context before
  /// it can run (see JobContext::setCheckpointHook). \p CompletionHook,
  /// when set, is invoked exactly once with the job's report as it
  /// resolves - on the worker thread for executed jobs, on the
  /// resolving thread for jobs cancelled without running (engine
  /// teardown, backpressure cancellation) - and before any report()
  /// call returns. Unlike a checkpoint hook it does not serialize
  /// sweeps. It must not call back into this engine.
  JobHandle submit(RepairRequest Request,
                   std::function<void(RepairPhase)> CheckpointHook =
                       std::function<void(RepairPhase)>(),
                   std::function<void(const RepairReport &)>
                       CompletionHook =
                           std::function<void(const RepairReport &)>());

  /// Jobs submitted but not yet finished (queued + running).
  int pendingJobs() const;

  /// Snapshot of the job queue (depth, per-class counts, oldest wait);
  /// see EngineQueueStats.
  EngineQueueStats queueStats() const;

  const EngineOptions &options() const { return Opts; }

  /// True when this engine owns an artifact cache (EnableCache with a
  /// non-zero budget).
  bool hasCache() const { return Cache != nullptr; }

  /// Aggregate hit/miss/eviction/byte counters of the engine's cache
  /// (all-zero when hasCache() is false). When a persistent store is
  /// attached, its counters ride along in CacheStats::Store.
  CacheStats cacheStats() const {
    return Cache ? Cache->stats() : CacheStats();
  }

  /// Drops every cached artifact *and zeroes the hit/miss/eviction
  /// counters* (cache and store alike), so a measurement phase after
  /// clearCache() starts both cold and clean - see cache/README.md.
  /// The persistent store's on-disk entries are kept (they address
  /// immutable content); in-flight jobs are unaffected beyond
  /// recomputing (or re-loading from the store).
  void clearCache() {
    if (Cache) {
      Cache->clear();
      Cache->resetStats();
    }
  }

  /// Zeroes the cache's (and store's) monotonic counters without
  /// dropping entries: for benches that want clean counters over a
  /// *warm* phase.
  void resetCacheStats() {
    if (Cache)
      Cache->resetStats();
  }

  /// The uniform counter reset (the registry-wide analogue of
  /// resetCacheStats): with telemetry installed, delegates to
  /// MetricsRegistry::reset(), which zeroes every engine instrument
  /// *and* - via the registered reset hooks - the cache and store
  /// counters mirrored by collectors, in one call. Without telemetry
  /// it falls back to resetCacheStats(), the only counters the
  /// pre-obs engine could reset. Live state (queue depth, running
  /// jobs, cached entries) is untouched either way.
  void resetStats() {
    if (Opts.Telemetry)
      Opts.Telemetry->Registry.reset();
    else
      resetCacheStats();
  }

  /// This engine's telemetry sink, or null when telemetry is off.
  const std::shared_ptr<obs::Telemetry> &telemetry() const {
    return Opts.Telemetry;
  }

  /// True when this engine's cache is backed by a persistent store
  /// (EngineOptions::StoreDirectory).
  bool hasStore() const;

  /// Counters of the persistent store (all-zero when hasStore() is
  /// false).
  persist::StoreStats storeStats() const;

  /// Blocks until every queued write-behind store write has been
  /// published to disk - call before tearing an engine down when a
  /// successor (or another process) should find the store fully warm.
  /// No-op without a store.
  void flushStore();

private:
  void workerMain();
  RepairReport execute(const RepairRequest &Request, JobContext &Ctx,
                       std::uint64_t JobId, double QueueSeconds);

  /// Registers the queue/cache/store collectors and the uniform-reset
  /// hook with the telemetry registry (ctor; T non-null).
  void registerTelemetry();
  /// Folds one resolved job's report into the lifecycle counters and
  /// phase/kernel histograms (no-op when T is null). Called at every
  /// resolve site: worker completion, teardown orphans, and
  /// submit-during-stop cancellations.
  void recordJobMetrics(const RepairReport &Report);

  /// Queued jobs across all priority classes.
  int queuedCount() const;
  /// Pops the front of the highest non-empty priority class (caller
  /// holds Mutex and guarantees non-emptiness).
  std::shared_ptr<detail::EngineJob> popNext();

  EngineOptions Opts;
  /// Raw view of Opts.Telemetry (null = off), checked on the hot paths.
  obs::Telemetry *T = nullptr;
  std::shared_ptr<persist::ArtifactStore> Store; ///< null without L2
  std::shared_ptr<ArtifactCache> Cache; ///< null when caching is off
  mutable std::mutex Mutex;
  std::condition_variable WorkCv;  ///< workers wait for jobs
  std::condition_variable SpaceCv; ///< submitters wait for queue space
  /// One FIFO per RepairRequest::Priority, indexed by the enum value:
  /// a stable priority queue (strict class order, FIFO within).
  std::array<std::deque<std::shared_ptr<detail::EngineJob>>, 3> Queues;
  std::vector<std::thread> Workers; ///< spawned lazily on first submit
  int Running = 0;
  int WaitingSubmitters = 0; ///< submit() calls parked in backpressure
  std::uint64_t NextJobId = 1;
  bool Stopping = false;
};

} // namespace prdnn

#endif // PRDNN_API_REPAIRENGINE_H
