//===- core/RepairContext.h - job context for engine repairs ---*- C++ -*-===//
///
/// \file
/// The cooperative control channel between a running repair and its
/// observers: cancellation, per-phase progress, and (for tests) a
/// checkpoint hook. A JobContext is owned by the RepairEngine job (or
/// stack-allocated for synchronous runs) and passed by pointer into the
/// core algorithms, which
///
///  - announce phase transitions (LinRegions -> Jacobian -> Lp ->
///    Verify, mapping to Algorithm 2 line 2 / Algorithm 1 lines 4-6 /
///    lines 7-8 / lines 9-10 of the paper);
///  - publish monotonic item counters within each phase (Jacobian
///    chunks, constraint-generation rounds, verified points);
///  - poll for cancellation at chunk boundaries (and, via
///    SimplexOptions::CancelFlag, between simplex iterations). A
///    cancelled repair returns RepairStatus::Cancelled with its timing
///    stats stamped; it never tears partially-written state.
///
/// All observation methods are safe to call concurrently with the
/// running repair; counters are per-phase monotonic (a new phase or a
/// new sweep layer resets them, with the phase/sweep fields telling the
/// observer which epoch a snapshot belongs to).
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CORE_REPAIRCONTEXT_H
#define PRDNN_CORE_REPAIRCONTEXT_H

#include "cache/Fingerprint.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

namespace prdnn {

class ArtifactCache;

namespace obs {
class TraceBuffer;
struct TraceEvent;
} // namespace obs

/// Phases of an engine repair job, in execution order. LinRegions only
/// occurs for polytope requests (Algorithm 2's SyReNN transform);
/// Jacobian / Lp / Verify are Algorithm 1's three stages.
enum class RepairPhase {
  Queued,
  LinRegions,
  Jacobian,
  Lp,
  Verify,
  Done,
};

const char *toString(RepairPhase Phase);

/// One observation of a running job's progress.
struct ProgressSnapshot {
  RepairPhase Phase = RepairPhase::Queued;
  /// Work items finished / expected in the current phase. ItemsTotal
  /// is 0 when the total is unknown up front (the LP phase's
  /// constraint-generation rounds).
  std::int64_t ItemsDone = 0;
  std::int64_t ItemsTotal = 0;
  /// Layer currently being attempted (-1 before the first attempt) and
  /// the sweep position; SweepTotal is 1 for fixed-layer requests.
  int SweepLayer = -1;
  int SweepDone = 0;
  int SweepTotal = 0;
  bool CancelRequested = false;
  /// Artifact-cache lookups so far, across all phases of the job (0 /
  /// 0 when the job runs without a cache). Monotonic over the whole
  /// job, unlike the per-phase item counters.
  std::int64_t CacheHits = 0;
  std::int64_t CacheMisses = 0;
  /// Of CacheHits, those served by the persistent L2 store (0 when the
  /// engine has no store).
  std::int64_t StoreHits = 0;
};

/// Shared state of one repair job; see the file comment.
class JobContext {
public:
  JobContext() = default;
  JobContext(const JobContext &) = delete;
  JobContext &operator=(const JobContext &) = delete;

  // --- Observer side --------------------------------------------------------

  /// Requests cooperative cancellation; the repair notices at its next
  /// checkpoint and returns RepairStatus::Cancelled.
  void requestCancel() { Cancel.store(true, std::memory_order_relaxed); }

  bool cancelRequested() const {
    return Cancel.load(std::memory_order_relaxed);
  }

  /// The flag the LP solver polls (SimplexOptions::CancelFlag).
  const std::atomic<bool> *cancelFlag() const { return &Cancel; }

  ProgressSnapshot snapshot() const;

  // --- Repair side (called from the job thread) -----------------------------

  /// Cancellation checkpoint: records the current phase, invokes the
  /// checkpoint hook (if any), and returns whether the repair should
  /// stop. Called at phase and chunk boundaries only - never inside
  /// bit-for-bit-sensitive inner loops.
  bool checkpoint(RepairPhase Phase);

  /// Enters \p Phase with \p Total expected items (0 if unknown) and
  /// resets the item counter.
  void beginPhase(RepairPhase Phase, std::int64_t Total);

  /// Adds \p Count finished items to the current phase.
  void advance(std::int64_t Count = 1) {
    Done.fetch_add(Count, std::memory_order_relaxed);
  }

  void beginSweep(int Total) {
    SweepTotalV.store(Total, std::memory_order_relaxed);
  }
  void beginSweepLayer(int Layer) {
    SweepLayerV.store(Layer, std::memory_order_relaxed);
    if (TraceV)
      traceSetLayer(Layer);
  }
  void finishSweepLayer() {
    SweepDoneV.fetch_add(1, std::memory_order_relaxed);
    if (TraceV)
      traceEnd();
  }

  void markDone() { beginPhase(RepairPhase::Done, 0); }

  /// Closes the calling thread's open trace span. For a phase the job
  /// thread runs once for all its sweep attempts (the shared Jacobian
  /// pass), so that the span ends with the phase, whichever threads
  /// then run the attempts.
  void endPhaseSpan() {
    if (TraceV)
      traceEnd();
  }

  // --- Tracing (obs/Trace.h) ------------------------------------------------

  /// Installs the telemetry trace sink for this job. Same contract as
  /// setCache: written before the job runs, read from the job thread
  /// and the pool threads running its sweep attempts. A null buffer (the default) makes every trace
  /// path a no-op - the telemetry-off configuration.
  void setTrace(obs::TraceBuffer *Buffer, std::uint64_t JobId) {
    TraceV = Buffer;
    TraceJobId = JobId;
  }

  obs::TraceBuffer *trace() const { return TraceV; }
  std::uint64_t traceJobId() const { return TraceJobId; }

  // --- Artifact cache (cache/ArtifactCache.h) -------------------------------

  /// Installs the engine's shared artifact cache for this job, with
  /// the request network's content fingerprint. Must be called before
  /// the job runs (the engine does, when caching is enabled for the
  /// request); the repair algorithms read it from the job thread.
  void setCache(ArtifactCache *NewCache, NetworkFingerprint Fingerprint) {
    CacheV = NewCache;
    NetFp = Fingerprint;
  }

  /// The cache the job's repairs should consult, or null.
  ArtifactCache *cache() const { return CacheV; }

  /// Fingerprint of the request's network (meaningful iff cache() is
  /// non-null).
  const NetworkFingerprint &networkFingerprint() const { return NetFp; }

  void noteCacheHits(std::int64_t Count) {
    CacheHitsV.fetch_add(Count, std::memory_order_relaxed);
  }
  void noteCacheMisses(std::int64_t Count) {
    CacheMissesV.fetch_add(Count, std::memory_order_relaxed);
  }
  void noteStoreHits(std::int64_t Count) {
    StoreHitsV.fetch_add(Count, std::memory_order_relaxed);
  }

  /// Installs a hook invoked (on the job thread) at every checkpoint
  /// with the checkpoint's phase - the deterministic way for tests to
  /// cancel "mid-Jacobian" or "mid-LP". Must be installed before the
  /// job starts; the engine forwards the hook given to submit().
  void setCheckpointHook(std::function<void(RepairPhase)> NewHook) {
    Hook = std::move(NewHook);
  }

  /// Moves the checkpoint hook out, leaving none installed. The engine
  /// calls it as the job resolves (on the job thread, or for a job that
  /// never ran), so a hook that captures the job's own handle cannot
  /// keep the job alive.
  std::function<void(RepairPhase)> takeCheckpointHook() {
    std::function<void(RepairPhase)> Out = std::move(Hook);
    Hook = nullptr;
    return Out;
  }

  /// Whether a checkpoint hook is installed. The engine runs hooked
  /// jobs' sweeps in a plain loop on the job thread
  /// (api/RepairEngine.h): the hook
  /// contract says "invoked on the job thread", and tests rely on
  /// deterministic single-threaded hook invocation to cancel at exact
  /// checkpoints.
  bool hasCheckpointHook() const { return static_cast<bool>(Hook); }

private:
  /// One per-thread open span, keyed by obs::threadOrdinal(): a serial
  /// sweep only ever holds one entry, a pooled sweep one per thread
  /// that ran one of its attempts. Guarded by TraceMutex; all trace methods
  /// are no-ops when TraceV is null, so the lock is never taken (and
  /// telemetry-off runs take no new synchronization at all).
  struct OpenSpan {
    const char *Name = "";
    std::uint64_t StartNanos = 0;
    std::int32_t Layer = -1;
    std::int64_t CacheHits0 = 0;
    std::int64_t CacheMisses0 = 0;
    std::int64_t StoreHits0 = 0;
    bool Open = false;
  };

  obs::TraceEvent closeEvent(const OpenSpan &Span, std::uint32_t ThreadId,
                             std::uint64_t Now) const;
  /// Closes the calling thread's span (if open) and opens a new one
  /// named after \p Phase; Done instead closes every remaining span.
  void tracePhase(RepairPhase Phase);
  /// Closes the calling thread's span (pooled sweeps: each thread
  /// closes its own layer span).
  void traceEnd();
  /// Tags the calling thread's spans with \p Layer.
  void traceSetLayer(int Layer);

  std::atomic<bool> Cancel{false};
  std::atomic<int> PhaseV{static_cast<int>(RepairPhase::Queued)};
  std::atomic<std::int64_t> Done{0};
  std::atomic<std::int64_t> Total{0};
  std::atomic<int> SweepLayerV{-1};
  std::atomic<int> SweepDoneV{0};
  std::atomic<int> SweepTotalV{0};
  std::atomic<std::int64_t> CacheHitsV{0};
  std::atomic<std::int64_t> CacheMissesV{0};
  std::atomic<std::int64_t> StoreHitsV{0};
  /// Written before the job runs, read only from the job thread.
  ArtifactCache *CacheV = nullptr;
  NetworkFingerprint NetFp;
  /// Written before the job runs, read only from the job thread, and
  /// released as the job resolves (takeCheckpointHook).
  std::function<void(RepairPhase)> Hook;
  /// Written before the job runs (setTrace), read from job threads.
  obs::TraceBuffer *TraceV = nullptr;
  std::uint64_t TraceJobId = 0;
  std::mutex TraceMutex;
  std::map<std::uint32_t, OpenSpan> TraceSpans;
};

} // namespace prdnn

#endif // PRDNN_CORE_REPAIRCONTEXT_H
