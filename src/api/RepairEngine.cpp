//===- api/RepairEngine.cpp -----------------------------------------------===//

#include "api/RepairEngine.h"

#include "cache/Fingerprint.h"
#include "core/PolytopeRepair.h"
#include "core/SpecRows.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "persist/ArtifactStore.h"
#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Timer.h"
#include "syrenn/PlaneTransform.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <optional>
#include <utility>

using namespace prdnn;

/// Shards of the engine cache's map (per-shard mutex + LRU slice).
constexpr int kCacheShards = 16;

namespace {

/// Whether the LP can edit layer \p Layer under \p Options: a
/// parameterized linear layer whose size the parameter mask, if any,
/// matches, with at least one parameter left unfrozen.
bool repairableLayer(const Network &Net, int Layer,
                     const RepairOptions &Options) {
  if (Layer < 0 || Layer >= Net.numLayers())
    return false;
  const auto *Linear = dyn_cast<LinearLayer>(&Net.layer(Layer));
  if (!Linear || Linear->numParams() == 0)
    return false;
  const std::optional<std::vector<bool>> &Mask = Options.ParamMask;
  return !Mask || (static_cast<int>(Mask->size()) == Linear->numParams() &&
                   std::find(Mask->begin(), Mask->end(), true) != Mask->end());
}

bool fitsOutput(const Network &Net, const OutputConstraint &C) {
  return C.A.cols() == Net.outputSize() && C.B.size() == C.A.rows();
}

/// A pinned pattern needs a PWL network and one entry per layer, each
/// activation's sized to its output.
bool fitsPattern(const Network &Net, const NetworkPattern &Pattern) {
  if (!Net.isPiecewiseLinear() ||
      static_cast<int>(Pattern.Patterns.size()) != Net.numLayers())
    return false;
  for (int I = 0; I < Net.numLayers(); ++I)
    if (!Net.layer(I).isLinear() &&
        static_cast<int>(Pattern.Patterns[static_cast<size_t>(I)].size()) !=
            Net.layer(I).outputSize())
      return false;
  return true;
}

/// Whether planeRegions can take \p Net: it splits polygons only at
/// elementwise activations' thresholds, so a max-pool layer rules it out.
bool fitsPlaneTransform(const Network &Net) {
  for (int I = 0; I < Net.numLayers(); ++I)
    if (!Net.layer(I).isLinear() &&
        !isa<ElementwiseActivation>(&Net.layer(I)))
      return false;
  return true;
}

/// Whether \p Request's candidate layers, mask and spec fit its network:
/// the repair pipeline asserts these shapes rather than checking them.
bool fitsNetwork(const RepairRequest &Request,
                 const std::vector<int> &Candidates) {
  const Network &Net = *Request.Net;
  if (Candidates.empty())
    return false;
  for (int Layer : Candidates)
    if (!repairableLayer(Net, Layer, Request.Options))
      return false;
  auto FitsInput = [&](const Vector &X) { return X.size() == Net.inputSize(); };
  if (!Request.isPolytope()) {
    for (const SpecPoint &Point : std::get<PointSpec>(Request.Spec))
      if (!FitsInput(Point.X) || !fitsOutput(Net, Point.Constraint) ||
          (Point.Pattern && !fitsPattern(Net, *Point.Pattern)))
        return false;
    return true;
  }
  if (!Net.isPiecewiseLinear())
    return false;
  for (const SpecPolytope &Poly : std::get<PolytopeSpec>(Request.Spec)) {
    if (!fitsOutput(Net, Poly.Constraint))
      return false;
    if (const auto *Segment = std::get_if<SegmentPolytope>(&Poly.Shape)) {
      if (!FitsInput(Segment->A) || !FitsInput(Segment->B))
        return false;
      continue;
    }
    const std::vector<Vector> &Vertices =
        std::get<PlanePolytope>(Poly.Shape).Vertices;
    if (!fitsPlaneTransform(Net) ||
        !std::all_of(Vertices.begin(), Vertices.end(), FitsInput) ||
        !isProperPlane(Vertices))
      return false;
  }
  return true;
}

} // namespace

/// Shared state of one submitted job: the request, its context, and
/// the promise-like (mutex + condvar) result slot JobHandle waits on.
struct prdnn::detail::EngineJob {
  std::uint64_t Id = 0;
  RepairRequest Request;
  JobContext Ctx;
  WallTimer Submitted; ///< started at submit; read when a worker pops

  /// Invoked once as the job resolves (see RepairEngine::submit);
  /// written before the job is published, read by the resolving thread.
  std::function<void(const RepairReport &)> CompletionHook;

  mutable std::mutex Mutex;
  mutable std::condition_variable Cv;
  bool Finished = false;
  RepairReport Report;

  void resolve(RepairReport NewReport) {
    {
      // Both hooks are moved out and die here, before the report is
      // published: a hook that captures this job's own JobHandle would
      // otherwise keep the job and its request alive for good. Every
      // caller holds the job, so this never destroys it.
      std::function<void(const RepairReport &)> Completion =
          std::move(CompletionHook);
      CompletionHook = nullptr;
      std::function<void(RepairPhase)> Checkpoint = Ctx.takeCheckpointHook();
      // The completion hook runs before Finished flips so that a caller
      // blocked in report() can rely on completion-side effects (e.g.
      // an admission slot released) having happened by the time its
      // wait returns.
      if (Completion)
        Completion(NewReport);
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Report = std::move(NewReport);
      Finished = true;
    }
    Cv.notify_all();
  }
};

// --- JobHandle --------------------------------------------------------------

std::uint64_t JobHandle::id() const { return State ? State->Id : 0; }

bool JobHandle::done() const {
  assert(State && "invalid JobHandle");
  std::lock_guard<std::mutex> Lock(State->Mutex);
  return State->Finished;
}

void JobHandle::wait() const {
  assert(State && "invalid JobHandle");
  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Cv.wait(Lock, [&] { return State->Finished; });
}

bool JobHandle::waitFor(double Seconds) const {
  assert(State && "invalid JobHandle");
  std::unique_lock<std::mutex> Lock(State->Mutex);
  return State->Cv.wait_for(
      Lock, std::chrono::duration<double>(Seconds > 0.0 ? Seconds : 0.0),
      [&] { return State->Finished; });
}

const RepairReport &JobHandle::report() const {
  wait();
  return State->Report;
}

ProgressSnapshot JobHandle::progress() const {
  assert(State && "invalid JobHandle");
  return State->Ctx.snapshot();
}

void JobHandle::cancel() const {
  assert(State && "invalid JobHandle");
  State->Ctx.requestCancel();
}

// --- RepairEngine -----------------------------------------------------------

RepairEngine::RepairEngine(EngineOptions Options) : Opts(Options) {
  if (Opts.NumWorkers < 1)
    Opts.NumWorkers = 1;
  if (Opts.QueueCapacity < 1)
    Opts.QueueCapacity = 1;
  if (Opts.EnableCache && Opts.CacheBudgetBytes > 0) {
    if (!Opts.StoreDirectory.empty()) {
      persist::StoreOptions StoreOpts;
      StoreOpts.Directory = Opts.StoreDirectory;
      StoreOpts.BudgetBytes = Opts.StoreBudgetBytes;
      Store = std::make_shared<persist::ArtifactStore>(std::move(StoreOpts));
    }
    Cache = std::make_shared<ArtifactCache>(Opts.CacheBudgetBytes,
                                            kCacheShards, Store);
  }
  T = Opts.Telemetry.get();
  if (T)
    registerTelemetry();
}

void RepairEngine::registerTelemetry() {
  obs::MetricsRegistry &Reg = T->Registry;
  // Queue / worker state, sampled live at every snapshot. The
  // collectors capture `this`; the destructor removes them (owner
  // tag) before any engine state goes away.
  Reg.addCollector(this, "prdnn_engine_queue_depth", obs::MetricType::Gauge,
                   "Jobs queued across priority classes",
                   [this] { return double(queueStats().Depth); });
  Reg.addCollector(this, "prdnn_engine_jobs_running", obs::MetricType::Gauge,
                   "Jobs a worker is executing now",
                   [this] { return double(queueStats().Running); });
  Reg.addCollector(this, "prdnn_engine_queue_oldest_wait_seconds",
                   obs::MetricType::Gauge,
                   "Longest current queue wait in seconds",
                   [this] { return queueStats().OldestWaitSeconds; });
  // Cache / store counters, mirrored rather than owned: the cache
  // keeps its own atomics (older callers read cacheStats() directly),
  // the registry samples them.
  if (Cache) {
    auto CacheVal = [this](auto Member) {
      return [this, Member]() { return double(cacheStats().*Member); };
    };
    Reg.addCollector(this, "prdnn_cache_hits_total",
                     obs::MetricType::Counter, "Artifact-cache hits",
                     CacheVal(&CacheStats::Hits));
    Reg.addCollector(this, "prdnn_cache_misses_total",
                     obs::MetricType::Counter, "Artifact-cache misses",
                     CacheVal(&CacheStats::Misses));
    Reg.addCollector(this, "prdnn_cache_evictions_total",
                     obs::MetricType::Counter, "Artifact-cache evictions",
                     CacheVal(&CacheStats::Evictions));
    Reg.addCollector(this, "prdnn_cache_insertions_total",
                     obs::MetricType::Counter, "Artifact-cache insertions",
                     CacheVal(&CacheStats::Insertions));
    Reg.addCollector(this, "prdnn_cache_bytes_held", obs::MetricType::Gauge,
                     "Bytes of retained artifacts",
                     CacheVal(&CacheStats::BytesHeld));
    Reg.addCollector(this, "prdnn_cache_entries", obs::MetricType::Gauge,
                     "Retained artifact count",
                     CacheVal(&CacheStats::Entries));
  }
  if (Store) {
    auto StoreVal = [this](auto Member) {
      return [this, Member]() { return double(storeStats().*Member); };
    };
    Reg.addCollector(this, "prdnn_store_hits_total",
                     obs::MetricType::Counter, "L2 store load hits",
                     StoreVal(&persist::StoreStats::Hits));
    Reg.addCollector(this, "prdnn_store_misses_total",
                     obs::MetricType::Counter, "L2 store load misses",
                     StoreVal(&persist::StoreStats::Misses));
    Reg.addCollector(this, "prdnn_store_writes_total",
                     obs::MetricType::Counter, "L2 store entries published",
                     StoreVal(&persist::StoreStats::Writes));
    Reg.addCollector(this, "prdnn_store_evictions_total",
                     obs::MetricType::Counter, "L2 store GC evictions",
                     StoreVal(&persist::StoreStats::Evictions));
    Reg.addCollector(this, "prdnn_store_corrupt_skips_total",
                     obs::MetricType::Counter,
                     "L2 entries rejected by validation",
                     StoreVal(&persist::StoreStats::CorruptSkips));
    Reg.addCollector(this, "prdnn_store_bytes_held", obs::MetricType::Gauge,
                     "Approximate on-disk footprint",
                     StoreVal(&persist::StoreStats::BytesHeld));
  }
  // The uniform-reset hook: MetricsRegistry::reset() reaches the
  // cache/store counters the collectors above mirror.
  Reg.addResetHook(this, [this] { resetCacheStats(); });
}

void RepairEngine::recordJobMetrics(const RepairReport &Report) {
  if (!T)
    return;
  T->JobsCompleted->inc();
  switch (Report.Status) {
  case RepairStatus::Success:
    T->JobsSucceeded->inc();
    break;
  case RepairStatus::Infeasible:
    T->JobsInfeasible->inc();
    break;
  case RepairStatus::Cancelled:
    T->JobsCancelled->inc();
    break;
  case RepairStatus::SolverFailure:
    T->JobsFailed->inc();
    break;
  }
  T->QueueWaitSeconds->observe(Report.QueueSeconds);
  T->JobSeconds->observe(Report.TotalSeconds);
  for (const SweepAttempt &Attempt : Report.Sweep) {
    T->SweepAttempts->inc();
    T->JacobianSeconds->observe(Attempt.JacobianSeconds);
    T->LpSeconds->observe(Attempt.LpSeconds);
    if (Attempt.LinRegionsSeconds > 0.0)
      T->LinRegionsSeconds->observe(Attempt.LinRegionsSeconds);
  }
  // Kernel totals ride on the winning (or last) attempt's RepairStats.
  const lp::SimplexStats &K = Report.Result.Stats.LpKernels;
  T->LpIterations->add(double(K.Iterations));
  T->LpRefactors->add(double(K.Refactors));
  T->LpPricingSeconds->add(K.PricingSeconds);
  T->LpFtranSeconds->add(K.FtranSeconds);
  T->LpBtranSeconds->add(K.BtranSeconds);
  T->LpRatioSeconds->add(K.RatioSeconds);
  T->LpUpdateSeconds->add(K.UpdateSeconds);
  T->LpRefactorSeconds->add(K.RefactorSeconds);
  if (Report.Result.Stats.VerifyTolerance > 0.0) {
    T->VerifiedViolation->set(Report.Result.Stats.VerifiedViolation);
    T->VerifyTolerance->set(Report.Result.Stats.VerifyTolerance);
  }
}

bool RepairEngine::hasStore() const { return Store != nullptr; }

persist::StoreStats RepairEngine::storeStats() const {
  return Store ? Store->stats() : persist::StoreStats();
}

void RepairEngine::flushStore() {
  if (Store)
    Store->flush();
}

int RepairEngine::queuedCount() const {
  int Count = 0;
  for (const auto &Q : Queues)
    Count += static_cast<int>(Q.size());
  return Count;
}

std::shared_ptr<detail::EngineJob> RepairEngine::popNext() {
  if (Opts.AgingSeconds <= 0.0) {
    // Strict class order, FIFO within a class.
    for (auto &Q : Queues)
      if (!Q.empty()) {
        std::shared_ptr<detail::EngineJob> Job = Q.front();
        Q.pop_front();
        return Job;
      }
    assert(false && "popNext on an empty queue");
    return nullptr;
  }

  // Queue aging (EngineOptions::AgingSeconds): serve the job with the
  // best *effective* class - the requested class minus one promotion
  // per AgingSeconds waited - breaking ties on submission order. Only
  // queue fronts need inspecting: within one queue the front is the
  // oldest, so no job behind it has a better effective class or an
  // earlier id. Promotion is evaluated here, at pop time, which is the
  // only moment ordering matters (a job can only wait while every
  // worker is busy, and each worker re-pops as it frees).
  std::size_t BestQ = Queues.size();
  int BestClass = 0;
  std::uint64_t BestId = 0;
  for (std::size_t Q = 0; Q < Queues.size(); ++Q) {
    if (Queues[Q].empty())
      continue;
    const detail::EngineJob &Front = *Queues[Q].front();
    double Promotions = Front.Submitted.seconds() / Opts.AgingSeconds;
    int Class = static_cast<int>(Q);
    if (Promotions >= static_cast<double>(Class))
      Class = 0;
    else
      Class -= static_cast<int>(Promotions);
    if (BestQ == Queues.size() || Class < BestClass ||
        (Class == BestClass && Front.Id < BestId)) {
      BestQ = Q;
      BestClass = Class;
      BestId = Front.Id;
    }
  }
  assert(BestQ < Queues.size() && "popNext on an empty queue");
  std::shared_ptr<detail::EngineJob> Job = Queues[BestQ].front();
  Queues[BestQ].pop_front();
  return Job;
}

RepairEngine::~RepairEngine() {
  // First thing: detach our collectors/hook from the registry so a
  // Telemetry outliving this engine never samples torn-down state.
  if (T)
    T->Registry.removeOwner(this);
  std::deque<std::shared_ptr<detail::EngineJob>> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
    // Drain in priority order: handles resolve in the order the queue
    // would have served.
    for (auto &Q : Queues) {
      for (auto &Job : Q)
        Orphans.push_back(std::move(Job));
      Q.clear();
    }
  }
  WorkCv.notify_all();
  SpaceCv.notify_all();
  // Resolve never-run jobs as Cancelled so their handles don't hang.
  for (auto &Job : Orphans) {
    Job->Ctx.requestCancel();
    RepairReport Report;
    Report.JobId = Job->Id;
    Report.Status = RepairStatus::Cancelled;
    Report.QueueSeconds = Job->Submitted.seconds();
    Job->Ctx.markDone();
    recordJobMetrics(Report);
    Job->resolve(std::move(Report));
  }
  {
    // Submitters parked in backpressure wake on Stopping, resolve
    // their jobs as Cancelled, and leave; wait for them so Mutex and
    // the condvars are never destroyed under a blocked submit().
    // (Calling submit() *after* destruction begins remains a caller
    // bug, as for any C++ object.)
    std::unique_lock<std::mutex> Lock(Mutex);
    SpaceCv.wait(Lock, [&] { return WaitingSubmitters == 0; });
  }
  for (std::thread &W : Workers)
    W.join();
}

RepairReport RepairEngine::run(const RepairRequest &Request) {
  JobContext Ctx;
  return execute(Request, Ctx, /*JobId=*/0, /*QueueSeconds=*/0.0);
}

JobHandle RepairEngine::submit(RepairRequest Request,
                               std::function<void(RepairPhase)>
                                   CheckpointHook,
                               std::function<void(const RepairReport &)>
                                   CompletionHook) {
  auto Job = std::make_shared<detail::EngineJob>();
  Job->Request = std::move(Request);
  if (CheckpointHook)
    Job->Ctx.setCheckpointHook(std::move(CheckpointHook));
  Job->CompletionHook = std::move(CompletionHook);
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    assert(!Stopping && "submit() on a destructing engine");
    // Lazy worker start: engines used only for run() stay threadless.
    if (Workers.empty()) {
      Workers.reserve(static_cast<size_t>(Opts.NumWorkers));
      for (int I = 0; I < Opts.NumWorkers; ++I)
        Workers.emplace_back([this] { workerMain(); });
    }
    ++WaitingSubmitters;
    SpaceCv.wait(Lock, [&] {
      return Stopping || queuedCount() < Opts.QueueCapacity;
    });
    --WaitingSubmitters;
    Job->Id = NextJobId++;
    Job->Submitted.reset();
    if (T)
      T->JobsSubmitted->inc();
    if (Stopping) {
      // Destruction began while we were parked in backpressure (the
      // destructor waits for us before tearing anything down): resolve
      // instead of enqueueing onto a queue nobody will drain.
      SpaceCv.notify_all(); // let the destructor's drain-wait proceed
      Lock.unlock();
      Job->Ctx.requestCancel();
      RepairReport Report;
      Report.JobId = Job->Id;
      Report.Status = RepairStatus::Cancelled;
      Job->Ctx.markDone();
      recordJobMetrics(Report);
      Job->resolve(std::move(Report));
      return JobHandle(Job);
    }
    Queues[static_cast<size_t>(Job->Request.JobPriority)].push_back(Job);
  }
  WorkCv.notify_one();
  return JobHandle(Job);
}

int RepairEngine::pendingJobs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return queuedCount() + Running;
}

EngineQueueStats RepairEngine::queueStats() const {
  EngineQueueStats Stats;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (std::size_t Q = 0; Q < Queues.size(); ++Q) {
    Stats.QueuedByClass[Q] = static_cast<int>(Queues[Q].size());
    Stats.Depth += Stats.QueuedByClass[Q];
    // FIFO within a class: the front is the class's oldest waiter.
    if (!Queues[Q].empty())
      Stats.OldestWaitSeconds =
          std::max(Stats.OldestWaitSeconds,
                   Queues[Q].front()->Submitted.seconds());
  }
  Stats.Running = Running;
  return Stats;
}

void RepairEngine::workerMain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    WorkCv.wait(Lock, [&] { return Stopping || queuedCount() > 0; });
    if (queuedCount() == 0)
      return; // Stopping and drained
    std::shared_ptr<detail::EngineJob> Job = popNext();
    ++Running;
    SpaceCv.notify_one();
    Lock.unlock();

    double QueueSeconds = Job->Submitted.seconds();
    if (T) {
      // The Queued span is the engine's to emit: the job context only
      // sees the job from execution onward.
      obs::TraceEvent E;
      E.JobId = Job->Id;
      E.Name = "Queued";
      E.ThreadId = obs::threadOrdinal();
      const auto QueueNanos =
          static_cast<std::uint64_t>(QueueSeconds * 1e9);
      const std::uint64_t Now = obs::TraceBuffer::nowNanos();
      E.StartNanos = Now > QueueNanos ? Now - QueueNanos : 0;
      E.DurationNanos = QueueNanos;
      T->Trace.record(E);
    }
    RepairReport Report =
        execute(Job->Request, Job->Ctx, Job->Id, QueueSeconds);

    // Drop the Running count before resolving, so a handle whose
    // report() returned never sees itself still counted as pending.
    Lock.lock();
    --Running;
    Lock.unlock();
    recordJobMetrics(Report);
    Job->resolve(std::move(Report));
    Lock.lock();
  }
}

RepairReport RepairEngine::execute(const RepairRequest &Request,
                                   JobContext &Ctx, std::uint64_t JobId,
                                   double QueueSeconds) {
  assert(Request.Net && "RepairRequest without a network");
  WallTimer Total;
  RepairReport Report;
  Report.JobId = JobId;
  Report.QueueSeconds = QueueSeconds;

  const Network &Net = *Request.Net;
  const RepairOptions &Options = Request.Options;
  std::vector<int> Candidates;
  if (Request.isSweep())
    Candidates = Request.SweepLayers.empty()
                     ? Net.parameterizedLayerIndices()
                     : Request.SweepLayers;
  else
    Candidates.push_back(Request.LayerIndex);
  // Values the pipeline cannot run, and requests that do not fit the
  // network, fail here, before any phase and with no LP work.
  if (!validRepairOptions(Options) || !fitsNetwork(Request, Candidates)) {
    Report.Status = RepairStatus::SolverFailure;
    Report.Result.Status = RepairStatus::SolverFailure;
    Report.TotalSeconds = Total.seconds();
    Ctx.markDone();
    return Report;
  }
  // Hand the engine's shared artifact cache to the job. The network
  // fingerprint (content hash of topology + parameter bits) is what
  // keys this job's artifacts, so jobs on different - or mutated -
  // networks can never alias each other's entries.
  if (Cache && Options.UseCache)
    Ctx.setCache(Cache.get(), fingerprintNetwork(Net));
  // Same written-before-run contract as setCache. run() calls land
  // here too (JobId 0), so inline runs trace alongside queued jobs.
  if (T)
    Ctx.setTrace(&T->Trace, JobId);
  Ctx.beginSweep(static_cast<int>(Candidates.size()));

  /// The sweep's comparison measure: the objective norm of Delta
  /// (Definition 5.3), so "minimal-norm success" matches what each
  /// per-layer LP minimized.
  auto ObjectiveNorm = [&](const RepairResult &R) {
    switch (Options.Objective) {
    case lp::Norm::L1:
      return R.DeltaL1;
    case lp::Norm::LInf:
      return R.DeltaLInf;
    case lp::Norm::L1PlusLInf:
      return R.DeltaL1 + R.DeltaLInf; // unit LInf weight, as in the LP
    }
    return R.DeltaL1;
  };

  RepairResult Best;
  double BestNorm = std::numeric_limits<double>::infinity();
  int BestLayer = -1;
  RepairResult LastUnsuccessful;
  bool SawCancel = false;
  bool SawFailure = false;

  // Algorithm 2's LinRegions phase: the SyReNN transform is
  // layer-independent, so compute the key points once, before any
  // attempt runs, and share them across candidates (a fixed-layer
  // request is a sweep with one candidate) - and, with the engine
  // cache, across *jobs* too (a SyrennTransform / PatternBatch artifact
  // hit). Attempts only ever read SharedKeyPoints, so they can run
  // concurrently.
  std::optional<KeyPointsResult> SharedKeyPoints;
  if (Request.isPolytope()) {
    const auto &PolySpec = std::get<PolytopeSpec>(Request.Spec);
    Ctx.beginPhase(RepairPhase::LinRegions,
                   static_cast<std::int64_t>(PolySpec.size()));
    if (Ctx.checkpoint(RepairPhase::LinRegions)) {
      SawCancel = true;
    } else {
      SharedKeyPoints.emplace(
          keyPoints(Net, PolySpec, &Ctx, Options.UseCache));
      Ctx.advance(static_cast<std::int64_t>(PolySpec.size()));
    }
  }

  // Algorithm 1's Jacobian phase is layer-independent too: the spec's
  // Delta = 0 forward state (core/SpecRows.h, SpecState) is one batched
  // pass, on the job thread before any attempt runs, from the first
  // candidate layer on. Every attempt reads its own slice of it; a
  // fixed-layer request is a one-candidate sweep. The pass is polled for
  // cancellation between chunks, traced as a Jacobian span and credited
  // to the first candidate below, like the transform. The state lives
  // for this job only.
  std::optional<detail::SpecState> State;
  double StateSeconds = 0.0;
  bool StateCut = false;
  // Null only for a polytope job cancelled in its LinRegions phase.
  const PointSpec *Points = SharedKeyPoints
                                ? &SharedKeyPoints->Points
                                : std::get_if<PointSpec>(&Request.Spec);
  const auto NumPoints = static_cast<int>(Points ? Points->size() : 0);
  if (!SawCancel && Ctx.cancelRequested()) {
    SawCancel = true; // cancelled before the job's first phase
  } else if (!SawCancel) {
    WallTimer Timer;
    Ctx.beginPhase(RepairPhase::Jacobian, NumPoints);
    StateCut = Ctx.checkpoint(RepairPhase::Jacobian);
    if (!StateCut) {
      State.emplace(Net, *Points, Candidates);
      for (int Base = 0; Base < NumPoints;
           Base += detail::SpecState::chunkPoints()) {
        StateCut = Ctx.checkpoint(RepairPhase::Jacobian);
        if (StateCut)
          break;
        int Count = std::min(detail::SpecState::chunkPoints(),
                             NumPoints - Base);
        State->compute(Base, Base + Count);
        Ctx.advance(Count);
      }
      if (!StateCut && Ctx.cache())
        State->hashSpec();
    }
    Ctx.endPhaseSpan();
    StateSeconds = Timer.seconds();
  }

  auto RunAttempt = [&](int Layer) -> RepairResult {
    RepairResult Attempt =
        detail::repairPointsImpl(*State, Layer, Options, &Ctx);
    if (SharedKeyPoints) {
      // Stamp the Algorithm 2 stats; the transform itself is credited to
      // the first candidate below.
      Attempt.Stats.KeyPoints =
          static_cast<int>(SharedKeyPoints->Points.size());
      Attempt.Stats.LinearRegions = SharedKeyPoints->LinearRegions;
    }
    return Attempt;
  };

  auto MakeEntry = [](int Layer, const RepairResult &Attempt) {
    SweepAttempt Entry;
    Entry.LayerIndex = Layer;
    Entry.Status = Attempt.Status;
    Entry.DeltaL1 = Attempt.DeltaL1;
    Entry.DeltaLInf = Attempt.DeltaLInf;
    // The phase breakdown rides on RepairStats, which every exit path
    // of the impls stamps (early Infeasible returns and cancellations
    // included) - so these are valid for *all* attempts, making
    // cache-hit vs cache-miss attempts comparable in the sweep log.
    Entry.Seconds = Attempt.Stats.TotalSeconds;
    Entry.JacobianSeconds = Attempt.Stats.JacobianSeconds;
    Entry.LpSeconds = Attempt.Stats.LpSeconds;
    Entry.LinRegionsSeconds = Attempt.Stats.LinRegionsSeconds;
    Entry.LpIterations = Attempt.Stats.LpIterations;
    Entry.LpRefactors = Attempt.Stats.LpKernels.Refactors;
    Entry.CacheHits = Attempt.Stats.cacheHits();
    Entry.CacheMisses = Attempt.Stats.cacheMisses();
    Entry.StoreHits = Attempt.Stats.storeHits();
    Entry.WarmStarted = Attempt.Stats.BasisHits > 0;
    return Entry;
  };

  /// Folds one finished attempt (in candidate order) into the winner /
  /// failure bookkeeping. Returns false when the sweep must stop here
  /// (the attempt was cancelled).
  auto FoldAttempt = [&](int Layer, RepairResult &&Attempt) {
    if (Attempt.Status == RepairStatus::Cancelled) {
      SawCancel = true;
      LastUnsuccessful = std::move(Attempt);
      return false;
    }
    if (Attempt.Status == RepairStatus::Success) {
      // Strict < keeps the earliest candidate on ties, making sweeps
      // deterministic for any tie pattern.
      double Norm = ObjectiveNorm(Attempt);
      if (Norm < BestNorm) {
        BestNorm = Norm;
        BestLayer = Layer;
        Best = std::move(Attempt);
      }
    } else {
      SawFailure |= Attempt.Status == RepairStatus::SolverFailure;
      LastUnsuccessful = std::move(Attempt);
    }
    return true;
  };

  // Run the independent attempts as one pool loop, one candidate per
  // chunk, then assemble the report serially in candidate order -
  // bit-identical at any pool size because attempts share no mutable
  // state (each repairPointsImpl run is a pure function of its inputs
  // at any thread count, and the artifact cache is a content-addressed
  // concurrent consumer). An attempt's own parallel loops run inline
  // on the thread that claimed it, as nested loops do. A job with a
  // checkpoint hook runs the same body in a plain loop: the hook's
  // contract is "invoked on the job thread", and the cancellation
  // tests rely on it.
  if (!SawCancel) {
    // A candidate claimed after a cancel leaves its slot empty;
    // exceptions rethrow out of the loop.
    std::vector<std::optional<RepairResult>> Results(Candidates.size());
    auto RunCandidates = [&](std::int64_t Begin, std::int64_t End) {
      for (std::int64_t C = Begin; C < End; ++C) {
        if (Ctx.cancelRequested())
          return;
        Ctx.beginSweepLayer(Candidates[static_cast<size_t>(C)]);
        Results[static_cast<size_t>(C)].emplace(
            RunAttempt(Candidates[static_cast<size_t>(C)]));
        Ctx.finishSweepLayer();
      }
    };
    const auto NumCandidates = static_cast<std::int64_t>(Candidates.size());
    if (StateCut) {
      // The cancel landed in the shared pass: the first candidate's
      // attempt stopped in its Jacobian phase, with nothing else run.
      RepairResult &Cut = Results[0].emplace();
      Cut.Status = RepairStatus::Cancelled;
      Cut.Stats.SpecPoints = NumPoints;
      Cut.Stats.SpecRows = State ? State->numRows() : 0;
    } else if (Ctx.hasCheckpointHook()) {
      RunCandidates(0, NumCandidates);
    } else {
      // Each candidate is a whole repair attempt: always the pool.
      parallelForRanges(0, NumCandidates,
                        std::numeric_limits<double>::infinity(), RunCandidates);
    }
    if (Results[0]) {
      RepairStats &S = Results[0]->Stats;
      S.JacobianSeconds += StateSeconds;
      S.TotalSeconds += StateSeconds;
    }
    if (SharedKeyPoints && Results[0]) {
      RepairStats &S = Results[0]->Stats;
      S.LinRegionsSeconds = SharedKeyPoints->Seconds;
      S.TotalSeconds += SharedKeyPoints->Seconds;
      S.LinRegionsCacheHits = SharedKeyPoints->TransformCacheHits;
      S.LinRegionsCacheMisses = SharedKeyPoints->TransformCacheMisses;
      S.PatternCacheHits = SharedKeyPoints->PatternCacheHits;
      S.PatternCacheMisses = SharedKeyPoints->PatternCacheMisses;
      S.LinRegionsStoreHits = SharedKeyPoints->TransformStoreHits;
      S.PatternStoreHits = SharedKeyPoints->PatternStoreHits;
    }
    for (size_t C = 0; C < Candidates.size(); ++C) {
      if (!Results[C]) {
        // Empty slot: the cancel landed before this candidate ran. The
        // minimal-norm contract needs the full sweep, so a cut-short
        // sweep reports Cancelled rather than a possibly-non-minimal
        // best-so-far.
        SawCancel = true;
        break;
      }
      RepairResult Attempt = std::move(*Results[C]);
      Report.Sweep.push_back(MakeEntry(Candidates[C], Attempt));
      if (!FoldAttempt(Candidates[C], std::move(Attempt)))
        break;
    }
  }

  if (SawCancel) {
    Report.Status = RepairStatus::Cancelled;
    // LastUnsuccessful is the cancelled attempt when one ran; when the
    // cancel landed *between* attempts it may be empty (or an earlier
    // failure), so restate the status either way for consistency.
    Report.Result = std::move(LastUnsuccessful);
    Report.Result.Status = RepairStatus::Cancelled;
  } else if (BestLayer >= 0) {
    Report.Status = RepairStatus::Success;
    Report.RepairedLayer = BestLayer;
    Report.Result = std::move(Best);
  } else {
    Report.Status = SawFailure ? RepairStatus::SolverFailure
                               : RepairStatus::Infeasible;
    Report.Result = std::move(LastUnsuccessful);
    Report.Result.Status = Report.Status;
  }
  for (const SweepAttempt &Attempt : Report.Sweep) {
    Report.CacheHits += Attempt.CacheHits;
    Report.CacheMisses += Attempt.CacheMisses;
    Report.StoreHits += Attempt.StoreHits;
  }
  Report.TotalSeconds = Total.seconds();
  Ctx.markDone();
  return Report;
}

// --- One-shot wrappers (the pre-engine public API) --------------------------
//
// Bit-for-bit identical to calling the algorithms directly: a fixed-
// layer request executes exactly one repairPointsImpl call (after
// keyPoints, for polytopes) with a null-equivalent context, and run()
// adds no work around it.

namespace {

RepairEngine &wrapperEngine() {
  // Function-local static: constructed on first use, threadless (run()
  // never spawns workers), so safe to keep for the process lifetime.
  // Cache disabled: the wrappers document themselves as bit-for-bit
  // thin wrappers with the seed's memory profile, and the benches rely
  // on repeated wrapper calls staying cold.
  static RepairEngine Engine([] {
    EngineOptions Options;
    Options.EnableCache = false;
    return Options;
  }());
  return Engine;
}

} // namespace

RepairResult prdnn::repairPoints(const Network &Net, int LayerIndex,
                                 const PointSpec &Spec,
                                 const RepairOptions &Options) {
  return wrapperEngine()
      .run(RepairRequest::points(RepairRequest::borrow(Net), LayerIndex,
                                 Spec, Options))
      .Result;
}

RepairResult prdnn::repairPolytopes(const Network &Net, int LayerIndex,
                                    const PolytopeSpec &Spec,
                                    const RepairOptions &Options) {
  return wrapperEngine()
      .run(RepairRequest::polytopes(RepairRequest::borrow(Net), LayerIndex,
                                    Spec, Options))
      .Result;
}
