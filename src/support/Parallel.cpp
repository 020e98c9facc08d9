//===- support/Parallel.cpp -------------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace prdnn;

namespace {

/// True while the current thread is executing chunks of some loop;
/// nested parallelFor calls run inline to avoid pool deadlock.
thread_local bool InParallelRegion = false;

} // namespace

/// One in-flight parallel loop. Lives on the caller's stack and in the
/// pool's Active list; workers register/deregister under the pool
/// mutex so the caller can wait for every participant to leave before
/// returning.
struct ThreadPool::Loop {
  std::int64_t Begin = 0, End = 0, Chunk = 1;
  std::int64_t NumChunks = 0;
  std::atomic<std::int64_t> Next{0};
  const std::function<void(std::int64_t, std::int64_t)> *Body = nullptr;
  /// Workers currently inside runChunks (guarded by the pool mutex).
  int ActiveWorkers = 0;
  /// First exception thrown by a body (guarded by the pool mutex).
  std::exception_ptr Error;
  std::mutex *PoolMutex = nullptr;
};

ThreadPool::ThreadPool(int NumThreads)
    : NumThreadsTotal(std::max(1, NumThreads)) {
  Workers.reserve(static_cast<size_t>(NumThreadsTotal - 1));
  for (int I = 0; I < NumThreadsTotal - 1; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runChunks(Loop &L) {
  bool WasInParallel = InParallelRegion;
  InParallelRegion = true;
  while (true) {
    std::int64_t C = L.Next.fetch_add(1, std::memory_order_relaxed);
    if (C >= L.NumChunks)
      break;
    std::int64_t ChunkBegin = L.Begin + C * L.Chunk;
    std::int64_t ChunkEnd = std::min(ChunkBegin + L.Chunk, L.End);
    try {
      (*L.Body)(ChunkBegin, ChunkEnd);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(*L.PoolMutex);
      if (!L.Error)
        L.Error = std::current_exception();
      // Cancel the chunks nobody claimed yet.
      L.Next.store(L.NumChunks, std::memory_order_relaxed);
    }
  }
  InParallelRegion = WasInParallel;
}

ThreadPool::Loop *ThreadPool::claimableLoop() const {
  for (Loop *L : Active)
    if (L->Next.load(std::memory_order_relaxed) < L->NumChunks)
      return L;
  return nullptr;
}

void ThreadPool::workerMain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    Loop *L = nullptr;
    WorkCv.wait(Lock, [&] { return Stopping || (L = claimableLoop()); });
    if (Stopping)
      return;
    ++L->ActiveWorkers;
    Lock.unlock();
    runChunks(*L);
    Lock.lock();
    if (--L->ActiveWorkers == 0)
      DoneCv.notify_all();
  }
}

void ThreadPool::forRanges(
    std::int64_t Begin, std::int64_t End, std::int64_t Grain,
    const std::function<void(std::int64_t, std::int64_t)> &Body) {
  std::int64_t Count = End - Begin;
  if (Count <= 0)
    return;
  std::int64_t Chunk =
      Grain > 0 ? Grain
                : std::max<std::int64_t>(1, Count / (NumThreadsTotal * 8));
  if (NumThreadsTotal == 1 || Count == 1 || InParallelRegion) {
    // Sequential / nested fallback; still honors chunk granularity so a
    // chunk-order-sensitive caller sees the same chunks as the pool.
    // InParallelRegion is deliberately left as-is: a top-level loop
    // with a single item must not disable parallelism in nested calls
    // (e.g. keyPointSpec over one polytope still wants parallel
    // transforms inside).
    for (std::int64_t B = Begin; B < End; B += Chunk)
      Body(B, std::min(B + Chunk, End));
    return;
  }

  Loop L;
  L.Begin = Begin;
  L.End = End;
  L.Chunk = Chunk;
  L.NumChunks = (Count + L.Chunk - 1) / L.Chunk;
  L.Body = &Body;
  L.PoolMutex = &Mutex;

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Active.push_back(&L);
  }
  WorkCv.notify_all();

  runChunks(L);

  // Once the loop leaves Active no worker can join it; wait for the
  // ones still running its chunks.
  std::unique_lock<std::mutex> Lock(Mutex);
  Active.erase(std::find(Active.begin(), Active.end(), &L));
  DoneCv.wait(Lock, [&] { return L.ActiveWorkers == 0; });
  std::exception_ptr Error = L.Error;
  Lock.unlock();
  if (Error)
    std::rethrow_exception(Error);
}

int prdnn::defaultThreadCount() {
  if (const char *Env = std::getenv("PRDNN_NUM_THREADS")) {
    const char *End = Env + std::strlen(Env);
    int Parsed = 0;
    auto [Ptr, Ec] = std::from_chars(Env, End, Parsed);
    if (Ec == std::errc() && Ptr == End && Parsed > 0 &&
        Parsed <= kMaxThreadCount)
      return Parsed;
  }
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware == 0 ? 1 : static_cast<int>(Hardware);
}

namespace {

std::mutex GlobalPoolMutex;
std::shared_ptr<ThreadPool> GlobalPool;

/// Hands out a counted reference to the current global pool, creating
/// it on first use. Callers hold the reference for the duration of
/// their loop, so a concurrent setGlobalThreadCount never destroys a
/// pool that still has loops in flight (the old pool is torn down by
/// whichever thread drops the last reference, when all its workers are
/// idle again).
std::shared_ptr<ThreadPool> acquireGlobalPool() {
  std::lock_guard<std::mutex> Lock(GlobalPoolMutex);
  if (!GlobalPool)
    GlobalPool = std::make_shared<ThreadPool>(defaultThreadCount());
  return GlobalPool;
}

} // namespace

int prdnn::globalThreadCount() { return acquireGlobalPool()->numThreads(); }

void prdnn::setGlobalThreadCount(int NumThreads) {
  // Build the replacement outside the lock (thread spawning is slow),
  // then swap; the old pool dies when its last in-flight loop returns.
  auto NewPool = std::make_shared<ThreadPool>(std::max(1, NumThreads));
  std::shared_ptr<ThreadPool> Old;
  {
    std::lock_guard<std::mutex> Lock(GlobalPoolMutex);
    Old = std::move(GlobalPool);
    GlobalPool = std::move(NewPool);
  }
}

void prdnn::parallelForRanges(
    std::int64_t Begin, std::int64_t End, double Work,
    const std::function<void(std::int64_t, std::int64_t)> &Body) {
  if (Work < kParallelWorkThreshold) {
    if (Begin < End)
      Body(Begin, End);
    return;
  }
  // The shared_ptr keeps the pool alive across the whole loop even if
  // the global pool is swapped mid-flight.
  acquireGlobalPool()->forRanges(Begin, End, /*Grain=*/0, Body);
}
