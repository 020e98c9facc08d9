//===- support/Parallel.h - thread pool and parallel-for -------*- C++ -*-===//
///
/// \file
/// A small persistent thread pool behind the parallelFor primitives:
/// the execution substrate of the batched repair engine (blocked GEMM,
/// batched layer passes, row sweeps, SyReNN transforms, layer sweeps).
///
/// When a loop goes to the pool: each parallelFor call passes the loop's
/// work (flops for a matrix product, values touched for a row sweep),
/// and below kParallelWorkThreshold the loop runs inline on the caller
/// as one range. A loop of whole tasks (repair attempts, plane
/// transforms) passes an infinite work.
///
/// Design rules, relied on throughout the library:
///  - Bodies write only to disjoint output slots, and every slot's
///    computation is independent of the partitioning, so all results
///    are bit-for-bit identical for any thread count (1 included).
///  - The calling thread participates in the loop; a pool of size 1
///    (or a nested parallelFor) degrades to a plain sequential loop.
///  - Concurrent callers share the workers: each caller runs chunks of
///    its own loop and waits only for that loop's participants, while
///    an idle worker claims chunks from the oldest loop that still has
///    unclaimed ones. A loop started inside a loop body runs inline on
///    the thread running that body.
///  - An exception thrown by a body cancels the remaining chunks and is
///    rethrown on the calling thread once the loop has drained; the
///    pool stays usable afterwards.
///
/// The global pool is sized from the PRDNN_NUM_THREADS environment
/// variable when it is a whole number in [1, kMaxThreadCount],
/// otherwise from std::thread::hardware_concurrency(), and can be
/// resized at runtime with setGlobalThreadCount (e.g. to compare
/// 1-thread vs N-thread runs, or from an application's --threads
/// option).
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_SUPPORT_PARALLEL_H
#define PRDNN_SUPPORT_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prdnn {

/// Work below which a loop runs inline (see the file comment): smaller
/// loops were measured to lose more to task handoff than they gain.
constexpr double kParallelWorkThreshold = 1e5;

/// Largest PRDNN_NUM_THREADS value defaultThreadCount honours.
constexpr int kMaxThreadCount = 1024;

/// Persistent worker pool; see the file comment for the contract.
class ThreadPool {
public:
  /// Spawns \p NumThreads - 1 workers (the calling thread is the last
  /// "worker"); NumThreads < 1 is clamped to 1.
  explicit ThreadPool(int NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int numThreads() const { return NumThreadsTotal; }

  /// Runs \p Body(ChunkBegin, ChunkEnd) over a disjoint cover of
  /// [Begin, End) in chunks of about \p Grain indices (Grain <= 0
  /// picks one automatically). Blocks until every chunk finished;
  /// rethrows the first body exception. Safe to call from several
  /// threads at once; see the file comment.
  void forRanges(std::int64_t Begin, std::int64_t End, std::int64_t Grain,
                 const std::function<void(std::int64_t, std::int64_t)> &Body);

private:
  struct Loop;

  void workerMain();
  static void runChunks(Loop &L);
  /// The oldest active loop with unclaimed chunks, or null (caller
  /// holds Mutex).
  Loop *claimableLoop() const;

  int NumThreadsTotal;
  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WorkCv, DoneCv;
  /// Loops in flight, oldest first (guarded by Mutex).
  std::vector<Loop *> Active;
  bool Stopping = false;
};

/// Thread count the global pool is created with: PRDNN_NUM_THREADS when
/// it is a whole number in [1, kMaxThreadCount], else
/// std::thread::hardware_concurrency() (at least 1).
int defaultThreadCount();

/// Current size of the global pool (creating it on first use).
int globalThreadCount();

/// Replaces the global pool with one of \p NumThreads threads (clamped
/// to >= 1). Safe against concurrent parallelFor callers: the global
/// pool is reference-counted, so in-flight loops finish on the pool
/// they started with (which is destroyed when the last of them
/// returns) while new loops pick up the resized pool. During the
/// handover both pools may briefly run loops concurrently.
void setGlobalThreadCount(int NumThreads);

/// Chunked parallel loop over [Begin, End) on the global pool: chunks
/// are contiguous, disjoint, and in ascending order within each call of
/// \p Body; one inline chunk when \p Work is below kParallelWorkThreshold.
void parallelForRanges(std::int64_t Begin, std::int64_t End, double Work,
                       const std::function<void(std::int64_t, std::int64_t)>
                           &Body);

/// Per-index form of parallelForRanges.
template <typename FnT>
void parallelFor(std::int64_t Begin, std::int64_t End, double Work,
                 FnT &&Body) {
  parallelForRanges(Begin, End, Work,
                    [&Body](std::int64_t ChunkBegin, std::int64_t ChunkEnd) {
                      for (std::int64_t I = ChunkBegin; I < ChunkEnd; ++I)
                        Body(I);
                    });
}

} // namespace prdnn

#endif // PRDNN_SUPPORT_PARALLEL_H
