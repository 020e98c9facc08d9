//===- lp/LpScheduler.h - sharded scheduling of independent LPs -*- C++ -*-===//
///
/// \file
/// Runs a batch of independent LP solves (or any independent tasks)
/// concurrently on a fixed number of shard threads, instead of
/// serializing them on the calling thread. The motivating consumer is
/// the repair engine's auto-layer sweep (api/RepairEngine.cpp): each
/// candidate layer's repair attempt is an independent job, and the
/// simplex runs scalar on the attempt's own thread (lp/Simplex.h), so
/// the LP phase's parallelism must come from running *whole attempts*
/// side by side.
/// The engine sizes every sweep at min(candidates, pool size) slots,
/// or one slot for a job with a checkpoint hook; a one-slot batch runs
/// inline on the calling thread, with the pool behind its parallel
/// loops. In a batch of several shards, each shard runs its tasks'
/// parallel loops inline (support/Parallel.h, InlineLoopsScope).
///
/// Model: the scheduler owns \c slots() shard threads for the duration
/// of one runTasks() call. Tasks are claimed from a single atomic
/// counter in ascending index order, so shards stay busy until the
/// batch drains regardless of per-task skew. Each task runs entirely on
/// one shard thread with its own solver instance and scratch (a
/// lp::Simplex Worker allocates all state per solve), so tasks share no
/// mutable state and need no locks.
///
/// Determinism: task *results* must not depend on which shard runs a
/// task or in what order tasks complete - true for repair attempts,
/// whose outputs are pure functions of their inputs at any thread count
/// (the library-wide contract). The caller indexes results by task and
/// assembles them serially afterwards, so a sharded batch is
/// bit-identical to the serial loop it replaces. Shared caches are safe
/// concurrent consumers: artifacts are content-addressed, so whichever
/// shard computes first publishes the same bits any other would.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LP_LPSCHEDULER_H
#define PRDNN_LP_LPSCHEDULER_H

#include <functional>

namespace prdnn {
namespace lp {

/// See the file comment.
class LpScheduler {
public:
  /// \p Slots caps concurrent tasks; <= 0 takes the global pool size
  /// (support/Parallel.h: PRDNN_NUM_THREADS or hardware concurrency).
  explicit LpScheduler(int Slots = 0);

  int slots() const { return SlotCount; }

  /// Runs \p Body(Task, Shard) for every Task in [0, NumTasks) across
  /// min(NumTasks, slots()) shard threads; Shard identifies the slot
  /// (0-based) the task leased. Blocks until the batch drains. \p
  /// ShouldStop, when non-null, is polled before each claim: once it
  /// returns true no further task starts (running tasks finish). The
  /// first exception thrown by a body is rethrown here after all
  /// shards join; later tasks are not claimed once one body has
  /// thrown.
  void runTasks(int NumTasks, const std::function<bool()> &ShouldStop,
                const std::function<void(int Task, int Shard)> &Body);

private:
  int SlotCount;
};

} // namespace lp
} // namespace prdnn

#endif // PRDNN_LP_LPSCHEDULER_H
