//===- lp/LpScheduler.cpp -------------------------------------------------===//

#include "lp/LpScheduler.h"

#include "support/Parallel.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace prdnn;
using namespace prdnn::lp;

LpScheduler::LpScheduler(int Slots)
    : SlotCount(Slots > 0 ? Slots : globalThreadCount()) {
  if (SlotCount < 1)
    SlotCount = 1;
}

void LpScheduler::runTasks(
    int NumTasks, const std::function<bool()> &ShouldStop,
    const std::function<void(int Task, int Shard)> &Body) {
  if (NumTasks <= 0)
    return;

  // Dedicated shard threads rather than pool loops: nesting whole
  // multi-second tasks inside one pool loop would hold the pool's run
  // lock across the batch. The shard threads are coarse (one spawn per
  // slot per batch), so thread-creation cost is noise next to a solve.
  // With several shards, each one runs its tasks' own parallel loops
  // (a repair attempt's forward passes and Jacobians) inline, as the
  // pool runs nested loops: the shards already fill the cores, and
  // pool loops would only queue on the pool's run lock behind the
  // other shards' loops.
  int Shards = NumTasks < SlotCount ? NumTasks : SlotCount;
  std::atomic<int> NextTask{0};
  std::exception_ptr FirstError;
  std::mutex ErrorMutex;
  std::atomic<bool> Failed{false};

  auto ShardMain = [&](int Shard) {
    while (true) {
      if (Failed.load(std::memory_order_relaxed) ||
          (ShouldStop && ShouldStop()))
        return;
      int Task = NextTask.fetch_add(1, std::memory_order_relaxed);
      if (Task >= NumTasks)
        return;
      try {
        Body(Task, Shard);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
        Failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (Shards == 1) {
    // Degenerate batch: run inline, no thread churn.
    ShardMain(0);
  } else {
    auto InlineShard = [&](int Shard) {
      InlineLoopsScope Inline;
      ShardMain(Shard);
    };
    std::vector<std::thread> Threads;
    Threads.reserve(static_cast<std::size_t>(Shards - 1));
    for (int S = 1; S < Shards; ++S)
      Threads.emplace_back(InlineShard, S);
    InlineShard(0);
    for (std::thread &T : Threads)
      T.join();
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
}
