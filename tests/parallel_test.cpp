//===- tests/parallel_test.cpp - thread pool / parallelFor tests ------------===//
//
// Covers: full index coverage (each index exactly once) under various
// thread counts and grains, chunk ordering/disjointness guarantees of
// parallelForRanges, exception propagation with pool reuse afterwards,
// nested parallelFor and InlineLoopsScope, the PRDNN_NUM_THREADS
// override, and global pool resizing.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace prdnn;

TEST(Parallel, EveryIndexExactlyOnce) {
  for (int Threads : {1, 2, 4, 7}) {
    ThreadPool Pool(Threads);
    const std::int64_t N = 10007;
    std::vector<std::atomic<int>> Hits(N);
    for (auto &H : Hits)
      H.store(0);
    Pool.forRanges(0, N, /*Grain=*/0,
                   [&](std::int64_t Begin, std::int64_t End) {
                     for (std::int64_t I = Begin; I < End; ++I)
                       Hits[static_cast<size_t>(I)].fetch_add(1);
                   });
    for (std::int64_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[static_cast<size_t>(I)].load(), 1)
          << "index " << I << " with " << Threads << " threads";
  }
}

TEST(Parallel, ChunksAreGrainAlignedAndDisjoint) {
  ThreadPool Pool(4);
  const std::int64_t N = 1000, Grain = 64;
  std::vector<std::atomic<int>> ChunkSeen((N + Grain - 1) / Grain);
  for (auto &C : ChunkSeen)
    C.store(0);
  Pool.forRanges(0, N, Grain, [&](std::int64_t Begin, std::int64_t End) {
    // Every chunk starts on a grain boundary and spans exactly one
    // grain (the callers' deterministic-merge trick relies on this).
    EXPECT_EQ(Begin % Grain, 0);
    EXPECT_LE(End, Begin + Grain);
    EXPECT_GT(End, Begin);
    ChunkSeen[static_cast<size_t>(Begin / Grain)].fetch_add(1);
  });
  for (auto &C : ChunkSeen)
    EXPECT_EQ(C.load(), 1);
}

TEST(Parallel, EmptyAndSingletonRanges) {
  int Calls = 0;
  parallelForRanges(5, 5, [&](std::int64_t, std::int64_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  std::atomic<int> Sum{0};
  parallelFor(3, 4, [&](std::int64_t I) { Sum += static_cast<int>(I); });
  EXPECT_EQ(Sum.load(), 3);
}

TEST(Parallel, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool Pool(4);
  const std::int64_t N = 5000;
  EXPECT_THROW(
      Pool.forRanges(0, N, 0,
                     [&](std::int64_t Begin, std::int64_t) {
                       if (Begin >= N / 2)
                         throw std::runtime_error("boom");
                     }),
      std::runtime_error);
  // The pool must stay fully usable after a body threw.
  std::atomic<std::int64_t> Count{0};
  Pool.forRanges(0, N, 0, [&](std::int64_t Begin, std::int64_t End) {
    Count += End - Begin;
  });
  EXPECT_EQ(Count.load(), N);
}

TEST(Parallel, ExceptionOnSequentialFallback) {
  ThreadPool Pool(1);
  EXPECT_THROW(Pool.forRanges(0, 10, 0,
                              [&](std::int64_t, std::int64_t) {
                                throw std::runtime_error("boom");
                              }),
               std::runtime_error);
}

TEST(Parallel, NestedParallelForRunsInline) {
  ThreadPool Pool(4);
  std::atomic<std::int64_t> Total{0};
  Pool.forRanges(0, 8, 1, [&](std::int64_t, std::int64_t) {
    // Nested loops must not deadlock; they run inline on this thread.
    parallelFor(0, 100, [&](std::int64_t) { Total.fetch_add(1); });
  });
  EXPECT_EQ(Total.load(), 800);
}

TEST(Parallel, InlineLoopsScopeKeepsLoopsOnTheCallingThread) {
  setGlobalThreadCount(4);
  // 64 one-index chunks of 1 ms each: long enough that idle workers
  // claim some whenever the loop reaches the pool.
  auto ThreadsUsed = [] {
    std::vector<std::thread::id> Ids(64);
    parallelForRanges(
        0, 64,
        [&](std::int64_t Begin, std::int64_t) {
          Ids[static_cast<size_t>(Begin)] = std::this_thread::get_id();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        /*Grain=*/1);
    std::sort(Ids.begin(), Ids.end());
    return std::unique(Ids.begin(), Ids.end()) - Ids.begin();
  };
  {
    InlineLoopsScope Inline;
    EXPECT_EQ(ThreadsUsed(), 1);
    {
      InlineLoopsScope Nested;
    }
    EXPECT_EQ(ThreadsUsed(), 1); // an inner scope restores, not clears
  }
  EXPECT_GT(ThreadsUsed(), 1); // out of scope, loops reach the pool again
  setGlobalThreadCount(defaultThreadCount());
}

TEST(Parallel, DefaultThreadCountHonorsEnv) {
  const char *Saved = getenv("PRDNN_NUM_THREADS");
  std::string SavedValue = Saved ? Saved : "";
  ASSERT_EQ(setenv("PRDNN_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(defaultThreadCount(), 3);
  ASSERT_EQ(setenv("PRDNN_NUM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(defaultThreadCount(), 1);
  ASSERT_EQ(unsetenv("PRDNN_NUM_THREADS"), 0);
  EXPECT_GE(defaultThreadCount(), 1);
  if (Saved)
    ASSERT_EQ(setenv("PRDNN_NUM_THREADS", SavedValue.c_str(), 1), 0);
}

TEST(Parallel, ResizeRacingParallelForIsSafe) {
  // Engine jobs resize-racing the pool: threads hammer parallelFor
  // while another thread resizes the global pool. Every loop must
  // still cover every index exactly once (in-flight loops finish on
  // the pool they started with), with no deadlock or crash.
  const int LoopsPerThread = 40;
  const std::int64_t N = 4096;
  std::vector<std::int64_t> Sums(2, 0);
  std::vector<std::thread> Hammers;
  for (int T = 0; T < 2; ++T)
    Hammers.emplace_back([&, T] {
      for (int L = 0; L < LoopsPerThread; ++L) {
        std::atomic<std::int64_t> Count{0};
        parallelFor(0, N, [&](std::int64_t) {
          Count.fetch_add(1, std::memory_order_relaxed);
        });
        Sums[static_cast<size_t>(T)] += Count.load();
      }
    });
  for (int I = 0; I < 25; ++I)
    setGlobalThreadCount(1 + (I % 4));
  for (std::thread &H : Hammers)
    H.join();
  EXPECT_EQ(Sums[0], LoopsPerThread * N);
  EXPECT_EQ(Sums[1], LoopsPerThread * N);
  setGlobalThreadCount(defaultThreadCount());
}

TEST(Parallel, GlobalPoolResize) {
  setGlobalThreadCount(4);
  EXPECT_EQ(globalThreadCount(), 4);
  std::atomic<std::int64_t> Count{0};
  parallelFor(0, 1000, [&](std::int64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 1000);
  setGlobalThreadCount(1);
  EXPECT_EQ(globalThreadCount(), 1);
  Count = 0;
  parallelFor(0, 1000, [&](std::int64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 1000);
  setGlobalThreadCount(0); // clamped to 1
  EXPECT_EQ(globalThreadCount(), 1);
}

} // namespace
