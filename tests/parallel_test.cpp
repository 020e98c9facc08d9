//===- tests/parallel_test.cpp - thread pool / parallelFor tests ------------===//
//
// Covers: full index coverage (each index exactly once) under various
// thread counts and grains, chunk ordering/disjointness guarantees of
// parallelForRanges, the work rule (below kParallelWorkThreshold a loop
// runs inline on the caller), exception propagation with pool reuse
// afterwards, nested parallelFor, concurrent callers sharing one pool
// (neither waits for the other's loop; coverage and exceptions stay per
// caller), the PRDNN_NUM_THREADS override, and global pool resizing.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

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
  for (double Work : {0.0, kParallelWorkThreshold}) {
    int Calls = 0;
    parallelForRanges(5, 5, Work, [&](std::int64_t, std::int64_t) { ++Calls; });
    EXPECT_EQ(Calls, 0);
    std::atomic<int> Sum{0};
    parallelFor(3, 4, Work,
                [&](std::int64_t I) { Sum += static_cast<int>(I); });
    EXPECT_EQ(Sum.load(), 3);
  }
}

TEST(Parallel, WorkDecidesInlineOrPool) {
  // Below the threshold a loop is one range on the caller; from it on, a
  // 4-thread pool splits it into chunks that cover each index once.
  setGlobalThreadCount(4);
  const std::int64_t N = 10007;
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> Hits(N);
  for (double Work : {kParallelWorkThreshold / 2, kParallelWorkThreshold}) {
    std::atomic<int> Chunks{0}, OffCaller{0};
    parallelForRanges(0, N, Work, [&](std::int64_t Begin, std::int64_t End) {
      ++Chunks;
      OffCaller += std::this_thread::get_id() != Caller;
      for (std::int64_t I = Begin; I < End; ++I)
        Hits[static_cast<size_t>(I)].fetch_add(1);
    });
    if (Work < kParallelWorkThreshold)
      EXPECT_TRUE(Chunks == 1 && OffCaller == 0);
    else
      EXPECT_GT(Chunks.load(), 1);
  }
  for (std::int64_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[static_cast<size_t>(I)].load(), 2) << "index " << I;
  setGlobalThreadCount(defaultThreadCount());
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
    parallelFor(0, 100, kParallelWorkThreshold,
                [&](std::int64_t) { Total.fetch_add(1); });
  });
  EXPECT_EQ(Total.load(), 800);
}

TEST(Parallel, ConcurrentCallersDoNotWaitOnEachOther) {
  // Caller A's chunks hold every thread of the pool until caller B's
  // loop has returned (for at most 5 s): B must run its own chunks
  // instead of queueing behind A.
  ThreadPool Pool(4);
  std::atomic<bool> AEntered{false}, BDone{false}, ATimedOut{false};
  std::thread A([&] {
    Pool.forRanges(0, 4, /*Grain=*/1, [&](std::int64_t, std::int64_t) {
      AEntered = true;
      for (int Ms = 0; !BDone; ++Ms) {
        if (Ms == 5000)
          ATimedOut = true;
        if (ATimedOut)
          return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (!AEntered)
    std::this_thread::yield();
  std::atomic<std::int64_t> Count{0};
  Pool.forRanges(0, 100, /*Grain=*/1,
                 [&](std::int64_t Begin, std::int64_t End) {
                   Count += End - Begin;
                 });
  BDone = true;
  A.join();
  EXPECT_EQ(Count.load(), 100);
  EXPECT_FALSE(ATimedOut.load()) << "B's loop waited for A's";
}

TEST(Parallel, ConcurrentCallersCoverTheirOwnRangesAndOwnTheirExceptions) {
  // Four callers at once on one pool, with mixed grains: each covers
  // its own range exactly once, and only the caller whose body throws
  // sees the exception.
  ThreadPool Pool(4);
  const std::int64_t N = 4099;
  const std::int64_t Grains[] = {0, 1, 7, 64};
  for (int Round = 0; Round < 8; ++Round) {
    std::vector<std::atomic<int>> Hits(4 * N);
    std::vector<int> Threw(4, 0);
    std::atomic<int> Ready{0};
    std::vector<std::thread> Callers;
    for (int T = 0; T < 4; ++T)
      Callers.emplace_back([&, T] {
        ++Ready;
        while (Ready < 4)
          std::this_thread::yield();
        try {
          Pool.forRanges(0, N, Grains[T], [&](std::int64_t B, std::int64_t E) {
            if (T == 3 && B <= N / 2 && N / 2 < E)
              throw std::runtime_error("caller 3");
            for (std::int64_t I = B; I < E; ++I)
              Hits[static_cast<size_t>(T * N + I)].fetch_add(1);
          });
        } catch (const std::runtime_error &) {
          Threw[static_cast<size_t>(T)] = 1;
        }
      });
    for (std::thread &C : Callers)
      C.join();
    EXPECT_EQ(Threw, (std::vector<int>{0, 0, 0, 1})) << "round " << Round;
    for (std::int64_t I = 0; I < 3 * N; ++I)
      ASSERT_EQ(Hits[static_cast<size_t>(I)].load(), 1)
          << "caller " << I / N << " index " << I % N << " round " << Round;
  }
}

TEST(Parallel, DefaultThreadCountHonorsEnv) {
  // Only reads the count: no pool is built from these values.
  const char *Saved = getenv("PRDNN_NUM_THREADS");
  std::string SavedValue = Saved ? Saved : "";
  ASSERT_EQ(unsetenv("PRDNN_NUM_THREADS"), 0);
  int Fallback = defaultThreadCount();
  EXPECT_GE(Fallback, 1);
  ASSERT_EQ(setenv("PRDNN_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(defaultThreadCount(), 3);
  ASSERT_EQ(setenv("PRDNN_NUM_THREADS", "1024", 1), 0);
  EXPECT_EQ(defaultThreadCount(), kMaxThreadCount);
  // Junk, a trailing suffix, values <= 0, a value out of int's range and
  // one above the ceiling all fall back to the hardware count.
  for (const char *Bad : {"not-a-number", "3abc", "", "0", "-2",
                          "99999999999", "100000", "1025"}) {
    ASSERT_EQ(setenv("PRDNN_NUM_THREADS", Bad, 1), 0);
    EXPECT_EQ(defaultThreadCount(), Fallback) << '"' << Bad << '"';
  }
  ASSERT_EQ(unsetenv("PRDNN_NUM_THREADS"), 0);
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
        parallelFor(0, N, kParallelWorkThreshold, [&](std::int64_t) {
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
  parallelFor(0, 1000, kParallelWorkThreshold,
              [&](std::int64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 1000);
  setGlobalThreadCount(1);
  EXPECT_EQ(globalThreadCount(), 1);
  Count = 0;
  parallelFor(0, 1000, kParallelWorkThreshold,
              [&](std::int64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 1000);
  setGlobalThreadCount(0); // clamped to 1
  EXPECT_EQ(globalThreadCount(), 1);
}

} // namespace
