//===- tests/cache_test.cpp - repair-artifact cache tests --------------------===//
//
// Covers the cache subsystem's contracts: fingerprint stability across
// rebuilds and sensitivity to parameter/topology edits; LRU eviction
// under the byte budget (recency honored, oversized artifacts never
// retained); single-flight insertion under concurrent callers and
// under 8 concurrent engine jobs on the same key; and the determinism
// contract - cache-on cold, cache-on warm, and cache-off runs produce
// bit-for-bit identical Delta/RepairResult at any thread count, for
// point and polytope requests alike. Runs under the CI ThreadSanitizer
// job next to parallel_test and engine_test.
//
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"

#include "api/RepairEngine.h"
#include "cache/Fingerprint.h"
#include "core/PolytopeRepair.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace {

using namespace prdnn;

Vector randomVector(Rng &R, int Size, double Scale = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = Scale * R.normal();
  return V;
}

Matrix randomMatrix(Rng &R, int Rows, int Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = Scale * R.normal();
  return M;
}

/// 6 -> 16 -> 16 -> 4 ReLU classifier; parameterized layers 0, 2, 4.
Network makeClassifier(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 6, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 16, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 4, 16, 0.9), randomVector(R, 4, 0.3)));
  return Net;
}

/// Every third point flips to its runner-up class; the rest anchor.
PointSpec makeFlipSpec(const Network &Net, Rng &R, int Count) {
  PointSpec Spec;
  for (int I = 0; I < Count; ++I) {
    Vector X = randomVector(R, Net.inputSize());
    Vector Y = Net.evaluate(X);
    int Top = Y.argmax();
    int Target = Top;
    if (I % 3 == 0) {
      double Best = -1e300;
      for (int C = 0; C < Y.size(); ++C)
        if (C != Top && Y[C] > Best) {
          Best = Y[C];
          Target = C;
        }
    }
    Spec.push_back({std::move(X),
                    classificationConstraint(Net.outputSize(), Target, 1e-3),
                    std::nullopt});
  }
  return Spec;
}

Network makeFigure3Network() {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0}, {1.0}, {1.0}}), Vector{0.0, 0.0, -1.0}));
  Net.addLayer(std::make_unique<ReLULayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0, -1.0, 1.0}}), Vector{0.0}));
  return Net;
}

void expectBitIdentical(const RepairResult &A, const RepairResult &B) {
  ASSERT_EQ(A.Status, B.Status);
  ASSERT_EQ(A.Delta.size(), B.Delta.size());
  for (size_t I = 0; I < A.Delta.size(); ++I)
    EXPECT_EQ(A.Delta[I], B.Delta[I]) << "Delta[" << I << "]";
  EXPECT_EQ(A.DeltaL1, B.DeltaL1);
  EXPECT_EQ(A.DeltaLInf, B.DeltaLInf);
  EXPECT_EQ(A.Stats.SpecRows, B.Stats.SpecRows);
  EXPECT_EQ(A.Stats.LpRowsUsed, B.Stats.LpRowsUsed);
}

/// Test artifact with a fixed reported size.
struct SizedArtifact final : CacheArtifact {
  explicit SizedArtifact(std::size_t Size) : Size(Size) {}
  std::size_t bytes() const override { return Size; }
  std::size_t Size;
};

CacheKey keyOf(std::uint64_t Tag) {
  Hasher H;
  H.u64(Tag);
  return CacheKey{ArtifactKind::PatternBatch, H.digest()};
}

// --- Fingerprints -----------------------------------------------------------

TEST(Fingerprint, StableAcrossRebuilds) {
  Rng R1(4401), R2(4401);
  Network A = makeClassifier(R1);
  Network B = makeClassifier(R2);
  EXPECT_EQ(fingerprintNetwork(A), fingerprintNetwork(B));
  // And across deep copies.
  Network C = A;
  EXPECT_EQ(fingerprintNetwork(A), fingerprintNetwork(C));
}

TEST(Fingerprint, SensitiveToParameterEdit) {
  Rng R(4402);
  Network Net = makeClassifier(R);
  NetworkFingerprint Before = fingerprintNetwork(Net);

  // The smallest representable nudge of one parameter must change the
  // address: keys cover parameter *bits*.
  auto &Layer2 = cast<LinearLayer>(Net.layer(2));
  std::vector<double> Delta(static_cast<size_t>(Layer2.numParams()), 0.0);
  Delta[7] = 1e-15;
  Layer2.addToParams(Delta);
  EXPECT_NE(fingerprintNetwork(Net), Before);
}

TEST(Fingerprint, SensitiveToTopology) {
  Rng R(4403);
  Network Net = makeClassifier(R);
  NetworkFingerprint Before = fingerprintNetwork(Net);
  Net.addLayer(std::make_unique<ReLULayer>(4));
  EXPECT_NE(fingerprintNetwork(Net), Before);
}

// --- ArtifactCache unit behavior --------------------------------------------

TEST(ArtifactCache, HitMissAndStats) {
  ArtifactCache Cache(1 << 20, /*NumShards=*/4);
  bool Hit = true;
  auto A = Cache.getOrCompute(
      keyOf(1), [] { return std::make_shared<SizedArtifact>(100); }, &Hit);
  EXPECT_FALSE(Hit);
  auto B = Cache.getOrCompute(
      keyOf(1), [] { return std::make_shared<SizedArtifact>(100); }, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(A.get(), B.get());

  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Insertions, 1u);
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_EQ(Stats.BytesHeld, 100u);
  EXPECT_EQ(Stats.BudgetBytes, static_cast<std::uint64_t>(1 << 20));
  EXPECT_DOUBLE_EQ(Stats.hitRate(), 0.5);

  Cache.clear();
  Stats = Cache.stats();
  EXPECT_EQ(Stats.Entries, 0u);
  EXPECT_EQ(Stats.BytesHeld, 0u);
}

TEST(ArtifactCache, LruEvictionUnderByteBudget) {
  // Single shard so the whole budget is one LRU.
  ArtifactCache Cache(1000, /*NumShards=*/1);
  auto Insert = [&](std::uint64_t Tag) {
    Cache.getOrCompute(keyOf(Tag),
                       [] { return std::make_shared<SizedArtifact>(400); });
  };
  auto IsHit = [&](std::uint64_t Tag) {
    bool Hit = false;
    Cache.getOrCompute(keyOf(Tag),
                       [] { return std::make_shared<SizedArtifact>(400); },
                       &Hit);
    return Hit;
  };

  Insert(1);
  Insert(2);
  EXPECT_EQ(Cache.stats().BytesHeld, 800u);
  EXPECT_EQ(Cache.stats().Evictions, 0u);

  // Third insert overflows: the least-recently-used key (1) goes.
  Insert(3);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_LE(Cache.stats().BytesHeld, 1000u);
  EXPECT_TRUE(IsHit(2));
  EXPECT_TRUE(IsHit(3));
  EXPECT_FALSE(IsHit(1)); // recomputed; this also re-inserts 1

  // The IsHit(2)/IsHit(3) touches refreshed recency before 1 was
  // re-inserted, so the re-insert of 1 evicted 2 (the then-LRU).
  EXPECT_FALSE(IsHit(2));
}

TEST(ArtifactCache, OversizedArtifactReturnedButNotRetained) {
  ArtifactCache Cache(100, /*NumShards=*/1);
  bool Hit = true;
  auto Value = Cache.getOrCompute(
      keyOf(9), [] { return std::make_shared<SizedArtifact>(4096); }, &Hit);
  EXPECT_FALSE(Hit);
  ASSERT_NE(Value, nullptr);
  EXPECT_EQ(Value->bytes(), 4096u);
  EXPECT_EQ(Cache.stats().BytesHeld, 0u);
  EXPECT_EQ(Cache.stats().Entries, 0u);
  // Asking again recomputes - never a stale or partial retain.
  Cache.getOrCompute(
      keyOf(9), [] { return std::make_shared<SizedArtifact>(4096); }, &Hit);
  EXPECT_FALSE(Hit);

  // A known-oversized key must not serialize concurrent callers
  // through the single-flight claim: four 100ms computes overlapping
  // must each run (no sharing) and finish well under the >= 400ms a
  // one-at-a-time claim/erase cycle would take. (The 300ms bound
  // leaves 200ms of scheduler/TSan headroom - the threads only
  // sleep, so they overlap even on one core.)
  std::atomic<int> Computes{0};
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      bool ThreadHit = true;
      Cache.getOrCompute(
          keyOf(9),
          [&] {
            ++Computes;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return std::make_shared<SizedArtifact>(4096);
          },
          &ThreadHit);
      EXPECT_FALSE(ThreadHit);
    });
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(Computes.load(), 4);
  EXPECT_LT(Elapsed, 0.3) << "oversized computes serialized";
}

TEST(ArtifactCache, ZeroBudgetAlwaysComputes) {
  ArtifactCache Cache(0);
  for (int I = 0; I < 3; ++I) {
    bool Hit = true;
    Cache.getOrCompute(
        keyOf(5), [] { return std::make_shared<SizedArtifact>(1); }, &Hit);
    EXPECT_FALSE(Hit);
  }
  EXPECT_EQ(Cache.stats().BytesHeld, 0u);
}

TEST(ArtifactCache, SingleFlightComputesOnceUnderConcurrency) {
  ArtifactCache Cache(1 << 20);
  std::atomic<int> Computes{0};
  std::atomic<int> Hits{0};
  std::vector<std::shared_ptr<const CacheArtifact>> Results(8);

  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&, T] {
      bool Hit = false;
      Results[static_cast<size_t>(T)] = Cache.getOrCompute(
          keyOf(77),
          [&] {
            ++Computes;
            // Widen the race window so every thread arrives while the
            // first is still computing.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return std::make_shared<SizedArtifact>(64);
          },
          &Hit);
      Hits += Hit;
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Computes.load(), 1);
  EXPECT_EQ(Hits.load(), 7);
  for (const auto &Result : Results)
    EXPECT_EQ(Result.get(), Results[0].get());
}

// --- Engine integration: determinism and sharing ----------------------------

TEST(EngineCache, SingleFlightAcrossEightConcurrentJobs) {
  Rng R(4404);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);
  RepairResult Serial = repairPoints(*Net, 4, Spec);

  EngineOptions Options;
  Options.NumWorkers = 8;
  RepairEngine Engine(Options);
  ASSERT_TRUE(Engine.hasCache());

  // Eight identical jobs racing on the same LP-solution key: the LP is
  // solved exactly once (single-flight), every job matches the
  // (cache-free) serial wrapper bit-for-bit.
  std::vector<JobHandle> Handles;
  for (int J = 0; J < 8; ++J)
    Handles.push_back(Engine.submit(RepairRequest::points(Net, 4, Spec)));
  for (JobHandle &Handle : Handles)
    expectBitIdentical(Handle.report().Result, Serial);

  // Each job makes one lookup, of its LP solution. The key is computed
  // exactly once (single-flight) and hits for the other seven jobs.
  CacheStats Stats = Engine.cacheStats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 7u);
  EXPECT_GT(Stats.BytesHeld, 0u);

  std::int64_t TotalHits = 0;
  for (JobHandle &Handle : Handles) {
    const RepairReport &Report = Handle.report();
    EXPECT_EQ(Report.CacheHits + Report.CacheMisses, 1);
    TotalHits += Report.CacheHits;
    // The per-phase breakdown lands in the attempt stats; Jacobian
    // rows are built lazily and never cached.
    EXPECT_EQ(Report.Result.Stats.JacobianCacheHits +
                  Report.Result.Stats.JacobianCacheMisses,
              0);
    EXPECT_EQ(Report.Result.Stats.BasisHits + Report.Result.Stats.BasisMisses,
              1);
  }
  EXPECT_EQ(TotalHits, 7);
}

TEST(EngineCache, ColdWarmOffBitIdentityPointsAnyThreadCount) {
  Rng R(4405);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 30);
  RepairRequest Request = RepairRequest::points(Net, 2, Spec);

  EngineOptions Off;
  Off.EnableCache = false;
  RepairEngine NoCacheEngine(Off);
  RepairReport OffReport = NoCacheEngine.run(Request);
  ASSERT_FALSE(NoCacheEngine.hasCache());
  EXPECT_EQ(OffReport.CacheHits + OffReport.CacheMisses, 0);

  RepairEngine Engine; // cache on by default
  RepairReport Cold = Engine.run(Request);
  RepairReport Warm = Engine.run(Request);
  EXPECT_GT(Cold.CacheMisses, 0);
  EXPECT_EQ(Cold.CacheHits, 0);
  EXPECT_GT(Warm.CacheHits, 0);
  EXPECT_EQ(Warm.CacheMisses, 0);
  EXPECT_GT(Warm.Result.Stats.BasisHits, 0);

  expectBitIdentical(Cold.Result, OffReport.Result);
  expectBitIdentical(Warm.Result, OffReport.Result);

  // Warm hits must survive a thread-count change bit-for-bit (the
  // artifacts were computed under the original pool).
  setGlobalThreadCount(3);
  RepairReport Warm3 = Engine.run(Request);
  setGlobalThreadCount(1);
  RepairReport Warm1 = Engine.run(Request);
  setGlobalThreadCount(defaultThreadCount());
  EXPECT_GT(Warm3.CacheHits, 0);
  EXPECT_GT(Warm1.CacheHits, 0);
  expectBitIdentical(Warm3.Result, OffReport.Result);
  expectBitIdentical(Warm1.Result, OffReport.Result);

  // Per-request opt-out recomputes but stays bit-identical.
  RepairRequest OptOut = Request;
  OptOut.Options.UseCache = false;
  RepairReport OptOutReport = Engine.run(OptOut);
  EXPECT_EQ(OptOutReport.CacheHits + OptOutReport.CacheMisses, 0);
  expectBitIdentical(OptOutReport.Result, OffReport.Result);
}

TEST(EngineCache, WarmResubmissionTakesTheCachedDelta) {
  Rng R(4409);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 20);
  RepairRequest Request = RepairRequest::points(Net, 4, Spec);

  RepairEngine Engine;
  RepairReport Cold = Engine.run(Request);
  ASSERT_EQ(Cold.Status, RepairStatus::Success);
  EXPECT_EQ(Cold.Result.Stats.BasisHits, 0);
  EXPECT_EQ(Cold.Result.Stats.BasisMisses, 1); // the LP solved cold
  EXPECT_GT(Cold.Result.Stats.LpIterations, 0);
  ASSERT_EQ(Cold.Sweep.size(), 1u);
  EXPECT_FALSE(Cold.Sweep[0].WarmStarted);

  // Resubmission: the repair finds its Delta in the cache, skips the
  // LP (not a single pivot), re-verifies it with one scan, and the
  // result stays bit-identical - round and row counts included.
  RepairReport Warm = Engine.run(Request);
  expectBitIdentical(Warm.Result, Cold.Result);
  EXPECT_EQ(Warm.Result.Stats.BasisMisses, 0);
  EXPECT_EQ(Warm.Result.Stats.BasisHits, 1);
  EXPECT_EQ(Warm.Result.Stats.LpIterations, 0);
  EXPECT_EQ(Warm.Result.Stats.CgRounds, Cold.Result.Stats.CgRounds);
  EXPECT_EQ(Warm.Result.Stats.VerifiedViolation,
            Cold.Result.Stats.VerifiedViolation);
  ASSERT_EQ(Warm.Sweep.size(), 1u);
  EXPECT_TRUE(Warm.Sweep[0].WarmStarted);

  // Per-request opt-out: no artifact is looked up, so the LP solves
  // cold - bit-identically, as always.
  RepairRequest NoWarm = Request;
  NoWarm.Options.UseCache = false;
  RepairReport Off = Engine.run(NoWarm);
  EXPECT_EQ(Off.Result.Stats.BasisHits + Off.Result.Stats.BasisMisses, 0);
  EXPECT_GT(Off.Result.Stats.LpIterations, 0);
  EXPECT_FALSE(Off.Sweep[0].WarmStarted);
  expectBitIdentical(Off.Result, Cold.Result);
}

TEST(EngineCache, WarmRunHonoursLpIterationLimit) {
  // The LP-solution key holds every Lp option: a request that only
  // lowers MaxIterations must not be served the default run's Delta,
  // and reports what it reports with the cache off.
  Rng R(4410);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 20);
  RepairRequest Request = RepairRequest::points(Net, 4, Spec);
  RepairRequest Limited = Request;
  Limited.Options.Lp.MaxIterations = 1;

  EngineOptions Off;
  Off.EnableCache = false;
  RepairReport OffReport = RepairEngine(Off).run(Limited);
  ASSERT_EQ(OffReport.Status, RepairStatus::SolverFailure);

  RepairEngine Engine;
  ASSERT_EQ(Engine.run(Request).Status, RepairStatus::Success);
  ASSERT_GT(Engine.run(Request).Result.Stats.BasisHits, 0);
  RepairReport Warm = Engine.run(Limited);
  EXPECT_EQ(Warm.Status, RepairStatus::SolverFailure);
  EXPECT_EQ(Warm.Result.Stats.BasisHits, 0);
}

TEST(EngineCache, EachKeyInputMissesAndMatchesCacheOff) {
  // Every option that shapes the LP or its constraint generation is in
  // the LP-solution key: flipping any one of them after a warm default
  // run misses the cache, and the flipped run is bit-equal to its own
  // cache-off run.
  Rng R(4411);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 20);
  const int Layer = 4;
  RepairRequest Base = RepairRequest::points(Net, Layer, Spec);

  int NumParams = cast<LinearLayer>(Net->layer(Layer)).numParams();
  std::vector<bool> Mask(static_cast<size_t>(NumParams), true);
  Mask[0] = false;

  using Flip = std::function<void(RepairOptions &)>;
  const std::vector<std::pair<const char *, Flip>> Flips = {
      {"Objective", [](RepairOptions &O) { O.Objective = lp::Norm::LInf; }},
      {"DeltaBound", [](RepairOptions &O) { O.DeltaBound = 100.0; }},
      {"RowMargin", [](RepairOptions &O) { O.RowMargin = 2e-6; }},
      {"MaxCgRounds", [](RepairOptions &O) { O.MaxCgRounds = 63; }},
      {"CgBatch", [](RepairOptions &O) { O.CgBatch = 511; }},
      {"ParamMask", [&](RepairOptions &O) { O.ParamMask = Mask; }},
      {"Lp.FeasTol", [](RepairOptions &O) { O.Lp.FeasTol = 2e-7; }},
      {"Lp.OptTol", [](RepairOptions &O) { O.Lp.OptTol = 2e-7; }},
      {"Lp.PivotTol", [](RepairOptions &O) { O.Lp.PivotTol = 2e-9; }},
      {"Lp.MaxIterations",
       [](RepairOptions &O) { O.Lp.MaxIterations = 100000; }},
      {"Lp.StallLimit", [](RepairOptions &O) { O.Lp.StallLimit = 301; }},
      {"Lp.RefactorInterval",
       [](RepairOptions &O) { O.Lp.RefactorInterval = 1999; }},
  };

  EngineOptions Off;
  Off.EnableCache = false;
  RepairEngine NoCache(Off);
  RepairEngine Engine;
  ASSERT_EQ(Engine.run(Base).Status, RepairStatus::Success);
  ASSERT_EQ(Engine.run(Base).Result.Stats.BasisHits, 1);
  for (const auto &[Name, Apply] : Flips) {
    SCOPED_TRACE(Name);
    RepairRequest Flipped = Base;
    Apply(Flipped.Options);
    ASSERT_TRUE(validRepairOptions(Flipped.Options));
    RepairReport Warm = Engine.run(Flipped);
    EXPECT_EQ(Warm.Result.Stats.BasisHits, 0);
    EXPECT_EQ(Warm.Result.Stats.BasisMisses, 1);
    expectBitIdentical(Warm.Result, NoCache.run(Flipped).Result);
  }
}

TEST(EngineCache, ColdWarmBitIdentityPolytopes) {
  Network Net = makeFigure3Network();
  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{SegmentPolytope{Vector{0.5}, Vector{1.5}},
                              boxConstraint(Vector{-0.8}, Vector{-0.4})});
  RepairOptions Options;
  Options.RowMargin = 0.0;
  RepairRequest Request = RepairRequest::polytopes(
      RepairRequest::borrow(Net), 0, Spec, Options);

  RepairResult Serial = repairPolytopes(Net, 0, Spec, Options);

  RepairEngine Engine;
  RepairReport Cold = Engine.run(Request);
  RepairReport Warm = Engine.run(Request);

  expectBitIdentical(Cold.Result, Serial);
  expectBitIdentical(Warm.Result, Serial);
  EXPECT_EQ(Cold.Result.Stats.LinRegionsCacheMisses, 1);
  EXPECT_EQ(Warm.Result.Stats.LinRegionsCacheHits, 1);
  EXPECT_EQ(Warm.Result.Stats.PatternCacheHits, 1);
  EXPECT_GT(Warm.Result.Stats.BasisHits, 0);
  EXPECT_EQ(Warm.Result.Stats.KeyPoints, Serial.Stats.KeyPoints);
  EXPECT_EQ(Warm.Result.Stats.LinearRegions, Serial.Stats.LinearRegions);

  // A spec with the same shapes but different output constraints
  // shares the transform artifact (shape-keyed) but not the LP
  // solution, whose key holds every spec point's constraint.
  PolytopeSpec Tighter;
  Tighter.push_back(SpecPolytope{SegmentPolytope{Vector{0.5}, Vector{1.5}},
                                 boxConstraint(Vector{-0.8}, Vector{-0.5})});
  RepairReport Shared = Engine.run(RepairRequest::polytopes(
      RepairRequest::borrow(Net), 0, Tighter, Options));
  EXPECT_EQ(Shared.Result.Stats.LinRegionsCacheHits, 1);
  EXPECT_EQ(Shared.Result.Stats.PatternCacheHits, 1);
  EXPECT_EQ(Shared.Result.Stats.BasisHits, 0);
  EXPECT_EQ(Shared.Result.Stats.BasisMisses, 1);
  expectBitIdentical(Shared.Result, repairPolytopes(Net, 0, Tighter, Options));
}

TEST(EngineCache, ParameterEditInvalidatesAddresses) {
  Rng R(4406);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 18);

  RepairEngine Engine;
  RepairReport First = Engine.run(RepairRequest::points(Net, 4, Spec));
  EXPECT_GT(First.CacheMisses, 0);

  // Same spec against an edited copy of the network: every lookup must
  // miss (different fingerprint), and the result must match that
  // network's own cache-free run.
  auto Edited = std::make_shared<Network>(*Net);
  auto &Layer4 = cast<LinearLayer>(Edited->layer(4));
  std::vector<double> Delta(static_cast<size_t>(Layer4.numParams()), 0.0);
  Delta[0] = 1e-12;
  Layer4.addToParams(Delta);

  RepairReport EditedReport =
      Engine.run(RepairRequest::points(Edited, 4, Spec));
  EXPECT_EQ(EditedReport.CacheHits, 0);
  expectBitIdentical(EditedReport.Result, repairPoints(*Edited, 4, Spec));
}

TEST(EngineCache, ClearCacheResetsCountersForCleanMeasurementPhases) {
  Rng R(4408);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);
  RepairRequest Request = RepairRequest::points(Net, 0, Spec);

  RepairEngine Engine;
  Engine.run(Request);
  Engine.run(Request);
  CacheStats Before = Engine.cacheStats();
  EXPECT_GT(Before.Hits, 0u);
  EXPECT_GT(Before.Misses, 0u);
  EXPECT_GT(Before.Entries, 0u);

  // clearCache drops entries *and* zeroes the counters, so a bench
  // phase after it measures only itself (documented in
  // cache/README.md).
  Engine.clearCache();
  CacheStats Cleared = Engine.cacheStats();
  EXPECT_EQ(Cleared.Hits, 0u);
  EXPECT_EQ(Cleared.Misses, 0u);
  EXPECT_EQ(Cleared.Evictions, 0u);
  EXPECT_EQ(Cleared.Insertions, 0u);
  EXPECT_EQ(Cleared.Entries, 0u);
  EXPECT_EQ(Cleared.BytesHeld, 0u);

  // The next run is cold again - and its counters start from zero.
  Engine.run(Request);
  CacheStats After = Engine.cacheStats();
  EXPECT_EQ(After.Hits, 0u);
  EXPECT_GT(After.Misses, 0u);

  // resetCacheStats zeroes counters but keeps the warm entries.
  Engine.run(Request);
  Engine.resetCacheStats();
  CacheStats Reset = Engine.cacheStats();
  EXPECT_EQ(Reset.Hits, 0u);
  EXPECT_EQ(Reset.Misses, 0u);
  EXPECT_GT(Reset.Entries, 0u);
  RepairReport StillWarm = Engine.run(Request);
  EXPECT_GT(StillWarm.CacheHits, 0);
  EXPECT_EQ(Engine.cacheStats().Misses, 0u);
}

TEST(EngineCache, ProgressSnapshotSurfacesCacheCounters) {
  Rng R(4407);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);

  RepairEngine Engine;
  Engine.run(RepairRequest::points(Net, 0, Spec)); // prime the cache
  JobHandle Handle = Engine.submit(RepairRequest::points(Net, 0, Spec));
  Handle.wait();
  ProgressSnapshot Snapshot = Handle.progress();
  EXPECT_EQ(Snapshot.Phase, RepairPhase::Done);
  EXPECT_GT(Snapshot.CacheHits, 0);
  EXPECT_EQ(Snapshot.CacheMisses, 0);
}

} // namespace
