//===- cache/ArtifactCache.cpp --------------------------------------------===//

#include "cache/ArtifactCache.h"

#include "persist/ArtifactStore.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace prdnn;

const char *prdnn::toString(ArtifactKind Kind) {
  switch (Kind) {
  case ArtifactKind::SyrennTransform:
    return "SyrennTransform";
  case ArtifactKind::PatternBatch:
    return "PatternBatch";
  case ArtifactKind::LpSolution:
    return "LpSolution";
  }
  PRDNN_UNREACHABLE("bad ArtifactKind");
}

CacheArtifact::~CacheArtifact() = default;

namespace {

/// Heap footprint approximations: payload bytes plus the container
/// headers, so the LRU budget tracks real memory, not just doubles.
constexpr std::size_t kVectorOverhead = sizeof(std::vector<double>);

std::size_t vectorBytes(std::size_t Elements, std::size_t ElementSize) {
  return kVectorOverhead + Elements * ElementSize;
}

} // namespace

std::size_t SyrennTransformArtifact::bytes() const {
  std::size_t Total = sizeof(*this);
  for (const Partition &P : Partitions) {
    Total += sizeof(Partition);
    if (const auto *Line = std::get_if<LinePartition>(&P)) {
      Total += Line->approxBytes();
    } else {
      for (const PlaneRegion &Region : std::get<std::vector<PlaneRegion>>(P))
        Total += Region.approxBytes();
    }
  }
  return Total;
}

std::size_t PatternBatchArtifact::bytes() const {
  std::size_t Total = sizeof(*this);
  for (const NetworkPattern &Pattern : Patterns) {
    Total += kVectorOverhead;
    for (const std::vector<int> &LayerPattern : Pattern.Patterns)
      Total += vectorBytes(LayerPattern.size(), sizeof(int));
  }
  return Total;
}

std::size_t LpSolutionArtifact::bytes() const {
  return sizeof(*this) + vectorBytes(Delta.size(), sizeof(double));
}

ArtifactCache::ArtifactCache(std::size_t BudgetBytes, int NumShards,
                             std::shared_ptr<persist::ArtifactStore> Store)
    : Budget(BudgetBytes), StoreV(std::move(Store)) {
  if (NumShards < 1)
    NumShards = 1;
  Shards.reserve(static_cast<std::size_t>(NumShards));
  for (int I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  ShardBudget = Budget / Shards.size();
}

ArtifactCache::~ArtifactCache() = default;

void ArtifactCache::evictOverBudget(Shard &S) {
  while (S.BytesHeld > ShardBudget && !S.Lru.empty()) {
    const CacheKey &Victim = S.Lru.back();
    auto It = S.Map.find(Victim);
    assert(It != S.Map.end() && It->second.Ready &&
           "LRU lists only ready entries");
    S.BytesHeld -= It->second.Bytes;
    TotalBytes.fetch_sub(It->second.Bytes, std::memory_order_relaxed);
    EntryCount.fetch_sub(1, std::memory_order_relaxed);
    EvictionCount.fetch_add(1, std::memory_order_relaxed);
    S.Map.erase(It);
    S.Lru.pop_back();
  }
}

std::shared_ptr<const CacheArtifact>
ArtifactCache::getOrCompute(const CacheKey &Key, const ComputeFn &Compute,
                            bool *WasHit, CacheTier *Tier) {
  auto Report = [&](bool Hit, CacheTier From) {
    if (WasHit)
      *WasHit = Hit;
    if (Tier)
      *Tier = From;
  };
  Shard &S = shardFor(Key);
  std::unique_lock<std::mutex> Lock(S.Mutex);
  while (true) {
    if (S.Oversized.count(Key)) {
      // Known not to fit the shard's budget slice: compute without
      // claiming the single-flight entry, so concurrent callers of an
      // unretainable key overlap instead of serializing through the
      // claim/erase cycle. Each call is a genuine L1 miss; the store,
      // when present, may still serve it (unretainable in memory is
      // not unretainable on disk).
      MissCount.fetch_add(1, std::memory_order_relaxed);
      Lock.unlock();
      if (StoreV) {
        if (std::shared_ptr<const CacheArtifact> Loaded =
                StoreV->load(Key)) {
          Report(true, CacheTier::L2);
          return Loaded;
        }
      }
      Report(false, CacheTier::None);
      std::shared_ptr<const CacheArtifact> Computed = Compute();
      if (StoreV)
        StoreV->storeAsync(Key, Computed);
      return Computed;
    }
    auto It = S.Map.find(Key);
    if (It == S.Map.end())
      break;
    if (It->second.Ready) {
      // Hit: refresh recency and share the artifact.
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second.LruIt);
      HitCount.fetch_add(1, std::memory_order_relaxed);
      Report(true, CacheTier::L1);
      return It->second.Value;
    }
    // Another caller is computing this key: wait for it to publish
    // (counts as a hit - the artifact was computed once, shared). If
    // the compute failed the entry disappears and the loop retries,
    // computing here.
    S.Cv.wait(Lock);
  }

  // L1 miss: claim the key with an in-flight entry, then - unlocked -
  // read through to the store before computing. The claim covers the
  // L2 load too, so concurrent callers of one key deserialize once.
  S.Map.emplace(Key, Entry{});
  MissCount.fetch_add(1, std::memory_order_relaxed);
  Lock.unlock();

  std::shared_ptr<const CacheArtifact> Value;
  bool FromStore = false;
  try {
    // The L2 load shares the compute path's cleanup: if either throws
    // (deserialization allocations included), the claim must be
    // released and waiters woken, or every later caller of this key
    // would block forever on a never-ready entry.
    if (StoreV) {
      Value = StoreV->load(Key);
      FromStore = Value != nullptr;
    }
    if (!Value)
      Value = Compute();
  } catch (...) {
    Lock.lock();
    S.Map.erase(Key);
    Lock.unlock();
    S.Cv.notify_all();
    throw;
  }
  Report(FromStore, FromStore ? CacheTier::L2 : CacheTier::None);
  assert(Value && "cache compute returned null artifact");
  std::size_t Bytes = Value->bytes();

  Lock.lock();
  auto It = S.Map.find(Key);
  assert(It != S.Map.end() && !It->second.Ready &&
         "in-flight entry vanished");
  if (Bytes <= ShardBudget) {
    It->second.Value = Value;
    It->second.Bytes = Bytes;
    It->second.Ready = true;
    S.Lru.push_front(Key);
    It->second.LruIt = S.Lru.begin();
    S.BytesHeld += Bytes;
    TotalBytes.fetch_add(Bytes, std::memory_order_relaxed);
    EntryCount.fetch_add(1, std::memory_order_relaxed);
    InsertionCount.fetch_add(1, std::memory_order_relaxed);
    evictOverBudget(S);
  } else {
    // Larger than the shard's whole slice: hand it to the caller but
    // never retain it, and remember the key so waiters (and every
    // later caller) compute directly instead of re-claiming. The
    // negative set is bounded: on overflow it resets, costing each
    // forgotten key one extra claim round - not unbounded memory in a
    // long-lived server whose artifacts never fit.
    constexpr std::size_t kMaxOversizedKeys = 1024;
    if (S.Oversized.size() >= kMaxOversizedKeys)
      S.Oversized.clear();
    S.Oversized.insert(Key);
    S.Map.erase(It);
  }
  Lock.unlock();
  S.Cv.notify_all();
  // Write-behind: persist freshly computed artifacts asynchronously,
  // after waiters were released - the disk never gates a repair. An
  // L2 load is not re-written (the entry is already on disk).
  if (StoreV && !FromStore)
    StoreV->storeAsync(Key, Value);
  return Value;
}

void ArtifactCache::clear() {
  for (std::unique_ptr<Shard> &ShardPtr : Shards) {
    Shard &S = *ShardPtr;
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (const CacheKey &Key : S.Lru) {
      const Entry &E = S.Map.at(Key);
      TotalBytes.fetch_sub(E.Bytes, std::memory_order_relaxed);
      EntryCount.fetch_sub(1, std::memory_order_relaxed);
      S.Map.erase(Key);
    }
    S.Lru.clear();
    S.Oversized.clear();
    S.BytesHeld = 0;
  }
}

void ArtifactCache::resetStats() {
  HitCount.store(0, std::memory_order_relaxed);
  MissCount.store(0, std::memory_order_relaxed);
  EvictionCount.store(0, std::memory_order_relaxed);
  InsertionCount.store(0, std::memory_order_relaxed);
  if (StoreV)
    StoreV->resetStats();
}

CacheStats ArtifactCache::stats() const {
  CacheStats Stats;
  Stats.Hits = HitCount.load(std::memory_order_relaxed);
  Stats.Misses = MissCount.load(std::memory_order_relaxed);
  Stats.Evictions = EvictionCount.load(std::memory_order_relaxed);
  Stats.Insertions = InsertionCount.load(std::memory_order_relaxed);
  Stats.BytesHeld = TotalBytes.load(std::memory_order_relaxed);
  Stats.Entries = EntryCount.load(std::memory_order_relaxed);
  Stats.BudgetBytes = Budget;
  if (StoreV) {
    Stats.HasStore = true;
    Stats.Store = StoreV->stats();
  }
  return Stats;
}
