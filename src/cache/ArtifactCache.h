//===- cache/ArtifactCache.h - shared repair-artifact cache ----*- C++ -*-===//
///
/// \file
/// A content-addressed, byte-budgeted cache for the expensive artifacts
/// of the repair pipeline, shared by every job of a RepairEngine:
///
///   SyrennTransform - the LinRegions partitions of a polytope spec's
///                     shapes (Algorithm 2, line 2);
///   PatternBatch    - activation patterns at a batch of points (the
///                     per-region pattern capture of Appendix B);
///   LpSolution      - the solved parameter change Delta of one repair
///                     LP (Algorithm 1, lines 7-8), re-verified by the
///                     consumer before use (core/PointRepair.cpp).
///
/// Keys are 128-bit content digests (cache/Fingerprint.h) over the
/// network fingerprint and a canonical serialization of every input the
/// artifact depends on, so equal keys imply bit-for-bit equal artifacts
/// (up to a simultaneous collision in both independent hash lanes).
/// Because the compute functions themselves are deterministic for any
/// thread count (the thread-pool contract), a cache hit returns exactly
/// the bytes a recomputation would produce: warm runs are bit-for-bit
/// identical to cold runs, cache on or off.
///
/// Concurrency: the map is sharded with per-shard mutexes; lookups and
/// insertions on different shards never contend. Insertion is
/// single-flight: the first getOrCompute() for a key computes (outside
/// the shard lock), concurrent callers for the same key block on the
/// shard's condition variable and receive the one shared artifact
/// instead of recomputing.
///
/// Eviction: per-shard LRU under a per-shard slice of the byte budget.
/// An artifact larger than its shard's slice is returned to the caller
/// but not retained, and its key is remembered so later callers (and
/// waiters) compute directly - concurrently - instead of serializing
/// through the single-flight claim. Hit / miss / eviction / byte
/// statistics are aggregated across shards (stats()).
///
/// L2 tier: an optional persist::ArtifactStore backs the cache on
/// disk. An L1 miss reads through to the store *inside* the
/// single-flight claim (so concurrent callers of one key deserialize
/// once) and publishes the loaded artifact to L1; a computed artifact
/// is published to L1 and queued for asynchronous write-behind to the
/// store, off the caller's critical path. Serialization is bit-exact
/// (persist/Serialize.h), so an L2 hit returns exactly the bytes a
/// recomputation would produce and the determinism contract is
/// unchanged; a corrupt store entry is skipped (and deleted) and the
/// artifact recomputed. The Hits/Misses counters remain L1-tier
/// counters (an L2 hit is an L1 miss); store counters live in
/// CacheStats::Store.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CACHE_ARTIFACTCACHE_H
#define PRDNN_CACHE_ARTIFACTCACHE_H

#include "cache/Fingerprint.h"
#include "nn/ActivationPattern.h"
#include "persist/StoreStats.h"
#include "syrenn/LineTransform.h"
#include "syrenn/PlaneTransform.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

namespace prdnn {

namespace persist {
class ArtifactStore;
} // namespace persist

/// What a cache entry holds; see the file comment.
enum class ArtifactKind : std::uint8_t {
  SyrennTransform,
  PatternBatch,
  LpSolution,
};

const char *toString(ArtifactKind Kind);

/// Content address of one artifact: the kind plus a digest over every
/// input the artifact depends on (network fingerprint included).
struct CacheKey {
  ArtifactKind Kind = ArtifactKind::SyrennTransform;
  Digest128 Digest;

  bool operator==(const CacheKey &Other) const = default;
};

/// Base of every cached value. Artifacts are immutable once published;
/// bytes() sizes the entry for the LRU byte budget.
class CacheArtifact {
public:
  virtual ~CacheArtifact();
  virtual std::size_t bytes() const = 0;
};

/// The LinRegions partitions of every polytope of a spec, in spec
/// order (shapes only - constraints are attached by the consumer, so
/// specs differing only in output constraints share this artifact).
struct SyrennTransformArtifact final : CacheArtifact {
  using Partition = std::variant<LinePartition, std::vector<PlaneRegion>>;
  std::vector<Partition> Partitions;

  std::size_t bytes() const override;
};

/// Activation patterns at a batch of points, in batch order.
struct PatternBatchArtifact final : CacheArtifact {
  std::vector<NetworkPattern> Patterns;

  std::size_t bytes() const override;
};

/// The outcome of one repair LP: the optimal Delta over the effective
/// (unfrozen) parameters, plus the constraint-generation counts that
/// produced it, so a hit reports the stats of the solve it skips.
struct LpSolutionArtifact final : CacheArtifact {
  std::vector<double> Delta;
  int LpRowsUsed = 0;
  int CgRounds = 0;

  std::size_t bytes() const override;
};

/// Aggregate counters; monotonic except BytesHeld / Entries. Hits and
/// Misses are L1 (in-memory) counters: an artifact served from the
/// backing store counts as an L1 miss plus a Store.Hits increment.
struct CacheStats {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Evictions = 0;
  std::uint64_t Insertions = 0;
  std::uint64_t BytesHeld = 0;
  std::uint64_t Entries = 0;
  std::uint64_t BudgetBytes = 0;
  /// Counters of the L2 backing store; all-zero when HasStore is
  /// false.
  bool HasStore = false;
  persist::StoreStats Store;

  double hitRate() const {
    std::uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0 : static_cast<double>(Hits) /
                                  static_cast<double>(Total);
  }
};

/// Where getOrCompute() found the artifact: None = this caller
/// computed it; L1 = served from memory (a prior insert or a shared
/// in-flight compute); L2 = deserialized from the backing store (and
/// promoted to L1).
enum class CacheTier : std::uint8_t {
  None,
  L1,
  L2,
};

/// See the file comment.
class ArtifactCache {
public:
  using ComputeFn = std::function<std::shared_ptr<const CacheArtifact>()>;

  /// \p BudgetBytes bounds retained artifact bytes (split evenly across
  /// \p NumShards); 0 disables retention (every call computes). \p
  /// Store, when non-null, backs the cache as an L2 tier (see the file
  /// comment).
  explicit ArtifactCache(
      std::size_t BudgetBytes, int NumShards = 16,
      std::shared_ptr<persist::ArtifactStore> Store = nullptr);

  ~ArtifactCache();

  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// Returns the artifact for \p Key, computing it with \p Compute on a
  /// miss (single-flight: concurrent callers of the same key compute
  /// once and share the result). \p WasHit, when non-null, reports
  /// whether this caller got a previously-computed artifact (waiters on
  /// an in-flight compute count as hits, as do L2 loads); \p Tier, when
  /// non-null, additionally says which tier served it. If \p Compute
  /// throws, the in-flight entry is abandoned and the exception
  /// propagates; waiting callers retry the compute themselves.
  std::shared_ptr<const CacheArtifact>
  getOrCompute(const CacheKey &Key, const ComputeFn &Compute,
               bool *WasHit = nullptr, CacheTier *Tier = nullptr);

  /// Drops every retained entry (in-flight computes are unaffected and
  /// publish into the emptied map). The backing store's entries are
  /// *kept* (they address content, which has not changed); only the
  /// in-memory tier empties.
  void clear();

  /// Zeroes the monotonic hit/miss/eviction/insertion counters (and
  /// the store's, when one is attached) without touching retained
  /// entries, so warm-vs-cold measurement phases start from clean
  /// counters. BytesHeld / Entries reflect state and are kept.
  void resetStats();

  CacheStats stats() const;
  std::size_t budgetBytes() const { return Budget; }

  /// The L2 backing store, or null.
  persist::ArtifactStore *store() const { return StoreV.get(); }

private:
  struct KeyHash {
    std::size_t operator()(const CacheKey &Key) const {
      return static_cast<std::size_t>(
          Key.Digest.Hi ^ (Key.Digest.Lo * 0x9e3779b97f4a7c15ull) ^
          static_cast<std::uint64_t>(Key.Kind));
    }
  };

  struct Entry {
    std::shared_ptr<const CacheArtifact> Value;
    std::size_t Bytes = 0;
    bool Ready = false;
    /// Position in the shard's LRU list (Ready entries only).
    std::list<CacheKey>::iterator LruIt;
  };

  struct Shard {
    std::mutex Mutex;
    std::condition_variable Cv; ///< waiters on in-flight computes
    std::unordered_map<CacheKey, Entry, KeyHash> Map;
    /// Most-recently-used first; only Ready entries are listed (and
    /// hence evictable).
    std::list<CacheKey> Lru;
    /// Keys whose artifact proved larger than the shard's budget
    /// slice: later callers compute directly, without claiming the
    /// single-flight entry - otherwise concurrent jobs on an
    /// unretainable key would serialize their computes one at a time
    /// through the claim/erase cycle.
    std::unordered_set<CacheKey, KeyHash> Oversized;
    std::size_t BytesHeld = 0;
  };

  Shard &shardFor(const CacheKey &Key) {
    return *Shards[static_cast<std::size_t>(
        (Key.Digest.Lo ^ static_cast<std::uint64_t>(Key.Kind)) %
        Shards.size())];
  }

  /// Evicts LRU entries of \p S until it fits its budget slice; caller
  /// holds the shard lock.
  void evictOverBudget(Shard &S);

  std::size_t Budget;
  std::size_t ShardBudget;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::shared_ptr<persist::ArtifactStore> StoreV; ///< null without L2

  mutable std::atomic<std::uint64_t> HitCount{0};
  mutable std::atomic<std::uint64_t> MissCount{0};
  std::atomic<std::uint64_t> EvictionCount{0};
  std::atomic<std::uint64_t> InsertionCount{0};
  std::atomic<std::uint64_t> TotalBytes{0};
  std::atomic<std::uint64_t> EntryCount{0};
};

} // namespace prdnn

#endif // PRDNN_CACHE_ARTIFACTCACHE_H
