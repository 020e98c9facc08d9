//===- persist/ArtifactStore.h - disk-backed artifact store ----*- C++ -*-===//
///
/// \file
/// The L2 tier of the repair-artifact cache: a content-addressed
/// on-disk map from the cache's 128-bit keys to serialized artifacts
/// (persist/Serialize.h blobs framed by persist/Codec.h). Unlike the
/// in-memory ArtifactCache it is owned by nobody's lifetime: a fresh
/// engine pointed at the same directory starts warm (server restarts),
/// and multiple processes can share one store concurrently.
///
/// Layout: two-level hex fan-out of the key digest,
///
///   <dir>/ab/cd/<kind>-<32 hex digest chars>.art
///
/// where ab/cd are the first two bytes of Digest.Hi - at most 65536
/// directories, keeping every directory small under millions of
/// entries.
///
/// Publication is atomic: writers serialize into a unique temp file in
/// the entry's directory and rename() it into place, so concurrent
/// writers (threads or processes) race benignly - the entry appears
/// all-at-once with *some* writer's bytes, and since keys are content
/// addresses every writer's bytes are identical. Readers therefore
/// never observe a partial entry; a torn file from a crashed writer
/// fails the frame's digest check and is deleted and recomputed
/// (CorruptSkips), never trusted.
///
/// Writes are asynchronous by default (storeAsync): a single writer
/// thread drains a bounded queue off the job workers' critical path,
/// skipping entries that already exist (another thread, an earlier
/// run, or another process published first). When the queue is full
/// the write is dropped and counted (WriteSkips) - persistence is an
/// optimization, never backpressure on repairs. flush() drains the
/// queue for benches and orderly shutdown; the destructor flushes too.
///
/// Capacity: a byte budget enforced by LRU-over-mtime GC after writes.
/// load() refreshes an entry's mtime, so recently-used entries survive.
/// Budget enforcement is approximate across processes (each process
/// tracks its own view and rescans when it believes the budget is
/// exceeded); correctness never depends on it.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_PERSIST_ARTIFACTSTORE_H
#define PRDNN_PERSIST_ARTIFACTSTORE_H

#include "cache/ArtifactCache.h"
#include "persist/StoreStats.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace prdnn {
namespace persist {

struct StoreOptions {
  /// Root directory; created (with parents) if absent.
  std::string Directory;
  /// On-disk byte budget; exceeding it triggers LRU-by-mtime GC.
  std::uint64_t BudgetBytes = std::uint64_t(1) << 30;
  /// Bounded write-behind queue; further writes are skipped, not
  /// queued (see the file comment).
  int MaxQueuedWrites = 256;
};

/// See the file comment.
class ArtifactStore {
public:
  explicit ArtifactStore(StoreOptions Options);

  /// Flushes queued writes and joins the writer thread.
  ~ArtifactStore();

  ArtifactStore(const ArtifactStore &) = delete;
  ArtifactStore &operator=(const ArtifactStore &) = delete;

  /// Reads and decodes the entry for \p Key; null when absent or
  /// corrupt (a corrupt entry is deleted and counted - the caller
  /// recomputes). A hit refreshes the entry's mtime (LRU recency).
  std::shared_ptr<const CacheArtifact> load(const CacheKey &Key);

  /// Queues \p Value for asynchronous publication under \p Key. The
  /// artifact must be immutable (the cache's artifacts are); the
  /// writer thread serializes it off the caller's critical path.
  void storeAsync(const CacheKey &Key,
                  std::shared_ptr<const CacheArtifact> Value);

  /// Serializes and publishes synchronously on the calling thread
  /// (tests, tools; also the writer thread's implementation).
  void storeSync(const CacheKey &Key, const CacheArtifact &Value);

  /// Blocks until every queued write has been published.
  void flush();

  StoreStats stats() const;

  /// Zeroes the monotonic counters (hits/misses/writes/evictions/
  /// corrupt-skips); BytesHeld / Entries / BudgetBytes are state, not
  /// counters, and are kept.
  void resetStats();

  const std::string &directory() const { return Dir; }
  std::uint64_t budgetBytes() const { return Budget; }

  /// The entry path \p Key maps to (exposed so tests can corrupt or
  /// inspect entries).
  std::string entryPath(const CacheKey &Key) const;

private:
  struct QueuedWrite {
    CacheKey Key;
    std::shared_ptr<const CacheArtifact> Value;
  };

  void writerMain();
  /// Deletes oldest-mtime entries until the store fits the budget;
  /// also sweeps stale temp files. Serialized by GcMutex.
  void collectGarbage();
  /// Scans the store, refreshing BytesHeld / Entries.
  void scanExisting();

  std::string Dir;
  std::uint64_t Budget;
  int MaxQueuedWrites;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;  ///< writer waits for work
  std::condition_variable DrainCv;  ///< flush() waits for empty + idle
  std::deque<QueuedWrite> Queue;
  bool WriterBusy = false;
  bool Stopping = false;
  std::thread Writer;

  std::mutex GcMutex;

  mutable std::atomic<std::uint64_t> HitCount{0};
  mutable std::atomic<std::uint64_t> MissCount{0};
  std::atomic<std::uint64_t> WriteCount{0};
  std::atomic<std::uint64_t> WriteSkipCount{0};
  std::atomic<std::uint64_t> EvictionCount{0};
  mutable std::atomic<std::uint64_t> CorruptSkipCount{0};
  std::atomic<std::uint64_t> BytesHeld{0};
  std::atomic<std::uint64_t> EntryCount{0};
};

} // namespace persist
} // namespace prdnn

#endif // PRDNN_PERSIST_ARTIFACTSTORE_H
