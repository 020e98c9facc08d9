//===- serve/ModelRegistry.h - fingerprint-addressed model store *- C++ -*-===//
///
/// \file
/// A content-addressed registry of whole networks, persisted next to
/// the repair artifacts of a shared persist::ArtifactStore directory:
/// serving requests name a model by its NetworkFingerprint instead of
/// shipping weights, and every serving process pointed at the same
/// directory resolves the same immutable bytes.
///
/// Layout: <store-dir>/models/<32 hex digest chars>.net, one framed
/// binary network (persist::saveNetworkBinary) per entry, named by the
/// network's own content fingerprint. The `.net` suffix keeps entries
/// invisible to the artifact store's LRU GC, which only considers
/// `.art` entry files - a registered model is never evicted to make
/// room for cached artifacts (registry entries are the *roots* the
/// artifacts hang off; losing one invalidates a fingerprint every
/// client may still hold).
///
/// Publication is atomic and idempotent: writers serialize into a
/// unique temp file in the models directory and rename() it into
/// place, so concurrent publishers - threads or processes - race
/// benignly (a fingerprint is a content address; every writer's bytes
/// are identical), and a publish of an already-registered model is a
/// cheap existence check.
///
/// Resolution is verified: a loaded network's fingerprint is
/// *recomputed* and compared against the address it was resolved by.
/// A mismatch (bit rot the codec's digest somehow missed, or a file
/// renamed under a foreign address) or a corrupt/truncated frame is
/// rejected with a typed RegistryError - never served, never a crash -
/// and the bad entry is deleted so a later republish heals it.
/// Successful loads enter a per-process in-memory cache (fingerprint
/// -> shared immutable Network), so a serving process deserializes
/// each model once, not per request.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_SERVE_MODELREGISTRY_H
#define PRDNN_SERVE_MODELREGISTRY_H

#include "cache/Fingerprint.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace prdnn {

class Network;

namespace serve {

/// Why a registry operation failed; None means success.
enum class RegistryError : std::uint8_t {
  None,
  /// No entry on disk for the requested fingerprint.
  NotFound,
  /// The entry exists but its frame/payload failed codec validation
  /// (truncated, bit-rotted, or not a network blob); the entry was
  /// deleted so a republish can heal it.
  Corrupt,
  /// The entry decoded into a valid network whose *recomputed*
  /// fingerprint differs from the address it was resolved by (e.g. a
  /// file renamed under a foreign address); rejected and deleted -
  /// a fingerprint-addressed request never sees a mismatched model.
  FingerprintMismatch,
  /// Filesystem-level failure (unwritable directory, rename error).
  IoError,
};

const char *toString(RegistryError Error);

/// Aggregate counters of one ModelRegistry; monotonic.
struct RegistryStats {
  /// publish() wrote a new entry.
  std::uint64_t Publishes = 0;
  /// publish() found the entry already on disk (another thread,
  /// process, or an earlier run published first).
  std::uint64_t PublishSkips = 0;
  /// resolve() calls.
  std::uint64_t Resolves = 0;
  /// Of Resolves, served from the per-process in-memory cache.
  std::uint64_t CacheHits = 0;
  /// Of Resolves, loaded (and fingerprint-verified) from disk.
  std::uint64_t DiskLoads = 0;
  /// Of Resolves, no entry on disk.
  std::uint64_t NotFound = 0;
  /// Entries rejected for codec-level corruption (deleted).
  std::uint64_t CorruptRejects = 0;
  /// Entries rejected because the recomputed fingerprint mismatched
  /// the address (deleted).
  std::uint64_t MismatchRejects = 0;

  /// Fraction of resolves served without touching disk.
  double cacheHitRate() const {
    return Resolves == 0 ? 0.0
                         : static_cast<double>(CacheHits) /
                               static_cast<double>(Resolves);
  }
};

/// See the file comment.
class ModelRegistry {
public:
  /// \p StoreDirectory is the *shared store* root (the same directory
  /// an ArtifactStore / EngineOptions::StoreDirectory points at);
  /// models live under its `models/` subdirectory, created on first
  /// use.
  explicit ModelRegistry(std::string StoreDirectory);

  ModelRegistry(const ModelRegistry &) = delete;
  ModelRegistry &operator=(const ModelRegistry &) = delete;

  /// Persists \p Net under its content fingerprint (atomic
  /// temp-then-rename; idempotent - an existing entry is left alone)
  /// and seeds the in-memory cache with a private copy. Returns the
  /// fingerprint clients should address the model by; on I/O failure
  /// reports IoError through \p Error (the fingerprint is still
  /// returned - the caller may retry or serve the cached copy).
  NetworkFingerprint publish(const Network &Net,
                             RegistryError *Error = nullptr);

  /// Returns the immutable network addressed by \p Fp, from the
  /// per-process cache or (verified) from disk; null with a typed
  /// \p Error on failure. See the file comment for the verification
  /// and rejection rules.
  std::shared_ptr<const Network> resolve(const NetworkFingerprint &Fp,
                                         RegistryError *Error = nullptr);

  /// Whether an entry for \p Fp exists (cache or disk), without
  /// loading or verifying it.
  bool contains(const NetworkFingerprint &Fp) const;

  /// Fingerprints of every entry on disk (unverified - resolve()
  /// still re-checks), in unspecified order.
  std::vector<NetworkFingerprint> list() const;

  /// Drops the per-process cache (entries on disk are untouched), so
  /// the next resolve of each model re-loads and re-verifies. For
  /// tests and memory pressure; concurrent resolves are safe.
  void dropCache();

  RegistryStats stats() const;

  /// Zeroes the monotonic counters; the entry cache and on-disk
  /// entries are untouched. Part of the uniform telemetry reset
  /// (obs/Metrics.h).
  void resetStats() {
    PublishCount.store(0, std::memory_order_relaxed);
    PublishSkipCount.store(0, std::memory_order_relaxed);
    ResolveCount.store(0, std::memory_order_relaxed);
    CacheHitCount.store(0, std::memory_order_relaxed);
    DiskLoadCount.store(0, std::memory_order_relaxed);
    NotFoundCount.store(0, std::memory_order_relaxed);
    CorruptRejectCount.store(0, std::memory_order_relaxed);
    MismatchRejectCount.store(0, std::memory_order_relaxed);
  }

  /// The on-disk path \p Fp maps to (exposed so tests can corrupt or
  /// inspect entries).
  std::string entryPath(const NetworkFingerprint &Fp) const;

  /// The `models/` directory this registry publishes into.
  const std::string &directory() const { return Dir; }

private:
  struct FpHash {
    std::size_t operator()(const NetworkFingerprint &Fp) const {
      return static_cast<std::size_t>(
          Fp.Digest.Hi ^ (Fp.Digest.Lo * 0x9e3779b97f4a7c15ull));
    }
  };

  std::string Dir; ///< <store-dir>/models

  mutable std::mutex CacheMutex;
  std::unordered_map<NetworkFingerprint, std::shared_ptr<const Network>,
                     FpHash>
      Cache;

  std::atomic<std::uint64_t> PublishCount{0};
  std::atomic<std::uint64_t> PublishSkipCount{0};
  mutable std::atomic<std::uint64_t> ResolveCount{0};
  mutable std::atomic<std::uint64_t> CacheHitCount{0};
  mutable std::atomic<std::uint64_t> DiskLoadCount{0};
  mutable std::atomic<std::uint64_t> NotFoundCount{0};
  mutable std::atomic<std::uint64_t> CorruptRejectCount{0};
  mutable std::atomic<std::uint64_t> MismatchRejectCount{0};
};

} // namespace serve
} // namespace prdnn

#endif // PRDNN_SERVE_MODELREGISTRY_H
