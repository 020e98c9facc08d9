//===- serve/ModelRegistry.cpp --------------------------------------------===//

#include "serve/ModelRegistry.h"

#include "nn/Network.h"
#include "persist/Serialize.h"

#include <atomic>
#include <filesystem>
#include <system_error>
#include <utility>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace fs = std::filesystem;

using namespace prdnn;
using namespace prdnn::serve;

namespace {

constexpr const char *kModelSuffix = ".net";
constexpr const char *kTempPrefix = ".tmp-";

std::uint64_t processId() {
#ifdef _WIN32
  return static_cast<std::uint64_t>(_getpid());
#else
  return static_cast<std::uint64_t>(::getpid());
#endif
}

/// Temp-file sequence shared by every registry in the process. With the
/// process id it makes each writer's temp name unique; a per-registry
/// counter let two registries on one directory in one process write
/// the same temp file at once and publish a torn entry.
std::atomic<std::uint64_t> NextTempId{0};

void setError(RegistryError *Error, RegistryError Value) {
  if (Error)
    *Error = Value;
}

} // namespace

const char *prdnn::serve::toString(RegistryError Error) {
  switch (Error) {
  case RegistryError::None:
    return "none";
  case RegistryError::NotFound:
    return "not-found";
  case RegistryError::Corrupt:
    return "corrupt";
  case RegistryError::FingerprintMismatch:
    return "fingerprint-mismatch";
  case RegistryError::IoError:
    return "io-error";
  }
  return "unknown";
}

ModelRegistry::ModelRegistry(std::string StoreDirectory)
    : Dir((fs::path(std::move(StoreDirectory)) / "models").string()) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
}

std::string ModelRegistry::entryPath(const NetworkFingerprint &Fp) const {
  return (fs::path(Dir) / (toHex(Fp) + kModelSuffix)).string();
}

NetworkFingerprint ModelRegistry::publish(const Network &Net,
                                          RegistryError *Error) {
  setError(Error, RegistryError::None);
  NetworkFingerprint Fp = fingerprintNetwork(Net);

  // Seed the per-process cache with a private immutable copy so the
  // publisher's own serving path never re-reads what it just wrote
  // (and keeps working even if the disk write below fails).
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    if (!Cache.count(Fp))
      Cache.emplace(Fp, std::make_shared<const Network>(Net));
  }

  const std::string Path = entryPath(Fp);
  std::error_code Ec;
  if (fs::exists(Path, Ec)) {
    // Published already - by an earlier run, a concurrent thread, or
    // another process on the shared directory. Content addressing
    // makes the bytes identical, so there is nothing to do.
    PublishSkipCount.fetch_add(1, std::memory_order_relaxed);
    return Fp;
  }

  fs::create_directories(Dir, Ec);
  // Unique temp name in the models directory itself so the final
  // rename never crosses a filesystem boundary (atomicity).
  std::string TempName =
      kTempPrefix + std::to_string(processId()) + "-" +
      std::to_string(NextTempId.fetch_add(1, std::memory_order_relaxed));
  fs::path Temp = fs::path(Dir) / TempName;
  if (!persist::saveNetworkBinary(Net, Temp.string())) {
    setError(Error, RegistryError::IoError);
    fs::remove(Temp, Ec);
    return Fp;
  }
  fs::rename(Temp, fs::path(Path), Ec);
  if (Ec) {
    fs::remove(Temp, Ec);
    // A concurrent publisher may have renamed first; that is success.
    std::error_code ExistsEc;
    if (fs::exists(Path, ExistsEc)) {
      PublishSkipCount.fetch_add(1, std::memory_order_relaxed);
      return Fp;
    }
    setError(Error, RegistryError::IoError);
    return Fp;
  }
  PublishCount.fetch_add(1, std::memory_order_relaxed);
  return Fp;
}

std::shared_ptr<const Network>
ModelRegistry::resolve(const NetworkFingerprint &Fp, RegistryError *Error) {
  setError(Error, RegistryError::None);
  ResolveCount.fetch_add(1, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = Cache.find(Fp);
    if (It != Cache.end()) {
      CacheHitCount.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }

  const std::string Path = entryPath(Fp);
  std::error_code Ec;
  if (!fs::exists(Path, Ec)) {
    NotFoundCount.fetch_add(1, std::memory_order_relaxed);
    setError(Error, RegistryError::NotFound);
    return nullptr;
  }

  persist::CodecError Codec = persist::CodecError::None;
  std::optional<Network> Loaded = persist::loadNetworkBinary(Path, &Codec);
  if (!Loaded) {
    // Torn write from a crashed publisher, bit rot, or a foreign file:
    // reject with a typed error and delete the entry so the next
    // publish republishes good bytes. Corruption can cost a reload,
    // never a wrong model.
    CorruptRejectCount.fetch_add(1, std::memory_order_relaxed);
    fs::remove(Path, Ec);
    setError(Error, RegistryError::Corrupt);
    return nullptr;
  }

  // The load must re-derive the address: a valid network stored under
  // the wrong fingerprint must never be served as if it were the
  // requested model (this is the registry's analogue of the artifact
  // store's digest check, one level up - it also catches the
  // vanishingly unlikely case of a payload digest collision).
  if (!(fingerprintNetwork(*Loaded) == Fp)) {
    MismatchRejectCount.fetch_add(1, std::memory_order_relaxed);
    fs::remove(Path, Ec);
    setError(Error, RegistryError::FingerprintMismatch);
    return nullptr;
  }

  auto Shared = std::make_shared<const Network>(std::move(*Loaded));
  DiskLoadCount.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    // A concurrent resolve of the same model may have inserted first;
    // keep the incumbent so every caller shares one instance.
    return Cache.emplace(Fp, std::move(Shared)).first->second;
  }
}

bool ModelRegistry::contains(const NetworkFingerprint &Fp) const {
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    if (Cache.count(Fp))
      return true;
  }
  std::error_code Ec;
  return fs::exists(entryPath(Fp), Ec);
}

std::vector<NetworkFingerprint> ModelRegistry::list() const {
  std::vector<NetworkFingerprint> Out;
  std::error_code Ec;
  for (fs::directory_iterator
           It(Dir, fs::directory_options::skip_permission_denied, Ec),
       End;
       !Ec && It != End; It.increment(Ec)) {
    if (!It->is_regular_file(Ec))
      continue;
    std::string Name = It->path().filename().string();
    if (Name.size() != 32 + 4 ||
        Name.compare(32, 4, kModelSuffix) != 0)
      continue;
    if (std::optional<Digest128> Digest =
            digestFromHex(Name.substr(0, 32)))
      Out.push_back(NetworkFingerprint{*Digest});
  }
  return Out;
}

void ModelRegistry::dropCache() {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  Cache.clear();
}

RegistryStats ModelRegistry::stats() const {
  RegistryStats Stats;
  Stats.Publishes = PublishCount.load(std::memory_order_relaxed);
  Stats.PublishSkips = PublishSkipCount.load(std::memory_order_relaxed);
  Stats.Resolves = ResolveCount.load(std::memory_order_relaxed);
  Stats.CacheHits = CacheHitCount.load(std::memory_order_relaxed);
  Stats.DiskLoads = DiskLoadCount.load(std::memory_order_relaxed);
  Stats.NotFound = NotFoundCount.load(std::memory_order_relaxed);
  Stats.CorruptRejects = CorruptRejectCount.load(std::memory_order_relaxed);
  Stats.MismatchRejects =
      MismatchRejectCount.load(std::memory_order_relaxed);
  return Stats;
}
