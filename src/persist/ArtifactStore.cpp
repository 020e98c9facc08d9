//===- persist/ArtifactStore.cpp ------------------------------------------===//

#include "persist/ArtifactStore.h"

#include "persist/Codec.h"
#include "persist/Serialize.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace fs = std::filesystem;

using namespace prdnn;
using namespace prdnn::persist;

namespace {

constexpr const char *kEntrySuffix = ".art";
constexpr const char *kTempPrefix = ".tmp-";

char hexDigit(unsigned V) {
  return static_cast<char>(V < 10 ? '0' + V : 'a' + (V - 10));
}

void appendHex64(std::string &Out, std::uint64_t V) {
  for (int Shift = 60; Shift >= 0; Shift -= 4)
    Out.push_back(hexDigit(static_cast<unsigned>((V >> Shift) & 0xf)));
}

bool isEntryFile(const fs::path &Path) {
  const std::string Name = Path.filename().string();
  return Name.size() > 4 &&
         Name.compare(Name.size() - 4, 4, kEntrySuffix) == 0;
}

bool isTempFile(const fs::path &Path) {
  const std::string Name = Path.filename().string();
  return Name.compare(0, 5, kTempPrefix) == 0;
}

std::uint64_t processId() {
#ifdef _WIN32
  return static_cast<std::uint64_t>(_getpid());
#else
  return static_cast<std::uint64_t>(::getpid());
#endif
}

/// Temp-file sequence shared by every store handle in the process. With
/// the process id it makes each writer's temp name unique; a per-handle
/// counter let two handles on one directory in one process write the
/// same temp file at once and publish a torn entry.
std::atomic<std::uint64_t> NextTempId{0};

} // namespace

ArtifactStore::ArtifactStore(StoreOptions Options)
    : Dir(std::move(Options.Directory)), Budget(Options.BudgetBytes),
      MaxQueuedWrites(std::max(1, Options.MaxQueuedWrites)) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  scanExisting();
  Writer = std::thread([this] { writerMain(); });
}

ArtifactStore::~ArtifactStore() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueCv.notify_all();
  Writer.join();
}

std::string ArtifactStore::entryPath(const CacheKey &Key) const {
  std::string Name;
  Name.reserve(64);
  Name += toString(Key.Kind);
  Name.push_back('-');
  appendHex64(Name, Key.Digest.Hi);
  appendHex64(Name, Key.Digest.Lo);
  Name += kEntrySuffix;

  std::string Fan1, Fan2;
  Fan1.push_back(hexDigit(static_cast<unsigned>(Key.Digest.Hi >> 60) & 0xf));
  Fan1.push_back(hexDigit(static_cast<unsigned>(Key.Digest.Hi >> 56) & 0xf));
  Fan2.push_back(hexDigit(static_cast<unsigned>(Key.Digest.Hi >> 52) & 0xf));
  Fan2.push_back(hexDigit(static_cast<unsigned>(Key.Digest.Hi >> 48) & 0xf));
  return (fs::path(Dir) / Fan1 / Fan2 / Name).string();
}

std::shared_ptr<const CacheArtifact>
ArtifactStore::load(const CacheKey &Key) {
  const std::string Path = entryPath(Key);
  std::ifstream Is(Path, std::ios::binary | std::ios::ate);
  if (!Is) {
    MissCount.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // One sized read (this is the hot L1-miss path); a short or failed
  // read falls through to the frame validation, which rejects it.
  std::streamsize Size = Is.tellg();
  std::vector<std::uint8_t> Blob(
      Size > 0 ? static_cast<std::size_t>(Size) : 0);
  Is.seekg(0);
  if (!Blob.empty() &&
      !Is.read(reinterpret_cast<char *>(Blob.data()), Size))
    Blob.resize(static_cast<std::size_t>(Is.gcount()));
  Is.close();

  auto CorruptSkip = [&]() -> std::shared_ptr<const CacheArtifact> {
    // Torn write from a crashed process, bit rot, or a foreign format:
    // drop the entry so the next writer republishes good bytes, and
    // let the caller recompute - corruption can cost time, never
    // correctness.
    CorruptSkipCount.fetch_add(1, std::memory_order_relaxed);
    MissCount.fetch_add(1, std::memory_order_relaxed);
    std::error_code Ec;
    std::uint64_t Size = Blob.size();
    if (fs::remove(Path, Ec) && !Ec) {
      // Saturating decrements: counters are approximate across
      // processes.
      std::uint64_t Held = BytesHeld.load(std::memory_order_relaxed);
      BytesHeld.store(Held >= Size ? Held - Size : 0,
                      std::memory_order_relaxed);
      std::uint64_t N = EntryCount.load(std::memory_order_relaxed);
      EntryCount.store(N > 0 ? N - 1 : 0, std::memory_order_relaxed);
    }
    return nullptr;
  };

  FrameView View;
  if (unframe(Blob.data(), Blob.size(), View) != CodecError::None)
    return CorruptSkip();
  if (View.BlobKind != blobKindOf(Key.Kind))
    return CorruptSkip();
  ByteReader R(View.Payload, View.PayloadSize);
  std::shared_ptr<const CacheArtifact> Artifact =
      deserializeArtifact(Key.Kind, R);
  if (!Artifact)
    return CorruptSkip();

  HitCount.fetch_add(1, std::memory_order_relaxed);
  // Refresh recency for the LRU-by-mtime GC (best effort).
  std::error_code Ec;
  fs::last_write_time(Path, fs::file_time_type::clock::now(), Ec);
  return Artifact;
}

void ArtifactStore::storeAsync(const CacheKey &Key,
                               std::shared_ptr<const CacheArtifact> Value) {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (!Stopping &&
        static_cast<int>(Queue.size()) < MaxQueuedWrites) {
      Queue.push_back(QueuedWrite{Key, std::move(Value)});
    } else {
      WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  QueueCv.notify_one();
}

void ArtifactStore::storeSync(const CacheKey &Key,
                              const CacheArtifact &Value) {
  const std::string Path = entryPath(Key);
  std::error_code Ec;
  if (fs::exists(Path, Ec)) {
    // Published already - by an earlier job, a concurrent thread's
    // rename, or another process on the shared store. A republish still
    // signals the entry is hot, so refresh its mtime (best effort) the
    // same way load() does: otherwise an artifact that is recomputed
    // and re-stored every run but never read back would keep a stale
    // mtime and be the LRU-by-mtime GC's first victim.
    fs::last_write_time(Path, fs::file_time_type::clock::now(), Ec);
    WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  ByteWriter W;
  serializeArtifact(Value, Key.Kind, W);
  std::vector<std::uint8_t> Blob = frame(blobKindOf(Key.Kind), W.buffer());
  if (Blob.size() > Budget) {
    // Larger than the whole store: writing it would only evict
    // everything else before being evicted itself.
    WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  fs::path Entry(Path);
  fs::create_directories(Entry.parent_path(), Ec);

  // Unique temp name in the *entry's* directory so the final rename
  // never crosses a filesystem boundary (atomicity).
  std::string TempName = kTempPrefix + std::to_string(processId()) + "-" +
                         std::to_string(NextTempId.fetch_add(
                             1, std::memory_order_relaxed));
  fs::path Temp = Entry.parent_path() / TempName;
  {
    std::ofstream Os(Temp, std::ios::binary | std::ios::trunc);
    if (!Os) {
      WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Os.write(reinterpret_cast<const char *>(Blob.data()),
             static_cast<std::streamsize>(Blob.size()));
    if (!Os) {
      Os.close();
      fs::remove(Temp, Ec);
      WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Atomic publication: readers see the old state (nothing) or the
  // complete entry, never a prefix. Concurrent renames to the same
  // path race benignly (identical content-addressed bytes).
  fs::rename(Temp, Entry, Ec);
  if (Ec) {
    fs::remove(Temp, Ec);
    WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  WriteCount.fetch_add(1, std::memory_order_relaxed);
  EntryCount.fetch_add(1, std::memory_order_relaxed);
  if (BytesHeld.fetch_add(Blob.size(), std::memory_order_relaxed) +
          Blob.size() >
      Budget)
    collectGarbage();
}

void ArtifactStore::flush() {
  std::unique_lock<std::mutex> Lock(QueueMutex);
  DrainCv.wait(Lock, [&] { return Queue.empty() && !WriterBusy; });
}

void ArtifactStore::writerMain() {
  std::unique_lock<std::mutex> Lock(QueueMutex);
  while (true) {
    QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      return; // Stopping and drained (the destructor's flush contract)
    QueuedWrite Write = std::move(Queue.front());
    Queue.pop_front();
    WriterBusy = true;
    Lock.unlock();

    storeSync(Write.Key, *Write.Value);
    Write.Value.reset();

    Lock.lock();
    WriterBusy = false;
    if (Queue.empty())
      DrainCv.notify_all();
  }
}

void ArtifactStore::scanExisting() { collectGarbage(); }

void ArtifactStore::collectGarbage() {
  std::lock_guard<std::mutex> Lock(GcMutex);

  struct EntryInfo {
    fs::path Path;
    std::uint64_t Size;
    fs::file_time_type Mtime;
  };
  std::vector<EntryInfo> Entries;
  std::uint64_t TotalBytes = 0;
  std::error_code Ec;
  const auto Now = fs::file_time_type::clock::now();

  for (fs::recursive_directory_iterator
           It(Dir, fs::directory_options::skip_permission_denied, Ec),
       End;
       !Ec && It != End; It.increment(Ec)) {
    if (!It->is_regular_file(Ec))
      continue;
    const fs::path &Path = It->path();
    std::uint64_t Size = It->file_size(Ec);
    if (Ec) {
      Ec.clear();
      continue;
    }
    fs::file_time_type Mtime = It->last_write_time(Ec);
    if (Ec) {
      Ec.clear();
      continue;
    }
    if (isTempFile(Path)) {
      // A temp file older than a minute is debris from a crashed or
      // killed writer (live writers rename within milliseconds).
      if (Now - Mtime > std::chrono::minutes(1))
        fs::remove(Path, Ec);
      continue;
    }
    if (!isEntryFile(Path))
      continue;
    TotalBytes += Size;
    Entries.push_back(EntryInfo{Path, Size, Mtime});
  }

  if (TotalBytes > Budget) {
    std::sort(Entries.begin(), Entries.end(),
              [](const EntryInfo &A, const EntryInfo &B) {
                return A.Mtime < B.Mtime;
              });
    for (const EntryInfo &Victim : Entries) {
      if (TotalBytes <= Budget)
        break;
      std::error_code RemoveEc;
      if (fs::remove(Victim.Path, RemoveEc) && !RemoveEc) {
        TotalBytes -= Victim.Size;
        EvictionCount.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // The scan is authoritative: refresh the approximate counters.
  std::uint64_t Count = 0;
  std::uint64_t Held = 0;
  for (const EntryInfo &E : Entries) {
    std::error_code StatEc;
    if (fs::exists(E.Path, StatEc) && !StatEc) {
      ++Count;
      Held += E.Size;
    }
  }
  BytesHeld.store(Held, std::memory_order_relaxed);
  EntryCount.store(Count, std::memory_order_relaxed);
}

StoreStats ArtifactStore::stats() const {
  StoreStats Stats;
  Stats.Hits = HitCount.load(std::memory_order_relaxed);
  Stats.Misses = MissCount.load(std::memory_order_relaxed);
  Stats.Writes = WriteCount.load(std::memory_order_relaxed);
  Stats.WriteSkips = WriteSkipCount.load(std::memory_order_relaxed);
  Stats.Evictions = EvictionCount.load(std::memory_order_relaxed);
  Stats.CorruptSkips = CorruptSkipCount.load(std::memory_order_relaxed);
  Stats.BytesHeld = BytesHeld.load(std::memory_order_relaxed);
  Stats.Entries = EntryCount.load(std::memory_order_relaxed);
  Stats.BudgetBytes = Budget;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stats.PendingWrites = Queue.size() + (WriterBusy ? 1 : 0);
  }
  return Stats;
}

void ArtifactStore::resetStats() {
  HitCount.store(0, std::memory_order_relaxed);
  MissCount.store(0, std::memory_order_relaxed);
  WriteCount.store(0, std::memory_order_relaxed);
  WriteSkipCount.store(0, std::memory_order_relaxed);
  EvictionCount.store(0, std::memory_order_relaxed);
  CorruptSkipCount.store(0, std::memory_order_relaxed);
}
