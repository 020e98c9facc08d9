//===- obs/Metrics.h - metrics registry for the serving stack --*- C++ -*-===//
///
/// \file
/// The unified observability layer's metrics half: named counters,
/// gauges, and fixed-bucket histograms behind one MetricsRegistry, with
/// a coherent point-in-time snapshot() and Prometheus-style text
/// exposition. The per-job span recorder lives in obs/Trace.h; the
/// pre-wired handle bundle the engine/serve/rpc tiers share is
/// obs/Telemetry.h.
///
/// Design constraints, in priority order:
///
///  1. *Inert*: recording a metric never perturbs repair results. All
///     instruments are pure side-channels - plain atomic accumulation,
///     no allocation, no locks on the record path (Counter/Histogram
///     shard their cells per thread), so tracing on vs off is
///     bit-for-bit identical (test-enforced, tests/obs_test.cpp).
///  2. *Concurrent*: record from any thread, snapshot/reset from any
///     other, under TSan. A snapshot taken during active jobs is
///     internally coherent per instrument (a histogram's count always
///     equals the sum of its buckets) and monotone across successive
///     snapshots; cross-instrument skew of in-flight increments is
///     documented, not forbidden.
///  3. *Uniform reset*: MetricsRegistry::reset() zeroes every owned
///     instrument and runs the registered reset hooks, so the external
///     counters mirrored by collectors (cache, store, admission,
///     registry) reset through the same single call - the fix for the
///     pre-obs asymmetry where clearCache() reset cache stats but
///     queue/admission counters had no reset path.
///
/// Naming scheme (see src/obs/README.md): prdnn_<tier>_<what>[_<unit>]
/// with Prometheus conventions - monotonic counters end in _total,
/// histograms carry their unit (_seconds), gauges are bare. Names are
/// flat (no labels); the only generated label is the histogram
/// exposition's `le`.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_OBS_METRICS_H
#define PRDNN_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace prdnn {
namespace obs {

/// Small dense id of the calling thread (assigned on first use,
/// monotonic per process): the shard selector for Counter/Histogram
/// cells and the `tid` of trace events - stable for a thread's
/// lifetime, unlike std::thread::id, and small enough to print.
std::uint32_t threadOrdinal();

enum class MetricType : std::uint8_t { Counter, Gauge, Histogram };

const char *toString(MetricType Type);

/// Monotonic counter, thread-sharded so concurrent add() calls do not
/// contend on one cache line. Double-valued on purpose: seconds totals
/// (e.g. cumulative LP kernel time) are counters too.
class Counter {
public:
  static constexpr std::size_t kShards = 16;

  void add(double Delta = 1.0);
  void inc() { add(1.0); }

  /// Sum over shards. Concurrent with add(); an in-flight add may or
  /// may not be included (each shard read is atomic).
  double value() const;

  void reset();

private:
  struct alignas(64) Cell {
    std::atomic<double> V{0.0};
  };
  std::array<Cell, kShards> Cells;
};

/// Last-writer-wins instantaneous value (queue depth, bytes held).
class Gauge {
public:
  void set(double Value) { V.store(Value, std::memory_order_relaxed); }
  void add(double Delta);
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

private:
  std::atomic<double> V{0.0};
};

/// One decoded histogram observation set: fixed upper-bound edges plus
/// an overflow bucket, with *non-cumulative* per-bucket counts (the
/// Prometheus exposition cumulates at render time).
struct HistogramSnapshot {
  /// Finite bucket upper bounds, ascending. A value v lands in the
  /// first bucket with v <= edge (Prometheus `le` convention - a value
  /// exactly on an edge belongs to that edge's bucket), else overflow.
  std::vector<double> Edges;
  /// Per-bucket counts, size Edges.size() + 1 (last = overflow).
  std::vector<std::uint64_t> Counts;
  double Sum = 0.0;

  std::uint64_t count() const;

  /// Quantile estimate at \p Q in [0, 1]: nearest-rank bucket walk with
  /// linear interpolation inside the bucket (lower bound 0 for the
  /// first bucket - observations are assumed non-negative). An
  /// overflow-bucket rank clamps to the last finite edge. 0 on empty.
  double quantile(double Q) const;
};

/// Fixed-bucket histogram, thread-sharded like Counter. Bucket edges
/// are immutable after construction; observe() is two relaxed atomic
/// updates on the caller's shard.
class Histogram {
public:
  explicit Histogram(std::vector<double> Edges);

  void observe(double Value);

  HistogramSnapshot snapshot() const;

  const std::vector<double> &edges() const { return EdgesV; }

  void reset();

private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    /// Edges + 1 buckets; storage sized at construction.
    std::unique_ptr<std::atomic<std::uint64_t>[]> Buckets;
    std::atomic<double> Sum{0.0};
  };
  std::vector<double> EdgesV;
  std::array<Shard, kShards> Shards;
};

/// Default latency buckets (seconds), log-spaced 100us..60s: shared by
/// every latency histogram of obs::Telemetry (queue wait, job duration
/// and the per-phase job seconds), so their p50/p95/p99 are comparable.
std::vector<double> defaultLatencyBuckets();

/// One named metric inside a MetricsSnapshot.
struct MetricSample {
  std::string Name;
  std::string Help;
  MetricType Type = MetricType::Counter;
  /// Counter/Gauge value (unused for histograms).
  double Value = 0.0;
  /// Histogram payload (empty otherwise).
  HistogramSnapshot Hist;
};

/// Point-in-time view of every metric in a registry, in registration
/// order (so exposition output is deterministic). Plain data: safe to
/// ship over the wire (rpc/Wire.h MetricsReply) or hold across the
/// registry's lifetime.
struct MetricsSnapshot {
  std::vector<MetricSample> Samples;

  const MetricSample *find(std::string_view Name) const;

  /// Counter/gauge value by name; 0 when absent (histograms: use
  /// find()->Hist).
  double value(std::string_view Name) const;

  /// Prometheus text exposition format: `# HELP` / `# TYPE` preamble
  /// per metric, histogram buckets as cumulative `_bucket{le="..."}`
  /// series plus `_sum` / `_count`. Doubles print round-trip exact.
  std::string renderPrometheus() const;
};

/// See the file comment. Handles returned by counter()/gauge()/
/// histogram() are stable for the registry's lifetime and safe to use
/// from any thread. Registration is idempotent by name (the existing
/// instrument is returned when name and type match; a name reused with
/// a different type returns null - a wiring bug surfaced as a no-op
/// handle rather than UB).
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  Counter *counter(const std::string &Name, std::string Help = "");
  Gauge *gauge(const std::string &Name, std::string Help = "");
  Histogram *histogram(const std::string &Name, std::vector<double> Edges,
                       std::string Help = "");

  /// Registers a callback-sampled metric mirroring an external counter
  /// or gauge (cache stats, admission depth, ...): \p Sample is called
  /// at snapshot() time. \p Owner tags the collector for removeOwner()
  /// - a component registers its collectors with itself as owner and
  /// removes them in its destructor, so a registry outliving the
  /// component never samples freed state. Duplicate names are ignored.
  void addCollector(const void *Owner, const std::string &Name,
                    MetricType Type, std::string Help,
                    std::function<double()> Sample);

  /// Registers a hook run by reset() (after zeroing owned
  /// instruments): how external counters mirrored by collectors join
  /// the uniform reset path. Same ownership discipline as collectors.
  void addResetHook(const void *Owner, std::function<void()> Hook);

  /// Drops every collector and reset hook registered under \p Owner.
  void removeOwner(const void *Owner);

  /// Coherent point-in-time view (see the file comment's concurrency
  /// contract). Safe concurrently with recording, registration, and
  /// running jobs.
  MetricsSnapshot snapshot() const;

  std::string renderPrometheus() const { return snapshot().renderPrometheus(); }

  /// The uniform reset: zeroes every owned counter/gauge/histogram,
  /// then runs every reset hook (outside the registry lock), so one
  /// call cleans the engine queue, admission, cache, and store
  /// counters alike before a measurement phase.
  void reset();

private:
  struct Entry {
    std::string Name;
    std::string Help;
    MetricType Type = MetricType::Counter;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<Histogram> H;
    /// Collector entries: non-null owner + sampling callback.
    const void *Owner = nullptr;
    std::function<double()> Sample;
  };

  Entry *findEntry(const std::string &Name);

  mutable std::mutex Mutex;
  /// Registration order = exposition order.
  std::vector<Entry> Entries;
  std::vector<std::pair<const void *, std::function<void()>>> ResetHooks;
};

} // namespace obs
} // namespace prdnn

#endif // PRDNN_OBS_METRICS_H
