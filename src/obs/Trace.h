//===- obs/Trace.h - per-job phase span recorder ---------------*- C++ -*-===//
///
/// \file
/// The observability layer's tracing half: a bounded ring buffer of
/// completed spans (one per job phase per thread) exportable as Chrome
/// trace-event JSON, loadable straight into Perfetto
/// (https://ui.perfetto.dev) or chrome://tracing.
///
/// Spans are recorded by core::JobContext as phases begin and end
/// (including sweep attempts on whichever pool thread ran them) and
/// by the engine for queue waits; each span carries the job id, a
/// static phase name, the recording thread's ordinal, monotonic
/// start/duration in nanoseconds, and cache/store hit-counter deltas
/// accumulated during the span. Recording is a short mutex-guarded
/// ring-buffer write with no allocation beyond the pre-sized ring -
/// inert by the same contract as obs/Metrics.h.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_OBS_TRACE_H
#define PRDNN_OBS_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace prdnn {
namespace obs {

/// One completed span. \c Name must point at a string with static
/// storage duration (phase names are compile-time literals); the ring
/// never copies or frees it.
struct TraceEvent {
  std::uint64_t JobId = 0;
  const char *Name = "";
  /// obs::threadOrdinal() of the recording thread.
  std::uint32_t ThreadId = 0;
  /// Monotonic (steady_clock) nanoseconds.
  std::uint64_t StartNanos = 0;
  std::uint64_t DurationNanos = 0;
  /// Sweep layer index for per-layer spans, -1 otherwise.
  std::int32_t SweepLayer = -1;
  /// Cache/store counter deltas accumulated during the span.
  std::uint64_t CacheHits = 0;
  std::uint64_t CacheMisses = 0;
  std::uint64_t StoreHits = 0;
  /// Phase progress at span end (items completed / total), 0/0 when
  /// the phase does not report item counts.
  std::uint64_t ItemsDone = 0;
  std::uint64_t ItemsTotal = 0;
};

/// Bounded MPSC-friendly span sink: any thread records, the ring keeps
/// the most recent \c Capacity spans (older ones are counted as
/// dropped, not resized into). All members are safe to call
/// concurrently.
class TraceBuffer {
public:
  explicit TraceBuffer(std::size_t Capacity = 1 << 14);

  void record(const TraceEvent &Event);

  /// Most recent spans, oldest first.
  std::vector<TraceEvent> events() const;

  /// Total spans ever recorded (including dropped).
  std::uint64_t recorded() const;

  /// Spans evicted by the capacity bound.
  std::uint64_t dropped() const;

  void clear();

  /// Chrome trace-event JSON (the `{"traceEvents": [...]}` object
  /// form): one "X" complete event per span with ts/dur in
  /// microseconds, pid 1, tid = recording thread ordinal, and the
  /// cache/items annotations under "args".
  std::string exportChromeTrace() const;

  /// exportChromeTrace() to \p Path; false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

  /// Monotonic now, the clock all spans share.
  static std::uint64_t nowNanos();

private:
  mutable std::mutex Mutex;
  std::vector<TraceEvent> Ring;
  std::size_t Capacity;
  std::size_t Head = 0; ///< Next write slot once the ring is full.
  std::uint64_t Recorded = 0;
};

} // namespace obs
} // namespace prdnn

#endif // PRDNN_OBS_TRACE_H
