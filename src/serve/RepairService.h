//===- serve/RepairService.h - fleet serving front end ---------*- C++ -*-===//
///
/// \file
/// The serving tier over the RepairEngine: a front end that accepts
/// ServeRequests naming a model by NetworkFingerprint instead of
/// carrying weights, resolves the model through a shared, verified
/// ModelRegistry (per-process cache over the store directory's
/// `models/` entries), gates acceptance through an AdmissionController
/// (bounded in-flight, per-class quotas, typed reject-with-reason when
/// saturated), and dispatches admitted jobs to its RepairEngine -
/// whose artifact cache is backed by the same shared store directory,
/// so every serving process warms every other one.
///
/// A fleet deployment runs one RepairService per process, all pointed
/// at one store directory:
///
///   clients --fp--> [Service A: registry cache | admission | engine]
///   clients --fp--> [Service B: registry cache | admission | engine]
///                         \          shared <dir>          /
///                          models/*.net + ab/cd/*.art artifacts
///
/// Determinism contract: an accepted request's report is bit-for-bit
/// identical to RepairEngine::run() of the equivalent RepairRequest on
/// the same network in-process - the registry serializes bit-exactly
/// and re-verifies fingerprints on load, and the engine's cache/store
/// tiers are bit-exact by construction - so *which* process serves a
/// request (and how warm it is) never changes the answer. Enforced by
/// tests/serve_test.cpp, including two serving processes on one store
/// directory (TwoProcessesShareOneDirectory).
///
/// Admission never blocks and never queues beyond the engine: the
/// service clamps the engine's queue capacity to at least MaxInFlight,
/// so an admitted submit() cannot park in engine backpressure - the
/// admission bound *is* the backpressure, surfaced as a typed reject
/// the caller can act on (retry, shed, or route to another process).
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_SERVE_REPAIRSERVICE_H
#define PRDNN_SERVE_REPAIRSERVICE_H

#include "api/RepairEngine.h"
#include "serve/AdmissionController.h"
#include "serve/ModelRegistry.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace prdnn {
namespace serve {

/// One serving request: a repair described as data, with the network
/// referenced by content fingerprint instead of shipped as weights.
struct ServeRequest {
  /// Which registered model to repair (ModelRegistry::publish's
  /// return value; also discoverable via list()).
  NetworkFingerprint Model;
  /// Point spec (Algorithm 1) or polytope spec (Algorithm 2).
  std::variant<PointSpec, PolytopeSpec> Spec;
  /// A parameterized linear layer index, or kAutoLayer to sweep.
  int LayerIndex = kAutoLayer;
  /// Candidate layers for the sweep; empty = all parameterized.
  std::vector<int> SweepLayers;
  /// Scheduling class: admission quota bucket *and* engine queue
  /// class.
  RepairRequest::Priority Class = RepairRequest::Priority::Neutral;
  RepairOptions Options;
};

/// Why submit() rejected; None means accepted.
enum class ServeReject : std::uint8_t {
  None,
  /// AdmissionController: at MaxInFlight.
  Saturated,
  /// AdmissionController: the request's class is at its quota.
  ClassQuota,
  /// No registry entry for the requested fingerprint.
  UnknownModel,
  /// The registry entry failed codec validation (deleted; republish
  /// to heal).
  ModelCorrupt,
  /// The registry entry's recomputed fingerprint mismatched its
  /// address (deleted) - never served.
  ModelMismatch,
};

const char *toString(ServeReject Reject);

/// What submit() returns: an accepted submission carries the engine
/// job handle; a rejected one carries the typed reason.
struct ServeSubmission {
  ServeReject Reject = ServeReject::None;
  JobHandle Handle; ///< valid iff accepted

  bool accepted() const { return Reject == ServeReject::None; }
};

/// One aggregated observability snapshot of a RepairService: the front
/// end's own accept/reject counters plus every tier behind it -
/// registry, admission, engine queue, cache, and store - so a status
/// endpoint (rpc/RpcServer.h's Status exchange) is a single stats()
/// call rather than four.
struct ServiceStats {
  std::uint64_t Accepted = 0;
  std::uint64_t Rejected = 0;
  /// Rejections by ServeReject value (index 0, None, stays 0).
  std::array<std::uint64_t, 6> RejectsByReason{};
  /// ModelRegistry::stats(): publish/resolve/corrupt counters.
  RegistryStats Registry;
  /// AdmissionController::queueStats(): in-flight depth, per-class
  /// counts, saturation/quota rejects.
  AdmissionSnapshot Admission;
  /// RepairEngine::queueStats(): queue depth, running jobs, oldest
  /// wait.
  EngineQueueStats Engine;
  /// Engine artifact-cache counters (store counters ride along in
  /// Cache.Store when a persistent store is attached).
  CacheStats Cache;
};

/// Combined observability snapshot: the admission tier and the engine
/// queue in one ProgressSnapshot-style value.
struct ServiceQueueStats {
  AdmissionSnapshot Admission;
  EngineQueueStats Engine;
};

struct ServiceOptions {
  /// The shared store directory (required): the engine's L2 artifact
  /// store *and* the model registry both live here, which is what
  /// lets N processes share one warm state.
  std::string StoreDirectory;
  /// Engine configuration. StoreDirectory is overridden by the field
  /// above; QueueCapacity is clamped to >= Admission.MaxInFlight (see
  /// the file comment). Engine.Telemetry, when preset, is adopted as
  /// the service's sink (overriding the Telemetry flag below).
  EngineOptions Engine;
  AdmissionOptions Admission;
  /// Create an obs::Telemetry for this service (one registry + trace
  /// ring spanning front end, admission, registry, engine, cache, and
  /// store - the page the RPC Metrics exchange serves). Telemetry is
  /// inert by contract (bit-identical reports either way,
  /// test-enforced), so it defaults on; turn it off to shave the
  /// atomics. Ignored when Engine.Telemetry is already set.
  bool Telemetry = true;
};

/// See the file comment.
class RepairService {
public:
  explicit RepairService(ServiceOptions Options);
  ~RepairService();

  RepairService(const RepairService &) = delete;
  RepairService &operator=(const RepairService &) = delete;

  /// Admission-gates, resolves, and dispatches \p Request. On
  /// acceptance the returned handle behaves exactly like
  /// RepairEngine::submit()'s; the admission slot is released
  /// automatically when the job resolves (completion hook). On
  /// rejection nothing was enqueued and the typed reason says why.
  /// Never blocks on queue space.
  ServeSubmission submit(ServeRequest Request);

  /// The registry this service resolves fingerprints through (also
  /// the publication side for loaders).
  ModelRegistry &registry() { return Registry; }
  const ModelRegistry &registry() const { return Registry; }

  RepairEngine &engine() { return Engine; }
  const RepairEngine &engine() const { return Engine; }

  /// Admission + engine queue observability in one snapshot.
  ServiceQueueStats queueStats() const;

  /// Aggregated snapshot of every tier (see ServiceStats): front-end
  /// accept/reject counters, registry, admission, engine queue, and
  /// cache/store counters in one call.
  ServiceStats stats() const;

  /// Drains the engine's write-behind store queue (orderly shutdown /
  /// handoff to a successor process).
  void flush() { Engine.flushStore(); }

  /// The service's telemetry sink - one MetricsRegistry + TraceBuffer
  /// spanning every tier behind this front end - or null when
  /// telemetry is off. This is what the RPC Metrics exchange
  /// snapshots.
  const std::shared_ptr<obs::Telemetry> &telemetry() const { return Telem; }

  /// The uniform counter reset: with telemetry on, one
  /// MetricsRegistry::reset() zeroes the front-end accept/reject
  /// counters, admission and registry counters, engine instruments,
  /// and cache/store counters together (via the registered hooks);
  /// without telemetry the same tiers are reset by hand. Live state
  /// (in-flight tickets, queue depth, cached models/artifacts) is
  /// untouched.
  void resetStats();

  const ServiceOptions &options() const { return Opts; }

private:
  void registerTelemetry();
  void resetOwnStats();

  ServiceOptions Opts;
  ModelRegistry Registry;
  AdmissionController Admission;
  /// Must precede Engine: the engine options capture this pointer.
  std::shared_ptr<obs::Telemetry> Telem;
  RepairEngine Engine;

  std::atomic<std::uint64_t> AcceptedCount{0};
  std::atomic<std::uint64_t> RejectedCount{0};
  std::array<std::atomic<std::uint64_t>, 6> RejectCounts{};
};

} // namespace serve
} // namespace prdnn

#endif // PRDNN_SERVE_REPAIRSERVICE_H
