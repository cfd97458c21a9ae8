// Scenario harness: builds and runs a complete paper experiment.
//
// A ScenarioConfig is a pure value describing one simulation run — field,
// host population, mobility, traffic, protocol and its parameters, seed —
// and runScenario() is a pure function from it to a ScenarioResult.
// Defaults reproduce the paper's common setup (§4): 1000×1000 m field,
// 2 Mbps / 250 m radios, d = 100 m grid, 500 J batteries, random waypoint,
// 10 CBR flows of one 512 B packet per second.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/determinism.hpp"
#include "core/ecgrid_protocol.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "protocols/common/grid_protocol_base.hpp"
#include "protocols/gaf/gaf_protocol.hpp"
#include "stats/packet_accounting.hpp"
#include "stats/timeseries.hpp"
#include "traffic/workload/workload_plan.hpp"

namespace ecgrid::harness {

enum class ProtocolKind : std::uint8_t {
  kGrid,
  kEcgrid,
  kGaf,
  kFlooding,
};

const char* toString(ProtocolKind kind);
std::optional<ProtocolKind> protocolFromString(const std::string& name);

struct ScenarioConfig {
  ProtocolKind protocol = ProtocolKind::kEcgrid;

  // population & field (paper §4)
  int hostCount = 100;
  double fieldSize = 1000.0;   ///< square field side, metres
  double gridCellSide = 100.0;
  double radioRange = 250.0;
  double bitrateBps = 2e6;
  double batteryCapacityJ = 500.0;

  // mobility (random waypoint)
  double maxSpeed = 1.0;   ///< m/s
  double pauseTime = 0.0;  ///< s

  // traffic
  int flowCount = 10;
  double packetsPerSecondPerFlow = 1.0;
  int payloadBytes = 512;
  double trafficStart = 1.0;

  // run control
  double duration = 2000.0;
  double sampleInterval = 10.0;
  std::uint64_t seed = 1;

  // invariant auditing (src/check): when enabled, the standard audits run
  // every `auditPeriodEvents` executed events and a violation aborts the
  // run with std::logic_error. Audits only read state (battery levels are
  // peeked, not integrated), so an audited run traces the same digests as
  // an unaudited one. Tests keep this on; benches leave it off because
  // the sweeps cost time.
  bool auditInvariants = false;
  std::uint64_t auditPeriodEvents = 2000;

  // GAF Model 1 (paper §4): ten extra infinite-energy endpoint hosts
  // source/sink all traffic; the `hostCount` finite hosts only forward.
  bool gafModelOne = true;
  int gafEndpointCount = 10;

  // protocol knobs (benches override for ablations)
  core::EcgridConfig ecgrid;
  protocols::GridProtocolConfig grid;
  protocols::GafConfig gaf;

  /// Interference ring as a multiple of the decode range (1.0 = pure
  /// unit disk, the paper's model). See ChannelConfig.
  double interferenceRangeFactor = 1.0;

  /// Spatially index channel attachments so broadcasts scan O(density)
  /// radios instead of all N. Off = brute-force scan; both modes produce
  /// bit-identical runs (the differential tests prove it).
  bool channelSpatialIndex = true;

  /// When true, RREQ search areas are confined using a GPS location
  /// oracle over the destination (the paper's location-aware assumption);
  /// when false every discovery floods globally.
  bool useLocationOracle = true;

  /// Determinism analysis (src/check): when nonzero, sample a
  /// check::stateDigest every this many executed events (sharing the
  /// Simulator periodic hook with the invariant auditor) and return the
  /// trace in ScenarioResult::digestTrace. Two runs of the same config
  /// must produce identical traces; checkDeterminism() relies on it.
  std::uint64_t digestEveryEvents = 0;

  /// Debug mode: randomise the event queue's tie-break among equal-time
  /// events (EventQueue::perturbTieBreak, "check/tiebreak" stream). The
  /// run stays deterministic in `seed` but executes same-instant events
  /// in a different order — the final state digest must not care. Never
  /// enable for runs whose figures you intend to keep.
  bool perturbTieBreak = false;

  /// Allocation audit (src/check/alloc_audit): the harness always tags
  /// the run's phases — setup until network start, then `allocAuditWarmup`
  /// sim-seconds of warmup (slab high-water growth, first discoveries),
  /// then steady state. Under the `alloc-audit` preset the counting
  /// operator new attributes every allocation to the current phase and
  /// flags those inside hot scopes; ScenarioResult::allocAudit reports
  /// them. Splitting run() at the warmup boundary schedules nothing and
  /// draws no RNG, so the run stays byte-identical for any warmup value.
  double allocAuditWarmup = 0.0;
  /// When true, fail the run (std::logic_error) if any steady-phase
  /// allocation fired inside an open hot scope. Only trips when built
  /// with ECGRID_ALLOC_AUDIT; harmless to leave on elsewhere.
  bool allocAuditGate = false;
  /// Test canary: schedule one steady-phase event that deliberately
  /// allocates inside a hot scope, proving the gate trips. Test-only —
  /// the extra event perturbs replay digests.
  bool allocAuditInjectCanary = false;

  /// Observability (src/obs): when non-empty, protocol events are traced
  /// into this JSONL file (see obs::EventTracer; convert with
  /// tools/trace_chrome.py, validate with tools/trace_check.py). Tracing
  /// draws no RNG and schedules nothing, so the run's digest trace is
  /// byte-identical with tracing on or off (gated in tests/obs_test.cpp).
  std::string eventTracePath;

  /// Run-health telemetry (obs::RunTelemetry): when non-empty, stream
  /// "ecgrid-telemetry" v2 JSONL health samples — sim-time progress vs
  /// wall time, events/s, queue depth and slab high-water, alloc-audit
  /// phase counters — into this file,
  /// sampled every `telemetryEveryEvents` committed events (shares the
  /// periodic hook with the auditor and digest sampler). Sampling reads
  /// state only — no RNG, no scheduling — so replay digests stay
  /// byte-identical with telemetry armed (gated in
  /// tests/telemetry_test.cpp). Validate output with tools/trace_check.py.
  std::string telemetryPath;
  std::uint64_t telemetryEveryEvents = 16384;

  /// Profile the simulator: per-event-type dispatch counts, wall-clock
  /// attribution, and event-queue depth samples, folded into
  /// ScenarioResult::metrics ("profile.*") and queueDepthSamples. Reads
  /// wall clocks, so profiled numbers vary run-to-run — but the simulation
  /// itself stays bit-identical (the probe only observes).
  bool profileSimulator = false;
  /// Queue-depth sampling cadence while profiling, in executed events.
  std::uint64_t profileQueueSampleEvents = 1024;

  /// Production-traffic workload (src/traffic/workload): open-loop
  /// session arrivals with heavy-tailed sizes and request/response
  /// exchanges, layered on top of the CBR flows. The default (empty) plan
  /// arms nothing — no traffic/* RNG stream is touched and the run is
  /// byte-identical to a build without the workload layer (gated in
  /// tests/workload_test.cpp). When armed, stopTime is capped at the
  /// scenario horizon and the "workload.*" metrics appear in `metrics`.
  /// GAF Model 1 runs restrict clients and sinks to the endpoint hosts.
  traffic::WorkloadPlan workload;

  /// Adverse conditions (src/fault): channel error model, host
  /// crash/restart schedule, GPS error, RAS paging loss. The default
  /// (empty) plan arms nothing and the run is byte-identical to a
  /// simulation without the fault layer. When a GPS fault is armed and
  /// auditing is on, the gateway-uniqueness audit automatically switches
  /// to its physical-proximity reading (see StandardAuditOptions).
  fault::FaultPlan fault;
};

struct ScenarioResult {
  stats::TimeSeries aliveFraction;
  stats::TimeSeries aen;
  stats::TimeSeries awakeFraction;
  std::vector<sim::Time> deathTimes;
  sim::Time firstDeath = sim::kTimeNever;
  /// Time the alive fraction reached zero (the paper's "network is down").
  sim::Time networkDown = sim::kTimeNever;

  std::uint64_t packetsSent = 0;
  std::uint64_t packetsReceived = 0;
  /// Flows the workload layer gave up on (abort deadline hit); 0 when the
  /// workload plan is empty. Distinguishable from flows merely in flight
  /// at the horizon — see stats::PacketAccounting::FlowTimes.
  std::uint64_t abortedFlows = 0;
  double deliveryRate = 1.0;
  double meanLatencySeconds = 0.0;
  double p50LatencySeconds = 0.0;
  double p95LatencySeconds = 0.0;
  double p99LatencySeconds = 0.0;

  std::uint64_t framesTransmitted = 0;  ///< MAC frames on the air
  std::uint64_t pagesSent = 0;          ///< RAS pages

  // fault-injection accounting (all zero when the plan is empty)
  std::uint64_t crashesInjected = 0;      ///< host crashes applied
  std::uint64_t restartsInjected = 0;     ///< host reboots applied
  std::uint64_t deliveriesCorrupted = 0;  ///< frames lost to channel errors
  std::uint64_t pagesLost = 0;            ///< RAS pages missed

  std::uint64_t eventsExecuted = 0;
  std::uint64_t auditRuns = 0;  ///< invariant-audit sweeps completed

  // Run-health roll-ups: deterministic engine-state high-water marks,
  // populated for every run whether or not a telemetry file was
  // requested.
  std::uint64_t peakQueueDepth = 0;  ///< event-queue depth high-water mark
  std::uint64_t slabSlotsTotal = 0;  ///< pooled event slots ever allocated
  /// Samples written to config.telemetryPath (0 when telemetry was off).
  std::uint64_t telemetrySamples = 0;

  /// Wall-clock seconds the run loop took. Reporting-only: feeds the
  /// campaign status heartbeat and straggler detection, and must NEVER be
  /// serialized into campaign result records (those are byte-reproducible
  /// pure functions of the config — the resume-equality CI gate depends
  /// on it).
  double runWallSeconds = 0.0;

  /// Sampled state digests (empty unless config.digestEveryEvents > 0).
  /// The last sample is always taken at the horizon after the closing
  /// energy sample, so `digestTrace.back().digest` is the final digest.
  check::DigestTrace digestTrace;
  std::uint64_t macFramesSent = 0;      ///< frames handed off successfully
  std::uint64_t macFramesDropped = 0;   ///< MAC-level drops (all causes)
  std::uint64_t macRetransmissions = 0; ///< ARQ retransmissions
  std::uint64_t macAcksSent = 0;
  std::uint64_t macAcksSkipped = 0;  ///< ACKs suppressed (radio busy)

  /// Every delivered packet's end-to-end latency, seconds (unordered).
  std::vector<double> latencies;

  protocols::RoutingStats routing;  ///< summed over all hosts

  /// Flattened snapshot of every counter/gauge/histogram the layers
  /// registered during the run (obs::MetricsRegistry), plus post-run
  /// aggregates (traffic.*, e2e.latency_s histogram) and, when profiling,
  /// the profile.* attribution. Deterministic except for profile.*wall_s.
  obs::MetricsSnapshot metrics;

  /// Event-queue depth over sim time; empty unless profileSimulator.
  std::vector<std::pair<double, double>> queueDepthSamples;

  /// Events written to eventTracePath (0 when tracing was off).
  std::uint64_t traceEventsWritten = 0;

  /// Allocation-audit report (check/alloc_audit.hpp). `enabled` is false
  /// — and every counter zero — unless built with ECGRID_ALLOC_AUDIT.
  /// steadyHotAllocations is the gated quantity: allocations that fired
  /// inside an open hot scope after warmup. Counts are captured the
  /// moment the run's horizon is reached, before closing samples.
  struct AllocAudit {
    bool enabled = false;
    std::uint64_t setupAllocations = 0;
    std::uint64_t warmupAllocations = 0;
    std::uint64_t warmupHotAllocations = 0;
    std::uint64_t steadyAllocations = 0;
    std::uint64_t steadyDeallocations = 0;
    std::uint64_t steadyBytes = 0;
    std::uint64_t steadyHotAllocations = 0;
  } allocAudit;
};

/// Build, run, and tear down one simulation. Deterministic in `config`.
ScenarioResult runScenario(const ScenarioConfig& config);

}  // namespace ecgrid::harness
