// RunTelemetry — live run-health probe streaming "ecgrid-telemetry" v2.
//
// Long-horizon runs (city-scale scenarios, campaign sweeps) execute for
// minutes to hours, and without a health stream a wedged run looks
// exactly like a slow one. RunTelemetry periodically snapshots the
// engine's health surface and appends one JSON object per sample:
//
//   {"schema":"ecgrid-telemetry","version":2,"sample_every_events":16384,
//    "protocol":"ECGRID","seed":"7"}
//   {"kind":"sample","seq":1,"events":16384,"sim_t":4.012345,
//    "wall_s":0.031922,"events_per_wall_s":513258.1,"sim_per_wall":125.7,
//    "queue_depth":412,"peak_queue_depth":498,"slab_slots":512,
//    "alloc_phase":"steady","alloc_count":0,"alloc_hot":0}
//   {"kind":"summary","samples":12,"events":196608,...}
//
// Sampling is driven by committed-event count (the harness periodic
// hook), never by wall time — so WHICH samples exist, and every
// deterministic field in them (events, sim_t, depths, slab slots), is
// a pure function of the scenario, identical on any machine. Only the
// wall_s / events_per_wall_s / sim_per_wall fields vary across hosts;
// they are reporting-only, never fed back into the simulation, which is
// why the clock reads below carry lint allows (same argument as
// SimProfiler and the bench timers).
//
// Determinism contract: sampling draws zero RNG, schedules nothing, and
// only reads engine state — so a run with telemetry armed replays to
// byte-identical state digests (gated in tests/telemetry_test.cpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::obs {

/// Alloc-audit snapshot for one sample. obs/ may not depend on src/check
/// (the include-layering DAG), so the harness injects the live counters
/// through an AllocSampler (runScenario wires check::allocAuditCounts);
/// without one, samples report phase "off" with zero counts.
struct AllocSample {
  const char* phase = "off";
  std::uint64_t allocations = 0;
  std::uint64_t hotAllocations = 0;
};
using AllocSampler = std::function<AllocSample()>;

class ECGRID_DOMAIN_PER_SCENARIO RunTelemetry {
 public:
  /// Opens `path` (truncated) and writes the schema header, extended with
  /// `meta` provenance pairs. `sampleEveryEvents` is recorded in the
  /// header so readers can validate cadence; the *caller* drives sample()
  /// at that cadence (the harness periodic hook does). Throws when the
  /// file cannot be opened.
  RunTelemetry(sim::Simulator& sim, const std::string& path,
               std::uint64_t sampleEveryEvents,
               const std::map<std::string, std::string>& meta = {});
  /// Writes the summary record (via finish()) and closes the file.
  ~RunTelemetry();
  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  /// Install the alloc-audit counter source (see AllocSampler above).
  /// Call before the first sample(); pass an empty function to clear.
  void setAllocSampler(AllocSampler sampler) {
    allocSampler_ = std::move(sampler);
  }

  /// Append one health sample. Reads engine state only: no RNG, no
  /// scheduling, no mutation of anything the digest covers.
  void sample();

  /// Append the final summary record and flush. Idempotent; the
  /// destructor calls it, so every well-formed stream ends in a summary
  /// even when the harness unwinds early.
  void finish();

  [[nodiscard]] std::uint64_t samplesWritten() const { return samples_; }

 private:
  /// Fields shared by sample and summary records: progress counters,
  /// wall-side rates, depth/slab high-water, alloc-audit phase counts.
  void writeHealthFields(double wallSeconds);

  sim::Simulator& sim_;
  std::FILE* out_ = nullptr;
  AllocSampler allocSampler_;
  std::uint64_t sampleEvery_ = 0;
  std::uint64_t samples_ = 0;
  bool finished_ = false;
  /// Wall-clock origin (construction) and previous-sample marks for
  /// rate-over-interval fields. Seconds on the steady clock.
  double wallStart_ = 0.0;
  double lastWall_ = 0.0;
  std::uint64_t lastEvents_ = 0;
  double lastSimTime_ = 0.0;
};

}  // namespace ecgrid::obs
