// ExecutionProbe — opt-in per-event instrumentation hook.
//
// When a probe is installed (Simulator::setExecutionProbe), the simulator
// times each event's callback with the wall clock and reports it together
// with the event's schedule-site label (see Simulator::schedule) and the
// queue size. The concrete implementation lives in src/obs (SimProfiler);
// this interface keeps the sim layer free of any obs dependency.
//
// A probe must be passive: it observes, it never schedules events, draws
// RNG, or mutates simulation state — the profiled run's event order and
// final state digest are identical to the unprofiled run's (gated in
// tests/obs_test.cpp).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace ecgrid::sim {

class ExecutionProbe {
 public:
  virtual ~ExecutionProbe() = default;

  /// Called after each executed event. `label` is the schedule site's
  /// static label, or nullptr for unlabeled events; `wallSeconds` is the
  /// callback's wall-clock cost; `queueSize` counts queued heap entries
  /// (including not-yet-discarded cancellations) right after the event.
  virtual void onEvent(const char* label, double wallSeconds, Time simTime,
                       std::uint64_t eventsExecuted,
                       std::size_t queueSize) = 0;
};

}  // namespace ecgrid::sim
