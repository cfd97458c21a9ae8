// The simulation context: clock + event queue + RNG factory.
//
// A Simulator owns the run. Components hold a non-owning reference and use
// it to read the clock, schedule/cancel timers, and obtain named random
// streams. There is deliberately no global/singleton instance: benches run
// many simulations sequentially (and tests run them concurrently), each
// with its own Simulator.
//
// Observability (src/obs) attaches here without the sim layer depending on
// it: the harness installs an opaque Observability hub pointer that
// components resolve through obs/observability.hpp, and an optional
// ExecutionProbe (sim/probe.hpp) that step() feeds per-event wall-clock
// attribution. Both are passive — with neither installed the simulator
// behaves and performs exactly as before.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/hot_path.hpp"
#include "util/log.hpp"
#include "util/ownership.hpp"

namespace ecgrid::obs {
class Observability;
}

namespace ecgrid::sim {

class ExecutionProbe;

class ECGRID_DOMAIN_PER_SCENARIO Simulator {
 public:
  explicit Simulator(std::uint64_t masterSeed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedule `action` to run `delay` seconds from now (delay >= 0).
  /// `label` optionally tags the schedule site for the execution profiler
  /// ("mac/access", "phy/deliver", ...); it must be a string literal (or
  /// other storage outliving the simulator) — nullptr is fine and costs
  /// nothing. Accepts any callable; it is packed into an InlineTask at
  /// the call site (sim/task.hpp), so captures up to
  /// InlineTask::kInlineBytes never touch the heap — the pre-PR-9
  /// std::function signature boxed every capture over 16 bytes.
  template <class F>
  ECGRID_HOT_PATH EventHandle schedule(Time delay, F&& action,
                                       const char* label = nullptr) {
    // Scope opens before the InlineTask packs, so a heap-boxed oversized
    // closure scheduled in steady state is caught by the alloc audit.
    ECGRID_HOT_SCOPE();
    return scheduleTaskIn(delay, InlineTask(std::forward<F>(action)), label);
  }

  /// Schedule `action` at absolute time `when` (when >= now()).
  template <class F>
  ECGRID_HOT_PATH EventHandle scheduleAt(Time when, F&& action,
                                         const char* label = nullptr) {
    ECGRID_HOT_SCOPE();
    return scheduleTaskAt(when, InlineTask(std::forward<F>(action)), label);
  }

  /// Runs (EventQueue::openRun): events sharing one heap entry, for a
  /// batch whose owner knows it will be scheduled close together — the
  /// arrivals and reception ends of one frame (phy::Channel).
  RunId openRun();
  void closeRun(RunId run);

  /// Schedule `action` `delay` seconds from now as an item of `run`.
  /// Same order, handle and cancel semantics as schedule().
  template <class F>
  ECGRID_HOT_PATH EventHandle scheduleInRun(RunId run, Time delay, F&& action,
                                            const char* label = nullptr) {
    ECGRID_HOT_SCOPE();
    return scheduleTaskInRun(run, delay, InlineTask(std::forward<F>(action)),
                             label);
  }

  /// As above, with a key drawn earlier by takeEventKey() (see
  /// EventQueue::pushToRun for the batch-building rule).
  template <class F>
  ECGRID_HOT_PATH EventHandle scheduleInRun(RunId run, Time delay,
                                            EventKey key, F&& action,
                                            const char* label = nullptr) {
    ECGRID_HOT_SCOPE();
    return scheduleTaskInRun(run, delay, key,
                             InlineTask(std::forward<F>(action)), label);
  }

  /// The (tie key, sequence) pair the next schedule() would take.
  EventKey takeEventKey();

  /// Move the pending event behind `handle` to `delay` seconds from now
  /// in place, running exactly where cancel() + schedule() would put it.
  /// Returns false, changing nothing, when the event is not pending in
  /// the queue's heap (inert, cancelled, executing, or a run item); the
  /// caller then schedules afresh.
  bool retime(const EventHandle& handle, Time delay);

  /// Monomorphic backends behind the schedule templates (the templates
  /// only build the InlineTask; everything else stays out of line).
  EventHandle scheduleTaskIn(Time delay, InlineTask action, const char* label);
  EventHandle scheduleTaskInRun(RunId run, Time delay, InlineTask action,
                                const char* label);
  EventHandle scheduleTaskInRun(RunId run, Time delay, EventKey key,
                                InlineTask action, const char* label);
  EventHandle scheduleTaskAt(Time when, InlineTask action, const char* label);

  /// Run events until the queue drains or the clock passes `until`.
  /// Events scheduled exactly at `until` are executed.
  void run(Time until = kTimeNever);

  /// Run exactly one event if any is pending before `until`.
  /// Returns false when nothing was executed.
  bool step(Time until = kTimeNever);

  /// Request that run() return after the current event completes.
  void requestStop() { stopRequested_ = true; }

  std::uint64_t eventsExecuted() const { return eventsExecuted_; }

  /// Time of the next live event, or kTimeNever when the queue is empty.
  Time nextEventTime() { return queue_.peekTime(); }

  // ---- Telemetry surface (src/obs/telemetry.hpp reads these) -----------

  /// Events queued right now: heap entries including not-yet-reclaimed
  /// cancellations.
  std::size_t queueDepth() const { return queue_.sizeIncludingCancelled(); }

  /// High-water mark of queueDepth over the run (exact, per push).
  std::size_t peakQueueDepth() const { return queue_.peakDepth(); }

  /// Pooled event-slot records ever allocated — the slab high-water mark
  /// (slots recycle; slabs never shrink).
  std::size_t slabSlotsTotal() const { return queue_.slabSlots(); }

  /// Determinism-analysis debug mode: randomise the tie-break among
  /// equal-time events using the dedicated "check/tiebreak" stream (see
  /// EventQueue::perturbTieBreak). Call before scheduling anything so
  /// every event of the run participates. The perturbed run is itself
  /// deterministic in the master seed; it is *different* from the
  /// unperturbed run exactly when some component depends on the order
  /// of same-instant events.
  void perturbTieBreaks();

  /// Install `hook` to run after every `everyEvents`-th executed event
  /// (the invariant auditor hangs off this). The hook must not assume it
  /// runs at any particular simulation time; it may inspect state but
  /// should not schedule events. Pass an empty function to uninstall.
  void setPeriodicHook(std::uint64_t everyEvents, std::function<void()> hook);

  /// Opaque observability hub (src/obs). The simulator never dereferences
  /// it; components resolve metrics/tracing through obs/observability.hpp.
  /// Install before constructing components so their construction-time
  /// instrument registration sees the hub. nullptr uninstalls.
  void setObservability(obs::Observability* hub) { observability_ = hub; }
  obs::Observability* observability() const { return observability_; }

  /// Per-event execution probe (opt-in profiling; see sim/probe.hpp).
  /// With a probe installed every event's callback is wall-clock timed.
  /// nullptr uninstalls.
  void setExecutionProbe(ExecutionProbe* probe) { probe_ = probe; }
  ExecutionProbe* executionProbe() const { return probe_; }

  const RngFactory& rng() const { return rngFactory_; }

 private:
  Time now_ = kTimeZero;
  bool stopRequested_ = false;
  std::uint64_t eventsExecuted_ = 0;
  std::uint64_t hookEvery_ = 0;
  std::function<void()> hook_;
  EventQueue queue_;
  RngFactory rngFactory_;
  obs::Observability* observability_ = nullptr;
  ExecutionProbe* probe_ = nullptr;
  /// While this simulator exists, log lines on its thread are prefixed
  /// with the current sim time (declared after now_; reads &now_).
  util::LogSimClock logClock_{&now_};
};

}  // namespace ecgrid::sim
