#include "sim/simulator.hpp"

#include <chrono>  // ecgrid-lint: allow(banned-random)
#include <utility>

#include "sim/probe.hpp"
#include "util/error.hpp"

namespace ecgrid::sim {

Simulator::Simulator(std::uint64_t masterSeed) : rngFactory_(masterSeed) {}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskIn(Time delay,
                                                      InlineTask action,
                                                      const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  return queue_.push(now_ + delay, std::move(action), label);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskAt(Time when,
                                                      InlineTask action,
                                                      const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(when >= now_, "cannot schedule into the past");
  return queue_.push(when, std::move(action), label);
}

RunId Simulator::openRun() { return queue_.openRun(); }

void Simulator::closeRun(RunId run) { queue_.closeRun(run); }

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskInRun(RunId run, Time delay,
                                                         InlineTask action,
                                                         const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  return queue_.pushToRun(run, now_ + delay, std::move(action), label);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskInRun(RunId run, Time delay,
                                                         EventKey key,
                                                         InlineTask action,
                                                         const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  return queue_.pushToRun(run, now_ + delay, key, std::move(action), label);
}

ECGRID_HOT_PATH EventKey Simulator::takeEventKey() { return queue_.takeKey(); }

ECGRID_HOT_PATH bool Simulator::retime(const EventHandle& handle, Time delay) {
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  return queue_.retime(handle, now_ + delay);
}

void Simulator::perturbTieBreaks() {
  queue_.perturbTieBreak(rngFactory_.stream("check/tiebreak"));
}

void Simulator::setPeriodicHook(std::uint64_t everyEvents,
                                std::function<void()> hook) {
  ECGRID_REQUIRE(everyEvents > 0 || !hook,
                 "periodic hook needs a positive event period");
  hookEvery_ = everyEvents;
  hook_ = std::move(hook);
}

ECGRID_HOT_PATH bool Simulator::step(Time until) {
  Time time = kTimeZero;
  InlineTask action;
  const char* label = nullptr;
  if (!queue_.pop(time, action, label, until)) return false;
  now_ = time;
  ++eventsExecuted_;
  if (probe_ != nullptr) {
    // Wall-clock attribution for the profiler. Reporting-only: wall time
    // never feeds the simulation, and without a probe installed no clock
    // is ever read — hence the lint suppressions, same as the bench
    // timers in bench/bench_support.hpp.
    // ecgrid-lint: allow(banned-random)
    const auto wallStart = std::chrono::steady_clock::now();
    action();
    // ecgrid-lint: allow(banned-random)
    const auto wallEnd = std::chrono::steady_clock::now();
    const double wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    probe_->onEvent(label, wallSeconds, now_, eventsExecuted_,
                    queue_.sizeIncludingCancelled());
  } else {
    action();
  }
  if (hook_ && eventsExecuted_ % hookEvery_ == 0) hook_();
  return true;
}

void Simulator::run(Time until) {
  stopRequested_ = false;
  while (!stopRequested_ && step(until)) {
  }
  // Advance the clock to the horizon so post-run queries (battery reads,
  // alive checks) observe the full interval even if the queue went quiet.
  if (!stopRequested_ && until != kTimeNever && now_ < until) {
    now_ = until;
  }
}

}  // namespace ecgrid::sim
