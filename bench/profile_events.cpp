// Simulator profile — where the event loop spends its time, per protocol.
//
// Runs the paper's baseline scenario once per protocol with the simulator
// profiler enabled (harness::ScenarioConfig::profileSimulator) and reports
// per-event-label dispatch counts and wall-clock attribution, plus an
// event-queue depth timeseries sampled every `profileQueueSampleEvents`
// executed events. The profile.*.wall_s entries are wall-clock and thus
// vary run to run; profile.*.count entries and the queue-depth series are
// deterministic per (config, seed) — the profiler observes the schedule,
// it never perturbs it (the PR's determinism gate proves this).
//
// Output: BENCH_profile.json with one scenarios entry per protocol and
// queue_depth_<protocol>_{min,mean,max} envelope series (x = sim time,
// y = queue size, downsampled to ~256 buckets).
//
// A dispatch section follows the per-protocol profiles: a pure
// event-dispatch workload (self-rescheduling timers, no protocol work) on
// the EventQueue, measured twice — with its InlineTask slots and with
// every closure boxed in a std::function first, the pre-PR-9 storage
// strategy — so `dispatch.serial_inline_speedup` reports what the inline
// slots buy.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_support.hpp"
#include "sim/event.hpp"

namespace {

/// The largest hot-path closure shape the queue carries: a pointer, a
/// ~48-byte packet, and a duration (the MAC's ACK is close) — well past
/// std::function's 16-byte small-buffer optimisation, so a std::function
/// queue pays one malloc/free per such event. InlineTask's 96-byte slot
/// holds it inline. Both dispatch workloads below schedule closures of
/// exactly this size so the comparison measures the storage strategy,
/// not the payload.
struct DeliveryPayload {
  void* receiver = nullptr;
  unsigned char packet[48] = {};
  double duration = 0.0;
};

/// Standing event population for the dispatch workloads, sized at the
/// city-scale regime: a dense scenario keeps tens of thousands of timers
/// pending, so the binary heap is ~17 levels deep and spills L2.
constexpr int kStanding = 100'000;

/// Serial dispatch baseline: a standing population of self-rescheduling
/// timers on the serial EventQueue, closures held in the queue's
/// InlineTask slots — the same regime BM_EventQueueChurn measures, sized
/// here in events per wall second.
double serialDispatchEventsPerSecond(std::uint64_t events) {
  using namespace ecgrid;
  sim::EventQueue queue;
  sim::RngStream rng(17);
  std::uint64_t sink = 0;
  DeliveryPayload payload;
  for (int i = 0; i < kStanding; ++i) {
    payload.packet[0] = static_cast<unsigned char>(i);
    queue.push(rng.uniform(0.0, 1.0),
               [payload, &sink] { sink += payload.packet[0]; });
  }
  bench::WallTimer timer;
  double now = 0.0;
  sim::InlineTask action;
  for (std::uint64_t i = 0; i < events; ++i) {
    queue.pop(now, action);
    action();
    payload.packet[0] = static_cast<unsigned char>(i);
    queue.push(now + rng.uniform(0.0, 1.0),
               [payload, &sink] { sink += payload.packet[0]; });
  }
  return events / timer.seconds();
}

/// The same workload under the pre-PR-9 storage strategy: every closure
/// boxed in a std::function before scheduling. The payload exceeds
/// std::function's small-buffer optimisation, so each push pays one heap
/// allocation and each execution one free — exactly what the serial
/// queue paid per delivered event before its slots moved to InlineTask.
/// The delta against serialDispatchEventsPerSecond isolates the boxing
/// cost; everything else (heap discipline, slab recycling, payload
/// size) is identical.
double serialStdFunctionDispatchEventsPerSecond(std::uint64_t events) {
  using namespace ecgrid;
  sim::EventQueue queue;
  sim::RngStream rng(17);
  std::uint64_t sink = 0;
  DeliveryPayload payload;
  auto boxedPush = [&](double at) {
    std::function<void()> boxed = [payload, &sink] {
      sink += payload.packet[0];
    };
    queue.push(at, [fn = std::move(boxed)] { fn(); });
  };
  for (int i = 0; i < kStanding; ++i) {
    payload.packet[0] = static_cast<unsigned char>(i);
    boxedPush(rng.uniform(0.0, 1.0));
  }
  bench::WallTimer timer;
  double now = 0.0;
  sim::InlineTask action;
  for (std::uint64_t i = 0; i < events; ++i) {
    queue.pop(now, action);
    action();
    payload.packet[0] = static_cast<unsigned char>(i);
    boxedPush(now + rng.uniform(0.0, 1.0));
  }
  return events / timer.seconds();
}

}  // namespace

int main() {
  using namespace ecgrid;
  using harness::ProtocolKind;

  const std::vector<ProtocolKind> protocols = {
      ProtocolKind::kGrid, ProtocolKind::kEcgrid, ProtocolKind::kGaf};
  const double duration = bench::quickMode() ? 120.0 : 590.0;

  std::printf("Simulator profile — event dispatch by label\n");
  std::printf("(paper baseline, horizon %.0f s; wall-clock attribution is "
              "indicative, counts are deterministic)\n",
              duration);

  bench::WallTimer timer;
  bench::BenchReport report("profile");

  std::vector<harness::ScenarioConfig> configs;
  for (ProtocolKind protocol : protocols) {
    harness::ScenarioConfig config = bench::paperBaseline();
    config.protocol = protocol;
    config.duration = duration;
    config.profileSimulator = true;
    config.profileQueueSampleEvents = 1024;
    bench::applyHorizonCap(config);
    configs.push_back(config);
  }
  std::vector<harness::ScenarioResult> results =
      harness::runScenariosParallel(configs, bench::benchJobs());
  report.addRuns(results);

  std::size_t run = 0;
  for (ProtocolKind protocol : protocols) {
    const harness::ScenarioResult& result = results[run++];
    std::printf("\n%s — %llu events, top labels by wall share:\n",
                harness::toString(protocol),
                static_cast<unsigned long long>(result.eventsExecuted));

    // Rank labels by wall seconds from the metrics snapshot.
    std::vector<std::pair<std::string, double>> byWall;
    for (const auto& [name, value] : result.metrics) {
      const std::string prefix = "profile.events.";
      const std::string suffix = ".wall_s";
      if (name.size() > prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        byWall.emplace_back(
            name.substr(prefix.size(),
                        name.size() - prefix.size() - suffix.size()),
            value);
      }
    }
    std::sort(byWall.begin(), byWall.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    double totalWall = 0.0;
    if (auto it = result.metrics.find("profile.wall_s_total");
        it != result.metrics.end()) {
      totalWall = it->second;
    }
    for (std::size_t i = 0; i < byWall.size() && i < 8; ++i) {
      auto countIt =
          result.metrics.find("profile.events." + byWall[i].first + ".count");
      double count = countIt != result.metrics.end() ? countIt->second : 0.0;
      std::printf("  %-24s %10.0f events  %8.3f s  %5.1f%%\n",
                  byWall[i].first.c_str(), count, byWall[i].second,
                  totalWall > 0.0 ? 100.0 * byWall[i].second / totalWall : 0.0);
    }

    report.addScenarioMetrics(harness::toString(protocol), result.metrics);

    char label[64];
    std::snprintf(label, sizeof label, "queue_depth_%s",
                  harness::toString(protocol));
    report.addSeries(bench::downsampleEnvelope(label,
                                               result.queueDepthSamples));
  }

  // --- Dispatch throughput ----------------------------------------------
  // Pure event-dispatch throughput of the queue's InlineTask slots, with
  // the pre-PR-9 std::function-boxed strategy alongside for the
  // storage-migration delta.
  {
    const std::uint64_t events = bench::quickMode() ? 400'000 : 4'000'000;
    std::printf("\nDispatch throughput (%llu events, standing timers):\n",
                static_cast<unsigned long long>(events));
    const double boxedRate = serialStdFunctionDispatchEventsPerSecond(events);
    const double serialRate = serialDispatchEventsPerSecond(events);
    std::printf("  serial boxed %10.0f events/s  (std::function per event)\n",
                boxedRate);
    std::printf("  serial queue %10.0f events/s  (InlineTask slots, %.2fx "
                "boxed)\n",
                serialRate, serialRate / boxedRate);
    report.addMetric("dispatch.serial_stdfunction.events_per_s", boxedRate);
    report.addMetric("dispatch.serial.events_per_s", serialRate);
    report.addMetric("dispatch.serial_inline_speedup", serialRate / boxedRate);
  }

  report.write(timer.seconds());
  return 0;
}
