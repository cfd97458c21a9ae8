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
// Two shard-scaling sections follow the per-protocol profiles:
//   * scenario scaling — the profiled ECGRID scenario at 1 vs N shards
//     (ECGRID_BENCH_SHARDS, default 4). Sequenced mode commits the
//     identical global event order, so this is expected to sit near
//     1.0×: it reports the engine's bookkeeping overhead and the
//     per-shard wall attribution (profile.shards.*), not a speedup.
//   * dispatch scaling — a pure event-dispatch workload (self-
//     rescheduling timers, no protocol work) on the serial queue vs
//     the windowed sharded engine. The serial queue is measured twice:
//     with its InlineTask slots and with every closure boxed in a
//     std::function first — the pre-PR-9 storage strategy — so
//     `dispatch.serial_inline_speedup` reports what moving the serial
//     engine onto inline slots bought. Sharding then pays on top:
//     each shard's heap is smaller and cache-resident. The headline
//     `dispatch.speedup_shards4` metric is the sharding PR's >= 2x
//     gate.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_support.hpp"
#include "sim/event.hpp"
#include "sim/sharded/engine.hpp"
#include "sim/sharded/lookahead.hpp"

namespace {

/// The largest hot-path closure shape the engines carry: a receiver
/// pointer, a ~48-byte packet, and a duration (the sharded engine's
/// per-receiver phy/deliver; the MAC's ACK is close) — well past
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

/// Standing event population for the dispatch workloads. Sized at the
/// city-scale regime the sharding targets: a dense scenario keeps tens
/// of thousands of timers pending, so the serial binary heap is ~17
/// levels deep and spills L2, while a 4-shard split both shortens each
/// heap and keeps it cache-resident — that locality, plus the inline
/// task slots, is where the measured speedup comes from.
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

/// Sharded windowed dispatch: the same standing-timer workload spread
/// over `shards` stripes, self-rescheduling through InlineTask slots
/// with occasional cross-shard hops at the conservative lookahead.
double windowedDispatchEventsPerSecond(int shards, std::uint64_t events) {
  using namespace ecgrid;
  using sim::sharded::InlineTask;
  sim::sharded::ShardedEngineConfig config;
  config.shards = shards;
  config.lookaheadSeconds = sim::sharded::conservativeLookahead(
      0.0, 3e8, 192e-6, 40, 2e6);
  sim::sharded::ShardedEngine engine(config);

  struct Timer {
    sim::sharded::ShardedEngine* engine;
    sim::sharded::ShardedEngine::ShardContext* context;
    std::uint64_t rng;
    DeliveryPayload payload;
    void operator()() {
      payload.duration += 1.0;
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const double lookahead = engine->lookaheadSeconds();
      if (rng % 16 == 0 && engine->shardCount() > 1) {
        const int target =
            (context->shard() + 1) % engine->shardCount();
        Timer next = *this;
        next.context = &engine->shardContext(target);
        context->postRemote(target, lookahead * (1.0 + (rng % 7)),
                            InlineTask(next), "dispatch/hop");
      } else {
        context->postLocal(lookahead * 0.25 * (1 + (rng % 5)),
                           InlineTask(*this), "dispatch/tick");
      }
    }
  };
  static_assert(sizeof(Timer) <= InlineTask::kInlineBytes);

  // Seed the whole standing population inside the first lookahead
  // window so it is live from the start.
  for (int i = 0; i < kStanding; ++i) {
    const int shard = i % shards;
    Timer timer{&engine, &engine.shardContext(shard),
                0x9e3779b97f4a7c15ULL * (i + 1), DeliveryPayload{}};
    engine.seedWindowed(
        shard, config.lookaheadSeconds * static_cast<double>(i) / kStanding,
        InlineTask(timer), "dispatch/seed");
  }
  // The timers live forever; bound the run by simulated horizon sized
  // so the executed-event count lands near `events` (each timer fires
  // roughly every 0.75 * lookahead across the mix of delays).
  const double horizon =
      config.lookaheadSeconds *
      (1.0 + 0.75 * static_cast<double>(events) / kStanding);
  bench::WallTimer timer;
  const sim::sharded::WindowedStats stats = engine.runWindowed(1, horizon);
  return stats.eventsExecuted / timer.seconds();
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

  // --- Scenario shard scaling -------------------------------------------
  // The profiled ECGRID scenario, serial vs sharded. Sequenced mode
  // executes the identical event schedule (the parity tests prove it),
  // so events/s here measures engine overhead, and the sharded run's
  // snapshot carries the per-shard wall attribution (profile.shards.*).
  {
    const int shards = std::max(4, bench::benchShards());
    std::printf("\nScenario shard scaling (sequenced; identical schedule, "
                "1 vs %d shards):\n", shards);
    harness::ScenarioConfig config = bench::paperBaseline();
    config.protocol = ProtocolKind::kEcgrid;
    config.duration = bench::quickMode() ? 60.0 : 300.0;
    config.profileSimulator = true;
    bench::applyHorizonCap(config);
    config.shards = 1;
    bench::WallTimer serialTimer;
    const harness::ScenarioResult serial = harness::runScenario(config);
    const double serialWall = serialTimer.seconds();
    config.shards = shards;
    bench::WallTimer shardedTimer;
    const harness::ScenarioResult sharded = harness::runScenario(config);
    const double shardedWall = shardedTimer.seconds();
    report.addRun(serial);
    report.addRun(sharded);
    const double serialRate = serial.eventsExecuted / serialWall;
    const double shardedRate = sharded.eventsExecuted / shardedWall;
    std::printf("  serial       %10.0f events/s\n", serialRate);
    std::printf("  %d shards     %10.0f events/s  (%.2fx; %llu boundary "
                "events, %llu migrations)\n",
                shards, shardedRate, shardedRate / serialRate,
                static_cast<unsigned long long>(sharded.crossShardEvents),
                static_cast<unsigned long long>(sharded.shardMigrations));
    report.addMetric("scenario.serial.events_per_s", serialRate);
    report.addMetric("scenario.sharded.events_per_s", shardedRate);
    report.addMetric("scenario.sharded.shards", shards);
    report.addMetric("scenario.sharded.cross_shard_events",
                     static_cast<double>(sharded.crossShardEvents));
    report.addMetric("scenario.sharded.migrations",
                     static_cast<double>(sharded.shardMigrations));
    report.addScenarioMetrics("ecgrid_sharded", sharded.metrics);
  }

  // --- Dispatch shard scaling -------------------------------------------
  // Pure event-dispatch throughput: the serial queue (InlineTask slots,
  // with the pre-PR-9 std::function-boxed strategy alongside for the
  // storage-migration delta) vs the windowed sharded engine at 1/2/4/8
  // shards. The >= 2x acceptance gate lives on dispatch.speedup_shards4.
  {
    const std::uint64_t events = bench::quickMode() ? 400'000 : 4'000'000;
    std::printf("\nDispatch shard scaling (%llu events, standing timers):\n",
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
    double rate4 = 0.0;
    for (int shards : {1, 2, 4, 8}) {
      const double rate = windowedDispatchEventsPerSecond(shards, events);
      if (shards == 4) rate4 = rate;
      std::printf("  %d shard(s)   %10.0f events/s  (%.2fx serial)\n",
                  shards, rate, rate / serialRate);
      char name[48];
      std::snprintf(name, sizeof name, "dispatch.shards%d.events_per_s",
                    shards);
      report.addMetric(name, rate);
    }
    report.addMetric("dispatch.speedup_shards4", rate4 / serialRate);
  }

  report.write(timer.seconds());
  return 0;
}
