// Quickstart: run one ECGRID scenario and print the headline numbers.
//
//   $ ./quickstart [--protocol ECGRID|GRID|GAF|FLOOD] [--hosts N]
//                  [--speed M/S] [--duration S] [--seed N]
//                  [--trace-events PATH] [--telemetry PATH] [--profile]
//                  [--log SPEC]
//
// This is the smallest complete use of the library: configure a scenario,
// run it, read the result. The observability flags:
//   --trace-events=ev.jsonl  write protocol event spans (convert with
//                            tools/trace_chrome.py, open in Perfetto)
//   --telemetry=tm.jsonl     stream run-health samples (ecgrid-telemetry
//                            v2; validate with tools/trace_check.py)
//   --telemetry-every=N      telemetry cadence in committed events
//   --profile                per-event-label dispatch counts + wall time
//   --log=info,mac=debug     per-component log levels with sim-time stamps
#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/scenario.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace ecgrid;

  util::Flags flags(argc, argv,
                    {"protocol", "hosts", "speed", "duration", "seed",
                     "flows", "pps", "latency-percentiles", "trace-events",
                     "telemetry", "telemetry-every", "profile", "log"});

  harness::ScenarioConfig config;
  auto protocol =
      harness::protocolFromString(flags.getString("protocol", "ECGRID"));
  if (!protocol.has_value()) {
    std::fprintf(stderr, "unknown protocol\n");
    return 1;
  }
  config.protocol = *protocol;
  config.hostCount = flags.getInt("hosts", 100);
  config.maxSpeed = flags.getDouble("speed", 1.0);
  config.duration = flags.getDouble("duration", 600.0);
  config.seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  config.flowCount = flags.getInt("flows", 10);
  config.packetsPerSecondPerFlow = flags.getDouble("pps", 1.0);
  config.eventTracePath = flags.getString("trace-events", "");
  config.telemetryPath = flags.getString("telemetry", "");
  config.telemetryEveryEvents =
      static_cast<std::uint64_t>(flags.getInt("telemetry-every", 16384));
  config.profileSimulator = flags.getBool("profile", false);
  if (flags.has("log")) {
    util::Logger::configure(flags.getString("log", "info"));
  }

  std::printf("ECGRID quickstart — protocol=%s hosts=%d speed=%.1f m/s "
              "duration=%.0f s\n",
              harness::toString(config.protocol), config.hostCount,
              config.maxSpeed, config.duration);

  harness::ScenarioResult result = harness::runScenario(config);

  std::printf("  events executed      : %llu\n",
              static_cast<unsigned long long>(result.eventsExecuted));
  std::printf("  frames on the air    : %llu\n",
              static_cast<unsigned long long>(result.framesTransmitted));
  std::printf("  RAS pages sent       : %llu\n",
              static_cast<unsigned long long>(result.pagesSent));
  std::printf("  packets sent/received: %llu / %llu (PDR %.2f%%)\n",
              static_cast<unsigned long long>(result.packetsSent),
              static_cast<unsigned long long>(result.packetsReceived),
              100.0 * result.deliveryRate);
  std::printf("  mean latency         : %.2f ms (p95 %.2f ms)\n",
              1e3 * result.meanLatencySeconds, 1e3 * result.p95LatencySeconds);
  std::printf("  median latency       : %.2f ms\n",
              1e3 * result.p50LatencySeconds);
  std::printf("  first host death     : %s\n",
              result.firstDeath >= sim::kTimeNever
                  ? "none"
                  : (std::to_string(result.firstDeath) + " s").c_str());
  std::printf("  alive at end         : %.0f%%\n",
              100.0 * result.aliveFraction.points().back().second);
  std::printf("  alive curve          :");
  for (double t : {200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1600.0,
                   2000.0}) {
    if (t > config.duration) break;
    std::printf(" %.0f:%.2f", t, result.aliveFraction.valueAt(t));
  }
  std::printf("\n");
  std::printf("  awake curve          :");
  for (double t : {100.0, 300.0, 500.0, 700.0, 900.0}) {
    if (t > config.duration) break;
    std::printf(" %.0f:%.2f", t, result.awakeFraction.valueAt(t));
  }
  std::printf("\n");
  std::printf("  aen at end           : %.3f\n",
              result.aen.points().back().second);
  if (flags.getBool("latency-percentiles", false) &&
      !result.latencies.empty()) {
    std::vector<double> sorted = result.latencies;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
      std::size_t idx =
          static_cast<std::size_t>(p / 100.0 * (sorted.size() - 1));
      std::printf("  latency p%-4.0f        : %.1f ms\n", p,
                  1e3 * sorted[idx]);
    }
  }
  std::printf("  mac: sent=%llu dropped=%llu retx=%llu acks=%llu/skip=%llu\n",
              static_cast<unsigned long long>(result.macFramesSent),
              static_cast<unsigned long long>(result.macFramesDropped),
              static_cast<unsigned long long>(result.macRetransmissions),
              static_cast<unsigned long long>(result.macAcksSent),
              static_cast<unsigned long long>(result.macAcksSkipped));
  std::printf(
      "  routing: originated=%llu forwarded=%llu delivered=%llu "
      "dropped=%llu rreq=%llu rrep=%llu rerr=%llu disc=%llu discFail=%llu\n",
      static_cast<unsigned long long>(result.routing.dataOriginated),
      static_cast<unsigned long long>(result.routing.dataForwarded),
      static_cast<unsigned long long>(result.routing.dataDeliveredLocal),
      static_cast<unsigned long long>(result.routing.dataDropped),
      static_cast<unsigned long long>(result.routing.rreqsSent),
      static_cast<unsigned long long>(result.routing.rrepsSent),
      static_cast<unsigned long long>(result.routing.rerrsSent),
      static_cast<unsigned long long>(result.routing.discoveriesStarted),
      static_cast<unsigned long long>(result.routing.discoveriesFailed));
  if (!config.eventTracePath.empty()) {
    std::printf("  event trace          : %s (%llu events; convert with "
                "tools/trace_chrome.py)\n",
                config.eventTracePath.c_str(),
                static_cast<unsigned long long>(result.traceEventsWritten));
  }
  if (!config.telemetryPath.empty()) {
    std::printf("  telemetry            : %s (%llu samples; peak queue %llu, "
                "slab %llu slots; validate with tools/trace_check.py)\n",
                config.telemetryPath.c_str(),
                static_cast<unsigned long long>(result.telemetrySamples),
                static_cast<unsigned long long>(result.peakQueueDepth),
                static_cast<unsigned long long>(result.slabSlotsTotal));
  }
  if (config.profileSimulator) {
    std::printf("  profile (top event labels by wall time):\n");
    std::vector<std::pair<double, std::string>> byWall;
    const std::string prefix = "profile.events.";
    const std::string suffix = ".wall_s";
    for (const auto& [name, value] : result.metrics) {
      if (name.size() > prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        byWall.emplace_back(
            value, name.substr(prefix.size(),
                               name.size() - prefix.size() - suffix.size()));
      }
    }
    std::sort(byWall.rbegin(), byWall.rend());
    for (std::size_t i = 0; i < byWall.size() && i < 6; ++i) {
      auto countIt =
          result.metrics.find(prefix + byWall[i].second + ".count");
      std::printf("    %-22s %10.0f events %9.3f s\n",
                  byWall[i].second.c_str(),
                  countIt != result.metrics.end() ? countIt->second : 0.0,
                  byWall[i].first);
    }
  }
  return 0;
}
