// ecgrid_perfbench — the simulator benchmark binary.
//
//   ecgrid_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    --work-dir <dir>
//   ecgrid_perfbench --self-test --work-dir <dir>
//
// Untraced (--trace 0): runs whole rounds of the workload on this thread
// until --seconds is spent (at least one round), checks every round's
// outputs, and reports the end-to-end metrics: simulated seconds per host
// second, set-up seconds and peak resident memory. Traced (--trace 1):
// alternates an untraced round with a profiled one
// (ScenarioConfig::profileSimulator) and reports the per-layer metrics,
// including the profiler's own overhead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the command to run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/alloc_audit.hpp"
#include "checks.hpp"
#include "harness/determinism.hpp"
#include "workloads.hpp"

namespace {

namespace harness = ecgrid::harness;
using perfbench::CheckLog;
using perfbench::Round;
using perfbench::TimedRun;
using perfbench::Workload;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfTest = false;
  std::string workDir = ".";
};

Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      haveWorkload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--work-dir") {
      options.workDir = value();
    } else if (arg == "--self-test") {
      options.selfTest = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!options.selfTest && !haveWorkload) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

/// Why this build must not be timed, or empty if it may.
std::string instrumentedBuild() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  for (const char* marker : {"-fsanitize", "--coverage", "-fprofile-arcs",
                             "-ftest-coverage", "-pg"}) {
    if (flags.find(marker) != std::string::npos) {
      return std::string("compiled with ") + marker;
    }
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "compiled with a sanitizer";
#endif
#if defined(ECGRID_ALLOC_AUDIT)
  return "compiled with ECGRID_ALLOC_AUDIT";
#endif
  if (ecgrid::check::allocAuditCompiled()) {
    return "simulator library built with the allocation audit";
  }
  return "";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double metric(const harness::ScenarioResult& r, const std::string& name) {
  const auto it = r.metrics.find(name);
  return it == r.metrics.end() ? 0.0 : it->second;
}

/// Sum of a metric over every run of the round.
double total(const Round& round, const std::string& name) {
  double sum = 0.0;
  for (const TimedRun& run : round.runs) sum += metric(run.result, name);
  return sum;
}

/// Summed profile wall of every label with one of `prefixes`.
double labelWall(const Round& round, std::initializer_list<const char*> prefixes) {
  double sum = 0.0;
  for (const TimedRun& run : round.runs) {
    for (const auto& [name, value] : run.result.metrics) {
      if (name.size() < 7 || name.compare(name.size() - 7, 7, ".wall_s") != 0) {
        continue;
      }
      for (const char* prefix : prefixes) {
        if (name.rfind(std::string("profile.events.") + prefix, 0) == 0) {
          sum += value;
        }
      }
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Output checks

void checkRound(const Workload& workload, const Round& round, CheckLog& log) {
  if (workload.executor == perfbench::Executor::kCampaign) {
    perfbench::checkCampaignBookkeeping(
        round.expansionSize, perfbench::summarizeRecords(round.resultsPath),
        round.resumePass.outcome, log);
  }
  for (const TimedRun& run : round.runs) {
    perfbench::checkLifetimeBounds(run.config, run.result, log);
    perfbench::checkPacketSanity(run.config, run.result, log);
  }
  if (workload.name == "paper_lifetime") {
    perfbench::checkPaperRound(round.runs, log);
  }
}

/// Replay determinism on one config of the workload, and the spatial
/// index against the brute-force channel scan on a 2 s prefix of the
/// dense_grid config for the same seed (1000 awake hosts: the most
/// fan-out per frame), whichever workload runs.
void checkReplayAndIndex(const Workload& workload, std::uint64_t seed,
                         CheckLog& log) {
  const std::vector<harness::ScenarioConfig> configs =
      perfbench::resolveWorkload(workload);
  harness::ScenarioConfig config = configs.front();
  if (workload.name == "paper_lifetime") {
    // ECGRID at 10 m/s: sleep, paging and elections all exercised; a
    // 120 s prefix keeps the replays short.
    for (const harness::ScenarioConfig& c : configs) {
      if (c.protocol == harness::ProtocolKind::kEcgrid && c.maxSpeed == 10.0) {
        config = c;
      }
    }
    config.duration = 120.0;
  } else if (workload.name == "dense_grid") {
    config.duration = 2.0;
  } else {
    config = configs.back();  // largest, request/response, audited
  }
  config.digestEveryEvents = 2000;
  perfbench::checkReplay(harness::checkDeterminism(config),
                         perfbench::runLabel(config), log);

  harness::ScenarioConfig dense = perfbench::resolveWorkload(
      perfbench::makeWorkload("dense_grid", seed)).front();
  dense.duration = 2.0;
  dense.digestEveryEvents = 2000;
  const harness::ScenarioResult indexed = harness::runScenario(dense);
  dense.channelSpatialIndex = false;
  const harness::ScenarioResult bruteForce = harness::runScenario(dense);
  perfbench::checkSpatialIndex(indexed.digestTrace.back().digest,
                               bruteForce.digestTrace.back().digest, log);
}

// ---------------------------------------------------------------------------
// Measurement

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string resultsPath(const Options& options) {
  return options.workDir + "/" + options.workload + "_results.jsonl";
}

void printRound(const char* kind, std::size_t index, const Round& round) {
  std::uint64_t events = 0;
  for (const TimedRun& run : round.runs) events += run.result.eventsExecuted;
  std::printf(
      "%s round %zu: %zu runs, %.1f sim s in %.3f s (%.2f sim s/s), "
      "setup %.4f s, run loops %.3f s, %llu events\n",
      kind, index, round.attempted, round.simSeconds, round.busySeconds,
      round.simSeconds / round.busySeconds, round.setupSeconds,
      round.runLoopSeconds, static_cast<unsigned long long>(events));
  std::fflush(stdout);
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome measureEndToEnd(const Workload& workload, const Options& options,
                        CheckLog& log) {
  Outcome outcome;
  std::vector<double> rates;
  std::vector<double> setups;
  const auto start = Clock::now();
  double lastRound = 0.0;
  double peakRss = 0.0;
  do {
    const auto roundStart = Clock::now();
    const Round round = perfbench::runRound(workload, resultsPath(options), false);
    // Peak memory of one round: later rounds repeat the same inputs, and
    // how many fit in --seconds depends on the host's speed, so their
    // allocator history must not move the figure.
    if (peakRss == 0.0) peakRss = peakRssMb();
    checkRound(workload, round, log);
    lastRound = since(roundStart);
    rates.push_back(round.simSeconds / round.busySeconds);
    setups.push_back(round.setupSeconds);
    outcome.attempted += round.attempted;
    outcome.failed += round.failed;
    printRound("timed", rates.size(), round);
  } while (since(start) + lastRound <= options.seconds);
  outcome.metrics = {
      {"sim_s_per_s", median(rates), "s/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peakRss, "MB"},
  };
  return outcome;
}

std::vector<Metric> layerMetrics(const Round& untraced, const Round& traced,
                                 double overhead) {
  double buildS = 0.0, runS = 0.0, profiled = 0.0, events = 0.0;
  double peakQueue = 0.0, slabSlots = 0.0, audits = 0.0, digests = 0.0;
  double keys = 0.0;
  for (const TimedRun& run : traced.runs) {
    const harness::ScenarioResult& r = run.result;
    buildS += run.setupSeconds();
    runS += r.runWallSeconds;
    profiled += metric(r, "profile.wall_s_total");
    events += static_cast<double>(r.eventsExecuted);
    peakQueue = std::max(peakQueue, static_cast<double>(r.peakQueueDepth));
    slabSlots = std::max(slabSlots, static_cast<double>(r.slabSlotsTotal));
    audits += static_cast<double>(r.auditRuns);
    digests += static_cast<double>(r.digestTrace.size());
    for (const auto& [name, value] : r.metrics) {
      if (name.rfind("profile.", 0) != 0) keys += 1.0;
    }
  }
  const double runs = static_cast<double>(traced.runs.size());
  const double frames = total(traced, "phy.frames_transmitted");
  const double deliveries = total(traced, "phy.deliveries_scheduled");
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double recordBytes =
      untraced.resultsPath.empty()
          ? 0.0
          : static_cast<double>(std::filesystem::file_size(untraced.resultsPath));
  return {
      {"harness.build_s", buildS, "s"},
      {"harness.run_s", runS, "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_s", ratio(events, untraced.runLoopSeconds), "1/s"},
      {"sim.unattributed_s", runS - profiled, "s"},
      {"sim.peak_queue_depth", peakQueue, "count"},
      {"sim.slab_slots", slabSlots, "count"},
      {"phy.frames", frames, "count"},
      {"phy.deliveries", deliveries, "count"},
      {"phy.pages", total(traced, "paging.pages_sent"), "count"},
      {"phy.deliveries_per_frame", ratio(deliveries, frames), "ratio"},
      {"phy.rx_end_per_delivery",
       ratio(total(traced, "profile.events.phy.rx_end.count"), deliveries),
       "frac"},
      {"phy.deliver_s", labelWall(traced, {"phy.deliver."}), "s"},
      {"phy.rx_end_s", labelWall(traced, {"phy.rx_end."}), "s"},
      {"mac.access_s", labelWall(traced, {"mac.access."}), "s"},
      {"mac.ack_s", labelWall(traced, {"mac.ack."}), "s"},
      {"mac.retx_per_frame",
       ratio(total(traced, "mac.retransmissions"), total(traced, "mac.frames_sent")),
       "ratio"},
      {"proto.hello", total(traced, "profile.events.proto.hello.count"), "count"},
      {"routing.discoveries", total(traced, "routing.discoveries_started"),
       "count"},
      {"gaf.unlabeled", total(traced, "profile.events.unlabeled.count"), "count"},
      {"proto.s", labelWall(traced, {"proto.", "route."}), "s"},
      {"routing.forwards_per_delivered",
       ratio(total(traced, "routing.data_forwarded"),
             total(traced, "traffic.packets_received")),
       "ratio"},
      {"ecgrid.s", labelWall(traced, {"ecgrid."}), "s"},
      {"ecgrid.sleeps", total(traced, "ecgrid.sleeps"), "count"},
      {"ecgrid.wakes", total(traced, "ecgrid.wakes"), "count"},
      {"mobility.cell_exits",
       total(traced, "profile.events.mobility.cell_exit.count"), "count"},
      {"check.audit_runs", audits, "count"},
      {"check.digest_samples", digests, "count"},
      {"campaign.expand_s", traced.expandSeconds, "s"},
      {"campaign.resume_s", traced.resumeSeconds, "s"},
      {"campaign.record_bytes", recordBytes, "bytes"},
      {"obs.metric_keys", ratio(keys, runs), "count"},
      {"obs.profile_overhead", overhead, "ratio"},
  };
}

Outcome measureLayers(const Workload& workload, const Options& options,
                      CheckLog& log) {
  Outcome outcome;
  std::map<std::string, std::vector<double>> samples;
  std::vector<Metric> last;
  const auto start = Clock::now();
  double lastPair = 0.0;
  std::size_t pairs = 0;
  do {
    const auto pairStart = Clock::now();
    const Round untraced =
        perfbench::runRound(workload, resultsPath(options), false);
    checkRound(workload, untraced, log);
    printRound("untraced", pairs + 1, untraced);
    const Round traced = perfbench::runRound(
        workload, options.workDir + "/" + options.workload + "_traced.jsonl",
        true);
    checkRound(workload, traced, log);
    printRound("traced", pairs + 1, traced);
    double tracedRun = 0.0;
    for (const TimedRun& run : traced.runs) tracedRun += run.result.runWallSeconds;
    last = layerMetrics(untraced, traced, tracedRun / untraced.runLoopSeconds);
    for (const Metric& m : last) samples[m.name].push_back(m.value);
    outcome.attempted += untraced.attempted + traced.attempted;
    outcome.failed += untraced.failed + traced.failed;
    ++pairs;
    lastPair = since(pairStart);
  } while (since(start) + lastPair <= options.seconds);
  // Counts repeat exactly; times are the median over the pairs.
  for (Metric& m : last) m.value = median(samples[m.name]);
  outcome.metrics = last;
  return outcome;
}

void printResult(bool correct, const Outcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", outcome.attempted, outcome.failed);
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parseOptions(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecgrid_perfbench: %s\n", e.what());
    return 2;
  }
  const std::string refusal = instrumentedBuild();
  if (!refusal.empty()) {
    std::fprintf(stderr,
                 "ecgrid_perfbench: refusing to time an instrumented build "
                 "(%s)\n",
                 refusal.c_str());
    return 3;
  }
  std::printf("build: compiler %s, build type %s, flags '%s'\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  std::error_code ignored;
  std::filesystem::create_directories(options.workDir, ignored);
  if (options.selfTest) return perfbench::runSelfTest(options.workDir) == 0 ? 0 : 1;

  try {
    const Workload workload = perfbench::makeWorkload(options.workload, options.seed);
    std::printf("workload %s, seed %llu, %g s, %s\n", workload.name.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? "traced" : "untraced");
    CheckLog log;
    const Outcome outcome = options.trace
                                ? measureLayers(workload, options, log)
                                : measureEndToEnd(workload, options, log);
    checkReplayAndIndex(workload, options.seed, log);
    std::size_t failedChecks = 0;
    for (const perfbench::CheckEntry& e : log.entries()) {
      if (!e.ok) ++failedChecks;
    }
    // One line per distinct check; repeated rounds only report failures.
    std::map<std::string, bool> shown;
    for (const perfbench::CheckEntry& e : log.entries()) {
      if (e.ok && shown.count(e.name) > 0) continue;
      shown[e.name] = true;
      std::printf("check %-4s %-40s %s\n",
                  e.ok ? "ok" : "FAIL", e.name.c_str(),
                  e.detail.c_str());
    }
    std::printf("checks: %zu of %zu failed\n", failedChecks,
                log.entries().size());
    printResult(log.allPassed(), outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecgrid_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
