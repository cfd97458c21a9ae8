#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

namespace campaign = ecgrid::campaign;
namespace harness = ecgrid::harness;

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string seedList(std::uint64_t first, int count) {
  std::string out = "[";
  for (int i = 0; i < count; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(first + static_cast<std::uint64_t>(i));
  }
  return out + "]";
}

// Paper §4: 100 hosts on 1000×1000 m, one 10 pkt/s CBR flow of 512 B
// (bench::paperBaseline), GRID/ECGRID/GAF at 1 and 10 m/s, run past the
// 800 s mark of Fig. 4. With a single flow, most of a run's work is the
// flow's path length, so runs that shared one scenario seed would all be
// long or all short together: every (protocol, speed) spec gets its own
// two scenario seeds, and a round sums twelve independent draws.
std::vector<std::string> paperLifetimeSpecs(std::uint64_t seed) {
  std::vector<std::string> specs;
  std::uint64_t next = seed * 12;
  for (const char* protocol : {"GRID", "ECGRID", "GAF"}) {
    for (int speed : {1, 10}) {
      specs.push_back(R"({
  "name": "paper_lifetime",
  "base": {"protocol": ")" + std::string(protocol) + R"(", "maxSpeed": )" +
                      std::to_string(speed) + R"(,
           "hostCount": 100, "fieldSize": 1000, "flowCount": 1,
           "packetsPerSecondPerFlow": 10, "payloadBytes": 512,
           "pauseTime": 0, "duration": 820, "sampleInterval": 10},
  "axes": [],
  "seeds": )" + seedList(next, 2) + "\n}");
      next += 2;
    }
  }
  return specs;
}

// GRID at 1000 hosts (10 per cell) on the paper's field: every radio is
// awake, so channel fan-out and the event heap dominate.
std::string denseGridSpec(std::uint64_t seed) {
  return R"({
  "name": "dense_grid",
  "base": {"protocol": "GRID", "hostCount": 1000, "fieldSize": 1000,
           "flowCount": 10, "packetsPerSecondPerFlow": 1,
           "payloadBytes": 512, "maxSpeed": 1, "pauseTime": 0,
           "duration": 20, "sampleInterval": 10},
  "axes": [],
  "seeds": )" + seedList(seed, 1) + "\n}";
}

// Many short, small audited runs: per-run build/teardown, invariant
// audits, digest sampling, metric snapshots and record writing carry a
// large share of the work.
std::string auditedCampaignSpec(std::uint64_t seed) {
  return R"({
  "name": "audited_campaign",
  "base": {"fieldSize": 1000, "flowCount": 4, "packetsPerSecondPerFlow": 2,
           "payloadBytes": 512, "maxSpeed": 1, "pauseTime": 0,
           "duration": 4, "sampleInterval": 1,
           "auditInvariants": true, "digestEveryEvents": 1000},
  "axes": [{"key": "protocol", "values": ["GRID", "ECGRID", "GAF"]},
           {"key": "hostCount", "values": [50, 100, 200, 400]},
           {"key": "workload.classes", "values": [
             [],
             [{"name": "rr", "arrivals": "poisson", "sessionsPerSecond": 2,
               "minFlowBytes": 1024, "maxFlowBytes": 8192,
               "packetsPerSecond": 20, "requestResponse": true,
               "responseBytes": 1024}]]}],
  "seeds": )" + seedList(seed, 2) + "\n}";
}

/// Summed run-loop wall of a campaign pass, from its final status file.
double statusRunLoopSeconds(const std::string& statusPath) {
  std::ifstream in(statusPath);
  std::stringstream text;
  text << in.rdbuf();
  const ecgrid::util::JsonValue status = ecgrid::util::parseJson(text.str());
  const ecgrid::util::JsonValue* wall = status.find("wall_seconds");
  if (wall == nullptr) throw std::runtime_error("status file lacks wall_seconds");
  return wall->find("mean")->asNumber() * wall->find("completed")->asNumber();
}

CampaignPass runPass(const campaign::CampaignSpec& spec,
                     const std::string& resultsPath) {
  campaign::CampaignOptions options;
  options.resultsPath = resultsPath;
  options.statusPath = resultsPath + ".status.json";
  options.jobs = 1;
  options.workerCount = 1;
  CampaignPass pass;
  const auto start = std::chrono::steady_clock::now();
  pass.outcome = campaign::runCampaign(spec, options);
  pass.wallSeconds = secondsSince(start);
  pass.runLoopSeconds = statusRunLoopSeconds(options.statusPath);
  return pass;
}

TimedRun timedRun(const harness::ScenarioConfig& config) {
  TimedRun run;
  run.config = config;
  const auto start = std::chrono::steady_clock::now();
  run.result = harness::runScenario(config);
  run.wallSeconds = secondsSince(start);
  return run;
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload workload;
  workload.name = name;
  if (name == "paper_lifetime") {
    workload.specs = paperLifetimeSpecs(seed);
  } else if (name == "dense_grid") {
    workload.specs = {denseGridSpec(seed)};
  } else if (name == "audited_campaign") {
    workload.specs = {auditedCampaignSpec(seed)};
    workload.executor = Executor::kCampaign;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

std::vector<harness::ScenarioConfig> resolveWorkload(const Workload& workload) {
  std::vector<harness::ScenarioConfig> configs;
  for (const std::string& text : workload.specs) {
    for (const campaign::RunSpec& run :
         campaign::expandCampaign(campaign::parseCampaignSpec(text))) {
      configs.push_back(campaign::resolveConfig(run.overrides, run.seed));
    }
  }
  return configs;
}

Round runRound(const Workload& workload, const std::string& resultsPath,
               bool profile) {
  Round round;
  if (workload.executor == Executor::kScenarios) {
    for (harness::ScenarioConfig config : resolveWorkload(workload)) {
      config.profileSimulator = profile;
      round.simSeconds += config.duration;
      round.runs.push_back(timedRun(config));
      const TimedRun& run = round.runs.back();
      round.busySeconds += run.wallSeconds;
      round.setupSeconds += run.setupSeconds();
      round.runLoopSeconds += run.result.runWallSeconds;
    }
    round.attempted = round.runs.size();
    return round;
  }

  if (workload.specs.size() != 1) {
    throw std::logic_error("a campaign workload is exactly one spec");
  }
  round.resultsPath = resultsPath;
  const auto start = std::chrono::steady_clock::now();
  const campaign::CampaignSpec spec =
      campaign::parseCampaignSpec(workload.specs.front());
  std::vector<harness::ScenarioConfig> configs;
  for (const campaign::RunSpec& run : campaign::expandCampaign(spec)) {
    configs.push_back(campaign::resolveConfig(run.overrides, run.seed));
    configs.back().profileSimulator = profile;
    round.simSeconds += configs.back().duration;
  }
  round.expandSeconds = secondsSince(start);
  round.expansionSize = configs.size();

  std::remove(resultsPath.c_str());
  round.firstPass = runPass(spec, resultsPath);
  round.resumePass = runPass(spec, resultsPath);
  round.resumeSeconds = round.resumePass.wallSeconds;
  round.busySeconds = round.firstPass.wallSeconds;
  round.runLoopSeconds = round.firstPass.runLoopSeconds;
  round.setupSeconds = round.expandSeconds +
                       (round.firstPass.wallSeconds -
                        round.firstPass.runLoopSeconds) +
                       round.resumeSeconds;
  round.attempted = round.firstPass.outcome.executed + 1;  // + resume pass
  round.failed = round.firstPass.outcome.failed;
  if (profile) {
    for (const harness::ScenarioConfig& config : configs) {
      round.runs.push_back(timedRun(config));
    }
  }
  return round;
}

}  // namespace perfbench
