// Benchmark workloads and the timed rounds that run them.
//
// Every workload is a list of campaign specs (campaign::parseCampaignSpec):
// JSON documents generated from the benchmark seed, so the inputs the
// simulator receives are a pure function of (workload name, seed). A
// *round* runs every expansion once:
//
//   paper_lifetime, dense_grid  each expanded run through
//                               harness::runScenario, timed per call, with
//                               no results file;
//   audited_campaign            campaign::runCampaign into a fresh JSONL
//                               file (one job, one worker), then a resume
//                               pass over that file.
//
// Everything is timed from outside with std::chrono::steady_clock around
// calls into public functions; no file under src/ is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hpp"
#include "campaign/sweep_spec.hpp"
#include "harness/scenario.hpp"

namespace perfbench {

enum class Executor { kScenarios, kCampaign };

struct Workload {
  std::string name;
  std::vector<std::string> specs;  ///< campaign specs, from the seed
  Executor executor = Executor::kScenarios;
};

/// The named workload at `seed`. Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed);

/// One runScenario call as the benchmark saw it.
struct TimedRun {
  ecgrid::harness::ScenarioConfig config;
  ecgrid::harness::ScenarioResult result;
  double wallSeconds = 0.0;  ///< the whole runScenario call

  /// Host seconds outside the run loop: network build and teardown.
  [[nodiscard]] double setupSeconds() const {
    return wallSeconds - result.runWallSeconds;
  }
};

/// One campaign pass (runCampaign call) as the benchmark saw it.
struct CampaignPass {
  ecgrid::campaign::CampaignOutcome outcome;
  double wallSeconds = 0.0;
  /// Summed ScenarioResult::runWallSeconds of the executed runs, read
  /// back from the campaign status file.
  double runLoopSeconds = 0.0;
};

struct Round {
  /// Scenario executor: every expanded run. Campaign executor: filled
  /// only when the round replays the expansion (traced runs).
  std::vector<TimedRun> runs;
  double simSeconds = 0.0;   ///< simulated seconds the round completed
  double busySeconds = 0.0;  ///< host seconds spent completing them
  double setupSeconds = 0.0; ///< host seconds outside the run loops
  double runLoopSeconds = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  // Campaign executor only; zero or empty for the scenario executor.
  std::size_t expansionSize = 0;
  double expandSeconds = 0.0;  ///< spec parse + expansion
  double resumeSeconds = 0.0;  ///< resume pass
  CampaignPass firstPass;
  CampaignPass resumePass;
  std::string resultsPath;
};

/// Run one round of `workload`. `profile` turns on
/// ScenarioConfig::profileSimulator for every run (traced runs only);
/// for the campaign executor it replays the expansion through
/// runScenario after the campaign passes, so the profile covers the
/// same configs the campaign ran. The campaign executor's records land
/// in `resultsPath`, which is truncated first; the scenario executor
/// writes no file.
[[nodiscard]] Round runRound(const Workload& workload,
                             const std::string& resultsPath, bool profile);

/// Expanded, resolved configs of `workload` (no simulation).
[[nodiscard]] std::vector<ecgrid::harness::ScenarioConfig> resolveWorkload(
    const Workload& workload);

}  // namespace perfbench
