// Output checks for the benchmark workloads.
//
// Every expected value comes from the paper (§4 power profile, Figs. 4
// and 5) or from a closed form over the paper's constants — never from a
// copy of a previous run's output. Each check appends pass/fail entries
// to a CheckLog; the benchmark's result is correct only if every entry
// passed. The self-test (runSelfTest) feeds each check a doctored
// input and requires it to fail, so no check can silently pass
// everything.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hpp"
#include "harness/determinism.hpp"
#include "harness/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Paper §4 constants the checks derive their bounds from.
namespace paper {
inline constexpr double kBatteryJ = 500.0;
inline constexpr double kTxW = 1.400;
inline constexpr double kIdleW = 0.830;
inline constexpr double kGpsW = 0.033;
inline constexpr double kPayloadBytes = 512.0;
inline constexpr double kBitrateBps = 2e6;
/// Fig. 4's comparison instant and Fig. 5's GRID wall.
inline constexpr double kFig4Time = 800.0;
inline constexpr double kFig5Wall = 590.0;

/// No host can drain faster than transmitting the whole time.
inline constexpr double kMinLifetimeS = kBatteryJ / (kTxW + kGpsW);
/// A GRID host never sleeps, so it drains at least at idle power.
inline constexpr double kGridMaxLifetimeS = kBatteryJ / (kIdleW + kGpsW);
/// One 512 B payload on the air at 2 Mbps.
inline constexpr double kPayloadAirtimeS = kPayloadBytes * 8.0 / kBitrateBps;
}  // namespace paper

struct CheckEntry {
  std::string name;
  bool ok = false;
  std::string detail;
};

class CheckLog {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail);
  [[nodiscard]] bool allPassed() const;
  [[nodiscard]] const std::vector<CheckEntry>& entries() const {
    return entries_;
  }
  /// Entries whose name starts with `name` that failed.
  [[nodiscard]] std::size_t failures(const std::string& name) const;

 private:
  std::vector<CheckEntry> entries_;
};

/// "GRID@10/n100" — protocol, speed and hosts, for check names.
[[nodiscard]] std::string runLabel(const ecgrid::harness::ScenarioConfig& c);

/// Power-profile lifetime bounds: no finite host dies before
/// kMinLifetimeS; when the horizon passes kGridMaxLifetimeS, every GRID
/// host is dead by then.
void checkLifetimeBounds(const ecgrid::harness::ScenarioConfig& config,
                         const ecgrid::harness::ScenarioResult& result,
                         CheckLog& log);

/// Received <= sent, one latency per received packet, and no latency
/// below one payload airtime.
void checkPacketSanity(const ecgrid::harness::ScenarioConfig& config,
                       const ecgrid::harness::ScenarioResult& result,
                       CheckLog& log);

/// Fig. 4 at 800 s: alive(GAF) > 0, alive(ECGRID) > 0, alive(GRID) = 0.
void checkFig4Ordering(const ecgrid::harness::ScenarioResult& grid,
                       const ecgrid::harness::ScenarioResult& ecgrid,
                       const ecgrid::harness::ScenarioResult& gaf,
                       const std::string& label, CheckLog& log);

/// Fig. 5: GRID's aen exceeds ECGRID's at every sample in (0, 590 s).
void checkFig5Aen(const ecgrid::harness::ScenarioResult& grid,
                  const ecgrid::harness::ScenarioResult& ecgrid,
                  const std::string& label, CheckLog& log);

/// Figs. 4 and 5 over a paper_lifetime round: at each speed, the nth
/// GRID, ECGRID and GAF runs (n = 0, 1) form one comparison, and all
/// three must be present.
void checkPaperRound(const std::vector<TimedRun>& runs, CheckLog& log);

/// Spatial index vs brute-force scan: identical final digests.
void checkSpatialIndex(std::uint64_t indexedDigest,
                       std::uint64_t bruteForceDigest, CheckLog& log);

/// harness::checkDeterminism passed (replay and tie-order).
void checkReplay(const ecgrid::harness::DeterminismReport& report,
                 const std::string& label, CheckLog& log);

/// What a campaign results file holds, read back line by line.
struct RecordSummary {
  std::size_t records = 0;
  std::size_t notOk = 0;
  std::size_t unparsable = 0;
  std::size_t packetViolations = 0;  ///< received > sent
  std::size_t latencyViolations = 0; ///< e2e.latency_s.min below airtime
  std::size_t earlyDeaths = 0;       ///< firstDeath below kMinLifetimeS
};

[[nodiscard]] RecordSummary summarizeRecords(const std::string& path);

/// Record count equals the expansion, every record is ok and sane, and
/// the resume pass executed nothing.
void checkCampaignBookkeeping(std::size_t expansionSize,
                              const RecordSummary& records,
                              const ecgrid::campaign::CampaignOutcome& resume,
                              CheckLog& log);

/// Feed every check a doctored input; returns the number of checks that
/// failed to report the doctored failure (0 = self-test passed). Prints
/// one line per case.
[[nodiscard]] int runSelfTest(const std::string& workDir);

}  // namespace perfbench
