#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>

#include "util/json.hpp"

namespace perfbench {

namespace harness = ecgrid::harness;

namespace {

std::string fmt(const char* format, double a, double b = 0.0) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, format, a, b);
  return buffer;
}

/// Value of `series` sampled exactly at `t`, or NaN when not sampled.
double sampleAt(const ecgrid::stats::TimeSeries& series, double t) {
  for (const auto& [time, value] : series.points()) {
    if (time == t) return value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double numberOr(const ecgrid::util::JsonValue* value, double fallback) {
  return value != nullptr ? value->asNumber() : fallback;
}

}  // namespace

void CheckLog::expect(const std::string& name, bool ok,
                      const std::string& detail) {
  entries_.push_back({name, ok, detail});
}

bool CheckLog::allPassed() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const CheckEntry& e) { return e.ok; });
}

std::size_t CheckLog::failures(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [&](const CheckEntry& e) {
        return !e.ok && e.name.rfind(name, 0) == 0;
      }));
}

std::string runLabel(const harness::ScenarioConfig& c) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s@%g/n%d",
                harness::toString(c.protocol), c.maxSpeed, c.hostCount);
  return buffer;
}

void checkLifetimeBounds(const harness::ScenarioConfig& config,
                         const harness::ScenarioResult& result,
                         CheckLog& log) {
  const std::string label = "[" + runLabel(config) + "]";
  double earliest = std::numeric_limits<double>::infinity();
  double latest = 0.0;
  for (double t : result.deathTimes) {
    earliest = std::min(earliest, t);
    latest = std::max(latest, t);
  }
  log.expect("lifetime_min" + label, earliest >= paper::kMinLifetimeS,
             fmt("first death %.3f s, bound %.3f s", earliest,
                 paper::kMinLifetimeS));
  if (config.protocol == harness::ProtocolKind::kGrid &&
      config.duration >= paper::kGridMaxLifetimeS) {
    const bool allDead =
        result.deathTimes.size() == static_cast<std::size_t>(config.hostCount);
    log.expect("grid_all_dead" + label,
               allDead && latest <= paper::kGridMaxLifetimeS,
               fmt("%g GRID deaths, last at %.3f s", double(result.deathTimes.size()),
                   latest) +
                   fmt(", bound %.3f s", paper::kGridMaxLifetimeS));
  }
}

void checkPacketSanity(const harness::ScenarioConfig& config,
                       const harness::ScenarioResult& result, CheckLog& log) {
  const std::string label = "[" + runLabel(config) + "]";
  log.expect("received_le_sent" + label,
             result.packetsReceived <= result.packetsSent &&
                 result.latencies.size() == result.packetsReceived,
             fmt("received %g of %g sent", double(result.packetsReceived),
                 double(result.packetsSent)));
  double minLatency = std::numeric_limits<double>::infinity();
  for (double l : result.latencies) minLatency = std::min(minLatency, l);
  log.expect("latency_ge_airtime" + label,
             minLatency >= paper::kPayloadAirtimeS,
             fmt("min latency %.6f s, airtime %.6f s", minLatency,
                 paper::kPayloadAirtimeS));
}

void checkFig4Ordering(const harness::ScenarioResult& grid,
                       const harness::ScenarioResult& ecgrid,
                       const harness::ScenarioResult& gaf,
                       const std::string& label, CheckLog& log) {
  const double aGrid = sampleAt(grid.aliveFraction, paper::kFig4Time);
  const double aEcgrid = sampleAt(ecgrid.aliveFraction, paper::kFig4Time);
  const double aGaf = sampleAt(gaf.aliveFraction, paper::kFig4Time);
  // NaN (no sample at 800 s) fails every comparison below.
  log.expect("fig4_ordering[" + label + "]",
             aGrid == 0.0 && aEcgrid > aGrid && aGaf > aGrid,
             fmt("alive at 800 s: GRID %.3f, ECGRID %.3f", aGrid, aEcgrid) +
                 fmt(", GAF %.3f", aGaf));
}

void checkFig5Aen(const harness::ScenarioResult& grid,
                  const harness::ScenarioResult& ecgrid,
                  const std::string& label, CheckLog& log) {
  std::size_t compared = 0;
  double worstT = -1.0;
  for (const auto& [t, gridAen] : grid.aen.points()) {
    if (t <= 0.0 || t >= paper::kFig5Wall) continue;
    const double ecgridAen = sampleAt(ecgrid.aen, t);
    ++compared;
    if (!(gridAen > ecgridAen) && worstT < 0.0) worstT = t;
  }
  log.expect("fig5_aen[" + label + "]", compared > 0 && worstT < 0.0,
             worstT < 0.0
                 ? fmt("GRID aen above ECGRID at all %g samples before %g s",
                       double(compared), paper::kFig5Wall)
                 : fmt("GRID aen not above ECGRID at t = %g s (of %g samples)",
                       worstT, double(compared)));
}

namespace {

/// The `nth` run (0-based) of `protocol` at `speed`, or null.
const TimedRun* findRun(const std::vector<TimedRun>& runs,
                        harness::ProtocolKind protocol, double speed, int nth) {
  for (const TimedRun& run : runs) {
    if (run.config.protocol == protocol && run.config.maxSpeed == speed &&
        nth-- == 0) {
      return &run;
    }
  }
  return nullptr;
}

}  // namespace

void checkPaperRound(const std::vector<TimedRun>& runs, CheckLog& log) {
  for (int nth : {0, 1}) {
    for (double speed : {1.0, 10.0}) {
      const TimedRun* grid =
          findRun(runs, harness::ProtocolKind::kGrid, speed, nth);
      const TimedRun* ecgrid =
          findRun(runs, harness::ProtocolKind::kEcgrid, speed, nth);
      const TimedRun* gaf = findRun(runs, harness::ProtocolKind::kGaf, speed, nth);
      const std::string label = "speed " +
                                std::to_string(static_cast<int>(speed)) +
                                " #" + std::to_string(nth + 1);
      log.expect("paper_runs_present[" + label + "]",
                 grid != nullptr && ecgrid != nullptr && gaf != nullptr,
                 "GRID, ECGRID and GAF runs at this speed");
      if (grid == nullptr || ecgrid == nullptr || gaf == nullptr) continue;
      checkFig4Ordering(grid->result, ecgrid->result, gaf->result, label, log);
      checkFig5Aen(grid->result, ecgrid->result, label, log);
    }
  }
}

void checkSpatialIndex(std::uint64_t indexedDigest,
                       std::uint64_t bruteForceDigest, CheckLog& log) {
  char detail[96];
  std::snprintf(detail, sizeof detail, "final digest %016llx vs %016llx",
                static_cast<unsigned long long>(indexedDigest),
                static_cast<unsigned long long>(bruteForceDigest));
  log.expect("spatial_index_equals_scan", indexedDigest == bruteForceDigest,
             detail);
}

void checkReplay(const harness::DeterminismReport& report,
                 const std::string& label, CheckLog& log) {
  log.expect("determinism[" + label + "]", report.passed(),
             report.passed()
                 ? fmt("%g digest samples replayed", double(report.samplesCompared))
                 : report.divergence);
}

RecordSummary summarizeRecords(const std::string& path) {
  RecordSummary summary;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++summary.records;
    try {
      const ecgrid::util::JsonValue record = ecgrid::util::parseJson(line);
      const ecgrid::util::JsonValue* ok = record.find("ok");
      const ecgrid::util::JsonValue* result = record.find("result");
      if (ok == nullptr || !ok->asBool() || result == nullptr) {
        ++summary.notOk;
        continue;
      }
      const double sent = numberOr(result->find("packetsSent"), 0.0);
      const double received = numberOr(result->find("packetsReceived"), 0.0);
      if (received > sent) ++summary.packetViolations;
      const ecgrid::util::JsonValue* metrics = result->find("metrics");
      const double latencies =
          numberOr(metrics->find("e2e.latency_s.count"), 0.0);
      const double minLatency =
          numberOr(metrics->find("e2e.latency_s.min"), 0.0);
      if (latencies > 0.0 && minLatency < paper::kPayloadAirtimeS) {
        ++summary.latencyViolations;
      }
      if (numberOr(result->find("firstDeath"), 0.0) < paper::kMinLifetimeS) {
        ++summary.earlyDeaths;
      }
    } catch (const std::exception&) {
      ++summary.unparsable;
    }
  }
  return summary;
}

void checkCampaignBookkeeping(std::size_t expansionSize,
                              const RecordSummary& records,
                              const ecgrid::campaign::CampaignOutcome& resume,
                              CheckLog& log) {
  log.expect("campaign_record_count", records.records == expansionSize,
             fmt("%g records for %g expanded runs", double(records.records),
                 double(expansionSize)));
  log.expect("campaign_records_ok",
             records.notOk == 0 && records.unparsable == 0,
             fmt("%g failed, %g unparsable records", double(records.notOk),
                 double(records.unparsable)));
  log.expect("campaign_records_sane",
             records.packetViolations == 0 && records.latencyViolations == 0 &&
                 records.earlyDeaths == 0,
             fmt("%g received>sent, %g latency<airtime", double(records.packetViolations),
                 double(records.latencyViolations)) +
                 fmt(", %g deaths before %.1f s", double(records.earlyDeaths),
                     paper::kMinLifetimeS));
  log.expect("campaign_resume_skips_all",
             resume.executed == 0 && resume.skipped == expansionSize,
             fmt("resume pass executed %g, skipped %g", double(resume.executed),
                 double(resume.skipped)));
}

// ---------------------------------------------------------------------------
// Self-test: synthetic results that satisfy every check, then one doctored
// copy per failure mode.

namespace {

/// A GRID/ECGRID/GAF lifetime result shaped like the paper's figures.
harness::ScenarioResult syntheticResult(harness::ProtocolKind protocol,
                                        int hosts) {
  harness::ScenarioResult r;
  const bool grid = protocol == harness::ProtocolKind::kGrid;
  for (int i = 0; i < hosts; ++i) {
    r.deathTimes.push_back(grid ? 560.0 + 0.1 * i : 600.0 + i);
  }
  if (!grid) r.deathTimes.resize(static_cast<std::size_t>(hosts / 2));
  for (double t = 0.0; t <= 820.0; t += 10.0) {
    r.aliveFraction.add(t, grid ? (t < 580.0 ? 1.0 : 0.0) : 0.6);
    r.aen.add(t, (grid ? 1.0 / 579.0 : 0.7 / 579.0) * t);
  }
  r.packetsSent = 100;
  r.packetsReceived = 99;
  r.deliveryRate = 0.99;
  r.latencies.assign(99, 0.01);
  return r;
}

harness::ScenarioConfig syntheticConfig(harness::ProtocolKind protocol) {
  harness::ScenarioConfig c;
  c.protocol = protocol;
  c.hostCount = 100;
  c.duration = 820.0;
  return c;
}

struct SelfTest {
  int misses = 0;

  /// `probe` must report failures of `name` iff `expectFailure`.
  void expect(const std::string& what, const std::string& name,
              bool expectFailure, const std::function<void(CheckLog&)>& probe) {
    CheckLog log;
    probe(log);
    const bool failed = log.failures(name) > 0;
    const bool good = failed == expectFailure;
    if (!good) ++misses;
    std::printf("self-test %-4s %-52s -> %s\n", good ? "ok" : "MISS",
                what.c_str(), failed ? "check failed" : "check passed");
  }
};

}  // namespace

int runSelfTest(const std::string& workDir) {
  using harness::ProtocolKind;
  SelfTest t;
  const auto gridC = syntheticConfig(ProtocolKind::kGrid);
  const auto ecgridC = syntheticConfig(ProtocolKind::kEcgrid);
  const auto grid = syntheticResult(ProtocolKind::kGrid, 100);
  const auto ecgrid = syntheticResult(ProtocolKind::kEcgrid, 100);
  const auto gaf = syntheticResult(ProtocolKind::kGaf, 100);

  t.expect("lifetime: valid GRID run", "lifetime_min", false,
           [&](CheckLog& l) { checkLifetimeBounds(gridC, grid, l); });
  t.expect("lifetime: valid GRID run, all dead by bound", "grid_all_dead", false,
           [&](CheckLog& l) { checkLifetimeBounds(gridC, grid, l); });
  t.expect("lifetime: a host dies at 300 s", "lifetime_min", true,
           [&](CheckLog& l) {
             auto r = ecgrid;
             r.deathTimes.push_back(300.0);
             checkLifetimeBounds(ecgridC, r, l);
           });
  t.expect("lifetime: a GRID death at 590 s", "grid_all_dead", true,
           [&](CheckLog& l) {
             auto r = grid;
             r.deathTimes.back() = 590.0;
             checkLifetimeBounds(gridC, r, l);
           });
  t.expect("lifetime: a GRID host outlives the horizon", "grid_all_dead", true,
           [&](CheckLog& l) {
             auto r = grid;
             r.deathTimes.pop_back();
             checkLifetimeBounds(gridC, r, l);
           });

  t.expect("packets: valid run", "received_le_sent", false,
           [&](CheckLog& l) { checkPacketSanity(gridC, grid, l); });
  t.expect("packets: received > sent", "received_le_sent", true,
           [&](CheckLog& l) {
             auto r = grid;
             r.packetsReceived = 101;
             r.latencies.assign(101, 0.01);
             checkPacketSanity(gridC, r, l);
           });
  t.expect("packets: valid latencies", "latency_ge_airtime", false,
           [&](CheckLog& l) { checkPacketSanity(gridC, grid, l); });
  t.expect("packets: a latency of 2.0 ms (< 2.048 ms airtime)",
           "latency_ge_airtime", true, [&](CheckLog& l) {
             auto r = grid;
             r.latencies[17] = 0.0020;
             checkPacketSanity(gridC, r, l);
           });

  t.expect("fig4: valid ordering", "fig4_ordering", false,
           [&](CheckLog& l) { checkFig4Ordering(grid, ecgrid, gaf, "x", l); });
  t.expect("fig4: GRID still alive at 800 s", "fig4_ordering", true,
           [&](CheckLog& l) {
             auto r = grid;
             r.aliveFraction = ecgrid.aliveFraction;
             checkFig4Ordering(r, ecgrid, gaf, "x", l);
           });
  t.expect("fig4: ECGRID all dead at 800 s", "fig4_ordering", true,
           [&](CheckLog& l) { checkFig4Ordering(grid, grid, gaf, "x", l); });
  t.expect("fig4: no sample at 800 s", "fig4_ordering", true,
           [&](CheckLog& l) {
             auto r = gaf;
             r.aliveFraction = ecgrid::stats::TimeSeries();
             r.aliveFraction.add(790.0, 0.6);
             checkFig4Ordering(grid, ecgrid, r, "x", l);
           });

  t.expect("fig5: valid aen", "fig5_aen", false,
           [&](CheckLog& l) { checkFig5Aen(grid, ecgrid, "x", l); });
  t.expect("fig5: ECGRID aen equals GRID's", "fig5_aen", true,
           [&](CheckLog& l) { checkFig5Aen(grid, grid, "x", l); });

  t.expect("spatial index: equal digests", "spatial_index_equals_scan", false,
           [&](CheckLog& l) { checkSpatialIndex(42, 42, l); });
  t.expect("spatial index: digests differ", "spatial_index_equals_scan", true,
           [&](CheckLog& l) { checkSpatialIndex(42, 43, l); });

  harness::DeterminismReport replay;
  replay.replayIdentical = true;
  replay.tieOrderStable = true;
  t.expect("determinism: passing report", "determinism", false,
           [&](CheckLog& l) { checkReplay(replay, "x", l); });
  t.expect("determinism: replay diverged", "determinism", true,
           [&](CheckLog& l) {
             auto r = replay;
             r.replayIdentical = false;
             r.divergence = "sample 3 differs";
             checkReplay(r, "x", l);
           });
  t.expect("determinism: tie order changed the final digest", "determinism",
           true, [&](CheckLog& l) {
             auto r = replay;
             r.tieOrderStable = false;
             checkReplay(r, "x", l);
           });

  // A paper_lifetime round: GRID, ECGRID and GAF at 1 and 10 m/s, twice.
  std::vector<TimedRun> paperRound;
  for (int copy = 0; copy < 2; ++copy) {
    for (ProtocolKind protocol :
         {ProtocolKind::kGrid, ProtocolKind::kEcgrid, ProtocolKind::kGaf}) {
      for (double speed : {1.0, 10.0}) {
        TimedRun run;
        run.config = syntheticConfig(protocol);
        run.config.maxSpeed = speed;
        run.result = syntheticResult(protocol, 100);
        paperRound.push_back(run);
      }
    }
  }
  t.expect("paper round: every check on a complete round", "", false,
           [&](CheckLog& l) { checkPaperRound(paperRound, l); });
  t.expect("paper round: one GAF run missing", "paper_runs_present", true,
           [&](CheckLog& l) {
             auto runs = paperRound;
             runs.erase(runs.begin() + 4);  // GAF at 1 m/s, first copy
             checkPaperRound(runs, l);
           });

  // Campaign bookkeeping over a real results file written with the
  // runner's own record format; `doctor` alters the second record.
  const std::string path = workDir + "/selftest_results.jsonl";
  auto writeFile = [&](const std::function<void(harness::ScenarioResult&)>& doctor,
                       bool withFailure) {
    std::ofstream out(path, std::ios::trunc);
    for (int i = 0; i < 4; ++i) {
      ecgrid::campaign::RunSpec run;
      run.seed = static_cast<std::uint64_t>(i);
      run.fingerprint = ecgrid::campaign::runFingerprint({}, run.seed);
      harness::ScenarioResult r;
      r.packetsSent = 10;
      r.packetsReceived = 9;
      r.metrics["e2e.latency_s.count"] = 9;
      r.metrics["e2e.latency_s.min"] = 0.004;
      if (i == 1 && doctor) doctor(r);
      const bool failRun = withFailure && i == 2;
      out << ecgrid::campaign::recordToJson("selftest", run,
                                            failRun ? nullptr : &r,
                                            failRun ? "boom" : "")
          << '\n';
    }
  };
  ecgrid::campaign::CampaignOutcome resume;
  resume.totalRuns = resume.stripeRuns = resume.skipped = 4;
  auto bookkeeping = [&](CheckLog& l, std::size_t expected,
                         const ecgrid::campaign::CampaignOutcome& pass) {
    checkCampaignBookkeeping(expected, summarizeRecords(path), pass, l);
  };
  writeFile(nullptr, false);
  t.expect("campaign: complete file, resume skips all", "campaign_", false,
           [&](CheckLog& l) { bookkeeping(l, 4, resume); });
  t.expect("campaign: resume pass re-executes a run",
           "campaign_resume_skips_all", true, [&](CheckLog& l) {
             auto pass = resume;
             pass.skipped = 3;
             pass.executed = 1;
             bookkeeping(l, 4, pass);
           });
  t.expect("campaign: a record is missing", "campaign_record_count", true,
           [&](CheckLog& l) { bookkeeping(l, 5, resume); });
  writeFile(nullptr, true);
  t.expect("campaign: a record is not ok", "campaign_records_ok", true,
           [&](CheckLog& l) { bookkeeping(l, 4, resume); });
  writeFile([](harness::ScenarioResult& r) { r.packetsReceived = 11; }, false);
  t.expect("campaign: a record receives more than it sent",
           "campaign_records_sane", true,
           [&](CheckLog& l) { bookkeeping(l, 4, resume); });
  writeFile([](harness::ScenarioResult& r) {
    r.metrics["e2e.latency_s.min"] = 0.002;
  }, false);
  t.expect("campaign: a record's min latency is 2.0 ms",
           "campaign_records_sane", true,
           [&](CheckLog& l) { bookkeeping(l, 4, resume); });
  writeFile([](harness::ScenarioResult& r) { r.firstDeath = 300.0; }, false);
  t.expect("campaign: a record's first death is at 300 s",
           "campaign_records_sane", true,
           [&](CheckLog& l) { bookkeeping(l, 4, resume); });
  std::remove(path.c_str());

  std::printf("self-test: %d miss(es)\n", t.misses);
  return t.misses;
}

}  // namespace perfbench
