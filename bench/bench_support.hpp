// Shared scaffolding for the figure-reproduction benches.
//
// Every bench binary reproduces one figure of the paper: it sweeps the
// figure's parameter(s), prints the same series the paper plots as an
// aligned text table, and writes a CSV next to the binary (bench_out/)
// for plotting, plus a machine-readable BENCH_<figure>.json perf record
// (see BenchReport below). Benches honour these environment variables:
//   ECGRID_BENCH_QUICK=1    — shrink horizons/sweeps for smoke runs
//   ECGRID_BENCH_SEEDS=N    — number of seeds averaged where applicable
//   ECGRID_BENCH_JOBS=N     — worker threads for independent runs (default
//                             1 = serial; results are identical either way)
//   ECGRID_BENCH_HORIZON=S  — cap every run's duration at S seconds (CI
//                             smoke under slow sanitizers)
//   ECGRID_BENCH_OUT=DIR    — write artifacts to DIR instead of bench_out/
//                             (CI scratch runs; keeps committed records
//                             untouched)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness/parallel_runner.hpp"
#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "stats/timeseries.hpp"

namespace ecgrid::bench {

inline bool quickMode() {
  const char* env = std::getenv("ECGRID_BENCH_QUICK");
  return env != nullptr && std::string(env) != "0";
}

inline int seedCount(int fallback) {
  const char* env = std::getenv("ECGRID_BENCH_SEEDS");
  if (env == nullptr) return fallback;
  int n = std::atoi(env);
  return n > 0 ? n : fallback;
}

/// Worker threads for runScenariosParallel. Default 1 (serial).
inline unsigned benchJobs() {
  const char* env = std::getenv("ECGRID_BENCH_JOBS");
  if (env == nullptr) return 1;
  int n = std::atoi(env);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

/// Optional hard cap on run duration (seconds), for CI smoke runs under
/// sanitizers where even quick-mode horizons are too slow. 0 = no cap.
inline double horizonCap() {
  const char* env = std::getenv("ECGRID_BENCH_HORIZON");
  if (env == nullptr) return 0.0;
  double s = std::atof(env);
  return s > 0.0 ? s : 0.0;
}

/// Apply the ECGRID_BENCH_HORIZON cap to one config.
inline void applyHorizonCap(harness::ScenarioConfig& config) {
  double cap = horizonCap();
  if (cap > 0.0 && config.duration > cap) config.duration = cap;
}

/// Wall-clock stopwatch for the whole bench. Wall time never feeds the
/// simulation — it is reporting-only, hence the lint suppressions.
class WallTimer {
 public:
  // ecgrid-lint: allow(banned-random)
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    // ecgrid-lint: allow(banned-random)
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;  // ecgrid-lint: allow(banned-random)
};

/// The paper's common scenario (§4): 1000×1000 m, d=100 m, r=250 m,
/// 2 Mbps, 500 J, random waypoint, CBR 512 B with a total network load of
/// 10 pkt/s (one 10-packets-per-second source, see EXPERIMENTS.md).
inline harness::ScenarioConfig paperBaseline() {
  harness::ScenarioConfig config;
  config.hostCount = 100;
  config.flowCount = 1;
  config.packetsPerSecondPerFlow = 10.0;
  config.maxSpeed = 1.0;
  config.pauseTime = 0.0;
  config.duration = 2000.0;
  return config;
}

/// Downsample a dense (time, value) sample stream into a ~`targetPoints`-
/// bucket min/mean/max envelope, returned as three TimeSeries labelled
/// `<prefix>_min` / `<prefix>_mean` / `<prefix>_max` (each point sits at
/// its bucket's mean time). Long profiled runs produce tens of thousands
/// of queue-depth samples; the envelope keeps BENCH_*.json records small
/// while preserving the spikes a plain stride-decimation would drop.
/// Deterministic in the input.
inline std::vector<stats::TimeSeries> downsampleEnvelope(
    const std::string& prefix,
    const std::vector<std::pair<double, double>>& samples,
    std::size_t targetPoints = 256) {
  std::vector<stats::TimeSeries> envelope;
  envelope.emplace_back(prefix + "_min");
  envelope.emplace_back(prefix + "_mean");
  envelope.emplace_back(prefix + "_max");
  if (samples.empty()) return envelope;
  if (targetPoints == 0) targetPoints = 1;
  const std::size_t bucketSize =
      (samples.size() + targetPoints - 1) / targetPoints;
  for (std::size_t begin = 0; begin < samples.size(); begin += bucketSize) {
    const std::size_t end = std::min(begin + bucketSize, samples.size());
    double lo = samples[begin].second;
    double hi = samples[begin].second;
    double valueSum = 0.0;
    double timeSum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, samples[i].second);
      hi = std::max(hi, samples[i].second);
      valueSum += samples[i].second;
      timeSum += samples[i].first;
    }
    const double count = static_cast<double>(end - begin);
    envelope[0].add(timeSum / count, lo);
    envelope[1].add(timeSum / count, valueSum / count);
    envelope[2].add(timeSum / count, hi);
  }
  return envelope;
}

/// Artifact directory: bench_out/ by default, ECGRID_BENCH_OUT overrides.
/// CI smoke runs point this at a scratch directory so regenerated output
/// never collides with the committed BENCH_*.json reference records —
/// refreshing those is a deliberate local run into the default dir.
inline std::string outputDir() {
  const char* env = std::getenv("ECGRID_BENCH_OUT");
  std::filesystem::path dir =
      (env != nullptr && *env != '\0') ? env : "bench_out";
  std::filesystem::create_directories(dir);
  return dir.string();
}

inline void writeSeries(const std::string& figure,
                        const std::vector<stats::TimeSeries>& series) {
  std::string path = outputDir() + "/" + figure + ".csv";
  stats::writeCsv(path, series);
  std::printf("  [csv] %s\n", path.c_str());
}

/// Print one time series row-sampled at fixed instants.
inline void printSampled(const char* label, const stats::TimeSeries& series,
                         const std::vector<double>& sampleTimes) {
  std::printf("  %-22s", label);
  for (double t : sampleTimes) {
    std::printf(" %6.3f", series.valueAt(t));
  }
  std::printf("\n");
}

inline void printHeaderTimes(const char* what,
                             const std::vector<double>& sampleTimes) {
  std::printf("  %-22s", what);
  for (double t : sampleTimes) std::printf(" %6.0f", t);
  std::printf("\n");
}

/// Machine-readable perf record, written as bench_out/BENCH_<figure>.json:
/// {
///   "figure": "...", "quick": bool, "jobs": N, "runs": N,
///   "wall_seconds": s, "events_executed": N, "events_per_second": x,
///   "frames_transmitted": N, "frames_per_second": x,
///   "metrics": {"name": value, ...},
///   "series": {"label": {"t": [...], "v": [...]}, ...},
///   "scenarios": {"label": {"metric": value, ...}, ...}
/// }
/// Values are plain doubles/integers; names are [A-Za-z0-9_.-] so no JSON
/// escaping is needed. CI and the perf trajectory tooling diff these.
class BenchReport {
 public:
  explicit BenchReport(std::string figure) : figure_(std::move(figure)) {}

  /// Fold one finished run into the aggregate throughput counters.
  void addRun(const harness::ScenarioResult& result) {
    ++runs_;
    eventsExecuted_ += result.eventsExecuted;
    framesTransmitted_ += result.framesTransmitted;
  }
  void addRuns(const std::vector<harness::ScenarioResult>& results) {
    for (const harness::ScenarioResult& r : results) addRun(r);
  }

  /// Scalar headline metric (e.g. "grid_ecgrid_aen_ratio_t500").
  void addMetric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  /// A plotted series, stored as parallel t/v arrays.
  void addSeries(const stats::TimeSeries& series) {
    series_.push_back(series);
  }
  void addSeries(const std::vector<stats::TimeSeries>& series) {
    for (const stats::TimeSeries& s : series) series_.push_back(s);
  }

  /// One run's full MetricsRegistry snapshot (harness::ScenarioResult::
  /// metrics), keyed by a scenario label. Counter/histogram values are
  /// deterministic per (config, seed); profile.* wall-clock entries appear
  /// only when that run enabled the simulator profiler.
  void addScenarioMetrics(const std::string& label,
                          const obs::MetricsSnapshot& snapshot) {
    scenarios_.emplace_back(label, snapshot);
  }

  /// Write BENCH_<figure>.json and print its path. Call once, last.
  void write(double wallSeconds) const {
    std::string path = outputDir() + "/BENCH_" + figure_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"figure\": \"%s\",\n", figure_.c_str());
    std::fprintf(out, "  \"quick\": %s,\n", quickMode() ? "true" : "false");
    std::fprintf(out, "  \"jobs\": %u,\n", benchJobs());
    std::fprintf(out, "  \"runs\": %llu,\n",
                 static_cast<unsigned long long>(runs_));
    std::fprintf(out, "  \"wall_seconds\": %.3f,\n", wallSeconds);
    std::fprintf(out, "  \"events_executed\": %llu,\n",
                 static_cast<unsigned long long>(eventsExecuted_));
    std::fprintf(out, "  \"events_per_second\": %.1f,\n",
                 wallSeconds > 0.0 ? eventsExecuted_ / wallSeconds : 0.0);
    std::fprintf(out, "  \"frames_transmitted\": %llu,\n",
                 static_cast<unsigned long long>(framesTransmitted_));
    std::fprintf(out, "  \"frames_per_second\": %.1f,\n",
                 wallSeconds > 0.0 ? framesTransmitted_ / wallSeconds : 0.0);
    std::fprintf(out, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                   metrics_[i].first.c_str(), metrics_[i].second);
    }
    std::fprintf(out, "%s},\n", metrics_.empty() ? "" : "\n  ");
    std::fprintf(out, "  \"series\": {");
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const stats::TimeSeries& s = series_[i];
      std::fprintf(out, "%s\n    \"%s\": {\"t\": [", i == 0 ? "" : ",",
                   s.label().c_str());
      for (std::size_t j = 0; j < s.points().size(); ++j) {
        std::fprintf(out, "%s%.17g", j == 0 ? "" : ", ", s.points()[j].first);
      }
      std::fprintf(out, "], \"v\": [");
      for (std::size_t j = 0; j < s.points().size(); ++j) {
        std::fprintf(out, "%s%.17g", j == 0 ? "" : ", ", s.points()[j].second);
      }
      std::fprintf(out, "]}");
    }
    std::fprintf(out, "%s},\n", series_.empty() ? "" : "\n  ");
    std::fprintf(out, "  \"scenarios\": {");
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": {", i == 0 ? "" : ",",
                   scenarios_[i].first.c_str());
      std::size_t j = 0;
      for (const auto& [name, value] : scenarios_[i].second) {
        std::fprintf(out, "%s\n      \"%s\": %.17g", j++ == 0 ? "" : ",",
                     name.c_str(), value);
      }
      std::fprintf(out, "%s}", scenarios_[i].second.empty() ? "" : "\n    ");
    }
    std::fprintf(out, "%s}\n}\n", scenarios_.empty() ? "" : "\n  ");
    std::fclose(out);
    std::printf("  [json] %s (%.2fs wall, %u job(s), %llu events)\n",
                path.c_str(), wallSeconds, benchJobs(),
                static_cast<unsigned long long>(eventsExecuted_));
  }

 private:
  std::string figure_;
  std::uint64_t runs_ = 0;
  std::uint64_t eventsExecuted_ = 0;
  std::uint64_t framesTransmitted_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<stats::TimeSeries> series_;
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> scenarios_;
};

}  // namespace ecgrid::bench
