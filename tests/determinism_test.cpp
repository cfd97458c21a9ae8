// Determinism-analysis layer (ISSUE 4): event-queue tie-break
// perturbation, state digests, and harness::checkDeterminism.
//
// The headline guarantees under test:
//   * replay — the same ScenarioConfig produces the same digest trace;
//   * tie-order stability — randomising the tie-break among equal-time
//     events leaves the final state digest unchanged for every shipped
//     protocol (the simulator's data-race check);
//   * sensitivity — an injected unordered-iteration order dependence IS
//     caught by the perturbation mode, so a green check means something.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "check/determinism.hpp"
#include "harness/determinism.hpp"
#include "harness/scenario.hpp"
#include "sim/simulator.hpp"

namespace ecgrid {
namespace {

// ---------------------------------------------------------------------------
// EventQueue tie-break perturbation semantics
// ---------------------------------------------------------------------------

/// Run `count` events all scheduled at the same instant and return the
/// order their ids executed in.
std::vector<int> sameTimeExecutionOrder(bool perturb, std::uint64_t seed) {
  sim::Simulator simulator(seed);
  if (perturb) simulator.perturbTieBreaks();
  std::vector<int> order;
  constexpr int kCount = 32;
  for (int i = 0; i < kCount; ++i) {
    simulator.schedule(1.0, [i, &order] { order.push_back(i); });
  }
  simulator.run();
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kCount));
  return order;
}

TEST(TieBreakPerturbation, DisabledModeRunsTiesInInsertionOrder) {
  std::vector<int> order = sameTimeExecutionOrder(false, 1);
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(TieBreakPerturbation, PerturbedModeShufflesSameTimeEvents) {
  std::vector<int> insertion = sameTimeExecutionOrder(false, 1);
  std::vector<int> shuffled = sameTimeExecutionOrder(true, 1);
  // Same event set…
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, insertion);
  // …in a different order (P[identity shuffle] = 1/32! ≈ 0).
  EXPECT_NE(shuffled, insertion);
}

TEST(TieBreakPerturbation, PerturbedRunIsItselfReproducible) {
  EXPECT_EQ(sameTimeExecutionOrder(true, 9), sameTimeExecutionOrder(true, 9));
  // A different master seed shuffles differently.
  EXPECT_NE(sameTimeExecutionOrder(true, 9), sameTimeExecutionOrder(true, 10));
}

TEST(TieBreakPerturbation, TimeOrderStillDominatesTieKeys) {
  sim::Simulator simulator(3);
  simulator.perturbTieBreaks();
  std::vector<int> order;
  // Interleave three distinct times; only same-time pairs may reorder.
  for (int i = 0; i < 30; ++i) {
    const double when = 1.0 + static_cast<double>(i % 3);
    simulator.schedule(when, [i, &order] { order.push_back(i); });
  }
  simulator.run();
  ASSERT_EQ(order.size(), 30u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_LE(order[k - 1] % 3, order[k] % 3) << "time ordering violated";
  }
}

TEST(TieBreakPerturbation, CancellationStillWorksWhilePerturbed) {
  sim::Simulator simulator(4);
  simulator.perturbTieBreaks();
  int fired = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(16);
  for (int i = 0; i < 16; ++i) {
    handles.push_back(simulator.schedule(1.0, [&fired] { ++fired; }));
  }
  for (int i = 0; i < 16; i += 2) handles[i].cancel();
  simulator.run();
  EXPECT_EQ(fired, 8);
}

// ---------------------------------------------------------------------------
// Sensitivity: an injected order dependence must be caught
// ---------------------------------------------------------------------------

/// Worst-case hash: every key lands in one bucket, so the container's
/// iteration order is its insertion order reversed — exactly the
/// hash-order leakage ecgrid_lint's unordered-iteration rule exists to
/// keep out of event-scheduling code.
struct CollidingHash {
  std::size_t operator()(int) const { return 0; }
};

/// Deliberately order-dependent component: same-instant events insert
/// into an unordered container and the "result" is a fold over its
/// iteration order. Returns the digest of that fold.
// ecgrid-lint fixtures live in tests/lint/; this inline injection is the
// runtime counterpart the perturbation harness must flag.
std::uint64_t orderDependentDigest(bool perturb) {
  sim::Simulator simulator(11);
  if (perturb) simulator.perturbTieBreaks();
  std::unordered_map<int, int, CollidingHash> sightings;
  for (int i = 0; i < 24; ++i) {
    simulator.schedule(5.0, [i, &sightings] {
      sightings.emplace(i, i);  // insertion order == execution order
    });
  }
  simulator.run();
  check::Fnv1a h;
  // The order dependence below is this test's entire point.
  // ecgrid-lint: allow(unordered-iteration)
  for (const auto& [id, value] : sightings) {  // hash-order iteration
    h.mixI64(id);
    h.mixI64(value);
  }
  return h.value();
}

TEST(TieBreakPerturbation, CatchesInjectedUnorderedIterationDependence) {
  const std::uint64_t reference = orderDependentDigest(false);
  // Replay of the unperturbed run is still exact…
  EXPECT_EQ(reference, orderDependentDigest(false));
  // …but the perturbed tie order changes the insertion order and with it
  // the hash-order fold: the divergence the harness exists to detect.
  EXPECT_NE(reference, orderDependentDigest(true));
}

// ---------------------------------------------------------------------------
// Fnv1a: the zero-byte fold against a byte-at-a-time reference
// ---------------------------------------------------------------------------

/// Plain FNV-1a-64 over each value's bytes in memory, one xor-multiply per
/// byte: the definition Fnv1a's folded mixU64 must reproduce exactly.
class ReferenceFnv1a {
 public:
  std::uint64_t value() const { return hash_; }
  void mixBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void mixU64(std::uint64_t v) { mixBytes(&v, sizeof(v)); }
  void mixI64(std::int64_t v) { mixU64(static_cast<std::uint64_t>(v)); }
  void mixBool(bool v) { mixU64(v ? 1 : 0); }
  void mixDouble(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mixU64(bits);
  }
  void mixString(std::string_view s) {
    mixU64(s.size());
    mixBytes(s.data(), s.size());
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// splitmix64: a fixed, seedable word stream for the differential test.
std::uint64_t nextWord(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Every word of every significant-byte width 0..8: the boundaries
/// (0, 1, 255, 256, …, 2^56 - 1, 2^56, ~0), words with zero bytes inside
/// their significant span, and random words of each width.
std::vector<std::uint64_t> wordsOfEveryWidth() {
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      255,
                                      256,
                                      0xffff,
                                      0x10000,
                                      (1ull << 56) - 1,
                                      1ull << 56,
                                      ~0ull,
                                      0x0100000000000001ull,
                                      0x00ff0000ff000000ull};
  for (int width = 1; width <= 8; ++width) {
    words.push_back(width == 8 ? ~0ull : (1ull << (8 * width)) - 1);
    words.push_back(1ull << (8 * (width - 1)));
  }
  std::uint64_t state = 2003;
  for (int width = 1; width <= 8; ++width) {
    const std::uint64_t mask = width == 8 ? ~0ull : (1ull << (8 * width)) - 1;
    for (int i = 0; i < 200; ++i) {
      std::uint64_t word = nextWord(state) & mask;
      word |= 1ull << (8 * (width - 1));  // top byte of the width non-zero
      words.push_back(word);
    }
  }
  return words;
}

TEST(Fnv1a, ReferenceMatchesPublishedVectors) {
  ReferenceFnv1a empty;
  EXPECT_EQ(empty.value(), 0xcbf29ce484222325ull);
  ReferenceFnv1a a;
  a.mixBytes("a", 1);
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
  ReferenceFnv1a foobar;
  foobar.mixBytes("foobar", 6);
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);
}

TEST(Fnv1a, FoldedWordsMatchByteAtATimeHashing) {
  const std::vector<std::uint64_t> words = wordsOfEveryWidth();
  // Each word alone, from the offset basis…
  for (std::uint64_t word : words) {
    check::Fnv1a folded;
    ReferenceFnv1a reference;
    folded.mixU64(word);
    reference.mixU64(word);
    ASSERT_EQ(folded.value(), reference.value()) << std::hex << word;
  }
  // …and all of them chained, so each fold starts from an arbitrary state.
  check::Fnv1a folded;
  ReferenceFnv1a reference;
  for (std::uint64_t word : words) {
    folded.mixU64(word);
    reference.mixU64(word);
    ASSERT_EQ(folded.value(), reference.value()) << std::hex << word;
    folded.mixI64(-static_cast<std::int64_t>(word & 0xffff));
    reference.mixI64(-static_cast<std::int64_t>(word & 0xffff));
    ASSERT_EQ(folded.value(), reference.value()) << std::hex << word;
  }
  folded.mixI64(std::numeric_limits<std::int64_t>::min());
  reference.mixI64(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(folded.value(), reference.value());
}

TEST(Fnv1a, FoldedDoublesBoolsAndStringsMatchByteAtATimeHashing) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> doubles = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      1e-300,
      123.456,
      Limits::denorm_min(),
      -Limits::denorm_min(),
      Limits::min() - Limits::denorm_min(),  // largest denormal
      Limits::min(),
      Limits::max(),
      Limits::infinity(),
      -Limits::infinity(),
      Limits::quiet_NaN(),
      -Limits::quiet_NaN(),
      Limits::signaling_NaN(),
      std::bit_cast<double>(0x7ff0000000000001ull),  // NaN, low payload
      std::bit_cast<double>(0x7ff8dead0000beefull),  // NaN, mixed payload
  };
  const std::vector<std::string_view> strings = {
      std::string_view(),
      std::string_view("GRID"),
      std::string_view("\0", 1),
      std::string_view("\0\0\0", 3),
      std::string_view("EC\0GRID\0", 8),
      std::string_view("\0GAF", 4),
  };

  check::Fnv1a folded;
  ReferenceFnv1a reference;
  for (double value : doubles) {
    folded.mixDouble(value);
    reference.mixDouble(value);
    ASSERT_EQ(folded.value(), reference.value())
        << std::hex << std::bit_cast<std::uint64_t>(value);
  }
  for (bool value : {false, true, true, false}) {
    folded.mixBool(value);
    reference.mixBool(value);
    ASSERT_EQ(folded.value(), reference.value()) << value;
  }
  for (std::string_view value : strings) {
    folded.mixString(value);
    reference.mixString(value);
    ASSERT_EQ(folded.value(), reference.value()) << value.size();
  }
  // An embedded zero byte is content, not padding: it changes the hash.
  check::Fnv1a withZero;
  withZero.mixString(std::string_view("ab\0", 3));
  check::Fnv1a withoutZero;
  withoutZero.mixString(std::string_view("ab", 2));
  EXPECT_NE(withZero.value(), withoutZero.value());
}

// ---------------------------------------------------------------------------
// Full-scenario replay + tie-order checks (GRID / ECGRID / GAF / faulted)
// ---------------------------------------------------------------------------

harness::ScenarioConfig checkBase() {
  harness::ScenarioConfig config;
  // Horizon-capped like the CI bench smokes: checkDeterminism runs the
  // scenario three times.
  config.hostCount = 30;
  config.flowCount = 2;
  config.packetsPerSecondPerFlow = 4.0;
  config.duration = 60.0;
  config.seed = 21;
  config.digestEveryEvents = 1000;
  return config;
}

class DeterminismCheck
    : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(DeterminismCheck, ReplayAndTieOrderStable) {
  harness::ScenarioConfig config = checkBase();
  config.protocol = GetParam();
  harness::DeterminismReport report = harness::checkDeterminism(config);
  EXPECT_TRUE(report.replayIdentical) << report.divergence;
  EXPECT_TRUE(report.tieOrderStable) << report.divergence;
  EXPECT_TRUE(report.passed());
  EXPECT_GT(report.samplesCompared, 10u);
  EXPECT_TRUE(report.divergence.empty()) << report.divergence;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DeterminismCheck,
                         ::testing::Values(harness::ProtocolKind::kGrid,
                                           harness::ProtocolKind::kEcgrid,
                                           harness::ProtocolKind::kGaf));

TEST(DeterminismCheckFaulted, ReplayAndTieOrderStableUnderFaults) {
  harness::ScenarioConfig config = checkBase();
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.fault.channel.kind = fault::ChannelErrorKind::kIid;
  config.fault.channel.lossProbability = 0.05;
  config.fault.hosts.crashes.push_back({4, 10.0, 30.0});
  config.fault.paging.lossProbability = 0.05;
  harness::DeterminismReport report = harness::checkDeterminism(config);
  EXPECT_TRUE(report.passed()) << report.divergence;
}

TEST(DeterminismCheck, RejectsPrePerturbedConfig) {
  harness::ScenarioConfig config = checkBase();
  config.perturbTieBreak = true;
  EXPECT_THROW(harness::checkDeterminism(config), std::invalid_argument);
}

TEST(DeterminismCheck, DigestTraceIsOffByDefault) {
  harness::ScenarioConfig config = checkBase();
  config.digestEveryEvents = 0;
  config.duration = 10.0;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_TRUE(result.digestTrace.empty());
}

TEST(DeterminismCheck, DigestTraceEndsWithClosingSample) {
  harness::ScenarioConfig config = checkBase();
  config.duration = 10.0;
  harness::ScenarioResult result = harness::runScenario(config);
  ASSERT_FALSE(result.digestTrace.empty());
  EXPECT_EQ(result.digestTrace.back().eventsExecuted, result.eventsExecuted);
  EXPECT_DOUBLE_EQ(result.digestTrace.back().at, config.duration);
}

// An inert digest hook must not change the simulation itself: the run's
// observable results are identical with and without sampling. (The
// digest is a pure observer — batteries are peeked, not advanced, so
// sampling leaves no floating-point trace in the run.)
TEST(DeterminismCheck, DigestSamplingDoesNotPerturbTheRun) {
  harness::ScenarioConfig config = checkBase();
  config.duration = 30.0;
  config.digestEveryEvents = 0;
  harness::ScenarioResult plain = harness::runScenario(config);
  config.digestEveryEvents = 500;
  harness::ScenarioResult sampled = harness::runScenario(config);
  EXPECT_EQ(plain.eventsExecuted, sampled.eventsExecuted);
  EXPECT_EQ(plain.packetsReceived, sampled.packetsReceived);
  EXPECT_EQ(plain.framesTransmitted, sampled.framesTransmitted);
  EXPECT_EQ(plain.macFramesSent, sampled.macFramesSent);
}

}  // namespace
}  // namespace ecgrid
