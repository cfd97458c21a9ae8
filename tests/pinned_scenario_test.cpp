// Whole-scenario pins: the final state digest, executed-event count and
// received-packet count of short GRID/ECGRID/GAF runs, recorded once and
// compared exactly.
//
// The event engine and the PHY may be restructured for speed (how events
// are stored, batched or re-timed), but the executed event stream must
// not change: every event keeps its time, sequence number and tie-break
// draw. These pins catch any drift in that stream. The variants reach the
// PHY paths such a restructuring touches:
//   * spatial-index and brute-force channel fan-out;
//   * an interference ring (phy/interference arrivals);
//   * i.i.d. channel corruption (the delivery-fault slot);
//   * Poisson crash/restart (powerDown aborts receptions in flight, so
//     pending reception ends are cancelled);
//   * tie-break perturbation (random tie keys on every event).
// Audits stay off: they observe, and the pins record the unaudited run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/scenario.hpp"

namespace ecgrid {
namespace {

enum class Variant { kSpatial, kBrute, kInterference, kIidLoss, kCrash, kTies };

const char* variantName(Variant variant) {
  switch (variant) {
    case Variant::kSpatial:
      return "spatial";
    case Variant::kBrute:
      return "brute";
    case Variant::kInterference:
      return "interference";
    case Variant::kIidLoss:
      return "iid_loss";
    case Variant::kCrash:
      return "crash";
    case Variant::kTies:
      return "ties";
  }
  return "?";
}

harness::ScenarioConfig pinnedConfig(harness::ProtocolKind protocol,
                                     Variant variant) {
  harness::ScenarioConfig config;
  config.protocol = protocol;
  config.hostCount = 100;
  config.maxSpeed = 10.0;
  config.flowCount = 4;
  config.packetsPerSecondPerFlow = 4.0;
  config.duration = 8.0;
  config.sampleInterval = 1.0;
  config.seed = 7;
  config.digestEveryEvents = 5000;
  switch (variant) {
    case Variant::kSpatial:
      break;
    case Variant::kBrute:
      config.channelSpatialIndex = false;
      break;
    case Variant::kInterference:
      config.interferenceRangeFactor = 2.0;
      break;
    case Variant::kIidLoss:
      config.fault.channel.kind = fault::ChannelErrorKind::kIid;
      config.fault.channel.lossProbability = 0.05;
      break;
    case Variant::kCrash:
      config.fault.hosts.crashRatePerHostPerSecond = 0.05;
      config.fault.hosts.meanDowntimeSeconds = 1.0;
      break;
    case Variant::kTies:
      config.perturbTieBreak = true;
      break;
  }
  return config;
}

struct Pin {
  harness::ProtocolKind protocol;
  Variant variant;
  std::uint64_t finalDigest;
  std::uint64_t eventsExecuted;
  std::uint64_t packetsReceived;
};

constexpr harness::ProtocolKind kGrid = harness::ProtocolKind::kGrid;
constexpr harness::ProtocolKind kEcgrid = harness::ProtocolKind::kEcgrid;
constexpr harness::ProtocolKind kGaf = harness::ProtocolKind::kGaf;

// Recorded from the per-receiver event engine (one heap entry per
// phy/deliver and phy/rx_end, depletion re-armed by cancel + push).
constexpr Pin kPins[] = {
    {kGrid, Variant::kSpatial, 0xa028f0c9d949858ull, 102647, 101},
    {kGrid, Variant::kBrute, 0xa028f0c9d949858ull, 102636, 101},
    {kGrid, Variant::kInterference, 0xdb6c221752854efcull, 275361, 104},
    {kGrid, Variant::kIidLoss, 0xbdec2e8bed35d8deull, 107280, 106},
    {kGrid, Variant::kCrash, 0x5217ceb90bc159adull, 105315, 106},
    {kGrid, Variant::kTies, 0xa028f0c9d949858ull, 102647, 101},
    {kEcgrid, Variant::kSpatial, 0xa8e05d3496c1cda9ull, 98258, 105},
    {kEcgrid, Variant::kBrute, 0xa8e05d3496c1cda9ull, 98247, 105},
    {kEcgrid, Variant::kInterference, 0x8ae781b841a43b3eull, 215804, 106},
    {kEcgrid, Variant::kIidLoss, 0x13407e3f17b57f42ull, 103487, 108},
    {kEcgrid, Variant::kCrash, 0x747d4357c35cd77bull, 93372, 100},
    {kEcgrid, Variant::kTies, 0xa8e05d3496c1cda9ull, 98258, 105},
    {kGaf, Variant::kSpatial, 0xff4662a0c2a7ec72ull, 133795, 66},
    {kGaf, Variant::kBrute, 0xff4662a0c2a7ec72ull, 133784, 66},
    {kGaf, Variant::kInterference, 0xf47717da23871da9ull, 261618, 84},
    {kGaf, Variant::kIidLoss, 0xceca45481ae6ca19ull, 132086, 74},
    {kGaf, Variant::kCrash, 0xa4152ad3d9c01801ull, 101391, 85},
    {kGaf, Variant::kTies, 0xff4662a0c2a7ec72ull, 133795, 66},
};

TEST(PinnedScenario, FinalDigestEventsAndDeliveriesMatchRecordedValues) {
  for (const Pin& pin : kPins) {
    const std::string name = std::string(harness::toString(pin.protocol)) +
                             "/" + variantName(pin.variant);
    SCOPED_TRACE(name);
    const harness::ScenarioResult result =
        harness::runScenario(pinnedConfig(pin.protocol, pin.variant));
    ASSERT_FALSE(result.digestTrace.empty());
    const std::uint64_t digest = result.digestTrace.back().digest;
    EXPECT_EQ(digest, pin.finalDigest) << std::hex << "0x" << digest;
    EXPECT_EQ(result.eventsExecuted, pin.eventsExecuted);
    EXPECT_EQ(result.packetsReceived, pin.packetsReceived);
  }
}

}  // namespace
}  // namespace ecgrid
