// Tests for the PHY layer: radio state machine + energy, unit-disk
// channel, collision semantics, NAV, and the RAS paging channel.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "energy/battery.hpp"
#include "phy/channel.hpp"
#include "phy/paging.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::phy {
namespace {

class StubHeader final : public net::Header {
 public:
  explicit StubHeader(int bytes = 66) : bytes_(bytes) {}
  int bytes() const override { return bytes_; }
  const char* name() const override { return "STUB"; }

 private:
  int bytes_;
};

net::Packet makeFrame(net::NodeId src, net::NodeId dst, int bytes = 66) {
  net::Packet frame;
  frame.macSrc = src;
  frame.macDst = dst;
  frame.header = std::make_shared<StubHeader>(bytes);
  return frame;
}

/// Two-radio rig at a configurable distance.
struct Rig {
  sim::Simulator simulator;
  energy::PowerProfile profile;
  phy::Channel channel{simulator, phy::ChannelConfig{}};
  energy::Battery batteryA{500.0};
  energy::Battery batteryB{500.0};
  Radio a{simulator, batteryA, energy::PowerProfile{}, 0};
  Radio b{simulator, batteryB, energy::PowerProfile{}, 1};

  explicit Rig(double distance = 100.0) {
    a.attachChannel(&channel);
    b.attachChannel(&channel);
    channel.attach(&a, [] { return geo::Vec2{0.0, 0.0}; });
    channel.attach(&b, [distance] { return geo::Vec2{distance, 0.0}; });
  }
};

TEST(Channel, FrameAirtimeIncludesPreamble) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  // 546-byte frame at 2 Mbps: 192 µs preamble + 2184 µs payload.
  EXPECT_NEAR(channel.frameAirtime(546), 192e-6 + 546 * 8 / 2e6, 1e-12);
}

TEST(Radio, DeliversUnicastWithinRange) {
  Rig rig(100.0);
  net::Packet received;
  int count = 0;
  rig.b.setFrameCallback([&](const net::Packet& f) {
    received = f;
    ++count;
  });
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.run(1.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(received.macSrc, 0);
  EXPECT_GT(received.uid, 0u);
}

TEST(Radio, NothingBeyondUnitDisk) {
  Rig rig(251.0);
  int count = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++count; });
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.run(1.0);
  EXPECT_EQ(count, 0);
}

TEST(Radio, BroadcastReachesEveryoneInRange) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery batteries[3] = {energy::Battery(500.0),
                                  energy::Battery(500.0),
                                  energy::Battery(500.0)};
  std::vector<std::unique_ptr<Radio>> radios;
  int received = 0;
  for (int i = 0; i < 3; ++i) {
    radios.push_back(std::make_unique<Radio>(simulator, batteries[i],
                                             energy::PowerProfile{}, i));
    radios.back()->attachChannel(&channel);
    double x = i * 200.0;  // 0, 200 (in range), 400 (also in range of 200)
    channel.attach(radios.back().get(), [x] { return geo::Vec2{x, 0.0}; });
    radios.back()->setFrameCallback([&](const net::Packet&) { ++received; });
  }
  radios[1]->transmit(makeFrame(1, net::kBroadcastId), 1e-3);
  simulator.run(1.0);
  EXPECT_EQ(received, 2);  // both neighbours of the middle radio
}

TEST(Radio, UnicastForOthersIsNotDeliveredUp) {
  Rig rig(100.0);
  int count = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++count; });
  rig.a.transmit(makeFrame(0, 99), 1e-3);  // addressed elsewhere
  rig.simulator.run(1.0);
  EXPECT_EQ(count, 0);
}

TEST(Radio, OverlappingTransmissionsCollide) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery b0(500.0), b1(500.0), b2(500.0);
  Radio left(simulator, b0, energy::PowerProfile{}, 0);
  Radio mid(simulator, b1, energy::PowerProfile{}, 1);
  Radio right(simulator, b2, energy::PowerProfile{}, 2);
  for (Radio* r : {&left, &mid, &right}) r->attachChannel(&channel);
  channel.attach(&left, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&mid, [] { return geo::Vec2{240.0, 0.0}; });
  channel.attach(&right, [] { return geo::Vec2{480.0, 0.0}; });
  // left and right are hidden from each other; both transmit to mid.
  int delivered = 0;
  mid.setFrameCallback([&](const net::Packet&) { ++delivered; });
  left.transmit(makeFrame(0, 1), 2e-3);
  simulator.schedule(0.5e-3, [&] { right.transmit(makeFrame(2, 1), 2e-3); });
  simulator.run(1.0);
  EXPECT_EQ(delivered, 0);  // no capture: both corrupted
  EXPECT_EQ(mid.state(), RadioState::kIdle);
}

TEST(Radio, SequentialTransmissionsBothDecode) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.schedule(2e-3, [&] { rig.a.transmit(makeFrame(0, 1), 1e-3); });
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 2);
}

TEST(Radio, SleepingRadioHearsNothing) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.b.sleep();
  EXPECT_TRUE(rig.b.sleeping());
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 0);
  rig.b.wake();
  EXPECT_EQ(rig.b.state(), RadioState::kIdle);
}

TEST(Radio, SleepDuringTransmissionIsDeferred) {
  Rig rig(100.0);
  rig.a.transmit(makeFrame(0, 1), 2e-3);
  rig.a.sleep();
  EXPECT_EQ(rig.a.state(), RadioState::kTx);  // still finishing
  rig.simulator.run(1.0);
  EXPECT_TRUE(rig.a.sleeping());
}

TEST(Radio, EnergyAccountingTracksStates) {
  Rig rig(100.0);
  // Idle for 1 s, then sleep for 1 s.
  rig.simulator.schedule(1.0, [&] { rig.b.sleep(); });
  rig.simulator.run(2.0);
  double consumed = rig.batteryB.consumedJ(2.0);
  EXPECT_NEAR(consumed, 0.863 + 0.163, 1e-6);
}

TEST(Radio, TransmissionCostsTxPower) {
  Rig rig(100.0);
  rig.a.transmit(makeFrame(0, 1), 0.5);
  rig.simulator.run(1.0);
  // 0.5 s at tx (1.400+GPS) + 0.5 s idle (0.830+GPS)
  EXPECT_NEAR(rig.batteryA.consumedJ(1.0), 0.5 * 1.433 + 0.5 * 0.863, 1e-6);
}

TEST(Radio, DiesExactlyAtDepletion) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery small(0.863);  // exactly 1 s of idle+GPS
  Radio radio(simulator, small, energy::PowerProfile{}, 7);
  radio.attachChannel(&channel);
  channel.attach(&radio, [] { return geo::Vec2{}; });
  sim::Time died = -1.0;
  radio.setDeathCallback([&] { died = simulator.now(); });
  simulator.run(10.0);
  EXPECT_NEAR(died, 1.0, 1e-9);
  EXPECT_TRUE(radio.dead());
  // Dead radios hear nothing and transmit nothing.
  EXPECT_EQ(radio.state(), RadioState::kOff);
}

TEST(Radio, DepletionTimerFollowsPowerChanges) {
  // Sleeping at 0.5 s cuts the draw, so the death first armed for 1.0 s
  // must move later; a stale timer would kill the host early.
  sim::Simulator simulator;
  energy::Battery small(0.863);  // exactly 1 s of idle+GPS
  Radio radio(simulator, small, energy::PowerProfile{}, 7);
  sim::Time died = -1.0;
  radio.setDeathCallback([&] { died = simulator.now(); });
  simulator.schedule(0.5, [&] { radio.sleep(); }, "test/sleep");
  simulator.run(1.5);
  EXPECT_FALSE(radio.dead());
  simulator.run(100.0);
  EXPECT_TRUE(radio.dead());
  EXPECT_GT(died, 1.5);
}

TEST(Radio, MediumIdleAtCoversReceptionsAndNav) {
  Rig rig(100.0);
  rig.b.setNavGuard(400e-6);
  // a sends a unicast addressed to someone else: b overhears and must
  // reserve the ACK gap (NAV).
  rig.a.transmit(makeFrame(0, 99), 1e-3);
  rig.simulator.schedule(0.5e-3, [&] {
    EXPECT_GT(rig.b.mediumIdleAt(), rig.simulator.now());
    // Reception ends at 1 ms (+prop); NAV extends ~400 µs beyond.
    EXPECT_NEAR(rig.b.mediumIdleAt(), 1e-3 + 400e-6, 1e-5);
  });
  rig.simulator.run(1.0);
}

// --- interference ring --------------------------------------------------

TEST(Radio, InterferenceCorruptsOngoingReception) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.a.transmit(makeFrame(0, 1), 2e-3);
  rig.simulator.schedule(0.5e-3, [&] { rig.b.beginInterference(1e-3); });
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 0);
}

TEST(Radio, InterferenceCorruptsLaterArrivalsWhileItLasts) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.b.beginInterference(5e-3);
  rig.simulator.schedule(1e-3, [&] { rig.a.transmit(makeFrame(0, 1), 1e-3); });
  // A second frame after the interference ends decodes fine.
  rig.simulator.schedule(10e-3,
                         [&] { rig.a.transmit(makeFrame(0, 1), 1e-3); });
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 1);
}

TEST(Radio, InterferenceHoldsCarrierSense) {
  Rig rig(100.0);
  rig.b.beginInterference(3e-3);
  EXPECT_GE(rig.b.mediumIdleAt(), 3e-3);
}

TEST(Channel, InterferenceRingReachesPastDecodeRange) {
  sim::Simulator simulator;
  ChannelConfig config;
  config.interferenceRangeMeters = 500.0;
  Channel channel(simulator, config);
  energy::Battery b0(500.0), b1(500.0), b2(500.0);
  Radio tx(simulator, b0, energy::PowerProfile{}, 0);
  Radio nearRx(simulator, b1, energy::PowerProfile{}, 1);
  Radio farRx(simulator, b2, energy::PowerProfile{}, 2);
  for (Radio* r : {&tx, &nearRx, &farRx}) r->attachChannel(&channel);
  channel.attach(&tx, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&nearRx, [] { return geo::Vec2{400.0, 0.0}; });
  channel.attach(&farRx, [] { return geo::Vec2{400.0, 0.0}; });
  // nearRx also has a legitimate sender within decode range.
  energy::Battery b3(500.0);
  Radio legit(simulator, b3, energy::PowerProfile{}, 3);
  legit.attachChannel(&channel);
  channel.attach(&legit, [] { return geo::Vec2{450.0, 0.0}; });

  int delivered = 0;
  nearRx.setFrameCallback([&](const net::Packet&) { ++delivered; });
  // The distant (400 m) transmitter cannot be decoded, but its energy
  // ruins the legitimate 50 m reception that overlaps it.
  tx.transmit(makeFrame(0, net::kBroadcastId), 3e-3);
  simulator.schedule(1e-3, [&] { legit.transmit(makeFrame(3, 1), 1e-3); });
  simulator.run(1.0);
  EXPECT_EQ(delivered, 0);
}

// --- paging -----------------------------------------------------------

struct PagingRig {
  sim::Simulator simulator;
  PagingChannel paging{simulator, PagingConfig{}};
};

TEST(Channel, FrameRecordsReturnToThePool) {
  Rig rig(100.0);
  int received = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++received; });
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  EXPECT_EQ(rig.channel.framePoolSize(), 1u);
  EXPECT_EQ(rig.channel.idleFrames(), 0u);
  // Once the last arrival has run the frame is back, although b's
  // reception (and its end, in the frame's run) is still in flight.
  rig.simulator.run(1e-6);
  EXPECT_EQ(rig.b.state(), RadioState::kRx);
  EXPECT_EQ(rig.channel.idleFrames(), 1u);
  rig.simulator.run(1.0);
  EXPECT_EQ(received, 1);

  // Two frames in flight at once take two records; an aborted reception
  // (b falls asleep mid-frame) cancels its end without holding a frame.
  rig.simulator.schedule(
      0.0,
      [&] {
        rig.a.transmit(makeFrame(0, 1), 1e-3);
        rig.b.transmit(makeFrame(1, 0), 1e-3);
      },
      "test/both");
  rig.simulator.run(rig.simulator.now() + 1e-6);
  EXPECT_EQ(rig.channel.framePoolSize(), 2u);
  rig.simulator.schedule(
      1.0,
      [&] {
        rig.a.transmit(makeFrame(0, 1), 1e-3);
        rig.simulator.schedule(1e-4, [&] { rig.b.sleep(); }, "test/sleep");
      },
      "test/abort");
  rig.simulator.run(rig.simulator.now() + 2.0);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rig.channel.framePoolSize(), 2u);
  EXPECT_EQ(rig.channel.idleFrames(), 2u);
  // Every run retired: only the two radios' depletion timers remain.
  EXPECT_EQ(rig.simulator.queueDepth(), 2u);
}

TEST(Channel, UnheardTransmissionTakesNoFrame) {
  Rig rig(1000.0);
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  EXPECT_EQ(rig.channel.framePoolSize(), 0u);
  rig.simulator.run(1.0);
  EXPECT_EQ(rig.channel.framePoolSize(), 0u);
}

TEST(Paging, WakesTargetHostWithinRange) {
  PagingRig rig;
  int pages = 0;
  net::PageSignal last;
  rig.paging.attach(
      5, [] { return geo::Vec2{100.0, 0.0}; },
      [] { return geo::GridCoord{1, 0}; },
      [&](const net::PageSignal& s) {
        ++pages;
        last = s;
      });
  rig.paging.pageHost(9, {0.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 1);
  EXPECT_EQ(last.kind, net::PageKind::kHost);
  EXPECT_EQ(last.host, 5);
  EXPECT_EQ(last.pagedBy, 9);
}

TEST(Paging, OutOfRangePagesAreLost) {
  PagingRig rig;
  int pages = 0;
  rig.paging.attach(
      5, [] { return geo::Vec2{400.0, 0.0}; },
      [] { return geo::GridCoord{4, 0}; },
      [&](const net::PageSignal&) { ++pages; });
  rig.paging.pageHost(9, {0.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 0);
}

TEST(Paging, GridPageWakesOnlyThatGrid) {
  PagingRig rig;
  int inGrid = 0;
  int outGrid = 0;
  rig.paging.attach(
      1, [] { return geo::Vec2{50.0, 50.0}; },
      [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal& s) {
        EXPECT_EQ(s.kind, net::PageKind::kGrid);
        EXPECT_EQ(s.grid, (geo::GridCoord{0, 0}));
        ++inGrid;
      });
  rig.paging.attach(
      2, [] { return geo::Vec2{150.0, 50.0}; },
      [] { return geo::GridCoord{1, 0}; },
      [&](const net::PageSignal&) { ++outGrid; });
  rig.paging.pageGrid(9, {60.0, 60.0}, {0, 0});
  rig.simulator.run(1.0);
  EXPECT_EQ(inGrid, 1);
  EXPECT_EQ(outGrid, 0);
}

TEST(Paging, PagerDoesNotPageItself) {
  PagingRig rig;
  int pages = 0;
  rig.paging.attach(
      7, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { ++pages; });
  rig.paging.pageGrid(7, {0.0, 0.0}, {0, 0});
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 0);
}

TEST(Paging, DetachedPagersStaySilent) {
  PagingRig rig;
  int pages = 0;
  std::size_t id = rig.paging.attach(
      5, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { ++pages; });
  rig.paging.detach(id);
  rig.paging.pageHost(9, {0.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 0);
}

TEST(Paging, DeliveryHasConfiguredLatency) {
  PagingRig rig;
  sim::Time deliveredAt = -1.0;
  rig.paging.attach(
      5, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { deliveredAt = rig.simulator.now(); });
  rig.paging.pageHost(9, {1.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_DOUBLE_EQ(deliveredAt, rig.paging.config().latencySeconds);
}

}  // namespace
}  // namespace ecgrid::phy
