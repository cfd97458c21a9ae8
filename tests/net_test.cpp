// Tests for the node/network layer: per-host stack wiring, death
// handling, paging plumbing, and network-level queries.
#include <gtest/gtest.h>

#include "protocols/flooding/flooding_protocol.hpp"
#include "test_net.hpp"

namespace ecgrid::test {
namespace {

TEST(Network, RejectsDuplicateIds) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  EXPECT_THROW(net.addStatic(1, {150.0, 50.0}), std::invalid_argument);
}

TEST(Network, FindNodeAndCounts) {
  TestNet net;
  net.addStatic(3, {50.0, 50.0});
  net.addStatic(7, {150.0, 50.0});
  EXPECT_EQ(net.network.nodeCount(), 2u);
  ASSERT_NE(net.network.findNode(7), nullptr);
  EXPECT_EQ(net.network.findNode(7)->id(), 7);
  EXPECT_EQ(net.network.findNode(99), nullptr);
  EXPECT_EQ(net.network.aliveCount(), 2u);
}

TEST(Network, FindNodeIndexesArbitraryIds) {
  TestNet net;
  // Non-contiguous ids, added out of order.
  net::Node& far = net.addStatic(1000000, {50.0, 50.0});
  net::Node& three = net.addStatic(3, {150.0, 50.0});
  net::Node& zero = net.addStatic(0, {250.0, 50.0});
  EXPECT_EQ(net.network.findNode(1000000), &far);
  EXPECT_EQ(net.network.findNode(3), &three);
  EXPECT_EQ(net.network.findNode(0), &zero);
  // Absent ids: the broadcast id, negatives, and neighbours of real ones.
  for (net::NodeId absent :
       {net::kBroadcastId, -7, 1, 2, 4, 999999, 1000001}) {
    EXPECT_EQ(net.network.findNode(absent), nullptr) << absent;
  }
  // Hosts cannot take negative ids; a rejected host leaves no trace.
  EXPECT_THROW(net.addStatic(-7, {350.0, 50.0}), std::invalid_argument);
  EXPECT_EQ(net.network.findNode(-7), nullptr);
  // The duplicate check uses the same index, however large the id.
  EXPECT_THROW(net.addStatic(1000000, {350.0, 50.0}), std::invalid_argument);
  EXPECT_THROW(net.addStatic(0, {350.0, 50.0}), std::invalid_argument);
  EXPECT_EQ(net.network.findNode(1000000), &far);
  // Population order is insertion order, independent of the index.
  ASSERT_EQ(net.network.nodeCount(), 3u);
  EXPECT_EQ(&net.network.node(0), &far);
  EXPECT_EQ(&net.network.node(2), &zero);
  net::Node& later = net.addStatic(4, {350.0, 50.0});
  EXPECT_EQ(net.network.findNode(4), &later);
}

TEST(RoutingProtocol, FamilyTagReachesFamilyState) {
  TestNet net;
  net::Node& grid = net.addStatic(1, {50.0, 50.0});
  net::Node& ecgrid = net.addStatic(2, {150.0, 50.0});
  net::Node& gaf = net.addStatic(3, {250.0, 50.0});
  net::Node& flooding = net.addStatic(4, {350.0, 50.0});
  net.installGrid(grid);
  net.installEcgrid(ecgrid);
  net.installGaf(gaf);
  flooding.setProtocol(std::make_unique<protocols::FloodingProtocol>(
      flooding, protocols::FloodingConfig{}));

  EXPECT_EQ(grid.protocol().family(), net::ProtocolFamily::kGrid);
  EXPECT_EQ(ecgrid.protocol().family(), net::ProtocolFamily::kGrid);
  EXPECT_EQ(gaf.protocol().family(), net::ProtocolFamily::kGaf);
  EXPECT_EQ(flooding.protocol().family(), net::ProtocolFamily::kOther);

  EXPECT_EQ(protocols::GridProtocolBase::of(grid.protocol()),
            dynamic_cast<protocols::GridProtocolBase*>(&grid.protocol()));
  EXPECT_EQ(protocols::GridProtocolBase::of(ecgrid.protocol()),
            dynamic_cast<protocols::GridProtocolBase*>(&ecgrid.protocol()));
  EXPECT_EQ(protocols::GafProtocol::of(gaf.protocol()),
            dynamic_cast<protocols::GafProtocol*>(&gaf.protocol()));
  EXPECT_NE(protocols::GridProtocolBase::of(ecgrid.protocol()), nullptr);
  EXPECT_NE(protocols::GafProtocol::of(gaf.protocol()), nullptr);

  EXPECT_EQ(protocols::GridProtocolBase::of(gaf.protocol()), nullptr);
  EXPECT_EQ(protocols::GafProtocol::of(grid.protocol()), nullptr);
  EXPECT_EQ(protocols::GridProtocolBase::of(flooding.protocol()), nullptr);
  EXPECT_EQ(protocols::GafProtocol::of(flooding.protocol()), nullptr);
}

TEST(Node, ExposesGpsView) {
  TestNet net;
  net::Node& node = net.addStatic(1, {250.0, 420.0});
  net.installGrid(node);
  EXPECT_EQ(node.position(), (geo::Vec2{250.0, 420.0}));
  EXPECT_EQ(node.velocity(), (geo::Vec2{}));
  EXPECT_EQ(node.cell(), (geo::GridCoord{2, 4}));
  EXPECT_GE(node.nextPossibleCellExit(), sim::kTimeNever);
}

TEST(Node, StartRequiresProtocol) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  EXPECT_THROW(net.network.start(), std::logic_error);
}

TEST(Node, DeathCallbackFiresOnceWithTime) {
  TestNet net;
  net::Node& node = net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/8.63);
  net.installGrid(node);
  int deaths = 0;
  sim::Time when = -1.0;
  node.setDeathCallback([&](net::NodeId id, sim::Time t) {
    EXPECT_EQ(id, 1);
    when = t;
    ++deaths;
  });
  net.network.start();
  net.simulator.run(60.0);
  EXPECT_EQ(deaths, 1);
  // 8.63 J at ≥0.863 W (idle, plus beacon transmissions) ⇒ ≤ 10 s.
  EXPECT_GT(when, 5.0);
  EXPECT_LE(when, 10.0);
  EXPECT_FALSE(node.alive());
  EXPECT_EQ(net.network.aliveCount(), 0u);
}

TEST(Node, DeadNodesDropAppTraffic) {
  TestNet net;
  net::Node& dying = net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/5.0);
  net::Node& peer = net.addStatic(2, {80.0, 50.0});
  net.installGridEverywhere();
  int delivered = 0;
  peer.setAppReceiveCallback(
      [&](net::NodeId, const net::DataTag&, int) { ++delivered; });
  net.network.start();
  net.simulator.run(30.0);
  ASSERT_FALSE(dying.alive());
  dying.sendFromApp(2, 64, {});
  net.simulator.run(35.0);
  EXPECT_EQ(delivered, 0);
}

TEST(Node, SleepRadioClearsMacQueue) {
  TestNet net;
  net::Node& node = net.addStatic(1, {50.0, 50.0});
  net.installGrid(node);
  net.network.start();
  // Queue a few frames, then sleep before they can all leave.
  for (int i = 0; i < 4; ++i) {
    net::Packet frame;
    frame.macSrc = 1;
    frame.macDst = 42;
    frame.header = std::make_shared<protocols::LeaveHeader>(
        1, geo::GridCoord{0, 0});
    node.link().send(frame);
  }
  node.sleepRadio();
  EXPECT_EQ(node.link().queueDepth(), 0u);
  EXPECT_TRUE(node.radioSleeping());
  node.wakeRadio();
  EXPECT_FALSE(node.radioSleeping());
}

TEST(Node, PagingWakesSleepingRadioBeforeProtocolSeesIt) {
  TestNet net;
  net::Node& pager = net.addStatic(1, {50.0, 50.0});
  net::Node& target = net.addStatic(2, {80.0, 50.0});
  net.installGridEverywhere();  // GRID ignores pages, but the radio wakes
  net.network.start();
  target.sleepRadio();
  ASSERT_TRUE(target.radioSleeping());
  pager.pageHost(2);
  net.simulator.run(1.0);
  EXPECT_FALSE(target.radioSleeping());
}

TEST(Node, GridPageOnlyWakesThatGrid) {
  TestNet net;
  net::Node& pager = net.addStatic(1, {50.0, 50.0});
  net::Node& sameGrid = net.addStatic(2, {80.0, 50.0});
  net::Node& otherGrid = net.addStatic(3, {150.0, 50.0});
  net.installGridEverywhere();
  net.network.start();
  sameGrid.sleepRadio();
  otherGrid.sleepRadio();
  pager.pageGrid({0, 0});
  net.simulator.run(1.0);
  EXPECT_FALSE(sameGrid.radioSleeping());
  EXPECT_TRUE(otherGrid.radioSleeping());
}

TEST(Node, BatteryLevelPassthrough) {
  TestNet net;
  net::Node& node = net.addStatic(1, {50.0, 50.0});
  net.installGrid(node);
  EXPECT_EQ(node.batteryLevel(), energy::BatteryLevel::kUpper);
  node.batteryRef().drain(300.0, 0.0);  // 40 % left
  EXPECT_EQ(node.batteryLevel(), energy::BatteryLevel::kBoundary);
  EXPECT_NEAR(node.batteryRatio(), 0.4, 1e-9);
}

TEST(Node, DeadNodeStopsHearingFrames) {
  TestNet net;
  net::Node& dying = net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/5.0);
  net::Node& talker = net.addStatic(2, {80.0, 50.0});
  net.installGridEverywhere();
  net.network.start();
  net.simulator.run(30.0);
  ASSERT_FALSE(dying.alive());
  std::uint64_t framesBefore = net.network.channel().deliveriesScheduled();
  net::Packet frame;
  frame.macSrc = 2;
  frame.macDst = 1;
  frame.header =
      std::make_shared<protocols::LeaveHeader>(2, geo::GridCoord{0, 0});
  talker.link().send(frame);
  net.simulator.run(35.0);
  // The dead node is detached from the channel: no delivery was even
  // scheduled toward it.
  EXPECT_EQ(net.network.channel().deliveriesScheduled(), framesBefore);
}

}  // namespace
}  // namespace ecgrid::test
