// White-box unit tests for RoutingEngine against a scripted fake HostEnv:
// no radios, no MAC — every frame the engine emits is captured and frames
// are injected directly, so each rule is tested in isolation.
#include <gtest/gtest.h>

#include <deque>

#include "protocols/common/routing_engine.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::protocols {
namespace {

/// Captures outgoing frames instead of transmitting them.
class FakeLink final : public net::LinkLayer {
 public:
  void send(net::Packet packet) override { sent.push_back(std::move(packet)); }
  void setReceiveCallback(std::function<void(const net::Packet&)>) override {}
  void setSendFailureCallback(
      std::function<void(const net::Packet&)>) override {}
  std::size_t queueDepth() const override { return 0; }
  void clearQueue() override {}

  std::deque<net::Packet> sent;
};

class FakeEnv final : public net::HostEnv {
 public:
  explicit FakeEnv(net::NodeId id) : id_(id), simulator_(99) {}

  sim::Simulator& simulator() override { return simulator_; }
  net::NodeId id() const override { return id_; }
  const geo::GridMap& gridMap() const override { return grid_; }
  geo::Vec2 position() override { return position_; }
  geo::Vec2 velocity() override { return {}; }
  geo::GridCoord cell() override { return grid_.cellOf(position_); }
  sim::Time nextPossibleCellExit() override { return sim::kTimeNever; }
  net::LinkLayer& link() override { return link_; }
  void sleepRadio() override {}
  void wakeRadio() override {}
  bool radioSleeping() const override { return false; }
  void pageHost(net::NodeId) override {}
  void pageGrid(const geo::GridCoord&) override {}
  energy::BatteryLevel batteryLevel() override {
    return energy::BatteryLevel::kUpper;
  }
  double batteryRatio() override { return 1.0; }
  bool alive() const override { return true; }
  void deliverToApp(net::NodeId, const net::DataTag&, int) override {
    ++appDeliveries;
  }

  net::NodeId id_;
  sim::Simulator simulator_;
  geo::GridMap grid_{100.0};
  geo::Vec2 position_{150.0, 50.0};  // cell (1,0)
  FakeLink link_;
  int appDeliveries = 0;
};

/// An engine wired as the router of cell (1,0), knowing the routers of
/// (0,0) and (2,0), with host 77 local.
struct EngineRig {
  FakeEnv env{10};
  RoutingEngine::Hooks hooks;
  RoutingConfig config;
  std::unique_ptr<RoutingEngine> engine;
  bool isRouter = true;
  std::vector<std::pair<geo::GridCoord, net::NodeId>> knownRouters = {
      {{0, 0}, 20}, {{2, 0}, 30}};
  std::vector<net::NodeId> localHosts = {77};
  std::vector<std::pair<net::NodeId, net::Packet>> localDeliveries;

  explicit EngineRig(RoutingConfig cfg = {}) : config(cfg) {
    hooks.isRouter = [this] { return isRouter; };
    hooks.routerOf =
        [this](const geo::GridCoord& g) -> std::optional<net::NodeId> {
      for (auto& [grid, id] : knownRouters) {
        if (grid == g) return id;
      }
      return std::nullopt;
    };
    hooks.hostIsLocal = [this](net::NodeId h) {
      for (net::NodeId local : localHosts) {
        if (local == h) return true;
      }
      return false;
    };
    hooks.deliverLocal = [this](net::NodeId dst, const net::Packet& frame) {
      localDeliveries.emplace_back(dst, frame);
    };
    hooks.locationHint =
        [](net::NodeId) -> std::optional<geo::GridCoord> {
      return geo::GridCoord{4, 0};
    };
    engine = std::make_unique<RoutingEngine>(env, hooks, config);
  }

  net::Packet dataFrame(net::NodeId src, net::NodeId dst) {
    net::Packet frame;
    frame.macSrc = src;
    frame.macDst = env.id();
    frame.header = std::make_shared<DataHeader>(src, dst, 100, net::DataTag{});
    return frame;
  }

  net::Packet rreqFrame(net::NodeId src, net::NodeId dst,
                        geo::GridCoord senderGrid, geo::Vec2 senderPos,
                        std::uint32_t reqId = 1, int hop = 0) {
    net::Packet frame;
    frame.macSrc = 40;
    frame.macDst = net::kBroadcastId;
    frame.header = std::make_shared<RreqHeader>(
        src, 1, dst, 0, reqId, geo::GridRect::everywhere(), senderGrid,
        senderPos, hop);
    return frame;
  }
};

TEST(RoutingEngineUnit, LocalDestinationBypassesRouting) {
  EngineRig rig;
  net::Packet frame = rig.dataFrame(1, 77);
  rig.engine->routeData(frame, *frame.headerAs<DataHeader>());
  ASSERT_EQ(rig.localDeliveries.size(), 1u);
  EXPECT_EQ(rig.localDeliveries[0].first, 77);
  EXPECT_TRUE(rig.env.link_.sent.empty());
}

TEST(RoutingEngineUnit, NoRouteBuffersAndFloodsRreq) {
  EngineRig rig;
  net::Packet frame = rig.dataFrame(1, 99);
  rig.engine->routeData(frame, *frame.headerAs<DataHeader>());
  ASSERT_EQ(rig.env.link_.sent.size(), 1u);
  const auto* rreq = rig.env.link_.sent[0].headerAs<RreqHeader>();
  ASSERT_NE(rreq, nullptr);
  EXPECT_EQ(rreq->destination(), 99);
  EXPECT_EQ(rreq->source(), rig.env.id());
  EXPECT_TRUE(net::isBroadcast(rig.env.link_.sent[0].macDst));
  EXPECT_EQ(rig.engine->stats().discoveriesStarted, 1u);
}

TEST(RoutingEngineUnit, RrepInstallsRouteAndFlushesPending) {
  EngineRig rig;
  net::Packet frame = rig.dataFrame(rig.env.id(), 99);
  rig.engine->routeData(frame, *frame.headerAs<DataHeader>());
  rig.env.link_.sent.clear();

  // RREP arrives from the router of (2,0).
  net::Packet rrep;
  rrep.macSrc = 30;
  rrep.macDst = rig.env.id();
  rrep.header = std::make_shared<RrepHeader>(
      rig.env.id(), 99, 5, geo::GridCoord{4, 0}, geo::GridCoord{2, 0},
      geo::Vec2{250.0, 50.0}, 2);
  EXPECT_TRUE(rig.engine->onFrame(rrep));

  // The pending data left toward (2,0)'s router.
  ASSERT_EQ(rig.env.link_.sent.size(), 1u);
  EXPECT_EQ(rig.env.link_.sent[0].macDst, 30);
  EXPECT_NE(rig.env.link_.sent[0].headerAs<DataHeader>(), nullptr);
  // And the route is installed for the next packet.
  auto route = rig.engine->routes().lookup(99, rig.env.simulator().now());
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->nextGrid, (geo::GridCoord{2, 0}));
  EXPECT_EQ(route->nextHop, 30);
}

TEST(RoutingEngineUnit, RreqForLocalHostAnswersWithRrep) {
  EngineRig rig;
  net::Packet rreq = rig.rreqFrame(5, 77, {0, 0}, {50.0, 50.0});
  rig.engine->onFrame(rreq);
  ASSERT_EQ(rig.env.link_.sent.size(), 1u);
  const auto* rrep = rig.env.link_.sent[0].headerAs<RrepHeader>();
  ASSERT_NE(rrep, nullptr);
  EXPECT_EQ(rrep->destination(), 77);
  EXPECT_EQ(rrep->destGrid(), rig.env.cell());
  // Unicast along the reverse pointer: to the router of (0,0).
  EXPECT_EQ(rig.env.link_.sent[0].macDst, 20);
}

TEST(RoutingEngineUnit, RreqForRemoteHostIsRelayedOnce) {
  EngineRig rig;
  net::Packet rreq = rig.rreqFrame(5, 99, {0, 0}, {50.0, 50.0}, 7);
  rig.engine->onFrame(rreq);
  ASSERT_EQ(rig.env.link_.sent.size(), 1u);
  const auto* relay = rig.env.link_.sent[0].headerAs<RreqHeader>();
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->hopCount(), 1);
  EXPECT_EQ(relay->senderGrid(), rig.env.cell());
  // The duplicate is suppressed.
  net::Packet dup = rig.rreqFrame(5, 99, {2, 0}, {250.0, 50.0}, 7);
  rig.engine->onFrame(dup);
  EXPECT_EQ(rig.env.link_.sent.size(), 1u);
}

TEST(RoutingEngineUnit, EdgeOfDiskRreqIsIgnored) {
  EngineRig rig;
  // The copy claims to come from 260 m away: past kMaxForwardDistance.
  net::Packet rreq = rig.rreqFrame(5, 99, {0, 0}, {-110.0, 50.0});
  rig.engine->onFrame(rreq);
  EXPECT_TRUE(rig.env.link_.sent.empty());
}

TEST(RoutingEngineUnit, NonRouterIgnoresRreqAndTransit) {
  EngineRig rig;
  rig.isRouter = false;
  rig.localHosts.clear();
  net::Packet rreq = rig.rreqFrame(5, 99, {0, 0}, {50.0, 50.0});
  rig.engine->onFrame(rreq);
  EXPECT_TRUE(rig.env.link_.sent.empty());
  net::Packet data = rig.dataFrame(1, 99);
  rig.engine->routeData(data, *data.headerAs<DataHeader>());
  EXPECT_TRUE(rig.env.link_.sent.empty());
  EXPECT_EQ(rig.engine->stats().dataDropped, 1u);
}

TEST(RoutingEngineUnit, DiscoveryTimeoutRetriesThenFails) {
  RoutingConfig config;
  config.rrepTimeout = 0.1;
  config.maxDiscoveryAttempts = 3;
  EngineRig rig(config);
  net::Packet frame = rig.dataFrame(rig.env.id(), 99);
  rig.engine->routeData(frame, *frame.headerAs<DataHeader>());
  rig.env.simulator_.run(1.0);
  EXPECT_EQ(rig.engine->stats().rreqsSent, 3u);
  EXPECT_EQ(rig.engine->stats().discoveriesFailed, 1u);
  EXPECT_EQ(rig.engine->stats().dataDropped, 1u);
}

TEST(RoutingEngineUnit, SearchRangeWidensPerAttempt) {
  RoutingConfig config;
  config.rrepTimeout = 0.1;
  config.maxDiscoveryAttempts = 3;
  config.rangeMargin = 1;
  EngineRig rig(config);
  net::Packet frame = rig.dataFrame(rig.env.id(), 99);
  rig.engine->routeData(frame, *frame.headerAs<DataHeader>());
  rig.env.simulator_.run(1.0);
  ASSERT_EQ(rig.env.link_.sent.size(), 3u);
  auto cells = [&](int i) {
    return rig.env.link_.sent[i].headerAs<RreqHeader>()->range().cellCount();
  };
  EXPECT_LT(cells(0), cells(1));
  EXPECT_LT(cells(1), cells(2));  // final attempt = everywhere
}

TEST(RoutingEngineUnit, FallbackHopUsedWhenRouterUnknown) {
  EngineRig rig;
  // Install a route whose grid has no known router but a nextHop hint.
  RouteEntry entry;
  entry.nextGrid = {3, 0};  // not in knownRouters
  entry.destGrid = {4, 0};
  entry.nextHop = 55;
  entry.destSeq = 1;
  rig.engine->routes().update(99, entry, 0.0);
  net::Packet frame = rig.dataFrame(1, 99);
  rig.engine->routeData(frame, *frame.headerAs<DataHeader>());
  ASSERT_EQ(rig.env.link_.sent.size(), 1u);
  EXPECT_EQ(rig.env.link_.sent[0].macDst, 55);
  EXPECT_EQ(rig.engine->stats().dataForwarded, 1u);
}

TEST(RoutingEngineUnit, RerrPurgesRouteAndPropagates) {
  EngineRig rig;
  // Reverse route toward source 5 via (0,0) from a prior RREQ.
  net::Packet rreq = rig.rreqFrame(5, 99, {0, 0}, {50.0, 50.0});
  rig.engine->onFrame(rreq);
  rig.env.link_.sent.clear();
  // Forward route to 99 exists…
  RouteEntry entry;
  entry.nextGrid = {2, 0};
  entry.destSeq = 3;
  rig.engine->routes().update(99, entry, 0.0);
  // …until an RERR for it arrives from downstream.
  net::Packet rerr;
  rerr.macSrc = 30;
  rerr.macDst = rig.env.id();
  rerr.header = std::make_shared<RerrHeader>(5, 99, 3, geo::GridCoord{2, 0});
  rig.engine->onFrame(rerr);
  EXPECT_FALSE(
      rig.engine->routes().lookup(99, rig.env.simulator().now()).has_value());
  // Propagated toward the source's grid router.
  ASSERT_EQ(rig.env.link_.sent.size(), 1u);
  EXPECT_NE(rig.env.link_.sent[0].headerAs<RerrHeader>(), nullptr);
  EXPECT_EQ(rig.env.link_.sent[0].macDst, 20);
}

TEST(RoutingEngineUnit, StopRoutingDropsPendingDiscoveries) {
  EngineRig rig;
  net::Packet frame = rig.dataFrame(rig.env.id(), 99);
  rig.engine->routeData(frame, *frame.headerAs<DataHeader>());
  rig.engine->stopRouting();
  EXPECT_EQ(rig.engine->stats().dataDropped, 1u);
  // The stale timeout must not fire a retry.
  std::uint64_t rreqsBefore = rig.engine->stats().rreqsSent;
  rig.env.simulator_.run(2.0);
  EXPECT_EQ(rig.engine->stats().rreqsSent, rreqsBefore);
}

TEST(RoutingEngineUnit, MayRelayHookBlocksRelayButNotReply) {
  EngineRig rig;
  bool relayAllowed = false;
  rig.hooks.mayRelayRreq = [&] { return relayAllowed; };
  rig.engine = std::make_unique<RoutingEngine>(rig.env, rig.hooks, rig.config);
  // Remote destination: relay blocked.
  net::Packet rreq = rig.rreqFrame(5, 99, {0, 0}, {50.0, 50.0}, 1);
  rig.engine->onFrame(rreq);
  EXPECT_TRUE(rig.env.link_.sent.empty());
  // Local destination: still answered.
  net::Packet rreq2 = rig.rreqFrame(5, 77, {0, 0}, {50.0, 50.0}, 2);
  rig.engine->onFrame(rreq2);
  EXPECT_EQ(rig.env.link_.sent.size(), 1u);
  EXPECT_NE(rig.env.link_.sent[0].headerAs<RrepHeader>(), nullptr);
}

}  // namespace
}  // namespace ecgrid::protocols
