// Tests for the CSMA MAC: ACK'd unicast, ARQ retransmission, duplicate
// suppression, broadcast fire-and-forget, queueing, and failure feedback.
#include <gtest/gtest.h>

#include <memory>

#include "mac/csma.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::mac {
namespace {

class StubHeader final : public net::Header {
 public:
  explicit StubHeader(int bytes = 66) : bytes_(bytes) {}
  int bytes() const override { return bytes_; }
  const char* name() const override { return "STUB"; }

 private:
  int bytes_;
};

net::Packet makeFrame(net::NodeId src, net::NodeId dst) {
  net::Packet frame;
  frame.macSrc = src;
  frame.macDst = dst;
  frame.header = std::make_shared<StubHeader>();
  return frame;
}

/// Two MAC-equipped nodes `distance` apart.
struct Rig {
  sim::Simulator simulator;
  phy::Channel channel{simulator, phy::ChannelConfig{}};
  energy::Battery batteryA{500.0};
  energy::Battery batteryB{500.0};
  phy::Radio radioA{simulator, batteryA, 0};
  phy::Radio radioB{simulator, batteryB, 1};
  std::unique_ptr<CsmaMac> macA;
  std::unique_ptr<CsmaMac> macB;

  explicit Rig(double distance = 100.0) {
    radioA.attachChannel(&channel);
    radioB.attachChannel(&channel);
    channel.attach(&radioA, [] { return geo::Vec2{0.0, 0.0}; });
    channel.attach(&radioB, [distance] { return geo::Vec2{distance, 0.0}; });
    macA = std::make_unique<CsmaMac>(simulator, radioA, channel, CsmaConfig{},
                                     simulator.rng().stream("macA"));
    macB = std::make_unique<CsmaMac>(simulator, radioB, channel, CsmaConfig{},
                                     simulator.rng().stream("macB"));
  }
};

TEST(CsmaMac, UnicastDeliversAndAcks) {
  Rig rig;
  int received = 0;
  rig.macB->setReceiveCallback([&](const net::Packet&) { ++received; });
  rig.macA->send(makeFrame(0, 1));
  rig.simulator.run(1.0);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rig.macA->framesSent(), 1u);
  EXPECT_EQ(rig.macA->framesDropped(), 0u);
  EXPECT_EQ(rig.macB->acksSent(), 1u);
  EXPECT_EQ(rig.macA->retransmissions(), 0u);
}

TEST(CsmaMac, BroadcastIsFireAndForget) {
  Rig rig;
  int received = 0;
  rig.macB->setReceiveCallback([&](const net::Packet&) { ++received; });
  rig.macA->send(makeFrame(0, net::kBroadcastId));
  rig.simulator.run(1.0);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rig.macB->acksSent(), 0u);  // broadcasts are not acknowledged
}

TEST(CsmaMac, RetriesUntilReceiverWakes) {
  Rig rig;
  int received = 0;
  rig.macB->setReceiveCallback([&](const net::Packet&) { ++received; });
  rig.radioB.sleep();
  rig.simulator.schedule(4e-3, [&] { rig.radioB.wake(); });
  rig.macA->send(makeFrame(0, 1));
  rig.simulator.run(1.0);
  EXPECT_EQ(received, 1);  // ARQ rode out the nap
  EXPECT_GT(rig.macA->retransmissions(), 0u);
}

TEST(CsmaMac, GivesUpAfterRetryLimitAndReportsFailure) {
  Rig rig(300.0);  // out of range: every attempt is lost
  int failures = 0;
  net::Packet failed;
  rig.macA->setSendFailureCallback([&](const net::Packet& p) {
    ++failures;
    failed = p;
  });
  rig.macA->send(makeFrame(0, 1));
  rig.simulator.run(5.0);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(failed.macDst, 1);
  EXPECT_EQ(rig.macA->framesDropped(), 1u);
  EXPECT_EQ(rig.macA->framesSent(), 0u);
}

TEST(CsmaMac, BroadcastFailuresAreNotReported) {
  Rig rig(300.0);
  int failures = 0;
  rig.macA->setSendFailureCallback([&](const net::Packet&) { ++failures; });
  rig.macA->send(makeFrame(0, net::kBroadcastId));
  rig.simulator.run(5.0);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(rig.macA->framesSent(), 1u);  // broadcast "succeeds" locally
}

TEST(CsmaMac, DuplicatesFromRetransmissionAreSuppressed) {
  // Force a lost ACK by making B mute its ACKs... simplest equivalent: B
  // receives, but we check that even when A retransmits (due to induced
  // ACK loss via a brief sleep *after* reception), B delivers once.
  Rig rig;
  int received = 0;
  rig.macB->setReceiveCallback([&](const net::Packet&) {
    ++received;
    // Kill the ACK path once: sleeping right after reception suppresses
    // the first ACK, so A retransmits the same macSeq.
    if (received == 1) {
      rig.radioB.sleep();
      rig.simulator.schedule(3e-3, [&] { rig.radioB.wake(); });
    }
  });
  rig.macA->send(makeFrame(0, 1));
  rig.simulator.run(1.0);
  EXPECT_EQ(received, 1);
  EXPECT_GT(rig.macA->retransmissions(), 0u);
  EXPECT_EQ(rig.macA->framesSent(), 1u);  // eventually acked
}

TEST(CsmaMac, QueueDrainsInOrder) {
  Rig rig;
  std::vector<std::uint64_t> seqs;
  rig.macB->setReceiveCallback(
      [&](const net::Packet& p) { seqs.push_back(p.macSeq); });
  for (int i = 0; i < 5; ++i) rig.macA->send(makeFrame(0, 1));
  rig.simulator.run(2.0);
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_LT(seqs[i - 1], seqs[i]);
  }
}

TEST(CsmaMac, QueueOverflowDropsTail) {
  Rig rig;
  CsmaConfig smallQueue;
  smallQueue.queueLimit = 2;
  CsmaMac mac(rig.simulator, rig.radioA, rig.channel, smallQueue,
              rig.simulator.rng().stream("small"));
  for (int i = 0; i < 5; ++i) mac.send(makeFrame(0, 1));
  EXPECT_EQ(mac.queueDepth(), 2u);
  EXPECT_EQ(mac.framesDropped(), 3u);
}

TEST(CsmaMac, ClearQueueDropsEverything) {
  Rig rig;
  for (int i = 0; i < 3; ++i) rig.macA->send(makeFrame(0, 1));
  rig.macA->clearQueue();
  EXPECT_EQ(rig.macA->queueDepth(), 0u);
  int received = 0;
  rig.macB->setReceiveCallback([&](const net::Packet&) { ++received; });
  rig.simulator.run(1.0);
  EXPECT_EQ(received, 0);
}

TEST(CsmaMac, SendWhileSleepingIsDropped) {
  Rig rig;
  rig.radioA.sleep();
  rig.macA->send(makeFrame(0, 1));
  EXPECT_EQ(rig.macA->framesDropped(), 1u);
  EXPECT_EQ(rig.macA->queueDepth(), 0u);
}

TEST(CsmaMac, CarrierSenseDefersConcurrentSenders) {
  // Three nodes in mutual range; two flood unicasts at the third
  // simultaneously. Carrier sense + ARQ should deliver everything.
  sim::Simulator simulator;
  phy::Channel channel(simulator, phy::ChannelConfig{});
  energy::Battery b0(500.0), b1(500.0), b2(500.0);
  phy::Radio r0(simulator, b0, 0);
  phy::Radio r1(simulator, b1, 1);
  phy::Radio r2(simulator, b2, 2);
  for (phy::Radio* r : {&r0, &r1, &r2}) r->attachChannel(&channel);
  channel.attach(&r0, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&r1, [] { return geo::Vec2{100.0, 0.0}; });
  channel.attach(&r2, [] { return geo::Vec2{50.0, 80.0}; });
  CsmaMac m0(simulator, r0, channel, CsmaConfig{},
             simulator.rng().stream("m0"));
  CsmaMac m1(simulator, r1, channel, CsmaConfig{},
             simulator.rng().stream("m1"));
  CsmaMac m2(simulator, r2, channel, CsmaConfig{},
             simulator.rng().stream("m2"));
  int received = 0;
  m2.setReceiveCallback([&](const net::Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    m0.send(makeFrame(0, 2));
    m1.send(makeFrame(1, 2));
  }
  simulator.run(5.0);
  // Carrier sense + ARQ recover nearly everything; an occasional frame
  // can exhaust its retries when both senders keep colliding.
  EXPECT_GE(received, 18);
}

}  // namespace
}  // namespace ecgrid::mac
