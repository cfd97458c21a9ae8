// Shared wireless medium: unit-disk propagation at 2 Mbps.
//
// Every attached radio within `range` metres of a transmitter receives the
// frame after the speed-of-light propagation delay; radios outside hear
// nothing (unit-disk model, the same abstraction the paper's d = √2·r/3
// grid dimensioning assumes). Airtime = PLCP preamble + bytes·8/bitrate.
// Collisions are decided per-receiver by the Radio (any temporal overlap
// corrupts), so hidden-terminal losses emerge naturally.
//
// Fan-out uses a SpatialIndex by default: attachments are bucketed by a
// grid of side strictly greater than the effective reach, and a broadcast
// scans only the 3x3 buckets around the sender. Candidate ids are sorted
// before delivery so the schedule order (and hence every sequence number)
// is identical to the brute-force O(N) scan, which is kept behind
// `ChannelConfig::useSpatialIndex = false` for differential testing.
//
// Each transmission takes a pooled Frame record holding the one Packet
// copy every receiver decodes from. The frame's arrivals form one event
// run and its receivers' reception ends another (sim::EventQueue runs):
// two heap entries per frame instead of two per receiver, with every
// arrival and reception end still its own labelled, cancellable event
// taking the sequence number a per-receiver schedule() would.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "geo/vec2.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phy/spatial_index.hpp"
#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::phy {

class Radio;

struct ChannelConfig {
  double rangeMeters = 250.0;     ///< paper §4 transmission range
  double bitrateBps = 2e6;        ///< paper §4 bandwidth
  double preambleSeconds = 192e-6;  ///< 802.11 DSSS long PLCP preamble
  double propagationSpeed = 3e8;  ///< m/s
  /// Interference radius: transmissions reach radios out to this distance
  /// as *undecodable energy* that corrupts concurrent receptions and
  /// holds carrier sense busy. Values <= rangeMeters (the default 0)
  /// disable the extra ring — the pure unit-disk model the paper's
  /// d = √2·r/3 dimensioning assumes. Real 802.11 cards hear roughly
  /// 1.8–2.2× their decode range; `ablation_interference` sweeps this.
  double interferenceRangeMeters = 0.0;
  /// Bucket attachments spatially so broadcasts scan O(density) radios
  /// instead of all N. Off = the brute-force full scan (identical event
  /// schedule; kept for differential tests and as a paranoia escape hatch).
  bool useSpatialIndex = true;
  /// Fault-injection slot (src/fault): when set, consulted once per
  /// (transmission, in-range receiver) pair, in ascending attachment order
  /// — identical in both fan-out modes, so the spatial-index fast path is
  /// unaffected. Returning true corrupts that delivery: the energy still
  /// arrives (carrier sense, collisions) but the frame cannot decode.
  /// Null (the default) costs nothing. Also armable post-construction via
  /// Channel::setDeliveryFault.
  std::function<bool(net::NodeId sender, net::NodeId receiver)> deliveryFault;
};

class ECGRID_DOMAIN_PER_SCENARIO Channel {
 public:
  Channel(sim::Simulator& sim, const ChannelConfig& config);

  const ChannelConfig& config() const { return config_; }

  /// Airtime of a frame of `bytes` (MAC framing already included by
  /// Packet::bytes()).
  sim::Time frameAirtime(int bytes) const;

  /// Register a radio with a provider for its *current* position
  /// (evaluated lazily at each transmission). Returns an attachment id;
  /// ids of detached radios are recycled. The id is also stored on the
  /// radio so transmitFrom can find the sender without scanning.
  std::size_t attach(Radio* radio, std::function<geo::Vec2()> position);

  /// Detach (host death). The radio receives nothing afterwards and the
  /// attachment id becomes free for reuse.
  void detach(std::size_t attachmentId);

  /// Spatial-index maintenance: the radio behind `attachmentId` may have
  /// crossed an index-bucket boundary; re-bucket it from its current
  /// position. Callers whose radios move MUST call this at least once per
  /// bucket crossing (Node arms a GridTracker on indexGrid() for exactly
  /// this). No-op in brute-force mode.
  void notifyMoved(std::size_t attachmentId);

  /// The spatial index's bucket grid, or nullptr in brute-force mode.
  /// Stable for the channel's lifetime.
  const geo::GridMap* indexGrid() const;

  /// Called by a transmitting radio. Schedules beginReceive on every other
  /// attached radio within range.
  void transmitFrom(Radio& sender, const net::Packet& packet,
                    sim::Time duration);

  /// Arm (or, with nullptr, disarm) the fault-injection slot after
  /// construction — the FaultInjector's hook point.
  void setDeliveryFault(
      std::function<bool(net::NodeId sender, net::NodeId receiver)> fault) {
    config_.deliveryFault = std::move(fault);
  }

  /// Frames ever transmitted (for stats / broadcast-storm accounting).
  std::uint64_t framesTransmitted() const { return framesTransmitted_; }
  /// Sum over transmissions of in-range potential receivers.
  std::uint64_t deliveriesScheduled() const { return deliveriesScheduled_; }
  /// In-range deliveries corrupted by the fault-injection slot.
  std::uint64_t deliveriesCorrupted() const { return deliveriesCorrupted_; }
  /// Attachments currently live (attached and not yet detached).
  std::size_t liveAttachmentCount() const { return liveAttachments_; }
  /// Frame records ever allocated (the pool's high-water mark) and those
  /// idle in the pool right now; equal whenever no frame is in flight.
  std::size_t framePoolSize() const { return framePool_.size(); }
  std::size_t idleFrames() const { return idleFrames_.size(); }

 private:
  struct Attachment {
    Radio* radio = nullptr;  // nullptr = detached slot
    std::function<geo::Vec2()> position;
  };

  /// One transmission in flight: the packet every receiver decodes from,
  /// and the run its receivers' reception ends join. Returns to the pool
  /// when its last arrival has run; the reception ends need no frame (a
  /// Reception keeps its own Packet).
  struct Frame {
    net::Packet packet;
    sim::Time duration = 0.0;
    sim::RunId receptionEnds = sim::kNoRun;
    std::uint32_t pendingArrivals = 0;
  };
  /// One per concurrent transmission, recycled: bounded by the channel's
  /// busiest instant, not by run length.
  ECGRID_LAYOUT_BUDGET(Frame, 80);

  /// One arrival of the frame being fanned out: collected in attachment
  /// order, each taking its event key there, then scheduled in
  /// (time, key) order so every append to the run is O(1).
  struct Arrival {
    sim::Time time = 0.0;  ///< absolute, as the queue will compute it
    sim::Time delay = 0.0;
    sim::EventKey key;
    Radio* receiver = nullptr;
    bool decodable = false;
  };

  void deliverTo(const Attachment& attachment, net::NodeId senderId,
                 const geo::Vec2& senderPos);
  void scheduleArrivals(Frame* frame);
  Frame* acquireFrame(net::Packet stamped, sim::Time duration);
  void arrivalDone(Frame* frame);

  sim::Simulator& sim_;
  ChannelConfig config_;
  std::vector<Attachment> attachments_;
  std::vector<std::size_t> freeSlots_;
  std::optional<SpatialIndex> index_;
  std::vector<std::size_t> scratch_;  ///< candidate buffer, reused per tx
  std::vector<std::unique_ptr<Frame>> framePool_;  ///< owns every record
  std::vector<Frame*> idleFrames_;
  std::vector<Arrival> arrivals_;  ///< the current fan-out, reused per tx
  std::size_t liveAttachments_ = 0;
  std::uint64_t framesTransmitted_ = 0;
  std::uint64_t deliveriesScheduled_ = 0;
  std::uint64_t deliveriesCorrupted_ = 0;
  std::uint64_t nextUid_ = 1;
  // Registry mirrors of the counters above (inert without an
  // Observability hub; see obs/observability.hpp).
  obs::Counter mFramesTransmitted_;
  obs::Counter mDeliveriesScheduled_;
  obs::Counter mDeliveriesCorrupted_;
};

}  // namespace ecgrid::phy
