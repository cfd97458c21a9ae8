#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/observability.hpp"
#include "phy/radio.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::phy {

namespace {
// Index buckets must be strictly wider than the effective reach so that a
// receiver whose bucket is stale by one boundary crossing (GridTracker
// events at the same timestamp may not have fired yet) still falls inside
// the sender's 3x3 neighbourhood. Any factor > 1 works; 1/16 extra keeps
// the candidate blocks tight.
constexpr double kIndexCellMargin = 1.0625;

// Candidate scratch capacity: a 3x3 bucket neighbourhood at paper-baseline
// densities holds a few dozen radios; 256 covers city-scale hotspots so
// steady-state transmissions never grow the buffer.
constexpr std::size_t kInitialScratch = 256;

// Frames in flight at once: one per transmitter whose arrivals have not
// all run (a sub-microsecond window), so a handful; 64 covers dense
// fields before the pool grows at all.
constexpr std::size_t kInitialFrames = 64;
}  // namespace

Channel::Channel(sim::Simulator& sim, const ChannelConfig& config)
    : sim_(sim),
      config_(config),
      mFramesTransmitted_(obs::counter(sim, "phy.frames_transmitted")),
      mDeliveriesScheduled_(obs::counter(sim, "phy.deliveries_scheduled")),
      mDeliveriesCorrupted_(obs::counter(sim, "phy.deliveries_corrupted")) {
  ECGRID_REQUIRE(config.rangeMeters > 0.0, "range must be positive");
  ECGRID_REQUIRE(config.bitrateBps > 0.0, "bitrate must be positive");
  if (config_.useSpatialIndex) {
    double reach =
        std::max(config_.rangeMeters, config_.interferenceRangeMeters);
    index_.emplace(reach * kIndexCellMargin);
  }
  scratch_.reserve(kInitialScratch);
  arrivals_.reserve(kInitialScratch);
  framePool_.reserve(kInitialFrames);
  idleFrames_.reserve(kInitialFrames);
}

sim::Time Channel::frameAirtime(int bytes) const {
  ECGRID_REQUIRE(bytes > 0, "frame must have positive size");
  return config_.preambleSeconds + bytes * 8.0 / config_.bitrateBps;
}

std::size_t Channel::attach(Radio* radio, std::function<geo::Vec2()> position) {
  ECGRID_REQUIRE(radio != nullptr, "radio required");
  ECGRID_REQUIRE(position != nullptr, "position provider required");
  std::size_t id;
  if (!freeSlots_.empty()) {
    id = freeSlots_.back();
    freeSlots_.pop_back();
    attachments_[id] = Attachment{radio, std::move(position)};
  } else {
    id = attachments_.size();
    attachments_.push_back(Attachment{radio, std::move(position)});
  }
  radio->setChannelAttachmentId(id);
  if (index_) index_->insert(id, attachments_[id].position());
  ++liveAttachments_;
  return id;
}

void Channel::detach(std::size_t attachmentId) {
  ECGRID_REQUIRE(attachmentId < attachments_.size(), "bad attachment id");
  Attachment& slot = attachments_[attachmentId];
  ECGRID_REQUIRE(slot.radio != nullptr, "attachment already detached");
  if (index_) index_->remove(attachmentId);
  slot.radio->setChannelAttachmentId(Radio::kNoAttachment);
  slot.radio = nullptr;
  slot.position = nullptr;
  freeSlots_.push_back(attachmentId);
  --liveAttachments_;
}

void Channel::notifyMoved(std::size_t attachmentId) {
  ECGRID_REQUIRE(attachmentId < attachments_.size(), "bad attachment id");
  if (!index_) return;
  const Attachment& slot = attachments_[attachmentId];
  ECGRID_REQUIRE(slot.radio != nullptr, "attachment is detached");
  index_->update(attachmentId, slot.position());
}

const geo::GridMap* Channel::indexGrid() const {
  return index_ ? &index_->grid() : nullptr;
}

ECGRID_HOT_PATH Channel::Frame* Channel::acquireFrame(net::Packet stamped,
                                                      sim::Time duration) {
  if (idleFrames_.empty()) {
    // Pool growth: a new high-water mark of concurrent transmissions,
    // never steady-state churn (records are recycled, not freed) — the
    // same argument as the event slab's growth.
    ECGRID_ALLOC_EXEMPT();
    framePool_.push_back(std::make_unique<Frame>());  // ecgrid-lint: allow(hot-path-allocation)
    idleFrames_.reserve(framePool_.capacity());
    idleFrames_.push_back(framePool_.back().get());
  }
  Frame* frame = idleFrames_.back();
  idleFrames_.pop_back();
  frame->packet = std::move(stamped);
  frame->duration = duration;
  frame->receptionEnds = sim_.openRun();
  return frame;
}

ECGRID_HOT_PATH void Channel::arrivalDone(Frame* frame) {
  if (--frame->pendingArrivals > 0) return;
  // Every receiver has begun (or declined) its reception: no more
  // reception ends join the run, and no event reads the frame any more.
  sim_.closeRun(frame->receptionEnds);
  frame->packet = net::Packet{};
  idleFrames_.push_back(frame);
}

ECGRID_HOT_PATH void Channel::deliverTo(const Attachment& attachment,
                                        net::NodeId senderId,
                                        const geo::Vec2& senderPos) {
  ECGRID_HOT_SCOPE();
  const double rangeSq = config_.rangeMeters * config_.rangeMeters;
  const double interfSq =
      config_.interferenceRangeMeters * config_.interferenceRangeMeters;
  geo::Vec2 rxPos = attachment.position();
  double distSq = senderPos.distanceSquaredTo(rxPos);
  if (distSq > rangeSq && distSq > interfSq) return;
  double delay = std::sqrt(distSq) / config_.propagationSpeed;
  Radio* receiver = attachment.radio;
  // Inside the interference ring, or corrupted by the fault slot, only
  // energy arrives: it cannot decode.
  bool decodable = distSq <= rangeSq;
  if (decodable) {
    ++deliveriesScheduled_;
    mDeliveriesScheduled_.add();
    if (config_.deliveryFault &&
        config_.deliveryFault(senderId, receiver->id())) {
      // Channel error: the frame arrives as undecodable energy — carrier
      // sense stays busy and concurrent receptions are ruined, but the
      // frame itself is lost (the MAC's ARQ sees a missing ACK).
      ++deliveriesCorrupted_;
      mDeliveriesCorrupted_.add();
      decodable = false;
    }
  }
  // The key is drawn here, where a per-receiver schedule would be.
  if (arrivals_.size() == arrivals_.capacity()) {
    // High-water growth (the largest fan-out seen), like scratch_.
    ECGRID_ALLOC_EXEMPT();
    arrivals_.reserve(arrivals_.capacity() * 2);
  }
  arrivals_.push_back(Arrival{sim_.now() + delay, delay, sim_.takeEventKey(),
                              receiver, decodable});
}

ECGRID_HOT_PATH void Channel::scheduleArrivals(Frame* frame) {
  std::sort(arrivals_.begin(), arrivals_.end(),
            [](const Arrival& a, const Arrival& b) {
              return sim::runsBefore(a.time, a.key, b.time, b.key);
            });
  frame->pendingArrivals = static_cast<std::uint32_t>(arrivals_.size());
  const sim::RunId run = sim_.openRun();
  for (const Arrival& arrival : arrivals_) {
    Radio* receiver = arrival.receiver;
    if (arrival.decodable) {
      sim_.scheduleInRun(
          run, arrival.delay, arrival.key,
          [this, receiver, frame] {
            receiver->beginReceive(frame->packet, frame->duration,
                                   frame->receptionEnds);
            arrivalDone(frame);
          },
          "phy/deliver");
    } else {
      sim_.scheduleInRun(
          run, arrival.delay, arrival.key,
          [this, receiver, frame] {
            receiver->beginInterference(frame->duration);
            arrivalDone(frame);
          },
          "phy/interference");
    }
  }
  sim_.closeRun(run);
}

ECGRID_HOT_PATH void Channel::transmitFrom(Radio& sender,
                                           const net::Packet& packet,
                                           sim::Time duration) {
  ECGRID_HOT_SCOPE();
  ++framesTransmitted_;
  mFramesTransmitted_.add();
  net::Packet stamped = packet;
  stamped.uid = nextUid_++;

  const std::size_t senderId = sender.channelAttachmentId();
  ECGRID_CHECK(senderId < attachments_.size() &&
                   attachments_[senderId].radio == &sender,
               "transmitting radio is not attached to this channel");
  geo::Vec2 senderPos = attachments_[senderId].position();
  arrivals_.clear();

  if (index_) {
    scratch_.clear();
    index_->collectNear(senderPos, scratch_);
    // Bucket iteration order is hash-dependent; sorting by attachment id
    // restores the exact slot-order schedule of the brute-force scan, so
    // both modes produce bit-identical simulations.
    std::sort(scratch_.begin(), scratch_.end());
    for (std::size_t id : scratch_) {
      if (id == senderId) continue;
      deliverTo(attachments_[id], sender.id(), senderPos);
    }
  } else {
    for (const Attachment& a : attachments_) {
      if (a.radio == nullptr || a.radio == &sender) continue;
      deliverTo(a, sender.id(), senderPos);
    }
  }
  // Nobody in reach needs no frame at all.
  if (!arrivals_.empty()) {
    scheduleArrivals(acquireFrame(std::move(stamped), duration));
  }
}

}  // namespace ecgrid::phy
