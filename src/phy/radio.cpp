#include "phy/radio.hpp"

#include <algorithm>
#include <limits>

#include "phy/channel.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"
#include "util/log.hpp"

namespace ecgrid::phy {

namespace {
constexpr const char* kTag = "radio";

// Concurrent arrivals at one receiver (decodable + interference energy).
// CSMA keeps real overlap to a handful; 16 covers collision bursts so
// steady-state receptions never grow the vector.
constexpr std::size_t kInitialReceptions = 16;
}

const char* toString(RadioState s) {
  switch (s) {
    case RadioState::kIdle:
      return "idle";
    case RadioState::kTx:
      return "tx";
    case RadioState::kRx:
      return "rx";
    case RadioState::kSleep:
      return "sleep";
    case RadioState::kOff:
      return "off";
  }
  return "?";
}

namespace {

energy::PowerState toPowerState(RadioState s) {
  switch (s) {
    case RadioState::kIdle:
      return energy::PowerState::kIdle;
    case RadioState::kTx:
      return energy::PowerState::kTx;
    case RadioState::kRx:
      return energy::PowerState::kRx;
    case RadioState::kSleep:
      return energy::PowerState::kSleep;
    case RadioState::kOff:
      return energy::PowerState::kOff;
  }
  return energy::PowerState::kOff;
}

}  // namespace

Radio::Radio(sim::Simulator& sim, energy::Battery& battery,
             const energy::PowerProfile& profile, net::NodeId id)
    : sim_(sim), battery_(battery), profile_(profile), id_(id) {
  receptions_.reserve(kInitialReceptions);
  battery_.setPowerW(profile_.totalPowerW(energy::PowerState::kIdle),
                     sim_.now());
  rearmDepletion();
}

Radio::~Radio() {
  txEnd_.cancel();
  depletion_.cancel();
  for (auto& [token, rx] : receptions_) rx.endEvent.cancel();
}

void Radio::setFrameCallback(std::function<void(const net::Packet&)> cb) {
  onFrame_ = std::move(cb);
}

void Radio::setTxCompleteCallback(std::function<void()> cb) {
  onTxComplete_ = std::move(cb);
}

void Radio::setDeathCallback(std::function<void()> cb) {
  onDeath_ = std::move(cb);
}

void Radio::setState(RadioState next) {
  if (state_ == next) return;
  state_ = next;
  battery_.setPowerW(profile_.totalPowerW(toPowerState(next)), sim_.now());
  rearmDepletion();
}

void Radio::rearmDepletion() {
  double horizon = state_ == RadioState::kOff
                       ? std::numeric_limits<double>::infinity()
                       : battery_.timeToEmpty(sim_.now());
  if (horizon == std::numeric_limits<double>::infinity()) {
    depletion_.cancel();
    return;
  }
  // Every Idle<->Rx/Tx change lands here; moving the pending timer in
  // place orders it exactly like cancel + schedule, without the churn.
  // retime() declines only when no timer is pending (the first arm, or
  // one that power-off cancelled), so arm a fresh one.
  if (sim_.retime(depletion_, horizon)) return;
  depletion_ = sim_.schedule(horizon, [this] { die(); }, "phy/battery");
}

void Radio::die() {
  if (state_ == RadioState::kOff) return;
  ECGRID_LOG_INFO(kTag, "host " << id_ << " battery exhausted at t="
                                << sim_.now());
  txEnd_.cancel();
  abortAllReceptions();
  setState(RadioState::kOff);
  if (onDeath_) onDeath_();
}

void Radio::powerDown() {
  if (state_ == RadioState::kOff) return;
  txEnd_.cancel();
  abortAllReceptions();
  sleepPending_ = false;
  setState(RadioState::kOff);
}

void Radio::powerUp() {
  ECGRID_REQUIRE(state_ == RadioState::kOff,
                 "powerUp requires a powered-down radio");
  navUntil_ = 0.0;
  interferenceUntil_ = 0.0;
  txEndsAt_ = 0.0;
  setState(RadioState::kIdle);
}

ECGRID_HOT_PATH void Radio::transmit(const net::Packet& packet,
                                     sim::Time duration) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(duration > 0.0, "transmit duration must be positive");
  ECGRID_CHECK(channel_ != nullptr, "radio not attached to a channel");
  if (state_ == RadioState::kOff || state_ == RadioState::kSleep) return;
  ECGRID_CHECK(state_ != RadioState::kTx, "MAC started tx over tx");
  // Half-duplex: transmitting stomps any reception in progress.
  if (state_ == RadioState::kRx) abortAllReceptions();
  txEndsAt_ = sim_.now() + duration;
  setState(RadioState::kTx);
  channel_->transmitFrom(*this, packet, duration);
  txEnd_ = sim_.schedule(
      duration,
      [this] {
        if (state_ != RadioState::kTx) return;  // died mid-transmission
        setState(sleepPending_ ? RadioState::kSleep : RadioState::kIdle);
        sleepPending_ = false;
        // Fire even when the radio fell asleep so the MAC can reset its
        // transmit latch and drain its queue.
        if (onTxComplete_) onTxComplete_();
      },
      "phy/tx_end");
}

void Radio::sleep() {
  if (state_ == RadioState::kOff || state_ == RadioState::kSleep) return;
  if (state_ == RadioState::kTx) {
    sleepPending_ = true;
    return;
  }
  if (state_ == RadioState::kRx) abortAllReceptions();
  setState(RadioState::kSleep);
}

void Radio::wake() {
  sleepPending_ = false;
  if (state_ != RadioState::kSleep) return;
  setState(RadioState::kIdle);
}

ECGRID_HOT_PATH void Radio::beginReceive(const net::Packet& packet,
                                         sim::Time duration,
                                         sim::RunId endRun) {
  // Trace logging below allocates when enabled; the audit gate runs with
  // logging at its default level, where both branches are dormant.
  ECGRID_HOT_SCOPE();
  if (state_ == RadioState::kOff || state_ == RadioState::kSleep ||
      state_ == RadioState::kTx) {
    if (packet.macDst == id_) {
      ECGRID_LOG_TRACE(kTag, "t=" << sim_.now() << " node " << id_
                                  << " deaf(" << toString(state_) << ") to "
                                  << packet.header->name() << " from "
                                  << packet.macSrc);
    }
    return;  // transceiver cannot hear this arrival
  }
  bool collision =
      !receptions_.empty() || sim_.now() < interferenceUntil_;
  if (collision && packet.macDst == id_) {
    ECGRID_LOG_TRACE(kTag, "t=" << sim_.now() << " node " << id_
                                << " collision on "
                                << packet.header->name() << " from "
                                << packet.macSrc);
  }
  if (!net::isBroadcast(packet.macDst) && packet.macDst != id_ &&
      navGuard_ > 0.0) {
    sim::Time reserve = sim_.now() + duration + navGuard_;
    if (reserve > navUntil_) navUntil_ = reserve;
  }
  std::size_t token = nextReceptionToken_++;
  Reception rx;
  rx.packet = packet;
  rx.end = sim_.now() + duration;
  rx.corrupted = collision;
  auto end = [this, token] { onReceptionEnd(token); };
  rx.endEvent = endRun == sim::kNoRun
                    ? sim_.schedule(duration, end, "phy/rx_end")
                    : sim_.scheduleInRun(endRun, duration, end, "phy/rx_end");
  if (collision) {
    for (auto& [t, existing] : receptions_) existing.corrupted = true;
  }
  receptions_.emplace_back(token, std::move(rx));
  setState(RadioState::kRx);
}

ECGRID_HOT_PATH void Radio::onReceptionEnd(std::size_t token) {
  auto it = std::find_if(receptions_.begin(), receptions_.end(),
                         [&](const auto& p) { return p.first == token; });
  if (it == receptions_.end()) return;
  Reception finished = std::move(it->second);
  receptions_.erase(it);
  if (receptions_.empty() && state_ == RadioState::kRx) {
    setState(RadioState::kIdle);
  }
  if (finished.corrupted) return;
  // No runtime hot scope past this point: onFrame_ climbs into the MAC
  // and routing layers, whose event bodies may allocate legitimately
  // (ACK headers, dedup entries, route-table updates).
  const net::Packet& pkt = finished.packet;
  bool forUs = net::isBroadcast(pkt.macDst) || pkt.macDst == id_;
  if (forUs && onFrame_) onFrame_(pkt);
}

ECGRID_HOT_PATH void Radio::beginInterference(sim::Time duration) {
  ECGRID_HOT_SCOPE();
  if (state_ == RadioState::kOff || state_ == RadioState::kSleep ||
      state_ == RadioState::kTx) {
    return;
  }
  sim::Time until = sim_.now() + duration;
  if (until > interferenceUntil_) interferenceUntil_ = until;
  // Any frame currently being decoded is ruined by the extra energy.
  for (auto& [token, rx] : receptions_) rx.corrupted = true;
}

ECGRID_HOT_PATH sim::Time Radio::mediumIdleAt() const {
  sim::Time now = sim_.now();
  sim::Time idleAt = now;
  if (state_ == RadioState::kTx && txEndsAt_ > idleAt) idleAt = txEndsAt_;
  for (const auto& [token, rx] : receptions_) {
    if (rx.end > idleAt) idleAt = rx.end;
  }
  if (navUntil_ > idleAt) idleAt = navUntil_;
  if (interferenceUntil_ > idleAt) idleAt = interferenceUntil_;
  return idleAt;
}

void Radio::abortAllReceptions() {
  for (auto& [token, rx] : receptions_) rx.endEvent.cancel();
  receptions_.clear();
  if (state_ == RadioState::kRx) setState(RadioState::kIdle);
}

}  // namespace ecgrid::phy
