#include "fault/fault_injector.hpp"

#include "util/error.hpp"

namespace ecgrid::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, net::Network& network,
                             const FaultPlan& plan)
    : sim_(sim),
      network_(network),
      plan_(plan),
      pagingRng_(sim.rng().stream("fault/paging")),
      crashRng_(sim.rng().stream("fault/crash")),
      gpsRng_(sim.rng().stream("fault/gps")) {
  if (plan_.channel.enabled()) armChannel();
  if (plan_.paging.enabled()) armPaging();
  if (plan_.hosts.enabled()) armCrashes();
  if (plan_.gps.enabled()) armGps();
}

FaultInjector::~FaultInjector() {
  // Disarm the media hooks: the network may outlive the injector.
  if (plan_.channel.enabled()) network_.channel().setDeliveryFault(nullptr);
  if (plan_.paging.enabled()) network_.paging().setPageLoss(nullptr);
}

bool FaultInjector::faultEligible(const net::Node& node) const {
  // Infinite-battery endpoints (GAF Model 1) model wired infrastructure:
  // exempt from the Poisson failure process and from GPS error. Scripted
  // CrashEvents are applied verbatim to whatever host they name.
  return !node.config().infiniteBattery;
}

void FaultInjector::armChannel() {
  sim::RngStream rng = sim_.rng().stream("fault/channel");
  switch (plan_.channel.kind) {
    case ChannelErrorKind::kNone:
      return;
    case ChannelErrorKind::kIid:
      errorModel_ =
          std::make_unique<IidLossModel>(plan_.channel.lossProbability, rng);
      break;
    case ChannelErrorKind::kGilbertElliott:
      errorModel_ = std::make_unique<GilbertElliottModel>(plan_.channel, rng);
      break;
  }
  network_.channel().setDeliveryFault(
      [model = errorModel_.get()](net::NodeId sender, net::NodeId receiver) {
        return model->dropDelivery(sender, receiver);
      });
}

void FaultInjector::armPaging() {
  network_.paging().setPageLoss([this](net::NodeId /*target*/) {
    return pagingRng_.chance(plan_.paging.lossProbability);
  });
}

void FaultInjector::armCrashes() {
  for (const CrashEvent& e : plan_.hosts.crashes) {
    net::Node* node = network_.findNode(e.host);
    ECGRID_REQUIRE(node != nullptr, "scripted crash names an unknown host");
    ECGRID_REQUIRE(e.at >= sim_.now(), "scripted crash is in the past");
    ECGRID_REQUIRE(e.restartAt > e.at, "restart must follow the crash");
    sim_.schedule(
        e.at - sim_.now(),
        [this, node, restartAt = e.restartAt] {
          crashNow(*node, restartAt, /*poisson=*/false);
        },
        "fault/crash");
  }
  if (plan_.hosts.crashRatePerHostPerSecond > 0.0) {
    for (auto& nodePtr : network_.nodes()) {
      if (faultEligible(*nodePtr)) schedulePoissonCrash(*nodePtr);
    }
  }
}

void FaultInjector::armGps() {
  ECGRID_REQUIRE(plan_.gps.offsetStddevMeters >= 0.0 &&
                     plan_.gps.driftStddevMeters >= 0.0,
                 "GPS error stddevs cannot be negative");
  ECGRID_REQUIRE(plan_.gps.driftStddevMeters == 0.0 ||
                     plan_.gps.driftPeriodSeconds > 0.0,
                 "GPS drift needs a positive period");
  // Offsets apply through a t = 0 event so protocols are started before
  // any onCellChanged fires.
  sim_.schedule(0.0, [this] {
    for (auto& nodePtr : network_.nodes()) {
      if (!faultEligible(*nodePtr)) continue;
      geo::Vec2 error{gpsRng_.gaussian(0.0, plan_.gps.offsetStddevMeters),
                      gpsRng_.gaussian(0.0, plan_.gps.offsetStddevMeters)};
      nodePtr->setGpsError(error);
    }
    if (plan_.gps.driftStddevMeters > 0.0) {
      sim_.schedule(plan_.gps.driftPeriodSeconds, [this] { gpsDriftTick(); },
                    "fault/gps_drift");
    }
  }, "fault/gps_arm");
}

void FaultInjector::gpsDriftTick() {
  for (auto& nodePtr : network_.nodes()) {
    if (!faultEligible(*nodePtr)) continue;
    // Draw for every eligible host — even down ones — so RNG consumption
    // never depends on the death pattern.
    geo::Vec2 error = nodePtr->gpsError();
    error.x += gpsRng_.gaussian(0.0, plan_.gps.driftStddevMeters);
    error.y += gpsRng_.gaussian(0.0, plan_.gps.driftStddevMeters);
    nodePtr->setGpsError(error);
  }
  sim_.schedule(plan_.gps.driftPeriodSeconds, [this] { gpsDriftTick(); },
                "fault/gps_drift");
}

void FaultInjector::schedulePoissonCrash(net::Node& node) {
  poissonPending_.insert(node.id());
  sim::Time dt =
      crashRng_.exponential(1.0 / plan_.hosts.crashRatePerHostPerSecond);
  sim_.schedule(
      dt,
      [this, &node] {
        // Clear the pending marker even when the crash no-ops on an
        // already-down host: the next restart (whatever revives the host)
        // re-arms the process via restartNow.
        poissonPending_.erase(node.id());
        crashNow(node, sim::kTimeNever, /*poisson=*/true);
      },
      "fault/crash");
}

void FaultInjector::crashNow(net::Node& node, sim::Time restartAt,
                             bool poisson) {
  if (!node.alive()) return;  // already crashed or battery-dead
  node.crash();
  ++crashes_;
  if (poisson && plan_.hosts.meanDowntimeSeconds > 0.0) {
    restartAt =
        sim_.now() + crashRng_.exponential(plan_.hosts.meanDowntimeSeconds);
  }
  if (restartAt < sim::kTimeNever) {
    sim_.schedule(restartAt - sim_.now(), [this, &node] { restartNow(node); },
                  "fault/restart");
  }
}

void FaultInjector::restartNow(net::Node& node) {
  if (!node.crashed()) return;  // stale event: another restart beat us
  node.restart();
  ++restarts_;
  // A rebooted member of the Poisson pool re-enters the failure process —
  // regardless of which event (Poisson downtime or a scripted restart)
  // revived it — unless a crash for it is already in flight. Keying on
  // the reviving event instead would leak hosts out of the pool: a
  // scripted restart firing during Poisson downtime rebooted the host
  // with no Poisson crash pending, ending its failure process for good.
  if (plan_.hosts.crashRatePerHostPerSecond > 0.0 && faultEligible(node) &&
      poissonPending_.count(node.id()) == 0) {
    schedulePoissonCrash(node);
  }
}

}  // namespace ecgrid::fault
