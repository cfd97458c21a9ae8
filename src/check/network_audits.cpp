#include "check/network_audits.hpp"

#include <string>
#include <utility>
#include <vector>

#include "check/audits.hpp"
#include "protocols/common/grid_protocol_base.hpp"
#include "protocols/gaf/gaf_protocol.hpp"

namespace ecgrid::check {

namespace {

bool protocolSleeping(net::Node& node) {
  net::RoutingProtocol& protocol = node.protocol();
  if (const auto* grid = protocols::GridProtocolBase::of(protocol)) {
    return grid->role() == protocols::GridProtocolBase::Role::kSleeping;
  }
  if (const auto* gaf = protocols::GafProtocol::of(protocol)) {
    return gaf->state() == protocols::GafProtocol::State::kSleep;
  }
  return false;
}

/// Date a down host: injected crashes stamp Node::crashedAt(), battery
/// deaths stamp the battery. A down host with neither (it cannot happen
/// today, but the audit should not crash if a future death path forgets)
/// is dated at first sight.
sim::Time deadSince(net::Node& node, sim::Time now) {
  if (node.crashed()) return node.crashedAt();
  sim::Time death = node.batteryRef().deathTime();
  return death == sim::kTimeNever ? now : death;
}

}  // namespace

// Each binding owns its audit and its sighting buffer (a mutable lambda):
// the buffer is cleared, not reallocated, every sweep. Protocols are
// looked up afresh each sweep — Node::restart() rebuilds them.
void installStandardAudits(InvariantAuditor& auditor, net::Network& network,
                           const StandardAuditOptions& options) {
  GatewayUniquenessAudit gatewayAudit(options.gatewayConflictGrace,
                                      options.gatewayConflictRangeMeters);
  auditor.add("gateway-uniqueness", [&network, audit = std::move(gatewayAudit),
                                     sightings = std::vector<GatewaySighting>()](
                                        AuditContext& context) mutable {
    sightings.clear();
    for (auto& node : network.nodes()) {
      if (!node->alive()) continue;  // crashed/dead hosts serve nothing
      auto* grid = protocols::GridProtocolBase::of(node->protocol());
      if (grid == nullptr || !grid->servedGrid().has_value()) continue;
      sightings.push_back(GatewaySighting{*grid->servedGrid(), node->id(),
                                          node->truePosition()});
    }
    audit.observe(sightings, context);
  });

  auditor.add("no-tx-while-sleeping",
              [&network, audit = SleepTransmitAudit(options.sleepSettleGrace),
               sightings = std::vector<SleepTxSighting>()](
                  AuditContext& context) mutable {
    sightings.clear();
    for (auto& node : network.nodes()) {
      SleepTxSighting sighting;
      sighting.id = node->id();
      sighting.protocolSleeping = protocolSleeping(*node);
      sighting.radioState = node->radio().state();
      sighting.sleepPending = node->radio().sleepPending();
      sightings.push_back(sighting);
    }
    audit.observe(sightings, context);
  });

  auditor.add("battery-monotonicity", [&network,
                                       audit = BatteryMonotonicityAudit()](
                                          AuditContext& context) mutable {
    // Peek, never commit: a committed read adds an integration
    // breakpoint, which rounds the battery integral differently from an
    // unaudited run and so changes the simulation being observed.
    for (auto& node : network.nodes()) {
      audit.observe(node->id(),
                    node->batteryRef().peekRemainingJ(context.now()),
                    context);
    }
  });

  auditor.add("route-next-hop-liveness",
              [&network, audit = RouteLivenessAudit(options.deadNextHopGrace),
               sightings = std::vector<RouteSighting>()](
                  AuditContext& context) mutable {
    sightings.clear();
    for (auto& node : network.nodes()) {
      auto* grid = protocols::GridProtocolBase::of(node->protocol());
      if (grid == nullptr || !node->alive()) continue;
      for (const auto& [destination, entry] :
           grid->routingEngine().routes().entries()) {
        RouteSighting sighting;
        sighting.owner = node->id();
        sighting.destination = destination;
        sighting.nextHop = entry.nextHop;
        sighting.expired = entry.expiry < context.now();
        net::Node* hop = network.findNode(entry.nextHop);
        sighting.nextHopExists =
            hop != nullptr || net::isBroadcast(entry.nextHop);
        sighting.nextHopAlive = hop != nullptr && hop->alive();
        if (hop != nullptr && !hop->alive()) {
          sighting.nextHopDeadSince = deadSince(*hop, context.now());
        }
        sightings.push_back(sighting);
      }
    }
    audit.observe(sightings, context);
  });

  auditor.add("event-time-monotonicity",
              [&network, audit = EventTimeMonotonicityAudit()](
                  AuditContext& context) mutable {
                sim::Simulator& sim = network.simulator();
                audit.observe(sim.now(), sim.nextEventTime(), context);
              });

  // Channel bookkeeping: every alive host holds exactly one live channel
  // attachment — battery deaths detach in onDeath, injected crashes in
  // Node::crash (and restarts re-attach) — so a drifting count means a
  // leaked tombstone slot, a double detach, or a crash path that forgot
  // to release (or a restart that forgot to re-take) its slot.
  auditor.add("channel-attachment-count", [&network](AuditContext& context) {
    const std::size_t live = network.channel().liveAttachmentCount();
    const std::size_t alive = network.aliveCount();
    if (live == alive) return;
    std::size_t crashed = 0;
    for (auto& node : network.nodes()) {
      if (node->crashed()) ++crashed;
    }
    context.report("channel has " + std::to_string(live) +
                   " live attachments but " + std::to_string(alive) +
                   " hosts are alive (" + std::to_string(crashed) +
                   " crashed)");
  });
}

}  // namespace ecgrid::check
