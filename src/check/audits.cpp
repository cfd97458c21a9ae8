#include "check/audits.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>

namespace ecgrid::check {

namespace {

/// With a positive conflict range, a multi-claim only counts as a contest
/// when some claimant pair is physically close enough to exchange the
/// HELLOs that would settle it; range 0 = every multi-claim contests.
bool resolvableContest(const std::vector<GatewaySighting>& gateways,
                       std::span<const std::uint32_t> claimants,
                       double rangeMeters) {
  if (rangeMeters <= 0.0) return true;
  const double rangeSq = rangeMeters * rangeMeters;
  for (std::size_t i = 0; i < claimants.size(); ++i) {
    for (std::size_t j = i + 1; j < claimants.size(); ++j) {
      if (gateways[claimants[i]].position.distanceSquaredTo(
              gateways[claimants[j]].position) <= rangeSq) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void GatewayUniquenessAudit::observe(
    const std::vector<GatewaySighting>& gateways, AuditContext& context) {
  // Group claims by grid: sort sighting indices by (grid, index), so each
  // grid's claimants keep their order in `gateways`.
  byGrid_.resize(gateways.size());
  std::iota(byGrid_.begin(), byGrid_.end(), 0u);
  std::sort(byGrid_.begin(), byGrid_.end(),
            [&gateways](std::uint32_t a, std::uint32_t b) {
              const geo::GridCoord& ga = gateways[a].grid;
              const geo::GridCoord& gb = gateways[b].grid;
              return ga != gb ? ga < gb : a < b;
            });

  // Contested grids: start/extend their conflict clocks; report the ones
  // whose contest outlived the grace window. Groups come in ascending grid
  // order, as contests_ is kept, so one cursor finds each earlier clock.
  stillContested_.clear();
  std::size_t earlier = 0;
  for (std::size_t first = 0; first < byGrid_.size();) {
    const geo::GridCoord grid = gateways[byGrid_[first]].grid;
    std::size_t end = first + 1;
    while (end < byGrid_.size() && gateways[byGrid_[end]].grid == grid) ++end;
    const std::span<const std::uint32_t> claimants(byGrid_.data() + first,
                                                   end - first);
    first = end;
    if (claimants.size() <= 1) continue;
    if (!resolvableContest(gateways, claimants, conflictRangeMeters_)) continue;
    while (earlier < contests_.size() && contests_[earlier].grid < grid) {
      ++earlier;
    }
    const sim::Time since =
        earlier < contests_.size() && contests_[earlier].grid == grid
            ? contests_[earlier].since
            : context.now();
    stillContested_.push_back(Contest{grid, since});
    if (context.now() - since > conflictGrace_) {
      std::ostringstream os;
      os << "grid " << grid << " has " << claimants.size() << " gateways (";
      for (std::size_t i = 0; i < claimants.size(); ++i) {
        os << (i != 0 ? ", " : "") << gateways[claimants[i]].id;
      }
      os << ") unresolved for " << context.now() - since << " s";
      context.report(os.str());
    }
  }
  contests_.swap(stillContested_);
}

void SleepTransmitAudit::observe(const std::vector<SleepTxSighting>& hosts,
                                 AuditContext& context) {
  const auto byId = [](const Inconsistency& a, const Inconsistency& b) {
    return a.id < b.id;
  };
  stillInconsistent_.clear();
  for (const SleepTxSighting& host : hosts) {
    if (!host.protocolSleeping) continue;
    const bool radioConsistent = host.radioState == phy::RadioState::kSleep ||
                                 host.radioState == phy::RadioState::kOff ||
                                 host.sleepPending;
    if (radioConsistent) continue;
    const auto it = std::lower_bound(inconsistent_.begin(), inconsistent_.end(),
                                     Inconsistency{host.id}, byId);
    const sim::Time since = it != inconsistent_.end() && it->id == host.id
                                ? it->since
                                : context.now();
    stillInconsistent_.push_back(Inconsistency{host.id, since});
    if (context.now() - since > settleGrace_) {
      std::ostringstream os;
      os << "host " << host.id << " has been protocol-sleeping for "
         << context.now() - since << " s while its radio is "
         << phy::toString(host.radioState) << " with no sleep pending";
      context.report(os.str());
    }
  }
  // A repeated id repeats its clock, so duplicates cannot disagree.
  std::sort(stillInconsistent_.begin(), stillInconsistent_.end(), byId);
  inconsistent_.swap(stillInconsistent_);
}

void BatteryMonotonicityAudit::observe(net::NodeId id, double remainingJ,
                                       AuditContext& context) {
  constexpr double kEpsilonJ = 1e-9;
  auto it = std::lower_bound(
      last_.begin(), last_.end(), id,
      [](const Reading& reading, net::NodeId key) { return reading.id < key; });
  const bool seen = it != last_.end() && it->id == id;
  if (seen && remainingJ > it->remainingJ + kEpsilonJ) {
    std::ostringstream os;
    os << "host " << id << " battery rose from " << it->remainingJ
       << " J to " << remainingJ << " J";
    context.report(os.str());
  }
  if (seen) {
    it->remainingJ = remainingJ;
  } else {
    last_.insert(it, Reading{id, remainingJ});
  }
}

void RouteLivenessAudit::observe(const std::vector<RouteSighting>& routes,
                                 AuditContext& context) {
  for (const RouteSighting& route : routes) {
    if (route.expired) continue;
    if (net::isBroadcast(route.nextHop)) continue;
    if (!route.nextHopExists) {
      std::ostringstream os;
      os << "router " << route.owner << " holds a live route to "
         << route.destination << " via nonexistent host " << route.nextHop;
      context.report(os.str());
      continue;
    }
    if (route.nextHopAlive) continue;
    const sim::Time deadFor = context.now() - route.nextHopDeadSince;
    if (deadFor > deadGrace_) {
      std::ostringstream os;
      os << "router " << route.owner << " holds a live route to "
         << route.destination << " via host " << route.nextHop
         << " which died " << deadFor << " s ago";
      context.report(os.str());
    }
  }
}

void EventTimeMonotonicityAudit::observe(sim::Time now, sim::Time nextEventTime,
                                         AuditContext& context) {
  if (seen_ && now < lastNow_) {
    std::ostringstream os;
    os << "simulation clock regressed from " << lastNow_ << " to " << now;
    context.report(os.str());
  }
  if (nextEventTime < now) {
    std::ostringstream os;
    os << "next pending event at " << nextEventTime
       << " is before the clock at " << now;
    context.report(os.str());
  }
  seen_ = true;
  lastNow_ = now;
}

}  // namespace ecgrid::check
