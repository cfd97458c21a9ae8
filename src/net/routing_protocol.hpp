// Routing-protocol plug-in interface.
//
// A Node owns exactly one RoutingProtocol instance, constructed over the
// node's HostEnv. The simulator drives it through the five entry points
// below; everything else (timers, elections, sleeping, route state) is the
// protocol's private business.
#pragma once

#include <cstdint>

#include "geo/grid.hpp"
#include "net/host_env.hpp"
#include "net/packet.hpp"
#include "util/ownership.hpp"

namespace ecgrid::net {

/// The protocol family an agent belongs to. Observers outside the
/// protocol layer (state digests, invariant audits, result roll-ups) reach
/// a family's state through GridProtocolBase::of / GafProtocol::of: a tag
/// compare and a static_cast, not a dynamic_cast per host per sample.
enum class ProtocolFamily : std::uint8_t {
  kOther,  ///< no family-specific state to observe (e.g. flooding)
  kGrid,   ///< protocols::GridProtocolBase (GRID, ECGRID)
  kGaf,    ///< protocols::GafProtocol
};

class ECGRID_DOMAIN_PER_HOST RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  virtual const char* name() const = 0;

  ProtocolFamily family() const { return family_; }

  /// Called once at simulation start, after the whole network exists.
  virtual void start() = 0;

  /// A frame addressed to this host (or broadcast) was decoded by the MAC.
  virtual void onFrame(const Packet& packet) = 0;

  /// The local application wants `payloadBytes` of data delivered to
  /// `destination`. `tag` identifies the packet for end-to-end stats and
  /// must travel with it.
  virtual void sendData(NodeId destination, int payloadBytes,
                        const DataTag& tag) = 0;

  /// The RAS pager matched one of this host's paging sequences.
  virtual void onPaged(const PageSignal& signal) = 0;

  /// The MAC gave up delivering a unicast frame this protocol sent
  /// (ARQ retries exhausted). Default: ignore.
  virtual void onSendFailed(const Packet& /*packet*/) {}

  /// GPS says the host crossed a grid boundary.
  virtual void onCellChanged(const geo::GridCoord& from,
                             const geo::GridCoord& to) = 0;

  /// The battery died (or the host was torn down). The radio is already
  /// off; the protocol must not schedule further work.
  virtual void onShutdown() = 0;

 protected:
  explicit RoutingProtocol(ProtocolFamily family = ProtocolFamily::kOther)
      : family_(family) {}

 private:
  ProtocolFamily family_;
};

}  // namespace ecgrid::net
