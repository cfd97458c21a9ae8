// RAS — Remotely Activated Switch paging channel (paper §2, Fig. 1).
//
// Each host carries an RF-tag pager that keeps listening even when the
// main transceiver sleeps. A pager matches two sequences: the host's own
// ID (its unique paging sequence) and the broadcast sequence of whatever
// grid the host currently occupies. A gateway uses the former to wake one
// sleeping host when buffered data arrives for it, and the latter to wake
// the whole grid for a gateway election or RETIRE handover.
//
// Per the paper, RAS power consumption is ignored, so paging costs no
// energy on either side. Delivery is range-limited like the data radio
// (RF tags are short-range) and incurs a small fixed latency that models
// the paging signal plus transceiver power-up.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "geo/grid.hpp"
#include "geo/vec2.hpp"
#include "net/host_env.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::phy {

/// Paging signal plus transceiver power-up, from page to the paged host's
/// wake-up (ours, DESIGN.md §5; paper §2 leaves the RAS cost out).
inline constexpr double kPageLatencySeconds = 2e-3;
static_assert(kPageLatencySeconds >= 0.0, "latency cannot be negative");

struct PagingConfig {
  double rangeMeters = 250.0;
};

class ECGRID_DOMAIN_PER_SCENARIO PagingChannel {
 public:
  PagingChannel(sim::Simulator& sim, const PagingConfig& config);

  /// Register host `id`'s pager. `position` is read lazily; `cell` must
  /// return the host's current grid (for broadcast-sequence matching);
  /// `onPaged` fires when a matching page arrives. Returns attachment id.
  std::size_t attach(net::NodeId id, std::function<geo::Vec2()> position,
                     std::function<geo::GridCoord()> cell,
                     std::function<void(const net::PageSignal&)> onPaged);

  void detach(std::size_t attachmentId);

  /// Page host `target` from a pager at `from`. Delivered iff the target
  /// is in range at send time.
  void pageHost(net::NodeId pagedBy, const geo::Vec2& from,
                net::NodeId target);

  /// Page every host currently in `grid` and in range of `from`
  /// (the grid's broadcast sequence).
  void pageGrid(net::NodeId pagedBy, const geo::Vec2& from,
                const geo::GridCoord& grid);

  /// Arm (or, with nullptr, disarm) the FaultInjector's page-loss slot:
  /// consulted once per in-range pager about to receive a page; true
  /// means that pager misses it. Null costs nothing.
  void setPageLoss(std::function<bool(net::NodeId target)> loss) {
    pageLoss_ = std::move(loss);
  }

  std::uint64_t pagesSent() const { return pagesSent_; }
  std::uint64_t pagesDelivered() const { return pagesDelivered_; }
  /// In-range page receptions suppressed by the fault slot.
  std::uint64_t pagesLost() const { return pagesLost_; }

 private:
  struct Attachment {
    net::NodeId id = net::kBroadcastId;
    bool active = false;
    std::function<geo::Vec2()> position;
    std::function<geo::GridCoord()> cell;
    std::function<void(const net::PageSignal&)> onPaged;
  };

  void deliver(const Attachment& a, const net::PageSignal& signal);
  bool inRange(const geo::Vec2& from, const Attachment& a) const;

  sim::Simulator& sim_;
  PagingConfig config_;
  std::function<bool(net::NodeId target)> pageLoss_;
  std::vector<Attachment> attachments_;
  std::uint64_t pagesSent_ = 0;
  std::uint64_t pagesDelivered_ = 0;
  std::uint64_t pagesLost_ = 0;
  // Registry mirrors of the counters above (inert without an
  // Observability hub; see obs/observability.hpp).
  obs::Counter mPagesSent_;
  obs::Counter mPagesDelivered_;
  obs::Counter mPagesLost_;
};

}  // namespace ecgrid::phy
