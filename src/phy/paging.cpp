#include "phy/paging.hpp"

#include "obs/observability.hpp"
#include "util/error.hpp"

namespace ecgrid::phy {

PagingChannel::PagingChannel(sim::Simulator& sim, const PagingConfig& config)
    : sim_(sim),
      config_(config),
      mPagesSent_(obs::counter(sim, "paging.pages_sent")),
      mPagesDelivered_(obs::counter(sim, "paging.pages_delivered")),
      mPagesLost_(obs::counter(sim, "paging.pages_lost")) {
  ECGRID_REQUIRE(config.rangeMeters > 0.0, "paging range must be positive");
  ECGRID_REQUIRE(config.latencySeconds >= 0.0, "latency cannot be negative");
}

std::size_t PagingChannel::attach(
    net::NodeId id, std::function<geo::Vec2()> position,
    std::function<geo::GridCoord()> cell,
    std::function<void(const net::PageSignal&)> onPaged) {
  ECGRID_REQUIRE(position && cell && onPaged, "all pager hooks required");
  Attachment a;
  a.id = id;
  a.active = true;
  a.position = std::move(position);
  a.cell = std::move(cell);
  a.onPaged = std::move(onPaged);
  attachments_.push_back(std::move(a));
  return attachments_.size() - 1;
}

void PagingChannel::detach(std::size_t attachmentId) {
  ECGRID_REQUIRE(attachmentId < attachments_.size(), "bad attachment id");
  attachments_[attachmentId].active = false;
}

bool PagingChannel::inRange(const geo::Vec2& from, const Attachment& a) const {
  return from.distanceSquaredTo(a.position()) <=
         config_.rangeMeters * config_.rangeMeters;
}

void PagingChannel::deliver(const Attachment& a,
                            const net::PageSignal& signal) {
  if (config_.pageLoss && config_.pageLoss(a.id)) {
    ++pagesLost_;
    mPagesLost_.add();
    return;
  }
  ++pagesDelivered_;
  mPagesDelivered_.add();
  // Copy the hook: the attachment vector may grow before the event fires.
  auto hook = a.onPaged;
  sim_.schedule(
      config_.latencySeconds, [hook, signal] { hook(signal); },
      "paging/deliver");
}

void PagingChannel::pageHost(net::NodeId pagedBy, const geo::Vec2& from,
                             net::NodeId target) {
  ++pagesSent_;
  mPagesSent_.add();
  net::PageSignal signal;
  signal.kind = net::PageKind::kHost;
  signal.host = target;
  signal.pagedBy = pagedBy;
  for (const Attachment& a : attachments_) {
    if (!a.active || a.id != target) continue;
    if (inRange(from, a)) deliver(a, signal);
  }
}

void PagingChannel::pageGrid(net::NodeId pagedBy, const geo::Vec2& from,
                             const geo::GridCoord& grid) {
  ++pagesSent_;
  mPagesSent_.add();
  net::PageSignal signal;
  signal.kind = net::PageKind::kGrid;
  signal.grid = grid;
  signal.pagedBy = pagedBy;
  for (const Attachment& a : attachments_) {
    if (!a.active || a.id == pagedBy) continue;
    if (a.cell() == grid && inRange(from, a)) deliver(a, signal);
  }
}

}  // namespace ecgrid::phy
