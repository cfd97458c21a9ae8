#include "stats/trace_recorder.hpp"

#include <optional>

#include "protocols/common/grid_protocol_base.hpp"
#include "protocols/gaf/gaf_protocol.hpp"
#include "util/error.hpp"

namespace ecgrid::stats {

TraceRecorder::TraceRecorder(net::Network& network, sim::Time interval,
                             const std::string& path)
    : network_(network), interval_(interval), out_(path) {
  ECGRID_REQUIRE(interval > 0.0, "trace interval must be positive");
  ECGRID_REQUIRE(out_.good(), "cannot open trace output: " + path);
  // Schema header (not counted in linesWritten): lets tools/trace_check.py
  // distinguish state traces from event traces and version the columns.
  out_ << "{\"schema\":\"ecgrid-state\",\"version\":2,\"interval\":" << interval_
       << "}\n";
  sample();
  timer_ = network_.simulator().schedule(interval_, [this] { tick(); },
                                         "stats/trace");
}

TraceRecorder::~TraceRecorder() {
  timer_.cancel();
  out_.flush();
}

void TraceRecorder::tick() {
  sample();
  timer_ = network_.simulator().schedule(interval_, [this] { tick(); },
                                         "stats/trace");
}

void TraceRecorder::sample() {
  sim::Time now = network_.simulator().now();
  for (auto& node : network_.nodes()) {
    bool alive = node->alive();
    bool gateway = false;
    std::optional<geo::GridCoord> served;
    if (alive) {
      if (auto* base = protocols::GridProtocolBase::of(node->protocol())) {
        gateway = base->isGateway();
        if (gateway) served = base->servedGrid();
      } else if (auto* gaf = protocols::GafProtocol::of(node->protocol())) {
        gateway = gaf->isLeader();
      }
    }
    // x/y are ground truth (what an observer would plot); gps_err is the
    // magnitude of the injected position error, so a viewer can colour
    // hosts that misjudge their grid.
    geo::Vec2 pos = node->truePosition();
    geo::GridCoord cell = node->gridMap().cellOf(pos);
    out_ << "{\"t\":" << now << ",\"id\":" << node->id()
         << ",\"x\":" << pos.x << ",\"y\":" << pos.y
         << ",\"alive\":" << (alive ? "true" : "false")
         << ",\"crashed\":" << (node->crashed() ? "true" : "false")
         << ",\"sleeping\":" << (node->radio().sleeping() ? "true" : "false")
         << ",\"gateway\":" << (gateway ? "true" : "false")
         << ",\"cell_x\":" << cell.x << ",\"cell_y\":" << cell.y
         << ",\"battery\":" << node->batteryRef().remainingRatio(now)
         << ",\"gps_err\":" << node->gpsError().length();
    // v2: gateways report the grid they serve. Under GPS error (or during
    // a hand-off race) this can differ from cell_x/cell_y — exactly the
    // frames a viewer should highlight.
    if (served) {
      out_ << ",\"served_x\":" << served->x << ",\"served_y\":" << served->y;
    }
    out_ << "}\n";
    ++lines_;
  }
}

}  // namespace ecgrid::stats
