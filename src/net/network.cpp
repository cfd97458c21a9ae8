#include "net/network.hpp"

#include "util/error.hpp"

namespace ecgrid::net {

Network::Network(sim::Simulator& sim, const NetworkConfig& config)
    : sim_(sim),
      grid_(config.gridCellSide),
      channel_(sim, config.channel),
      paging_(sim, config.paging) {}

Node& Network::addNode(std::unique_ptr<mobility::MobilityModel> mobility,
                       const NodeConfig& config) {
  ECGRID_REQUIRE(!byId_.contains(config.id), "duplicate node id");
  nodes_.push_back(std::make_unique<Node>(sim_, grid_, channel_, paging_,
                                          std::move(mobility), config));
  byId_.emplace(config.id, nodes_.back().get());
  return *nodes_.back();
}

void Network::start() {
  for (auto& node : nodes_) node->start();
}

Node* Network::findNode(NodeId id) {
  const auto it = byId_.find(id);
  return it != byId_.end() ? it->second : nullptr;
}

std::size_t Network::aliveCount() const {
  std::size_t alive = 0;
  for (const auto& node : nodes_) {
    if (node->alive()) ++alive;
  }
  return alive;
}

}  // namespace ecgrid::net
