// The whole MANET: shared media plus all hosts.
//
// Network owns the data channel, the RAS paging channel, the grid map and
// every Node. It is the object benches/examples construct, populate, and
// run; the harness module layers paper-scenario presets on top.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "geo/grid.hpp"
#include "net/node.hpp"
#include "phy/channel.hpp"
#include "phy/paging.hpp"
#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::net {

struct NetworkConfig {
  double gridCellSide = 100.0;  ///< d (paper §4 uses 100 m)
  phy::ChannelConfig channel;
  phy::PagingConfig paging;
};

class ECGRID_DOMAIN_PER_SCENARIO Network {
 public:
  Network(sim::Simulator& sim, const NetworkConfig& config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create and register a host. The returned reference stays valid for
  /// the network's lifetime.
  Node& addNode(std::unique_ptr<mobility::MobilityModel> mobility,
                const NodeConfig& config);

  /// Call every node's protocol start() hook.
  void start();

  sim::Simulator& simulator() { return sim_; }
  const geo::GridMap& gridMap() const { return grid_; }
  phy::Channel& channel() { return channel_; }
  phy::PagingChannel& paging() { return paging_; }

  std::size_t nodeCount() const { return nodes_.size(); }
  Node& node(std::size_t index) { return *nodes_.at(index); }
  const Node& node(std::size_t index) const { return *nodes_.at(index); }

  /// Node with the given id, or nullptr. O(1): an id index, not a scan.
  Node* findNode(NodeId id);

  /// Number of hosts still alive at the current simulation time.
  std::size_t aliveCount() const;

  std::vector<std::unique_ptr<Node>>& nodes() { return nodes_; }

 private:
  sim::Simulator& sim_;
  geo::GridMap grid_;
  phy::Channel channel_;
  phy::PagingChannel paging_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Id → host, for findNode and addNode's duplicate check. Lookups only:
  /// population order is nodes_'s.
  std::unordered_map<NodeId, Node*> byId_;
};

}  // namespace ecgrid::net
