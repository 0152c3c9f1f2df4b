// Destination-based routing with ECMP. The hash can be symmetric (sorted
// five-tuple, Fig. 5) so a data packet and its ACK pick mirror paths — the
// property FNCC's return-path INT relies on — or plain (asymmetric) for the
// ablation study.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace fncc {

/// ECMP hash over the five-tuple. With `symmetric` the (src,dst) and
/// (sport,dport) pairs are order-normalized first, so a flow and its
/// reverse flow hash identically at every switch (given equal salt).
std::uint32_t EcmpHash(NodeId src, NodeId dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t proto,
                       std::uint32_t salt, bool symmetric);

/// Per-switch routing table: destination node -> set of equal-cost output
/// ports, ordered consistently (ascending peer node id) across the fabric so
/// symmetric hashing yields symmetric paths.
///
/// Storage is a flat array indexed by destination: one 8-byte Route record
/// per node, holding the output port directly when the route is unique (the
/// common case — no indirection, no hash) or an (offset, count) span into a
/// shared port pool for ECMP sets. ECMP sets are interned: every destination
/// whose next hops are the same port sequence shares one pool span, so the
/// pool holds each distinct set once (a fat-tree edge switch: one set of k/2
/// uplinks) instead of one copy per destination. That pool is the working
/// set per-packet Select reads.
///
/// Built by Network::ComputeRoutes (or ComputeSpanningTreeRoutes), which
/// Resets the table at the start of every pass: re-routing a fabric replaces
/// its routes instead of appending to them. Per-packet Select is one load
/// plus, for multipath, one hash.
class RoutingTable {
 public:
  RoutingTable() = default;
  explicit RoutingTable(std::size_t num_nodes) : routes_(num_nodes) {}

  /// Drops every route and ECMP set; `num_nodes` destinations, none routed.
  void Reset(std::size_t num_nodes);

  /// Installs `ports` as the next-hop set of every destination in `dsts`
  /// (one interning for the whole group). An empty set removes the routes.
  void SetNextHops(std::span<const NodeId> dsts, const std::vector<int>& ports);
  void SetNextHops(NodeId dst, const std::vector<int>& ports) {
    SetNextHops(std::span<const NodeId>(&dst, 1), ports);
  }

  [[nodiscard]] bool HasRoute(NodeId dst) const {
    return dst < routes_.size() && routes_[dst].count != 0;
  }

  /// Picks the output port for `pkt` using ECMP among the equal-cost set.
  [[nodiscard]] int Select(const Packet& pkt, std::uint32_t salt,
                           bool symmetric) const;

  /// Ports held by the interned ECMP sets (single-port routes use none).
  [[nodiscard]] std::size_t ecmp_pool_size() const { return pool_.size(); }

 private:
  struct Route {
    std::uint32_t base = 0;   // the port itself (count == 1) or pool offset
    std::uint32_t count = 0;  // 0 = no route
  };

  std::vector<Route> routes_;        // indexed by destination NodeId
  std::vector<std::uint16_t> pool_;  // interned ECMP port sets, contiguous
};

}  // namespace fncc
