// Network::ComputeRoutes against a reference copy of the per-host BFS it
// replaced: on every registered topology the routed switches must pick the
// same output port for every destination and five-tuple, with symmetric
// and plain hashing. Also pins the structure the linear build relies on —
// interned ECMP sets, tables reset per pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace fncc {
namespace {

using test::SinkFactory;

struct Link {
  int local_port;
  NodeId peer;
};

/// The fabric's links, read back from the switch ports (a host's side of
/// each link is its switch port's mirror, so a host wired to two switches
/// lists both).
std::vector<std::vector<Link>> Adjacency(const Network& net) {
  std::vector<std::vector<Link>> adj(net.num_nodes());
  for (Switch* sw : net.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      const EgressPort::Peer& peer = sw->port(p).peer();
      if (peer.node == nullptr) continue;
      adj[sw->id()].push_back({p, peer.node->id()});
      if (!peer.node->IsSwitch()) {
        adj[peer.node->id()].push_back({peer.port, sw->id()});
      }
    }
  }
  return adj;
}

/// Reference next hops: one BFS per destination host, exactly as
/// ComputeRoutes used to run it. next_hops[switch][dst] holds the ports
/// toward `dst` sorted by (peer id, port); empty means no route.
std::vector<std::vector<std::vector<int>>> ReferenceNextHops(
    const Network& net) {
  const std::vector<std::vector<Link>> adj = Adjacency(net);
  const std::size_t n = net.num_nodes();
  std::vector<std::vector<std::vector<int>>> next_hops(
      n, std::vector<std::vector<int>>(n));
  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  for (const Endpoint* dst : net.hosts()) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    std::deque<NodeId> frontier{dst->id()};
    dist[dst->id()] = 0;
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (const Link& e : adj[cur]) {
        if (!net.node(e.peer)->IsSwitch() && e.peer != dst->id()) continue;
        if (dist[e.peer] == kUnreached) {
          dist[e.peer] = dist[cur] + 1;
          if (net.node(e.peer)->IsSwitch()) frontier.push_back(e.peer);
        }
      }
    }
    for (const Switch* sw : net.switches()) {
      if (dist[sw->id()] == kUnreached) continue;
      std::vector<std::pair<NodeId, int>> hops;
      for (const Link& e : adj[sw->id()]) {
        if (dist[e.peer] == dist[sw->id()] - 1) {
          hops.emplace_back(e.peer, e.local_port);
        }
      }
      std::sort(hops.begin(), hops.end());
      for (const auto& [peer, port] : hops) {
        next_hops[sw->id()][dst->id()].push_back(port);
      }
    }
  }
  return next_hops;
}

/// Routes `net` with (salt, symmetric) and checks every switch's choice
/// for every destination host against the reference, over a spread of
/// sources and ports.
void ExpectSameChoicesAsReference(Network& net, std::uint32_t salt,
                                  bool symmetric) {
  net.ComputeRoutes(salt, symmetric);
  const auto reference = ReferenceNextHops(net);
  constexpr std::uint8_t kProtoUdp = 17;
  Rng pick(5);
  for (Switch* sw : net.switches()) {
    for (const Endpoint* dst : net.hosts()) {
      const std::vector<int>& ports = reference[sw->id()][dst->id()];
      ASSERT_EQ(sw->routing().HasRoute(dst->id()), !ports.empty())
          << sw->name() << " -> " << dst->name();
      if (ports.empty()) continue;
      for (int trial = 0; trial < 8; ++trial) {
        Packet pkt;
        pkt.src = net.hosts()[static_cast<std::size_t>(
                                  pick.UniformInt(0, net.hosts().size() - 1))]
                      ->id();
        pkt.dst = dst->id();
        pkt.sport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
        pkt.dport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
        const std::uint32_t h = EcmpHash(pkt.src, pkt.dst, pkt.sport,
                                         pkt.dport, kProtoUdp, salt, symmetric);
        ASSERT_EQ(sw->RoutePacket(pkt), ports[h % ports.size()])
            << sw->name() << " -> " << dst->name() << " trial " << trial;
      }
    }
  }
}

struct Fabric {
  std::string name;
  TopologyParams params;
};

std::vector<Fabric> RegisteredFabrics() {
  std::vector<Fabric> fabrics;
  for (const std::string& name : TopologyRegistry::Names()) {
    fabrics.push_back({name, {}});
  }
  TopologyParams k8;
  k8.k = 8;
  fabrics.push_back({"fat_tree", k8});
  TopologyParams wide;
  wide.leaves = 4;
  wide.spines = 3;
  wide.hosts_per_leaf = 3;
  fabrics.push_back({"leaf_spine", wide});
  return fabrics;
}

TEST(ComputeRoutesTest, MatchesPerHostBfsOnEveryRegisteredTopology) {
  for (const Fabric& f : RegisteredFabrics()) {
    for (const bool symmetric : {true, false}) {
      SCOPED_TRACE(f.name + " k=" + std::to_string(f.params.k) +
                   (symmetric ? " symmetric" : " plain"));
      Simulator sim;
      Rng rng(1);
      BuiltTopology topo = TopologyRegistry::Build(
          f.name, &sim, SinkFactory(), SwitchConfig{}, &rng, f.params);
      ExpectSameChoicesAsReference(topo.net, 0x5eed, symmetric);
    }
  }
}

TEST(ComputeRoutesTest, HostNotSingleHomedFallsBackToItsOwnBfs) {
  // hd is wired to both switches (its NIC keeps the last peer; routing
  // sees both links), h2 to nothing: neither may take the shared
  // attachment-switch BFS.
  Simulator sim;
  Rng rng(1);
  Network net(&sim);
  SwitchConfig config;
  config.num_ports = 4;
  const NodeId h0 = net.AddHost(SinkFactory(), "h0")->id();
  const NodeId h1 = net.AddHost(SinkFactory(), "h1")->id();
  const NodeId hd = net.AddHost(SinkFactory(), "hd")->id();
  const NodeId h2 = net.AddHost(SinkFactory(), "h2")->id();
  const NodeId a = net.AddSwitch("a", config, &rng)->id();
  const NodeId b = net.AddSwitch("b", config, &rng)->id();
  net.ConnectAuto(h0, a, 100.0, Microseconds(1));
  net.ConnectAuto(h1, b, 100.0, Microseconds(1));
  net.ConnectAuto(a, b, 100.0, Microseconds(1));
  net.Connect(hd, 0, a, net.AllocPort(a), 100.0, Microseconds(1));
  net.Connect(hd, 0, b, net.AllocPort(b), 100.0, Microseconds(1));
  ExpectSameChoicesAsReference(net, 7, true);
  Packet to_hd;
  to_hd.src = h0;
  to_hd.dst = hd;
  for (Switch* sw : net.switches()) {
    EXPECT_FALSE(sw->routing().HasRoute(h2)) << sw->name();
    // Both switches reach hd over their own direct link.
    EXPECT_EQ(sw->port(sw->RoutePacket(to_hd)).peer().node->id(), hd)
        << sw->name();
  }
}

TEST(ComputeRoutesTest, SecondPassReplacesTheTables) {
  Simulator sim;
  Rng rng(1);
  FatTreeTopology topo =
      BuildFatTree(&sim, SinkFactory(), SwitchConfig{}, &rng, 4, {});
  topo.net.ComputeRoutes(0x5eed, true);
  std::vector<std::size_t> pool_sizes;
  std::vector<int> choices;
  const auto record = [&](std::vector<std::size_t>* sizes,
                          std::vector<int>* picks) {
    for (Switch* sw : topo.net.switches()) {
      sizes->push_back(sw->routing().ecmp_pool_size());
      for (const NodeId dst : topo.hosts) {
        for (std::uint16_t sport = 1; sport <= 4; ++sport) {
          Packet p;
          p.src = topo.hosts.front();
          p.dst = dst;
          p.sport = sport;
          p.dport = 4791;
          picks->push_back(sw->RoutePacket(p));
        }
      }
    }
  };
  record(&pool_sizes, &choices);
  topo.net.ComputeRoutes(0x5eed, true);
  std::vector<std::size_t> pool_sizes_again;
  std::vector<int> choices_again;
  record(&pool_sizes_again, &choices_again);
  EXPECT_EQ(pool_sizes_again, pool_sizes);
  EXPECT_EQ(choices_again, choices);
}

TEST(ComputeRoutesTest, FatTreeEcmpPoolsHoldOneUplinkSet) {
  // Interning bound: an edge or agg switch has one distinct multi-port
  // set (its k/2 uplinks), a core switch none.
  for (const int k : {4, 8, 16}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Simulator sim;
    Rng rng(1);
    FatTreeTopology topo =
        BuildFatTree(&sim, SinkFactory(), SwitchConfig{}, &rng, k, {});
    topo.net.ComputeRoutes();
    for (Switch* sw : topo.net.switches()) {
      EXPECT_LE(sw->routing().ecmp_pool_size(),
                static_cast<std::size_t>(k / 2))
          << sw->name();
    }
  }
}

}  // namespace
}  // namespace fncc
