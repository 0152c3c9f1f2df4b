#include "net/topology.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/named_registry.hpp"

namespace fncc {

namespace {
SwitchConfig WithPorts(SwitchConfig config, int ports) {
  config.num_ports = ports;
  return config;
}

[[noreturn]] void BadParam(const std::string& what) {
  throw std::invalid_argument("topology: " + what);
}

void RequireAtLeast(const char* name, int value, int min) {
  if (value < min) {
    BadParam(std::string(name) + " = " + std::to_string(value) +
             " (must be >= " + std::to_string(min) + ")");
  }
}
}  // namespace

DumbbellTopology BuildDumbbell(Simulator* sim, const HostFactory& hosts,
                               const SwitchConfig& sw_config, Rng* rng,
                               int num_senders, int num_switches,
                               const LinkParams& link) {
  assert(num_senders >= 1 && num_switches >= 1);
  DumbbellTopology topo{Network(sim), {}, kInvalidNode, {}};
  Network& net = topo.net;

  for (int i = 0; i < num_senders; ++i) {
    topo.senders.push_back(
        net.AddHost(hosts, "sender" + std::to_string(i))->id());
  }
  topo.receiver = net.AddHost(hosts, "receiver0")->id();

  // switch0 needs a port per sender + one uplink; interior switches need 2.
  for (int m = 0; m < num_switches; ++m) {
    const int ports = (m == 0) ? num_senders + 1 : 2;
    topo.switches.push_back(
        net.AddSwitch("switch" + std::to_string(m),
                      WithPorts(sw_config, ports), rng)
            ->id());
  }

  for (int i = 0; i < num_senders; ++i) {
    net.ConnectAuto(topo.senders[i], topo.switches[0], link.gbps,
                    link.propagation_delay);
  }
  // The sender-facing ports were allocated first, so switch0's uplink —
  // the congestion point of Figs. 1/9 — is the next port.
  topo.congestion_port_ = num_senders;
  for (int m = 0; m + 1 < num_switches; ++m) {
    net.ConnectAuto(topo.switches[m], topo.switches[m + 1], link.gbps,
                    link.propagation_delay);
  }
  net.ConnectAuto(topo.switches.back(), topo.receiver, link.gbps,
                  link.propagation_delay);
  if (num_switches == 1) topo.congestion_port_ = num_senders;

  return topo;
}

ChainMergeTopology BuildChainMerge(Simulator* sim, const HostFactory& hosts,
                                   const SwitchConfig& sw_config, Rng* rng,
                                   int num_switches, int merge_switch,
                                   const LinkParams& link) {
  assert(num_switches >= 1);
  assert(merge_switch >= 0 && merge_switch < num_switches);
  ChainMergeTopology topo{Network(sim), kInvalidNode, kInvalidNode, kInvalidNode, {}, 0, -1};
  Network& net = topo.net;
  topo.merge_switch = merge_switch;

  topo.sender0 = net.AddHost(hosts, "sender0")->id();
  topo.sender1 = net.AddHost(hosts, "sender1")->id();
  topo.receiver = net.AddHost(hosts, "receiver0")->id();

  for (int m = 0; m < num_switches; ++m) {
    // Ports: downstream + upstream + possibly two sender attachments.
    topo.switches.push_back(
        net.AddSwitch("switch" + std::to_string(m), WithPorts(sw_config, 4),
                      rng)
            ->id());
  }

  net.ConnectAuto(topo.sender0, topo.switches[0], link.gbps,
                  link.propagation_delay);
  net.ConnectAuto(topo.sender1, topo.switches[merge_switch], link.gbps,
                  link.propagation_delay);

  for (int m = 0; m + 1 < num_switches; ++m) {
    if (m == merge_switch) {
      topo.congestion_port_ = net.AllocatedPorts(topo.switches[m]);
    }
    net.ConnectAuto(topo.switches[m], topo.switches[m + 1], link.gbps,
                    link.propagation_delay);
  }
  if (merge_switch == num_switches - 1) {
    // Last-hop congestion: the contended egress is toward the receiver.
    topo.congestion_port_ = net.AllocatedPorts(topo.switches.back());
  }
  net.ConnectAuto(topo.switches.back(), topo.receiver, link.gbps,
                  link.propagation_delay);

  return topo;
}

FatTreeTopology BuildFatTree(Simulator* sim, const HostFactory& hosts,
                             const SwitchConfig& sw_config, Rng* rng, int k,
                             const LinkParams& link) {
  assert(k >= 2 && k % 2 == 0);
  const int half = k / 2;
  const int num_hosts = k * half * half;

  FatTreeTopology topo{Network(sim), 0, {}, {}, {}, {}};
  topo.k = k;
  Network& net = topo.net;

  // Event-domain groups: each pod (its hosts, edges and aggs) is group p,
  // the core layer is group k — the partitioning the PDES scheduler maps
  // onto event lanes. Only pod<->core links cross groups, so the lookahead
  // window is one link propagation delay.
  for (int h = 0; h < num_hosts; ++h) {
    std::string name = "h";
    name += std::to_string(h);
    net.SetNodeGroup(h / (half * half));
    topo.hosts.push_back(net.AddHost(hosts, name)->id());
  }
  for (int p = 0; p < k; ++p) {
    net.SetNodeGroup(p);
    for (int e = 0; e < half; ++e) {
      topo.edges.push_back(net.AddSwitch(
          "edge_p" + std::to_string(p) + "_" + std::to_string(e),
          WithPorts(sw_config, k), rng)->id());
    }
  }
  for (int p = 0; p < k; ++p) {
    net.SetNodeGroup(p);
    for (int a = 0; a < half; ++a) {
      topo.aggs.push_back(net.AddSwitch(
          "agg_p" + std::to_string(p) + "_" + std::to_string(a),
          WithPorts(sw_config, k), rng)->id());
    }
  }
  net.SetNodeGroup(k);
  for (int c = 0; c < half * half; ++c) {
    topo.cores.push_back(net.AddSwitch("core" + std::to_string(c),
                                       WithPorts(sw_config, k), rng)->id());
  }

  // Hosts to edges: host index within pod p, edge e, slot s.
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < half; ++e) {
      for (int s = 0; s < half; ++s) {
        const int h = p * half * half + e * half + s;
        net.ConnectAuto(topo.hosts[h], topo.edges[p * half + e], link.gbps,
                        link.propagation_delay);
      }
    }
  }
  // Edges to aggs: full bipartite within each pod.
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        net.ConnectAuto(topo.edges[p * half + e], topo.aggs[p * half + a],
                        link.gbps, link.propagation_delay);
      }
    }
  }
  // Aggs to cores: agg #x of every pod attaches to cores x*half..x*half+half-1.
  for (int p = 0; p < k; ++p) {
    for (int x = 0; x < half; ++x) {
      for (int y = 0; y < half; ++y) {
        net.ConnectAuto(topo.aggs[p * half + x], topo.cores[x * half + y],
                        link.gbps, link.propagation_delay);
      }
    }
  }

  return topo;
}

LeafSpineTopology BuildLeafSpine(Simulator* sim, const HostFactory& hosts,
                                 const SwitchConfig& sw_config, Rng* rng,
                                 int leaves, int spines, int hosts_per_leaf,
                                 double oversubscription,
                                 const LinkParams& link) {
  assert(leaves >= 1 && spines >= 1 && hosts_per_leaf >= 1);
  assert(oversubscription > 0.0);
  const double uplink_gbps = static_cast<double>(hosts_per_leaf) * link.gbps /
                             (static_cast<double>(spines) * oversubscription);

  LeafSpineTopology topo{Network(sim), {}, {}, {}, 0};
  topo.hosts_per_leaf = hosts_per_leaf;
  Network& net = topo.net;

  // Event-domain groups: leaf l and its hosts form group l, the spine
  // layer is group `leaves` — only leaf<->spine links cross groups.
  for (int l = 0; l < leaves; ++l) {
    net.SetNodeGroup(l);
    for (int h = 0; h < hosts_per_leaf; ++h) {
      std::string name = "h";
      name += std::to_string(l * hosts_per_leaf + h);
      topo.hosts.push_back(net.AddHost(hosts, name)->id());
    }
  }
  for (int l = 0; l < leaves; ++l) {
    net.SetNodeGroup(l);
    topo.leaves.push_back(
        net.AddSwitch("leaf" + std::to_string(l),
                      WithPorts(sw_config, hosts_per_leaf + spines), rng)
            ->id());
  }
  net.SetNodeGroup(leaves);
  for (int s = 0; s < spines; ++s) {
    topo.spines.push_back(net.AddSwitch("spine" + std::to_string(s),
                                        WithPorts(sw_config, leaves), rng)
                              ->id());
  }

  // Hosts first so leaf l's ports 0..H-1 face its hosts (the congestion
  // helper relies on the last host being port H-1 of the last leaf).
  for (int l = 0; l < leaves; ++l) {
    for (int h = 0; h < hosts_per_leaf; ++h) {
      net.ConnectAuto(topo.hosts[l * hosts_per_leaf + h], topo.leaves[l],
                      link.gbps, link.propagation_delay);
    }
  }
  for (int l = 0; l < leaves; ++l) {
    for (int s = 0; s < spines; ++s) {
      net.ConnectAuto(topo.leaves[l], topo.spines[s], uplink_gbps,
                      link.propagation_delay);
    }
  }

  return topo;
}

MultiRailDumbbellTopology BuildMultiRailDumbbell(
    Simulator* sim, const HostFactory& hosts, const SwitchConfig& sw_config,
    Rng* rng, int num_senders, int rails, const LinkParams& link) {
  assert(num_senders >= 1 && rails >= 1);
  MultiRailDumbbellTopology topo{Network(sim),  {},           kInvalidNode,
                                 kInvalidNode,  kInvalidNode, 0};
  topo.rails = rails;
  Network& net = topo.net;

  for (int i = 0; i < num_senders; ++i) {
    topo.senders.push_back(
        net.AddHost(hosts, "sender" + std::to_string(i))->id());
  }
  topo.receiver = net.AddHost(hosts, "receiver0")->id();
  topo.switch_a =
      net.AddSwitch("switchA", WithPorts(sw_config, num_senders + rails), rng)
          ->id();
  topo.switch_b =
      net.AddSwitch("switchB", WithPorts(sw_config, rails + 1), rng)->id();

  for (int i = 0; i < num_senders; ++i) {
    net.ConnectAuto(topo.senders[i], topo.switch_a, link.gbps,
                    link.propagation_delay);
  }
  // Parallel rails A->B: equal-cost by construction, so ComputeRoutes
  // installs all of them as one ECMP set and flows spread by five-tuple.
  for (int r = 0; r < rails; ++r) {
    net.ConnectAuto(topo.switch_a, topo.switch_b, link.gbps,
                    link.propagation_delay);
  }
  net.ConnectAuto(topo.switch_b, topo.receiver, link.gbps,
                  link.propagation_delay);

  return topo;
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

namespace {

/// All-but-last hosts send, last receives — the role nomination for
/// topologies without distinguished sender/receiver endpoints.
void NominateRoles(BuiltTopology* topo) {
  topo->senders.assign(topo->hosts.begin(), topo->hosts.end() - 1);
  topo->receiver = topo->hosts.back();
}

BuiltTopology AdaptDumbbell(Simulator* sim, const HostFactory& hosts,
                            const SwitchConfig& sw_config, Rng* rng,
                            const TopologyParams& p) {
  RequireAtLeast("num_senders", p.num_senders, 1);
  RequireAtLeast("num_switches", p.num_switches, 1);
  DumbbellTopology t = BuildDumbbell(sim, hosts, sw_config, rng,
                                     p.num_senders, p.num_switches, p.link);
  BuiltTopology out{std::move(t.net), {}, {}, kInvalidNode, kInvalidNode, -1};
  out.hosts = t.senders;
  out.hosts.push_back(t.receiver);
  out.senders = std::move(t.senders);
  out.receiver = t.receiver;
  out.congestion_node = t.switches.front();
  out.congestion_port = t.congestion_port_;
  return out;
}

BuiltTopology AdaptChainMerge(Simulator* sim, const HostFactory& hosts,
                              const SwitchConfig& sw_config, Rng* rng,
                              const TopologyParams& p) {
  RequireAtLeast("num_switches", p.num_switches, 1);
  if (p.merge_switch < 0 || p.merge_switch >= p.num_switches) {
    BadParam("merge_switch = " + std::to_string(p.merge_switch) +
             " (must be in [0, num_switches))");
  }
  ChainMergeTopology t = BuildChainMerge(sim, hosts, sw_config, rng,
                                         p.num_switches, p.merge_switch,
                                         p.link);
  BuiltTopology out{std::move(t.net), {}, {}, kInvalidNode, kInvalidNode, -1};
  out.hosts = {t.sender0, t.sender1, t.receiver};
  out.senders = {t.sender0, t.sender1};
  out.receiver = t.receiver;
  out.congestion_node = t.switches[static_cast<std::size_t>(t.merge_switch)];
  out.congestion_port = t.congestion_port_;
  return out;
}

BuiltTopology AdaptFatTree(Simulator* sim, const HostFactory& hosts,
                           const SwitchConfig& sw_config, Rng* rng,
                           const TopologyParams& p) {
  if (p.k < 2 || p.k % 2 != 0) {
    BadParam("k = " + std::to_string(p.k) + " (must be even and >= 2)");
  }
  FatTreeTopology t = BuildFatTree(sim, hosts, sw_config, rng, p.k, p.link);
  BuiltTopology out{std::move(t.net), {}, {}, kInvalidNode, kInvalidNode, -1};
  out.hosts = std::move(t.hosts);
  NominateRoles(&out);
  return out;
}

BuiltTopology AdaptLeafSpine(Simulator* sim, const HostFactory& hosts,
                             const SwitchConfig& sw_config, Rng* rng,
                             const TopologyParams& p) {
  RequireAtLeast("leaves", p.leaves, 1);
  RequireAtLeast("spines", p.spines, 1);
  RequireAtLeast("hosts_per_leaf", p.hosts_per_leaf, 1);
  if (!(p.oversubscription > 0.0)) {
    BadParam("oversubscription must be > 0");
  }
  if (p.leaves * p.hosts_per_leaf < 2) {
    BadParam("leaf_spine needs at least 2 hosts");
  }
  LeafSpineTopology t =
      BuildLeafSpine(sim, hosts, sw_config, rng, p.leaves, p.spines,
                     p.hosts_per_leaf, p.oversubscription, p.link);
  BuiltTopology out{std::move(t.net), {}, {}, kInvalidNode, kInvalidNode, -1};
  out.hosts = std::move(t.hosts);
  NominateRoles(&out);
  out.congestion_node = t.leaves.back();
  out.congestion_port = t.hosts_per_leaf - 1;
  return out;
}

BuiltTopology AdaptMultiRail(Simulator* sim, const HostFactory& hosts,
                             const SwitchConfig& sw_config, Rng* rng,
                             const TopologyParams& p) {
  RequireAtLeast("num_senders", p.num_senders, 1);
  RequireAtLeast("rails", p.rails, 1);
  MultiRailDumbbellTopology t = BuildMultiRailDumbbell(
      sim, hosts, sw_config, rng, p.num_senders, p.rails, p.link);
  BuiltTopology out{std::move(t.net), {}, {}, kInvalidNode, kInvalidNode, -1};
  out.hosts = t.senders;
  out.hosts.push_back(t.receiver);
  out.senders = std::move(t.senders);
  out.receiver = t.receiver;
  out.congestion_node = t.switch_b;
  out.congestion_port = t.rails;
  return out;
}

NamedRegistry<TopologyBuildFn>& Entries() {
  static NamedRegistry<TopologyBuildFn>* entries = [] {
    auto* r = new NamedRegistry<TopologyBuildFn>("topology");
    r->Register(
        "dumbbell",
        "Fig. 10: num_senders hosts -> chain of num_switches -> 1 receiver",
        AdaptDumbbell);
    r->Register(
        "chain_merge",
        "Fig. 11: 2 senders merging at merge_switch of a num_switches chain",
        AdaptChainMerge);
    r->Register(
        "fat_tree",
        "3-level fat-tree, parameter k (k^3/4 hosts, 1:1 oversubscription)",
        AdaptFatTree);
    r->Register("leaf_spine",
                "two-tier leaf-spine: leaves x hosts_per_leaf hosts, spines "
                "spines, uplinks scaled by oversubscription",
                AdaptLeafSpine);
    r->Register("multirail_dumbbell",
                "num_senders hosts -> switch A =rails parallel ECMP links= "
                "switch B -> 1 receiver",
                AdaptMultiRail);
    return r;
  }();
  return *entries;
}

}  // namespace

int TopologyNaturalDomains(const std::string& name,
                           const TopologyParams& params) {
  if (name == "fat_tree") return params.k + 1;
  if (name == "leaf_spine") return params.leaves + 1;
  return 1;
}

void TopologyRegistry::Register(const std::string& name,
                                const std::string& description,
                                TopologyBuildFn build) {
  Entries().Register(name, description, std::move(build));
}

bool TopologyRegistry::Contains(const std::string& name) {
  return Entries().Contains(name);
}

BuiltTopology TopologyRegistry::Build(const std::string& name, Simulator* sim,
                                      const HostFactory& hosts,
                                      const SwitchConfig& sw_config, Rng* rng,
                                      const TopologyParams& params) {
  return Entries().At(name)(sim, hosts, sw_config, rng, params);
}

std::vector<std::string> TopologyRegistry::Names() {
  return Entries().Names();
}

std::string TopologyRegistry::Describe(const std::string& name) {
  return Entries().Describe(name);
}

}  // namespace fncc
