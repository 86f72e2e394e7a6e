#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/builders.hpp"
#include "sched/network_state.hpp"

namespace edgesched::net {
namespace {

/// a -- s1 -- b and a -- s2 -- s3 -- b: short path via s1, long via s2/s3.
struct TwoPathNetwork {
  Topology topology;
  NodeId a, b, s1, s2, s3;
  LinkId a_s1, s1_b, a_s2, s2_s3, s3_b;

  TwoPathNetwork() {
    a = topology.add_processor(1.0, "a");
    b = topology.add_processor(1.0, "b");
    s1 = topology.add_switch("s1");
    s2 = topology.add_switch("s2");
    s3 = topology.add_switch("s3");
    a_s1 = topology.add_duplex_link(a, s1).first;
    s1_b = topology.add_duplex_link(s1, b).first;
    a_s2 = topology.add_duplex_link(a, s2).first;
    s2_s3 = topology.add_duplex_link(s2, s3).first;
    s3_b = topology.add_duplex_link(s3, b).first;
  }
};

TEST(BfsRoute, PicksFewestHops) {
  TwoPathNetwork net;
  const Route route = bfs_route(net.topology, net.a, net.b);
  EXPECT_EQ(route, (Route{net.a_s1, net.s1_b}));
}

TEST(BfsRoute, SameNodeIsEmpty) {
  TwoPathNetwork net;
  EXPECT_TRUE(bfs_route(net.topology, net.a, net.a).empty());
}

TEST(BfsRoute, ThrowsWhenUnreachable) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  EXPECT_THROW((void)bfs_route(t, a, b), std::invalid_argument);
}

TEST(BfsRoute, RouteIsAlwaysValid) {
  Rng rng(3);
  RandomWanParams params;
  params.num_processors = 24;
  const Topology t = random_wan(params, rng);
  const auto& procs = t.processors();
  for (std::size_t i = 0; i < procs.size(); i += 3) {
    for (std::size_t j = 0; j < procs.size(); j += 5) {
      const Route route = bfs_route(t, procs[i], procs[j]);
      EXPECT_NO_THROW(t.validate_route(route, procs[i], procs[j]));
    }
  }
}

TEST(RouteCache, ReturnsSameRoute) {
  TwoPathNetwork net;
  RouteCache cache(net.topology);
  const Route& first = cache.route(net.a, net.b);
  const Route& second = cache.route(net.a, net.b);
  EXPECT_EQ(&first, &second);  // memoised
  EXPECT_EQ(first, (Route{net.a_s1, net.s1_b}));
}

TEST(DijkstraRoute, DefaultWeightIsTransferTime) {
  // Make the short path slow and the long path fast.
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  const NodeId s3 = t.add_switch();
  (void)t.add_link(a, s1, 0.1);
  (void)t.add_link(s1, b, 0.1);
  const LinkId fast1 = t.add_link(a, s2, 10.0);
  const LinkId fast2 = t.add_link(s2, s3, 10.0);
  const LinkId fast3 = t.add_link(s3, b, 10.0);
  const Route route = dijkstra_route(t, a, b);
  EXPECT_EQ(route, (Route{fast1, fast2, fast3}));
}

TEST(DijkstraRoute, CustomWeights) {
  TwoPathNetwork net;
  // Penalise the s1 path heavily.
  const auto weight = [&](LinkId l) {
    return (l == net.a_s1 || l == net.s1_b) ? 100.0 : 1.0;
  };
  const Route route = dijkstra_route(net.topology, net.a, net.b, weight);
  EXPECT_EQ(route, (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(DijkstraRouteProbe, AvoidsBusyLinks) {
  TwoPathNetwork net;
  // Probe that reports the s1 path as busy until t=100.
  const auto probe = [&](LinkId l, const ProbeState& state) {
    const double duration = 1.0;
    double start = state.earliest_start;
    if (l == net.a_s1 || l == net.s1_b) {
      start = std::max(start, 100.0);
    }
    const double finish =
        std::max(start + duration, state.min_finish);
    return ProbeResult{finish - duration, finish};
  };
  const Route route =
      dijkstra_route_probe(net.topology, net.a, net.b, 0.0, probe);
  EXPECT_EQ(route, (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(DijkstraRouteProbe, PrefersShortPathWhenIdle) {
  TwoPathNetwork net;
  const auto probe = [&](LinkId, const ProbeState& state) {
    const double finish = std::max(state.earliest_start + 1.0,
                                   state.min_finish);
    return ProbeResult{finish - 1.0, finish};
  };
  const Route route =
      dijkstra_route_probe(net.topology, net.a, net.b, 5.0, probe);
  EXPECT_EQ(route, (Route{net.a_s1, net.s1_b}));
}

TEST(DijkstraRouteProbe, SameNodeIsEmpty) {
  TwoPathNetwork net;
  const auto probe = [](LinkId, const ProbeState& state) {
    return ProbeResult{state.earliest_start, state.earliest_start + 1.0};
  };
  EXPECT_TRUE(
      dijkstra_route_probe(net.topology, net.a, net.a, 0.0, probe).empty());
}

TEST(DijkstraRouteProbe, ThrowsWhenUnreachable) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const auto probe = [](LinkId, const ProbeState& state) {
    return ProbeResult{state.earliest_start, state.earliest_start + 1.0};
  };
  EXPECT_THROW((void)dijkstra_route_probe(t, a, b, 0.0, probe),
               std::invalid_argument);
}

TEST(KShortestRoutes, FindsBothPathsOfTwoPathNetwork) {
  TwoPathNetwork net;
  const auto routes = net::k_shortest_routes(net.topology, net.a, net.b, 3);
  ASSERT_EQ(routes.size(), 2u);  // only two loopless paths exist
  EXPECT_EQ(routes[0], (Route{net.a_s1, net.s1_b}));
  EXPECT_EQ(routes[1], (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(KShortestRoutes, RespectsWeights) {
  TwoPathNetwork net;
  // Make the short path expensive: the 3-hop path must come first.
  const auto weight = [&](LinkId l) {
    return (l == net.a_s1 || l == net.s1_b) ? 10.0 : 1.0;
  };
  const auto routes =
      k_shortest_routes(net.topology, net.a, net.b, 2, weight);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0], (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(KShortestRoutes, AllRoutesValidAndLoopless) {
  Rng rng(21);
  RandomWanParams params;
  params.num_processors = 20;
  const Topology t = random_wan(params, rng);
  const auto& procs = t.processors();
  const auto routes = k_shortest_routes(t, procs[0], procs.back(), 5);
  EXPECT_GE(routes.size(), 1u);
  double prev_weight = 0.0;
  for (const Route& route : routes) {
    EXPECT_NO_THROW(t.validate_route(route, procs[0], procs.back()));
    // Loopless: no node visited twice.
    std::vector<NodeId> visited{procs[0]};
    for (LinkId l : route) {
      const NodeId next = t.link(l).dst;
      EXPECT_EQ(std::count(visited.begin(), visited.end(), next), 0);
      visited.push_back(next);
    }
    double total = 0.0;
    for (LinkId l : route) {
      total += 1.0 / t.link_speed(l);
    }
    EXPECT_GE(total, prev_weight - 1e-9);  // non-decreasing weights
    prev_weight = total;
  }
}

TEST(KShortestRoutes, RejectsBadArguments) {
  TwoPathNetwork net;
  EXPECT_THROW((void)k_shortest_routes(net.topology, net.a, net.b, 0),
               std::invalid_argument);
  EXPECT_THROW((void)k_shortest_routes(net.topology, net.a, net.a, 2),
               std::invalid_argument);
}

TEST(DijkstraRouteAvoiding, BansWork) {
  TwoPathNetwork net;
  std::vector<bool> banned_links(net.topology.num_links(), false);
  std::vector<bool> banned_nodes(net.topology.num_nodes(), false);
  banned_links[net.a_s1.index()] = true;
  const Route route = dijkstra_route_avoiding(
      net.topology, net.a, net.b, banned_links, banned_nodes);
  EXPECT_EQ(route, (Route{net.a_s2, net.s2_s3, net.s3_b}));
  banned_nodes[net.s2.index()] = true;
  const Route none = dijkstra_route_avoiding(
      net.topology, net.a, net.b, banned_links, banned_nodes);
  EXPECT_TRUE(none.empty());
}

TEST(DijkstraRouteProbe, MatchesBfsHopCountOnUniformIdleNetwork) {
  Rng rng(11);
  RandomWanParams params;
  params.num_processors = 16;
  const Topology t = random_wan(params, rng);
  const auto probe = [](LinkId, const ProbeState& state) {
    const double finish =
        std::max(state.earliest_start + 1.0, state.min_finish);
    return ProbeResult{finish - 1.0, finish};
  };
  const auto& procs = t.processors();
  for (std::size_t i = 0; i < procs.size(); i += 2) {
    const Route bfs = bfs_route(t, procs[0], procs[i]);
    const Route dij =
        dijkstra_route_probe(t, procs[0], procs[i], 0.0, probe);
    // On an idle homogeneous network the probe cost is hop count, so the
    // routes have equal length (ties may pick different links).
    EXPECT_EQ(dij.size(), bfs.size());
  }
}

// --- RoutingWorkspace / BridgeIndex -----------------------------------

/// Load-aware probe over an ExclusiveNetworkState, as OIHSA issues it.
struct LoadedProbe {
  const sched::ExclusiveNetworkState& network;
  double cost;
  ProbeResult operator()(LinkId link, const ProbeState& state) const {
    const timeline::Placement p = network.probe_link(
        link, state.earliest_start, state.min_finish, cost);
    return ProbeResult{p.start, p.finish};
  }
};

// On a tree fabric every link off the route crosses a bridge away from
// the target, so the pruned search probes exactly the route's own hops:
// 2 relaxations under one leaf switch, 4 across leaves.
TEST(BridgeIndex, TreeSearchRelaxesOnlyTheRoute) {
  Rng rng(5);
  const Topology t = fat_tree(4, 4, SpeedConfig{}, rng);
  const BridgeIndex bridges(t);
  sched::ExclusiveNetworkState network(t, 0);
  const LoadedProbe probe{network, 10.0};
  const auto& procs = t.processors();
  ASSERT_EQ(procs.size(), 16u);
  for (const NodeId from : procs) {
    for (const NodeId to : procs) {
      if (from == to) continue;
      RoutingWorkspace workspace;
      const Route route = dijkstra_route_probe(t, from, to, 0.0, probe,
                                               &workspace, &bridges);
      EXPECT_EQ(route, bfs_route(t, from, to));
      const bool same_leaf =
          t.link(route.front()).dst == t.link(route.back()).src;
      EXPECT_EQ(route.size(), same_leaf ? 2u : 4u);
      EXPECT_EQ(workspace.pending_relaxations(), route.size())
          << from.index() << " -> " << to.index();
      workspace.flush_relaxations();
    }
  }
}

TEST(RoutingWorkspace, ReuseMatchesFreshSearches) {
  Rng rng(29);
  RandomWanParams params;
  params.num_processors = 20;
  const Topology t = random_wan(params, rng);
  sched::ExclusiveNetworkState network(t, 64);
  const LoadedProbe probe{network, 3.0};
  // Load a few links so probes see non-trivial timelines.
  const auto& procs = t.processors();
  for (std::uint32_t i = 0; i + 1 < 8; ++i) {
    const Route r = bfs_route(t, procs[i], procs[i + 1]);
    if (!r.empty()) {
      network.commit_edge_basic(dag::EdgeId(i), r, 0.0, 5.0);
    }
  }
  RoutingWorkspace workspace;
  for (std::size_t i = 0; i < procs.size(); i += 2) {
    for (std::size_t j = 1; j < procs.size(); j += 3) {
      if (procs[i] == procs[j]) continue;
      const Route fresh =
          dijkstra_route_probe(t, procs[i], procs[j], 0.5, probe);
      const Route reused = dijkstra_route_probe(t, procs[i], procs[j],
                                                0.5, probe, &workspace);
      EXPECT_EQ(fresh, reused);
    }
  }
}

}  // namespace
}  // namespace edgesched::net
