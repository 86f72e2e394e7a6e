// Equivalence properties of the per-run routing state.
//
// `RouteCache` replaced its (from, to)-keyed map with dense per-source
// shards for O(1) lookups; against the same query sequence it must
// return exactly what a straightforward map-based memo returns. The
// probe search reuses one epoch-stamped workspace and one bridge index
// across every routed edge of a run; under a storm of queries and link
// commits it must return exactly what a fresh, unpruned search returns.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "sched/network_state.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

class RouteCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Random (from, to) query storms over a multi-path topology: every
// sharded answer must equal both a fresh BFS and a map-keyed memo.
TEST_P(RouteCacheProperty, ShardedBfsCacheMatchesMapMemo) {
  Rng rng(GetParam());
  const Topology topo = mesh2d(4, 4, SpeedConfig{}, rng);
  RouteCache cache(topo);
  std::map<std::pair<NodeId, NodeId>, Route> reference;
  const auto nodes = static_cast<std::int64_t>(topo.num_nodes());
  for (std::size_t i = 0; i < 2000; ++i) {
    const NodeId from(static_cast<std::size_t>(rng.uniform_int(0, nodes - 1)));
    const NodeId to(static_cast<std::size_t>(rng.uniform_int(0, nodes - 1)));
    const Route& got = cache.route(from, to);
    const auto key = std::make_pair(from, to);
    auto it = reference.find(key);
    if (it == reference.end()) {
      it = reference.emplace(key, bfs_route(topo, from, to)).first;
    }
    ASSERT_EQ(got, it->second) << "query " << i;
  }
}

// Random query storm over a loaded star with pendant processors: the
// reused workspace + bridge index search must match a fresh unpruned
// search on every query, while commits keep changing the link loads.
TEST_P(RouteCacheProperty, ReusedProbeScratchMatchesFreshSearch) {
  Rng rng(GetParam() + 1);
  const Topology topo = switched_star(6, SpeedConfig{}, rng);
  const BridgeIndex bridges(topo);
  sched::ExclusiveNetworkState network(topo, 3000);
  RoutingWorkspace workspace;

  const auto nodes = static_cast<std::int64_t>(topo.num_nodes());
  // A few recurring (ready, cost) values make exact ties common.
  const double readies[] = {0.0, 1.5, 7.25};
  const double costs[] = {10.0, 64.0};
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const NodeId from(static_cast<std::size_t>(rng.uniform_int(0, nodes - 1)));
    const NodeId to(static_cast<std::size_t>(rng.uniform_int(0, nodes - 1)));
    const double ready = readies[rng.uniform_int(0, 2)];
    const double cost = costs[rng.uniform_int(0, 1)];
    const auto probe = [&](LinkId link, const ProbeState& state) {
      const timeline::Placement p = network.probe_link(
          link, state.earliest_start, state.min_finish, cost);
      return ProbeResult{p.start, p.finish};
    };
    const Route reused = dijkstra_route_probe(topo, from, to, ready, probe,
                                              &workspace, &bridges);
    ASSERT_EQ(reused, dijkstra_route_probe(topo, from, to, ready, probe))
        << "query " << i;
    if (!reused.empty() && rng.bernoulli(0.1)) {
      network.commit_edge_basic(dag::EdgeId(i), reused, ready, cost);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteCacheProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace edgesched::net
