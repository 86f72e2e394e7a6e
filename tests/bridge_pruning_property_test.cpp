// Byte-identity of the bridge-pruned §4.3 probe search.
//
// `dijkstra_route_probe` with a `BridgeIndex` skips every relaxation
// across a bridge away from the target. That must never change a route
// or an error: every (source, target) pair of each fabric below is
// searched under random per-link loads, and the pruned search must
// return exactly what an unpruned reference Dijkstra (kept here, written
// independently of the library's search) returns — the same links, or
// the same "destination unreachable" error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "sched/network_state.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

using ProbeFn = std::function<ProbeResult(LinkId, const ProbeState&)>;

/// Plain Dijkstra over (finish, start, hops, node) with lexicographic
/// relaxation on (finish, start, hops) — the order §4.3's search is
/// specified to follow — and no pruning at all.
Route reference_route(const Topology& t, NodeId from, NodeId to,
                      double ready, const ProbeFn& probe) {
  if (from == to) {
    return {};
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Label {
    double finish = kInf;
    double start = kInf;
    std::size_t hops = 0;
    LinkId parent;
    bool settled = false;
  };
  std::vector<Label> labels(t.num_nodes());
  using Entry = std::tuple<double, double, std::size_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  labels[from.index()] = Label{0.0, ready, 0, LinkId{}, false};
  heap.emplace(0.0, ready, 0, from.index());
  while (!heap.empty()) {
    const auto [finish, start, hops, u] = heap.top();
    heap.pop();
    Label& current = labels[u];
    if (current.settled || finish > current.finish ||
        (finish == current.finish && start > current.start)) {
      continue;
    }
    current.settled = true;
    if (u == to.index()) {
      break;
    }
    for (LinkId l : t.out_links(NodeId(u))) {
      const std::size_t v = t.link(l).dst.index();
      Label& next = labels[v];
      if (next.settled) {
        continue;
      }
      const ProbeResult r =
          probe(l, ProbeState{current.start, current.finish});
      if (std::make_tuple(r.finish, r.virtual_start, current.hops + 1) <
          std::make_tuple(next.finish, next.start, next.hops)) {
        next.finish = r.finish;
        next.start = r.virtual_start;
        next.hops = current.hops + 1;
        next.parent = l;
        heap.emplace(r.finish, r.virtual_start, next.hops, v);
      }
    }
  }
  if (!labels[to.index()].parent.valid()) {
    throw std::invalid_argument(
        "dijkstra_route_probe: destination unreachable");
  }
  Route route;
  for (NodeId at = to; at != from; at = t.link(route.back()).src) {
    route.push_back(labels[at.index()].parent);
  }
  std::reverse(route.begin(), route.end());
  return route;
}

/// The route, or the error text when the search throws.
template <typename Search>
std::string outcome(Search&& search) {
  try {
    const Route route = search();
    std::string text = "route:";
    for (LinkId l : route) {
      text += ' ';
      text += std::to_string(l.index());
    }
    return text;
  } catch (const std::invalid_argument& e) {
    std::string text = "error: ";
    text += e.what();
    return text;
  }
}

/// Random per-link occupancy: a link is busy until a drawn time and
/// moves data at a drawn rate. Few distinct values keep exact ties —
/// the case the search's total order exists for — common.
struct RandomLoads {
  std::vector<double> busy_until;
  std::vector<double> inv_speed;

  RandomLoads(const Topology& t, Rng& rng) {
    const double busy[] = {0.0, 0.0, 0.0, 3.0, 7.0, 20.0};
    for (std::size_t l = 0; l < t.num_links(); ++l) {
      busy_until.push_back(busy[rng.uniform_int(0, 5)]);
      inv_speed.push_back(rng.bernoulli(0.5) ? 1.0 : 0.5);
    }
  }
  ProbeResult probe(LinkId l, const ProbeState& state, double cost) const {
    const double start =
        std::max(state.earliest_start, busy_until[l.index()]);
    return ProbeResult{start, std::max(start + cost * inv_speed[l.index()],
                                       state.min_finish)};
  }
};

/// Every ordered node pair of `t`, under synthetic loads and under an
/// exclusive network state with random committed traffic: pruned and
/// reference outcomes must agree, and pruning never adds relaxations.
void expect_pruning_exact(const Topology& t, std::uint64_t seed) {
  Rng rng(seed);
  const BridgeIndex bridges(t);
  const RandomLoads loads(t, rng);
  sched::ExclusiveNetworkState network(t, 64);
  const auto& procs = t.processors();
  for (std::uint32_t e = 0; e < 64 && procs.size() > 1; ++e) {
    const NodeId a = procs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(procs.size()) - 1))];
    const NodeId b = procs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(procs.size()) - 1))];
    try {
      const Route r = bfs_route(t, a, b);
      if (!r.empty()) {
        network.commit_edge_basic(dag::EdgeId(e), r,
                                  rng.uniform_real(0.0, 30.0),
                                  rng.uniform_real(1.0, 10.0));
      }
    } catch (const std::invalid_argument&) {
      // unreachable pair on a simplex fabric: nothing to book
    }
  }

  RoutingWorkspace pruned_ws;
  RoutingWorkspace full_ws;
  std::size_t routed = 0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t j = 0; j < t.num_nodes(); ++j) {
      const NodeId from(i);
      const NodeId to(j);
      const double ready = rng.bernoulli(0.5) ? 0.0 : 2.5;
      const double cost = rng.bernoulli(0.5) ? 4.0 : 12.0;
      ProbeFn probe;
      if (rng.bernoulli(0.5)) {
        probe = [&loads, cost](LinkId l, const ProbeState& s) {
          return loads.probe(l, s, cost);
        };
      } else {
        probe = [&network, cost](LinkId l, const ProbeState& s) {
          const timeline::Placement p =
              network.probe_link(l, s.earliest_start, s.min_finish, cost);
          return ProbeResult{p.start, p.finish};
        };
      }
      SCOPED_TRACE(::testing::Message()
                   << t.name() << ' ' << i << " -> " << j);
      const std::string expected = outcome(
          [&] { return reference_route(t, from, to, ready, probe); });
      ASSERT_EQ(outcome([&] {
                  return dijkstra_route_probe(t, from, to, ready, probe,
                                              &pruned_ws, &bridges);
                }),
                expected);
      ASSERT_EQ(outcome([&] {
                  return dijkstra_route_probe(t, from, to, ready, probe,
                                              &full_ws);
                }),
                expected);
      ASSERT_LE(pruned_ws.pending_relaxations(),
                full_ws.pending_relaxations());
      routed += expected.rfind("route:", 0) == 0 ? 1 : 0;
    }
  }
  EXPECT_GT(routed, t.num_nodes());  // the sweep is not all errors
}

/// Processors on a ring of switches joined by half-duplex cables, with
/// a pendant two-switch chain: cables whose directions share a domain.
Topology half_duplex_ring(const SpeedConfig& speeds, Rng& rng) {
  Topology t("half_duplex_ring");
  std::vector<NodeId> ring;
  for (int s = 0; s < 4; ++s) {
    ring.push_back(t.add_switch());
  }
  for (std::size_t s = 0; s < ring.size(); ++s) {
    t.add_half_duplex_link(ring[s], ring[(s + 1) % ring.size()],
                           speeds.link_speed(rng));
    const NodeId p = t.add_processor(speeds.processor_speed(rng));
    t.add_half_duplex_link(p, ring[s], speeds.link_speed(rng));
  }
  const NodeId chain = t.add_switch();
  t.add_half_duplex_link(ring[0], chain, speeds.link_speed(rng));
  const NodeId tail = t.add_switch();
  t.add_half_duplex_link(chain, tail, speeds.link_speed(rng));
  t.add_half_duplex_link(tail, t.add_processor(), speeds.link_speed(rng));
  return t;
}

/// Hand-built corner cases: a switch triangle with a parallel cable, a
/// processor reachable only over simplex links (a directed detour), a
/// receive-only processor, a parallel cable on a bridge, and a pendant
/// switch subtree ending in a receive-only switch, and an isolated
/// processor.
Topology corner_cases() {
  Topology t("corner_cases");
  const NodeId s0 = t.add_switch("s0");
  const NodeId s1 = t.add_switch("s1");
  const NodeId s2 = t.add_switch("s2");
  t.add_duplex_link(s0, s1);
  t.add_duplex_link(s0, s1, 2.0);  // parallel cable inside the cycle
  t.add_duplex_link(s1, s2);
  t.add_duplex_link(s2, s0);
  const NodeId p0 = t.add_processor(1.0, "p0");
  t.add_duplex_link(p0, s0);
  const NodeId p1 = t.add_processor(1.0, "p1");
  t.add_link(s1, p1);  // simplex in from s1 ...
  t.add_link(p1, s0);  // ... simplex out to s0
  const NodeId p2 = t.add_processor(1.0, "p2");
  t.add_link(s2, p2);  // receive-only
  const NodeId s3 = t.add_switch("s3");
  t.add_duplex_link(s2, s3);
  t.add_duplex_link(s2, s3, 3.0);  // parallel cable on a bridge
  const NodeId p3 = t.add_processor(1.0, "p3");
  t.add_duplex_link(p3, s3);
  const NodeId s4 = t.add_switch("s4");  // pendant subtree under s3
  t.add_duplex_link(s3, s4);
  const NodeId p4 = t.add_processor(1.0, "p4");
  t.add_duplex_link(p4, s4);
  const NodeId p5 = t.add_processor(1.0, "p5");
  t.add_duplex_link(p5, s4);
  t.add_link(s4, t.add_switch("s5"));  // receive-only dead end
  t.add_processor(1.0, "island");       // a component of its own
  return t;
}

class BridgePruningProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BridgePruningProperty, MatchesUnprunedReferenceOnEveryFabric) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  SpeedConfig hetero;
  hetero.heterogeneous = true;
  RandomWanParams wan;
  wan.num_processors = 24;
  wan.speeds = hetero;
  const std::vector<Topology> fabrics = {
      fat_tree(4, 4, SpeedConfig{}, rng),
      dragonfly(3, 2, 2, hetero, rng),
      random_wan(wan, rng),
      torus2d(3, 4, SpeedConfig{}, rng),
      mesh2d(3, 3, hetero, rng),
      bus(5, SpeedConfig{}, rng),
      half_duplex_ring(hetero, rng),
      corner_cases(),
  };
  for (const Topology& t : fabrics) {
    expect_pruning_exact(t, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BridgePruningProperty,
                         ::testing::Values(1u, 2u, 3u));

// On the hand-built fabric a receive-only processor (5) and switch (11)
// cannot send, and the island (12) cannot be reached: every such error
// survives pruning.
TEST(BridgePruning, UnreachablePairsStillThrow) {
  const Topology t = corner_cases();
  const BridgeIndex bridges(t);
  const auto idle = [](LinkId, const ProbeState& s) {
    return ProbeResult{s.earliest_start, s.earliest_start + 1.0};
  };
  RoutingWorkspace ws;
  for (const auto& [from, to] : {std::pair<std::size_t, std::size_t>{5, 3},
                                 {11, 7}, {3, 12}, {12, 3}}) {
    SCOPED_TRACE(::testing::Message() << from << " -> " << to);
    EXPECT_EQ(outcome([&] {
                return dijkstra_route_probe(t, NodeId(from), NodeId(to), 0.0,
                                            idle, &ws, &bridges);
              }),
              "error: dijkstra_route_probe: destination unreachable");
  }
}

}  // namespace
}  // namespace edgesched::net
