#include "net/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace edgesched::net {

Route bfs_route(const Topology& topology, NodeId from, NodeId to) {
  throw_if(from.index() >= topology.num_nodes() ||
               to.index() >= topology.num_nodes(),
           "bfs_route: invalid endpoint");
  if (from == to) {
    return {};
  }
  std::vector<LinkId> parent(topology.num_nodes());
  std::vector<bool> seen(topology.num_nodes(), false);
  std::queue<NodeId> frontier;
  frontier.push(from);
  seen[from.index()] = true;
  while (!frontier.empty() && !seen[to.index()]) {
    const NodeId current = frontier.front();
    frontier.pop();
    for (LinkId l : topology.out_links(current)) {
      const NodeId next = topology.link(l).dst;
      if (!seen[next.index()]) {
        seen[next.index()] = true;
        parent[next.index()] = l;
        frontier.push(next);
      }
    }
  }
  throw_if(!seen[to.index()], "bfs_route: destination unreachable");
  Route route;
  NodeId at = to;
  while (at != from) {
    const LinkId hop = parent[at.index()];
    route.push_back(hop);
    at = topology.link(hop).src;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

RouteCache::~RouteCache() {
  if (hits_ > 0) {
    obs::hot_counters().route_cache_hits.increment(hits_);
  }
  if (misses_ > 0) {
    obs::hot_counters().route_cache_misses.increment(misses_);
  }
}

const Route& RouteCache::route(NodeId from, NodeId to) {
  throw_if(from.index() >= shards_.size() ||
               to.index() >= topology_->num_nodes(),
           "RouteCache: invalid endpoint");
  Shard& shard = shards_[from.index()];
  if (shard.routes.empty()) {
    shard.routes.resize(topology_->num_nodes());
    shard.cached.assign(topology_->num_nodes(), 0);
  }
  if (shard.cached[to.index()] != 0) {
    ++hits_;
  } else {
    shard.routes[to.index()] = bfs_route(*topology_, from, to);
    shard.cached[to.index()] = 1;
    ++misses_;
  }
  return shard.routes[to.index()];
}

StaticRouteTable::StaticRouteTable(const Topology& topology) {
  shards_.resize(topology.num_nodes());
  // One BFS per processor source, identical discovery order to
  // `bfs_route` but run to exhaustion so every destination's parent is
  // assigned in one pass. Early stopping cannot change any parent that
  // was already assigned (BFS assigns each node's parent exactly once,
  // in deterministic frontier order), so the extracted routes are
  // byte-identical to per-destination `bfs_route` calls.
  const std::size_t n = topology.num_nodes();
  std::vector<LinkId> parent(n);
  std::vector<char> seen(n);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  for (const NodeId from : topology.processors()) {
    std::fill(seen.begin(), seen.end(), 0);
    frontier.clear();
    frontier.push_back(from);
    seen[from.index()] = 1;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId current = frontier[head];
      for (LinkId l : topology.out_links(current)) {
        const NodeId next = topology.link(l).dst;
        if (seen[next.index()] == 0) {
          seen[next.index()] = 1;
          parent[next.index()] = l;
          frontier.push_back(next);
        }
      }
    }
    Shard& shard = shards_[from.index()];
    shard.routes.resize(n);
    shard.cached.assign(n, 0);
    shard.cached[from.index()] = 1;  // from == to: the empty route
    for (const NodeId to : topology.processors()) {
      if (to == from || seen[to.index()] == 0) {
        continue;
      }
      Route route;
      NodeId at = to;
      while (at != from) {
        const LinkId hop = parent[at.index()];
        route.push_back(hop);
        at = topology.link(hop).src;
      }
      std::reverse(route.begin(), route.end());
      shard.routes[to.index()] = std::move(route);
      shard.cached[to.index()] = 1;
    }
  }
}

const Route& StaticRouteTable::route(NodeId from, NodeId to) const {
  throw_if(from.index() >= shards_.size(), "StaticRouteTable: bad source");
  const Shard& shard = shards_[from.index()];
  throw_if(to.index() >= shard.routes.size() ||
               shard.cached[to.index()] == 0,
           "StaticRouteTable: route not materialised (processors only)");
  return shard.routes[to.index()];
}

BridgeIndex::BridgeIndex(const Topology& topology)
    : nodes_(topology.num_nodes()) {
  const std::size_t n = topology.num_nodes();
  throw_if(n > std::numeric_limits<std::uint32_t>::max(),
           "BridgeIndex: too many nodes");
  // Undirected simple neighbour lists: both link directions, parallel
  // cables and self-loops collapse, so a pair of nodes is one edge.
  std::vector<std::vector<std::size_t>> adjacent(n);
  for (std::size_t i = 0; i < topology.num_links(); ++i) {
    const Link& link = topology.link(LinkId(i));
    if (link.src != link.dst) {
      adjacent[link.src.index()].push_back(link.dst.index());
      adjacent[link.dst.index()].push_back(link.src.index());
    }
  }
  for (std::vector<std::size_t>& list : adjacent) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  // Iterative Tarjan DFS: low(v) is the least entry time reachable from
  // v's subtree over one non-tree edge; tree edge (p, c) is a bridge iff
  // low(c) > tin(p).
  std::vector<std::uint32_t> low(n);
  std::vector<std::size_t> parent(n, kNone);
  std::vector<char> visited(n, 0);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // node, next
  std::uint32_t timer = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (visited[root] != 0) {
      continue;
    }
    visited[root] = 1;
    nodes_[root].tin = low[root] = timer++;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < adjacent[v].size()) {
        const std::size_t w = adjacent[v][next++];
        if (visited[w] == 0) {
          visited[w] = 1;
          parent[w] = v;
          nodes_[w].tin = low[w] = timer++;
          stack.emplace_back(w, 0);
        } else if (w != parent[v]) {
          low[v] = std::min(low[v], nodes_[w].tin);
        }
        continue;
      }
      const std::size_t done = v;
      stack.pop_back();
      nodes_[done].tout = timer - 1;
      const std::size_t p = parent[done];
      if (p != kNone) {
        low[p] = std::min(low[p], low[done]);
        if (low[done] > nodes_[p].tin) {
          nodes_[done].bridge_parent = p;
        }
      }
    }
  }
}

Route dijkstra_route(const Topology& topology, NodeId from, NodeId to,
                     const std::function<double(LinkId)>& weight) {
  const auto link_weight = [&](LinkId l) {
    return weight ? weight(l) : 1.0 / topology.link_speed(l);
  };
  // Express static weights through the probe machinery: arrival time plays
  // the role of accumulated distance.
  const auto probe = [&](LinkId l, const ProbeState& state) {
    const double w = link_weight(l);
    throw_if(w < 0.0, "dijkstra_route: negative link weight");
    return ProbeResult{state.earliest_start + w, state.earliest_start + w};
  };
  return dijkstra_route_probe(topology, from, to, 0.0, probe);
}

namespace {

Route route_avoiding_with_workspace(
    const Topology& topology, NodeId from, NodeId to,
    const std::vector<bool>& banned_links,
    const std::vector<bool>& banned_nodes,
    const std::function<double(LinkId)>& weight,
    RoutingWorkspace* workspace) {
  const auto link_weight = [&](LinkId l) {
    return weight ? weight(l) : 1.0 / topology.link_speed(l);
  };
  constexpr double kBlocked = std::numeric_limits<double>::infinity();
  const auto probe = [&](LinkId l, const ProbeState& state) {
    const Link& link = topology.link(l);
    const bool banned =
        (l.index() < banned_links.size() && banned_links[l.index()]) ||
        (link.dst.index() < banned_nodes.size() &&
         banned_nodes[link.dst.index()]);
    const double w = banned ? kBlocked : link_weight(l);
    return ProbeResult{state.earliest_start + w,
                       state.earliest_start + w};
  };
  try {
    Route route =
        dijkstra_route_probe(topology, from, to, 0.0, probe, workspace);
    // A "found" route through blocked links has infinite weight.
    for (LinkId l : route) {
      if (l.index() < banned_links.size() && banned_links[l.index()]) {
        return {};
      }
      const Link& link = topology.link(l);
      if (link.dst.index() < banned_nodes.size() &&
          banned_nodes[link.dst.index()]) {
        return {};
      }
    }
    return route;
  } catch (const std::invalid_argument&) {
    return {};
  }
}

}  // namespace

Route dijkstra_route_avoiding(const Topology& topology, NodeId from,
                              NodeId to,
                              const std::vector<bool>& banned_links,
                              const std::vector<bool>& banned_nodes,
                              const std::function<double(LinkId)>& weight) {
  return route_avoiding_with_workspace(topology, from, to, banned_links,
                                       banned_nodes, weight, nullptr);
}

std::vector<Route> k_shortest_routes(
    const Topology& topology, NodeId from, NodeId to, std::size_t k,
    const std::function<double(LinkId)>& weight) {
  throw_if(k == 0, "k_shortest_routes: k must be > 0");
  throw_if(from == to, "k_shortest_routes: endpoints must differ");
  const auto link_weight = [&](LinkId l) {
    return weight ? weight(l) : 1.0 / topology.link_speed(l);
  };
  const auto route_weight = [&](const Route& route) {
    double total = 0.0;
    for (LinkId l : route) {
      total += link_weight(l);
    }
    return total;
  };
  const auto route_less = [&](const Route& a, const Route& b) {
    const double wa = route_weight(a);
    const double wb = route_weight(b);
    if (wa != wb) return wa < wb;
    return a < b;  // deterministic tie-break
  };

  // One workspace amortised over every spur-path search Yen performs.
  RoutingWorkspace workspace;
  std::vector<Route> found;
  found.push_back(dijkstra_route(topology, from, to, weight));
  std::vector<Route> candidates;

  while (found.size() < k) {
    const Route& base = found.back();
    // Yen: branch at every prefix of the last accepted route.
    for (std::size_t spur = 0; spur < base.size(); ++spur) {
      const NodeId spur_node =
          spur == 0 ? from : topology.link(base[spur - 1]).dst;
      std::vector<bool> banned_links(topology.num_links(), false);
      std::vector<bool> banned_nodes(topology.num_nodes(), false);
      // Ban the next link of every accepted route sharing this prefix.
      for (const Route& existing : found) {
        if (existing.size() > spur &&
            std::equal(existing.begin(),
                       existing.begin() +
                           static_cast<std::ptrdiff_t>(spur),
                       base.begin())) {
          banned_links[existing[spur].index()] = true;
        }
      }
      // Ban prefix nodes so spur paths stay loopless.
      NodeId walker = from;
      for (std::size_t i = 0; i < spur; ++i) {
        banned_nodes[walker.index()] = true;
        walker = topology.link(base[i]).dst;
      }
      const Route spur_path = route_avoiding_with_workspace(
          topology, spur_node, to, banned_links, banned_nodes, weight,
          &workspace);
      if (spur_path.empty() && spur_node != to) {
        continue;
      }
      Route candidate(base.begin(),
                      base.begin() + static_cast<std::ptrdiff_t>(spur));
      candidate.insert(candidate.end(), spur_path.begin(),
                       spur_path.end());
      if (std::find(found.begin(), found.end(), candidate) ==
              found.end() &&
          std::find(candidates.begin(), candidates.end(), candidate) ==
              candidates.end()) {
        candidates.push_back(std::move(candidate));
      }
    }
    if (candidates.empty()) {
      break;  // topology exhausted
    }
    const auto best = std::min_element(candidates.begin(),
                                       candidates.end(), route_less);
    found.push_back(*best);
    candidates.erase(best);
  }
  return found;
}

}  // namespace edgesched::net
