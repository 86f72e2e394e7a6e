#include "sched/bbsa.hpp"

#include "sched/engine.hpp"

namespace edgesched::sched {

AlgorithmSpec Bbsa::spec(const Options& options) {
  AlgorithmSpec spec;
  spec.name = "BBSA";
  spec.priority = options.priority;
  // Processor choice is identical to OIHSA (§4.1) with the availability
  // term read literally from the processor's finish time.
  spec.selection = SelectionPolicyKind::kMlsEstimate;
  spec.edge_order = options.edge_priority_by_cost
                        ? EdgeOrderPolicyKind::kByCostDescending
                        : EdgeOrderPolicyKind::kPredecessorOrder;
  spec.routing = options.modified_routing ? RoutingPolicyKind::kProbeDijkstra
                                          : RoutingPolicyKind::kBfsMinimal;
  spec.insertion = InsertionPolicyKind::kFluidBandwidth;
  spec.eager_communication = options.eager_communication;
  spec.task_insertion = options.task_insertion;
  spec.hop_delay = options.hop_delay;
  return spec;
}

Schedule Bbsa::schedule(const dag::TaskGraph& graph,
                        const net::Topology& topology) const {
  check_inputs(graph, topology);
  return ListSchedulingEngine(spec(options_)).run(graph, topology);
}

Schedule Bbsa::schedule(const dag::TaskGraph& graph,
                        const PlatformContext& platform) const {
  check_inputs(graph, platform.topology());
  return ListSchedulingEngine(spec(options_)).run(graph, platform);
}

std::uint64_t Bbsa::fingerprint() const {
  return spec(options_).fingerprint();
}

}  // namespace edgesched::sched
