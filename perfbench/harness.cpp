// edgesched benchmark harness.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, then runs whole rounds of
// the same operations until the time budget is spent. One operation is
// one schedule() call, one replay, one execution or one service request.
// Every output is checked (see `check_schedule`, `check_replay`,
// `check_perturbed` and the service comparisons); the last stdout line
// is one JSON object {correct, attempted, failed, metrics}.
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates an
// untraced and a traced round and reports the per-layer metrics, read
// from the benchmark's own spans around each call into a layer and from
// the program's counters and aggregate span totals (obs). README.md maps
// every metric to the layer it measures.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "dag/task_graph.hpp"
#include "dag/transforms.hpp"
#include "exec/executor.hpp"
#include "exec/fault.hpp"
#include "net/builders.hpp"
#include "net/topology.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sched/intra_run.hpp"
#include "sched/platform.hpp"
#include "sched/registry.hpp"
#include "sched/schedule.hpp"
#include "sched/validator.hpp"
#include "svc/scheduler_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace edgesched;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of the calling thread. The single-threaded calls are timed
/// with it: on a virtual machine it leaves out the time the host runs
/// other guests (steal time), which otherwise varies wall times by
/// tens of percent from one run to the next.
double thread_cpu_seconds() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

// ---------------------------------------------------------------------
// The benchmark's own spans: one per call into a layer, kept in memory
// (name, start, end, round) and folded into per-name totals.

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since process start
  double end = 0.0;
  double cpu = 0.0;    ///< thread CPU seconds between start and end
  int round = -1;
};

class SpanLog {
 public:
  std::size_t open(std::string name) {
    SpanRecord record;
    record.name = std::move(name);
    record.start = seconds_since(g_process_start);
    record.cpu = thread_cpu_seconds();
    record.round = round_;
    records_.push_back(std::move(record));
    return records_.size() - 1;
  }
  double close(std::size_t id) {
    SpanRecord& record = records_[id];
    record.end = seconds_since(g_process_start);
    record.cpu = thread_cpu_seconds() - record.cpu;
    return record.end - record.start;
  }
  void set_round(int round) { round_ = round; }

  /// Summed wall (or thread CPU) seconds per span name over one round
  /// (-1: set-up).
  [[nodiscard]] std::map<std::string, double> totals(int round,
                                                     bool cpu = false) const {
    std::map<std::string, double> out;
    for (const SpanRecord& r : records_) {
      if (r.round == round) {
        out[r.name] += cpu ? r.cpu : r.end - r.start;
      }
    }
    return out;
  }

 private:
  std::vector<SpanRecord> records_;
  int round_ = -1;
};

SpanLog g_spans;

/// RAII span of the benchmark's own log.
class Timed {
 public:
  explicit Timed(std::string name) : id_(g_spans.open(std::move(name))) {}
  ~Timed() {
    if (open_) {
      g_spans.close(id_);
    }
  }
  double stop() {
    open_ = false;
    return g_spans.close(id_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  std::size_t id_;
  bool open_ = true;
};

// ---------------------------------------------------------------------
// Operation accounting.

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failed_by_name;
  std::uint64_t errors = 0;

  void fail(const std::string& name) {
    ++failed;
    ++failed_by_name[name];
  }
  void error(const std::string& what) {
    if (errors < 20) {
      std::cerr << "INCORRECT: " << what << "\n";
    }
    ++errors;
  }
};

Outcome g_outcome;

// ---------------------------------------------------------------------
// Independent output checks.

/// The benchmark's own makespan lower bound: the larger of the
/// computation-only critical path at the fastest processor speed and the
/// total work over the total processor speed.
double lower_bound(const dag::TaskGraph& graph,
                   const net::Topology& topology) {
  double fastest = 0.0;
  double total_speed = 0.0;
  for (const net::NodeId p : topology.processors()) {
    fastest = std::max(fastest, topology.processor_speed(p));
    total_speed += topology.processor_speed(p);
  }
  std::vector<double> path(graph.num_tasks(), 0.0);
  double longest = 0.0;
  double work = 0.0;
  for (const dag::TaskId t : graph.topological_order()) {
    double ready = 0.0;
    for (const dag::EdgeId e : graph.in_edges(t)) {
      ready = std::max(ready, path[graph.edge(e).src.index()]);
    }
    path[t.index()] = ready + graph.weight(t);
    longest = std::max(longest, path[t.index()]);
    work += graph.weight(t);
  }
  return std::max(longest / fastest, work / total_speed);
}

/// Task-level re-check of a schedule, written apart from
/// sched::validate: every task placed once on a processor for exactly
/// w/s(P); no overlap on a processor; no task before a predecessor's
/// finish or its recorded data arrival; makespan equal to the latest
/// finish and at least the lower bound. Returns the violations.
std::vector<std::string> check_schedule(const dag::TaskGraph& graph,
                                        const net::Topology& topology,
                                        const sched::Schedule& schedule,
                                        double bound) {
  std::vector<std::string> bad;
  const auto complain = [&bad](const std::string& what) {
    if (bad.size() < 5) {
      bad.push_back(what);
    }
  };
  if (schedule.num_tasks() != graph.num_tasks() ||
      schedule.num_edges() != graph.num_edges()) {
    return {"schedule shape differs from the graph"};
  }
  double latest = 0.0;
  std::vector<std::vector<std::pair<double, double>>> busy(
      topology.num_nodes());
  const double tol = 1e-9 * std::max(1.0, schedule.makespan());
  for (const dag::TaskId t : graph.all_tasks()) {
    const sched::TaskPlacement& at = schedule.task(t);
    if (!at.placed() || at.processor.index() >= topology.num_nodes() ||
        !topology.is_processor(at.processor)) {
      complain("task " + std::to_string(t.index()) + " not on a processor");
      continue;
    }
    const double duration =
        graph.weight(t) / topology.processor_speed(at.processor);
    if (std::abs(at.finish - at.start - duration) > tol || at.start < -tol) {
      complain("task " + std::to_string(t.index()) + " runs " +
               std::to_string(at.finish - at.start) + " instead of " +
               std::to_string(duration));
    }
    busy[at.processor.index()].emplace_back(at.start, at.finish);
    latest = std::max(latest, at.finish);
  }
  std::size_t placed = 0;
  for (auto& slots : busy) {
    placed += slots.size();
    std::sort(slots.begin(), slots.end());
    for (std::size_t i = 1; i < slots.size(); ++i) {
      if (slots[i].first < slots[i - 1].second - tol) {
        complain("overlap on a processor at " +
                 std::to_string(slots[i].first));
      }
    }
  }
  if (placed != graph.num_tasks()) {
    complain("placed " + std::to_string(placed) + " of " +
             std::to_string(graph.num_tasks()) + " tasks");
  }
  for (const dag::EdgeId e : graph.all_edges()) {
    const dag::Edge& edge = graph.edge(e);
    const sched::TaskPlacement& src = schedule.task(edge.src);
    const sched::TaskPlacement& dst = schedule.task(edge.dst);
    const double arrival = schedule.communication(e).arrival;
    if (dst.start < src.finish - tol || dst.start < arrival - tol ||
        arrival < src.finish - tol) {
      complain("edge " + std::to_string(e.index()) +
               " violates precedence");
    }
  }
  if (schedule.makespan() != latest) {
    complain("makespan is not the latest finish");
  }
  if (schedule.makespan() < bound * (1.0 - 1e-12)) {
    complain("makespan below the lower bound");
  }
  return bad;
}

// ---------------------------------------------------------------------
// Inputs.

struct Instance {
  std::string label;
  std::shared_ptr<const dag::TaskGraph> graph;
  std::shared_ptr<const net::Topology> topology;
  std::shared_ptr<const sched::PlatformContext> platform;
  bool heterogeneous = false;
  double bound = 0.0;
};

/// One direct schedule() call per round.
struct PlanJob {
  std::size_t instance = 0;
  std::string algo;         ///< registry key
  bool replay = false;      ///< replay the plan nominally each round
  bool lane_check = false;  ///< re-run on several lanes and compare
  bool rated = true;        ///< counts in nsl.<algo>
};

struct ExecuteRequest {
  std::size_t job = 0;
  bool perturbed = false;
};

/// Service requests submitted together: the fresh ones, then, once they
/// are back, the repeats (cache hits in every round).
template <typename Request>
struct Batch {
  std::vector<Request> fresh;
  std::vector<Request> repeat;
};

/// An input that fails every time, on inputs fixed in this file.
struct FixedCase {
  std::string label;
  std::shared_ptr<const dag::TaskGraph> graph;
  std::shared_ptr<const net::Topology> topology;
  std::shared_ptr<const sched::Schedule> plan;
  exec::ExecutionOptions options;
};

struct Workload {
  std::string name;
  std::vector<Instance> instances;
  std::vector<PlanJob> jobs;
  std::vector<Batch<std::size_t>> svc_schedule;  ///< job per request
  std::vector<Batch<ExecuteRequest>> svc_execute;
  std::size_t check_lanes = 1;  ///< lanes of the lane check (paper_grid)
  bool fixed_cases = false;     ///< run F1 and F2 in every round
  std::optional<FixedCase> f1;  ///< OIHSA replay late on a heterogeneous WAN
  std::optional<FixedCase> f2;  ///< reschedule after a one-way cable fault
};

constexpr double kJitter = 0.1;

std::string metric_algo(const std::string& key) {
  return key == "packet-ba" ? "packet_ba" : key;
}

/// Transfer family the executor replays a plan of `key` with.
std::string replay_family(const std::string& key) {
  if (key == "bbsa") {
    return "bandwidth";
  }
  if (key == "packet-ba") {
    return "packet";
  }
  return "exclusive";
}

const std::vector<std::string> kAlgos = {"ba",        "oihsa", "bbsa",
                                         "packet-ba", "ga",    "sa"};
const std::vector<std::string> kEngineAlgos = {"ba", "oihsa", "bbsa",
                                               "packet-ba"};

Instance make_instance(std::string label, dag::TaskGraph graph,
                       std::shared_ptr<const net::Topology> topology,
                       std::shared_ptr<const sched::PlatformContext> platform,
                       bool heterogeneous) {
  Instance instance;
  instance.label = std::move(label);
  instance.bound = lower_bound(graph, *topology);
  instance.graph = std::make_shared<const dag::TaskGraph>(std::move(graph));
  instance.topology = std::move(topology);
  instance.platform = std::move(platform);
  instance.heterogeneous = heterogeneous;
  return instance;
}

dag::TaskGraph layered_dag(std::size_t tasks, Rng& rng) {
  Timed span("dag.generate");
  dag::LayeredDagParams params;  // the paper's U(1, 1000) cost ranges
  params.num_tasks = tasks;
  return dag::random_layered(params, rng);
}

std::shared_ptr<const net::Topology> build_fat_tree(std::size_t leaves,
                                                    std::size_t per_leaf) {
  Timed span("net.build");
  Rng rng(7);  // homogeneous: the draw does not matter
  return std::make_shared<const net::Topology>(
      net::fat_tree(leaves, per_leaf, net::SpeedConfig{}, rng));
}

/// A random WAN drawn from a fixed seed: the benchmark seed varies the
/// DAGs only, because random WANs differ several-fold in routing cost.
std::shared_ptr<const net::Topology> build_wan(std::size_t processors,
                                               bool heterogeneous,
                                               std::uint64_t wan_seed) {
  Timed span("net.build");
  Rng rng(wan_seed);
  net::RandomWanParams params;
  params.num_processors = processors;
  params.speeds.heterogeneous = heterogeneous;
  return std::make_shared<const net::Topology>(net::random_wan(params, rng));
}

std::shared_ptr<const sched::PlatformContext> build_platform(
    const std::shared_ptr<const net::Topology>& topology) {
  Timed span("sched.platform_build");
  return std::make_shared<const sched::PlatformContext>(topology);
}

/// F1: the OIHSA plan of this 100-task, 16-processor heterogeneous WAN
/// instance (CCR 1) replays with six tasks up to 176 time units late.
FixedCase make_f1_case() {
  FixedCase fixed;
  fixed.label = "f1.oihsa_replay_hetero_wan";
  Rng rng(2016);
  dag::LayeredDagParams params;
  params.num_tasks = 100;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 1.0);
  net::RandomWanParams wan;
  wan.num_processors = 16;
  wan.speeds.heterogeneous = true;
  fixed.topology =
      std::make_shared<const net::Topology>(net::random_wan(wan, rng));
  fixed.graph = std::make_shared<const dag::TaskGraph>(std::move(graph));
  fixed.plan = std::make_shared<const sched::Schedule>(
      sched::make_scheduler("oihsa")->schedule(*fixed.graph,
                                               *fixed.topology));
  return fixed;
}

/// F2: a BA plan of a 60-task DAG on a 4x4 fat tree, executed with a
/// permanent fault on link 4 (one direction of a duplex cable) at 30 % of
/// the makespan under reschedule recovery.
FixedCase make_f2_case() {
  FixedCase fixed;
  fixed.label = "f2.reschedule_one_way_link_fault";
  Rng dag_rng(1);
  dag::LayeredDagParams params;
  params.num_tasks = 60;
  fixed.graph = std::make_shared<const dag::TaskGraph>(
      dag::random_layered(params, dag_rng));
  Rng topo_rng(1);
  fixed.topology = std::make_shared<const net::Topology>(
      net::fat_tree(4, 4, net::SpeedConfig{}, topo_rng));
  fixed.plan = std::make_shared<const sched::Schedule>(
      sched::make_scheduler("ba")->schedule(*fixed.graph, *fixed.topology));
  fixed.options.policy = exec::RecoveryPolicy::kReschedule;
  fixed.options.faults.fail_link(fixed.plan->makespan() * 0.3,
                                 net::LinkId(std::size_t{4}), true);
  return fixed;
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Service workers: min(nproc, 2). Four busy workers on a 4-vCPU guest
/// made batch throughput vary several-fold with host load.
std::size_t service_workers() {
  return std::min<std::size_t>(hardware_threads(), 2);
}

/// frontier_tree: one 20k-task DAG on the 256-processor fat tree, four
/// 1000-task windows of it (consecutive task ranges) for the bandwidth
/// replays and the service slice, and four 100-task DAGs for GA and SA at
/// the registry's search budget.
Workload make_frontier(std::uint64_t seed) {
  Workload w;
  w.name = "frontier_tree";
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 20000);
  dag::TaskGraph full = layered_dag(20000, rng);
  const auto topology = build_fat_tree(16, 16);
  const auto platform = build_platform(topology);
  const auto window = [&](const std::string& label, std::size_t first,
                          std::size_t count) {
    std::vector<dag::TaskId> ids;
    for (std::size_t i = first; i < first + count; ++i) {
      ids.emplace_back(i);
    }
    return make_instance(label, dag::induced_subgraph(full, ids).graph,
                         topology, platform, false);
  };
  constexpr std::size_t kWindows = 4;
  for (std::size_t k = 0; k < kWindows; ++k) {
    w.instances.push_back(
        window("window" + std::to_string(k), 1000 * k, 1000));
  }
  // A window of a few hundred tasks spans one or two layers of the 20k
  // DAG, so GA and SA search DAGs of their own, deep enough to have a
  // critical path.
  constexpr std::size_t kSearches = 4;
  const std::size_t first_search = w.instances.size();
  for (std::size_t k = 0; k < kSearches; ++k) {
    w.instances.push_back(make_instance("search" + std::to_string(k),
                                        layered_dag(100, rng), topology,
                                        platform, false));
  }
  w.instances.push_back(
      make_instance("frontier", std::move(full), topology, platform, false));
  // The frontier DAG: every engine algorithm, not replayed. Its replays
  // took 1.4 s of a 10 s round (BBSA's about two minutes), and a run
  // needs several rounds for the per-call minimum.
  for (const std::string& algo : kEngineAlgos) {
    w.jobs.push_back(PlanJob{w.instances.size() - 1, algo, false, false});
  }
  // Each 1000-task window: the engine algorithms, every replay, and one
  // service batch (its four plans, their nominal replays, perturbed runs
  // of BA and PACKET-BA, one repeat of each kind). The windows' NSL is
  // left out of nsl.<algo>: it varies by a fifth from window to window,
  // where the 20k DAG's varies by a few percent from seed to seed.
  for (std::size_t k = 0; k < kWindows; ++k) {
    Batch<std::size_t> schedules;
    Batch<ExecuteRequest> executions;
    for (const std::string& algo : kEngineAlgos) {
      const std::size_t job = w.jobs.size();
      w.jobs.push_back(PlanJob{k, algo, true, false, false});
      schedules.fresh.push_back(job);
      executions.fresh.push_back({job, false});
      if (algo == "ba" || algo == "packet-ba") {
        executions.fresh.push_back({job, true});
      }
    }
    schedules.repeat.push_back(schedules.fresh[k]);
    executions.repeat.push_back(executions.fresh.front());
    w.svc_schedule.push_back(std::move(schedules));
    w.svc_execute.push_back(std::move(executions));
  }
  for (std::size_t i = first_search; i < first_search + kSearches; ++i) {
    w.jobs.push_back(PlanJob{i, "ga", true, false});
    w.jobs.push_back(PlanJob{i, "sa", true, false});
  }
  return w;
}

/// paper_grid: the §6 grid — CCR {0.1, 1, 5, 10} x random WANs of
/// {16, 32, 64} processors x {homogeneous, heterogeneous}, 100-300 tasks.
Workload make_grid(std::uint64_t seed) {
  Workload w;
  w.name = "paper_grid";
  w.check_lanes = std::min<std::size_t>(hardware_threads(), 4);
  const std::vector<double> ccrs = {0.1, 1.0, 5.0, 10.0};
  const std::vector<std::size_t> procs = {16, 32, 64};
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 300);
  std::size_t cell = 0;
  for (const bool hetero : {false, true}) {
    for (const std::size_t p : procs) {
      for (const double ccr : ccrs) {
        // Stratified task counts: cell c draws from its own 1/24 slice of
        // [100, 300], so every seed carries about the same total work.
        const std::size_t stratum = (cell * 7) % 24;
        const std::size_t tasks = 100 + (stratum * 200) / 24 +
                                  static_cast<std::size_t>(rng.index(8));
        dag::TaskGraph graph = layered_dag(tasks, rng);
        dag::rescale_to_ccr(graph, ccr);
        const auto topology = build_wan(p, hetero, 6000 + cell);
        const auto platform = build_platform(topology);
        std::ostringstream label;
        label << (hetero ? "het" : "hom") << p << "_ccr" << ccr;
        w.instances.push_back(make_instance(label.str(), std::move(graph),
                                            topology, platform, hetero));
        ++cell;
      }
    }
  }
  // The engine algorithms on every cell (job 4i + a for cell i); the first
  // cell of each speed class is also scheduled on several lanes and
  // compared.
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    const bool hetero = w.instances[i].heterogeneous;
    for (const std::string& algo : kEngineAlgos) {
      const bool replay = !(algo == "oihsa" && hetero);
      w.jobs.push_back(PlanJob{i, algo, replay, i % 12 == 0});
    }
  }
  // GA and SA at the registry's search budget on the eight cells with the
  // fewest tasks (strata 0-7, 100-165 tasks). Together they cover every
  // processor count, every CCR and both speed classes.
  for (const std::size_t i : {0, 1, 4, 7, 11, 14, 18, 21}) {
    w.jobs.push_back(PlanJob{i, "ga", true, i % 12 == 0});
    w.jobs.push_back(PlanJob{i, "sa", true, i % 12 == 0});
  }
  // Service: six batches of four cells — each cell's four engine plans,
  // nominal replays of its BA, BBSA and PACKET-BA plans and perturbed
  // runs of its BA and PACKET-BA plans, then one repeat of each kind.
  // Each batch's least time over the rounds is kept, and shorter batches
  // give that minimum more chances to miss a slow spell of the host.
  const std::size_t per = kEngineAlgos.size();
  constexpr std::size_t kBatchCells = 4;
  for (std::size_t first = 0; first < w.instances.size();
       first += kBatchCells) {
    Batch<std::size_t> schedules;
    Batch<ExecuteRequest> executions;
    for (std::size_t i = first; i < first + kBatchCells; ++i) {
      for (std::size_t a = 0; a < kEngineAlgos.size(); ++a) {
        schedules.fresh.push_back(i * per + a);
      }
      for (const std::size_t a : {0, 2, 3}) {
        executions.fresh.push_back({i * per + a, false});
      }
      executions.fresh.push_back({i * per, true});
      executions.fresh.push_back({i * per + 3, true});
      if (i % 4 == 0) {
        schedules.repeat.push_back(i * per + 1);
        executions.repeat.push_back({i * per + 2, false});
      }
    }
    w.svc_schedule.push_back(std::move(schedules));
    w.svc_execute.push_back(std::move(executions));
  }
  w.fixed_cases = true;
  return w;
}

/// Perturbed-execution options of one plan: 10 % duration and bandwidth
/// jitter, transient processor and link faults sampled over the plan's
/// horizon, and one permanent processor fault at 40 % of the makespan on
/// the processor running at that moment, under reschedule recovery.
exec::ExecutionOptions perturbed_options(const Instance& instance,
                                         const sched::Schedule& plan,
                                         std::uint64_t seed) {
  exec::ExecutionOptions options;
  options.model.duration_spread = kJitter;
  options.model.bandwidth_spread = kJitter;
  options.model.seed = seed;
  options.policy = exec::RecoveryPolicy::kReschedule;
  const net::Topology& topology = *instance.topology;
  const double horizon = plan.makespan();
  exec::HazardConfig hazard;
  hazard.horizon = horizon;
  hazard.processor_rate =
      2.0 / (static_cast<double>(topology.num_processors()) * horizon);
  hazard.link_rate =
      2.0 / (static_cast<double>(topology.num_links()) * horizon);
  hazard.permanent_fraction = 0.0;
  hazard.mean_repair = 0.02 * horizon;
  hazard.seed = seed ^ 0x5eedULL;
  std::vector<exec::FaultEvent> events =
      exec::FaultPlan::sampled(topology, hazard).events();
  const double when = 0.4 * horizon;
  net::NodeId victim = plan.task(dag::TaskId(std::size_t{0})).processor;
  for (const dag::TaskId t : instance.graph->all_tasks()) {
    const sched::TaskPlacement& at = plan.task(t);
    if (at.start <= when && when < at.finish) {
      victim = at.processor;
      break;
    }
  }
  exec::FaultEvent kill;
  kill.time = when;
  kill.kind = exec::FaultKind::kProcessor;
  kill.target = static_cast<std::uint32_t>(victim.index());
  kill.permanent = true;
  events.push_back(kill);
  options.faults = exec::FaultPlan::scripted(std::move(events));
  return options;
}

// ---------------------------------------------------------------------
// Checks on executions.

/// Nominal timetable replay: completes, no task finishes earlier than
/// planned, and none later than planned by more than 1e-9 x makespan
/// (rounding). Returns the number of late tasks.
std::size_t check_replay(const std::string& what, const sched::Schedule& plan,
                         const exec::ExecutionReport& report) {
  if (!report.completed || report.tasks.size() != plan.num_tasks()) {
    g_outcome.error(what + ": nominal replay did not complete: " +
                    report.failure);
    return 0;
  }
  const double tol = 1e-9 * plan.makespan();
  std::size_t late = 0;
  for (const exec::TaskRecord& record : report.tasks) {
    const sched::TaskPlacement& at = plan.task(dag::TaskId(record.task));
    if (record.predicted_finish != at.finish ||
        record.finish < at.finish - tol) {
      g_outcome.error(what + ": task " + std::to_string(record.task) +
                      " finished before its planned finish");
      return late;
    }
    if (record.finish > at.finish + tol) {
      ++late;
    }
  }
  return late;
}

/// Perturbed execution: completes, and is never shorter than
/// (1 - jitter) x the lower bound.
void check_perturbed(const std::string& what, const Instance& instance,
                     const exec::ExecutionReport& report) {
  if (!report.completed) {
    g_outcome.error(what + ": perturbed execution failed: " +
                    report.failure);
    return;
  }
  if (report.achieved_makespan <
      (1.0 - kJitter) * instance.bound * (1.0 - 1e-12)) {
    g_outcome.error(what + ": perturbed execution beat the lower bound");
  }
}

bool same_report(const exec::ExecutionReport& a,
                 const exec::ExecutionReport& b) {
  if (a.completed != b.completed ||
      a.achieved_makespan != b.achieved_makespan ||
      a.events != b.events || a.tasks.size() != b.tasks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].finish != b.tasks[i].finish ||
        a.tasks[i].processor != b.tasks[i].processor) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// One round.

struct RoundResult {
  double wall = 0.0;
  std::map<std::string, double> metrics;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geometric_mean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

class Runner {
 public:
  Runner(Workload workload, std::uint64_t seed)
      : w_(std::move(workload)), seed_(seed) {}

  void start_service() {
    Timed span("svc.start");
    svc::ServiceConfig config;
    config.threads = service_workers();
    service_ = std::make_unique<svc::SchedulerService>(config);
  }

  /// Builds F1 and F2, if the workload runs them. They are fixed inputs
  /// of the benchmark, not of the seed, and are left out of set-up.
  void build_fixed_cases() {
    if (w_.fixed_cases) {
      w_.f1 = make_f1_case();
      w_.f2 = make_f2_case();
    }
  }

  RoundResult round(int index);

  [[nodiscard]] svc::SchedulerService& service() { return *service_; }

  /// Per-algorithm schedule seconds and replay seconds: the sum over the
  /// round's calls of each call's least thread CPU time over all rounds
  /// so far. Contention from other guests only ever adds time, and a
  /// per-call minimum filters it call by call. Service throughput, the
  /// same way: a round's requests over the sum of each batch's least wall
  /// time.
  [[nodiscard]] std::map<std::string, double> best_metrics() const;

 private:
  using Plans = std::vector<std::shared_ptr<const sched::Schedule>>;

  void schedule_all(Plans& plans,
                    std::map<std::string, std::vector<double>>& ratios);
  void replay_all(const Plans& plans,
                  std::map<std::size_t, exec::ExecutionReport>& replays);
  void service_schedules(const Plans& plans);
  void service_executions(
      const Plans& plans,
      const std::map<std::size_t, exec::ExecutionReport>& replays);
  void fixed_cases();

  Workload w_;
  std::uint64_t seed_;
  std::unique_ptr<svc::SchedulerService> service_;
  std::vector<double> best_schedule_;  ///< per job, CPU seconds
  std::vector<double> best_replay_;    ///< per job, CPU seconds
  std::vector<double> best_svc_schedule_;  ///< per batch, wall seconds
  std::vector<double> best_svc_execute_;   ///< per batch, wall seconds
};

void keep_least(std::vector<double>& best, std::size_t j, double value) {
  if (best.size() <= j) {
    best.resize(j + 1, std::numeric_limits<double>::infinity());
  }
  best[j] = std::min(best[j], value);
}

/// Requests of a round over the sum of each batch's least wall time.
template <typename Request>
double best_rate(const std::vector<Batch<Request>>& batches,
                 const std::vector<double>& best) {
  double requests = 0.0;
  double seconds = 0.0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    requests += static_cast<double>(batches[b].fresh.size() +
                                    batches[b].repeat.size());
    seconds += best[b];
  }
  return requests / seconds;
}

std::map<std::string, double> Runner::best_metrics() const {
  std::map<std::string, double> out;
  for (const std::string& algo : kAlgos) {
    out[metric_algo(algo) + "_s"] = 0.0;
  }
  out["replay_s"] = 0.0;
  for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
    if (j < best_schedule_.size() && std::isfinite(best_schedule_[j])) {
      out[metric_algo(w_.jobs[j].algo) + "_s"] += best_schedule_[j];
    }
    if (j < best_replay_.size() && std::isfinite(best_replay_[j])) {
      out["replay_s"] += best_replay_[j];
    }
  }
  out["svc_schedule_per_s"] = best_rate(w_.svc_schedule, best_svc_schedule_);
  out["svc_execute_per_s"] = best_rate(w_.svc_execute, best_svc_execute_);
  return out;
}

void Runner::schedule_all(
    Plans& plans, std::map<std::string, std::vector<double>>& ratios) {
  plans.assign(w_.jobs.size(), nullptr);
  for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
    const PlanJob& job = w_.jobs[j];
    const Instance& in = w_.instances[job.instance];
    const std::unique_ptr<sched::Scheduler> scheduler =
        sched::make_scheduler(job.algo);
    const std::string what = w_.name + "/" + in.label + "/" + job.algo;
    ++g_outcome.attempted;
    try {
      const sched::ScopedIntraThreads one_lane(1);
      Timed span("sched.schedule." + metric_algo(job.algo));
      const double cpu = thread_cpu_seconds();
      plans[j] = std::make_shared<const sched::Schedule>(
          scheduler->schedule(*in.graph, *in.platform));
      keep_least(best_schedule_, j, thread_cpu_seconds() - cpu);
    } catch (const std::exception& e) {
      g_outcome.error(what + ": schedule threw: " + e.what());
      continue;
    }
    const sched::Schedule& plan = *plans[j];
    {
      // The timeline layer books with a tolerance of 1e-9 x the time
      // (timeline/tolerance.hpp); the validator is held to the same
      // relative tolerance instead of its absolute default of 1e-6.
      sched::ValidationOptions options;
      options.epsilon = std::max(options.epsilon, 1e-9 * plan.makespan());
      Timed span("sched.validate");
      const std::vector<std::string> violations =
          sched::validate(*in.graph, *in.topology, plan, options);
      if (!violations.empty()) {
        g_outcome.error(what + ": sched::validate: " + violations.front());
      }
    }
    {
      Timed span("bench.check");
      const std::vector<std::string> violations =
          check_schedule(*in.graph, *in.topology, plan, in.bound);
      if (!violations.empty()) {
        g_outcome.error(what + ": " + violations.front());
      }
    }
    if (job.rated) {
      ratios[metric_algo(job.algo)].push_back(plan.makespan() / in.bound);
    }
    if (job.lane_check && w_.check_lanes > 1) {
      const sched::ScopedIntraThreads lanes(w_.check_lanes);
      ++g_outcome.attempted;
      Timed span("sched.lane_check");
      const sched::Schedule parallel =
          scheduler->schedule(*in.graph, *in.platform);
      if (parallel.fingerprint() != plan.fingerprint()) {
        g_outcome.error(what + ": plan at " +
                        std::to_string(w_.check_lanes) +
                        " lanes differs from the plan at one lane");
      }
    }
  }
}

void Runner::replay_all(
    const Plans& plans,
    std::map<std::size_t, exec::ExecutionReport>& replays) {
  for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
    const PlanJob& job = w_.jobs[j];
    if (!job.replay || plans[j] == nullptr) {
      continue;
    }
    const Instance& in = w_.instances[job.instance];
    const std::string what = w_.name + "/" + in.label + "/" + job.algo;
    ++g_outcome.attempted;
    Timed span("exec.replay." + replay_family(job.algo));
    const double cpu = thread_cpu_seconds();
    exec::ExecutionReport report =
        exec::execute(*in.graph, *in.topology, *plans[j]);
    keep_least(best_replay_, j, thread_cpu_seconds() - cpu);
    span.stop();
    if (check_replay(what, *plans[j], report) != 0) {
      g_outcome.error(what + ": nominal replay finished tasks late");
    }
    replays.emplace(j, std::move(report));
  }
}

/// Submits one batch (fresh requests, then the repeats once the fresh
/// ones are back) and returns its futures in request order and the
/// batch's wall seconds.
template <typename Request, typename Submit, typename Future>
double run_batch(const Batch<Request>& batch, Submit submit,
                 std::vector<std::pair<Request, Future>>& done) {
  Timed span("svc.batch");
  const std::size_t first = done.size();
  for (const Request& r : batch.fresh) {
    done.emplace_back(r, submit(r));
  }
  for (std::size_t i = first; i < done.size(); ++i) {
    done[i].second.wait();
  }
  for (const Request& r : batch.repeat) {
    done.emplace_back(r, submit(r));
  }
  for (std::size_t i = first; i < done.size(); ++i) {
    done[i].second.wait();
  }
  return span.stop();
}

void Runner::service_schedules(const Plans& plans) {
  using Future = std::future<svc::SchedulerService::SchedulePtr>;
  std::vector<std::pair<std::size_t, Future>> done;
  for (std::size_t b = 0; b < w_.svc_schedule.size(); ++b) {
    keep_least(best_svc_schedule_, b, run_batch(
        w_.svc_schedule[b],
        [this](std::size_t j) {
          const Instance& in = w_.instances[w_.jobs[j].instance];
          return service_->submit(in.graph, in.topology, w_.jobs[j].algo);
        },
        done));
  }
  for (auto& [j, future] : done) {
    ++g_outcome.attempted;
    const std::string what = w_.name + "/" +
                             w_.instances[w_.jobs[j].instance].label + "/" +
                             w_.jobs[j].algo + "/service";
    try {
      const svc::SchedulerService::SchedulePtr result = future.get();
      if (plans[j] == nullptr ||
          result->fingerprint() != plans[j]->fingerprint()) {
        g_outcome.error(what + ": differs from a direct schedule()");
      }
    } catch (const std::exception& e) {
      g_outcome.error(what + ": threw: " + e.what());
    }
  }
}

void Runner::service_executions(
    const Plans& plans,
    const std::map<std::size_t, exec::ExecutionReport>& replays) {
  using Future = std::future<svc::SchedulerService::ExecutionPtr>;
  std::vector<std::pair<ExecuteRequest, Future>> done;
  const auto options_for = [&](const ExecuteRequest& r) {
    return r.perturbed ? perturbed_options(
                             w_.instances[w_.jobs[r.job].instance],
                             *plans[r.job], seed_ + r.job)
                       : exec::ExecutionOptions{};
  };
  for (std::size_t b = 0; b < w_.svc_execute.size(); ++b) {
    keep_least(best_svc_execute_, b, run_batch(
        w_.svc_execute[b],
        [&](const ExecuteRequest& r) {
          const Instance& in = w_.instances[w_.jobs[r.job].instance];
          return service_->execute(in.graph, in.topology, plans[r.job],
                                   options_for(r));
        },
        done));
  }
  for (auto& [request, future] : done) {
    const PlanJob& job = w_.jobs[request.job];
    const Instance& in = w_.instances[job.instance];
    const std::string what = w_.name + "/" + in.label + "/" + job.algo +
                             (request.perturbed ? "/perturbed" : "/nominal");
    ++g_outcome.attempted;
    try {
      const svc::SchedulerService::ExecutionPtr report = future.get();
      if (request.perturbed) {
        check_perturbed(what, in, *report);
        continue;
      }
      const auto direct = replays.find(request.job);
      if (direct == replays.end() || !same_report(*report, direct->second)) {
        g_outcome.error(what + ": differs from a direct exec::execute");
      }
    } catch (const std::exception& e) {
      g_outcome.error(what + ": threw: " + e.what());
    }
  }
}

void Runner::fixed_cases() {
  if (w_.f1) {
    const FixedCase& f1 = *w_.f1;
    ++g_outcome.attempted;
    Timed span("bench.fixed_case");
    const exec::ExecutionReport report =
        exec::execute(*f1.graph, *f1.topology, *f1.plan);
    if (check_replay(f1.label, *f1.plan, report) != 0) {
      g_outcome.fail("F1.oihsa_replay_late");
    }
  }
  if (w_.f2) {
    const FixedCase& f2 = *w_.f2;
    ++g_outcome.attempted;
    Timed span("bench.fixed_case");
    const exec::ExecutionReport report =
        exec::execute(*f2.graph, *f2.topology, *f2.plan, f2.options);
    if (!report.completed) {
      if (report.failure.find("recovery replan failed") !=
          std::string::npos) {
        g_outcome.fail("F2.recovery_replan_failed");
      } else {
        g_outcome.error(f2.label + ": " + report.failure);
      }
    }
  }
}

RoundResult Runner::round(int index) {
  g_spans.set_round(index);
  RoundResult result;
  const Clock::time_point begin = Clock::now();
  Plans plans;
  std::map<std::string, std::vector<double>> ratios;
  std::map<std::size_t, exec::ExecutionReport> replays;
  schedule_all(plans, ratios);
  replay_all(plans, replays);
  service_schedules(plans);
  service_executions(plans, replays);
  fixed_cases();
  result.wall = seconds_since(begin);

  for (const std::string& algo : kAlgos) {
    if (algo != "packet-ba") {  // PACKET-BA is timed, not rated
      result.metrics["nsl." + metric_algo(algo)] =
          geometric_mean(ratios[metric_algo(algo)]);
    }
  }
  return result;
}

// ---------------------------------------------------------------------
// Per-layer figures of one traced round.

struct CounterSnapshot {
  std::map<std::string, std::uint64_t> values;
  static CounterSnapshot take() {
    return CounterSnapshot{obs::global_metrics().counter_values()};
  }
  [[nodiscard]] double delta(const CounterSnapshot& before,
                             const std::string& name) const {
    const auto now = values.find(name);
    const auto then = before.values.find(name);
    const std::uint64_t a = now == values.end() ? 0 : now->second;
    const std::uint64_t b = then == before.values.end() ? 0 : then->second;
    return static_cast<double>(a - b);
  }
};

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::map<std::string, double> layer_metrics(
    const std::map<std::string, double>& own,
    const std::map<std::string, double>& own_cpu,
    const std::map<std::string, obs::SpanTotal>& program,
    const CounterSnapshot& before, const CounterSnapshot& after,
    svc::SchedulerService& service) {
  std::map<std::string, double> m;
  const auto own_total = [&own](const std::string& name) {
    const auto it = own.find(name);
    return it == own.end() ? 0.0 : it->second;
  };
  const auto own_cpu_total = [&own_cpu](const std::string& name) {
    const auto it = own_cpu.find(name);
    return it == own_cpu.end() ? 0.0 : it->second;
  };
  const auto span = [&program](const std::string& name) {
    const auto it = program.find(name);
    return it == program.end() ? 0.0 : it->second.total_seconds();
  };
  const auto count = [&](const std::string& name) {
    return after.delta(before, name);
  };

  const double relaxations = count("sched_dijkstra_relaxations_total");
  const double routed = count("sched_edges_routed_total");
  m["net.relaxations"] = relaxations;
  m["net.relaxations_per_routed_edge"] = ratio(relaxations, routed);
  m["net.route_memo_hits"] = count("net_route_memo_hits_total");
  m["net.route_memo_misses"] = count("net_route_memo_misses_total");
  m["net.route_cache_misses"] = count("net_route_cache_misses_total");

  for (const std::string& algo : kEngineAlgos) {
    const std::string m_algo = metric_algo(algo);
    const double whole = span(algo + "/schedule");
    const double select = span(algo + "/select_processor");
    const double route = span(algo + "/route_edge");
    m["sched.select_s." + m_algo] = select;
    m["sched.route_edge_s." + m_algo] = route;
    m["sched.other_s." + m_algo] = whole - select - route;
  }
  m["sched.candidates_per_task"] =
      ratio(count("sched_candidates_evaluated_total"),
            count("sched_tasks_placed_total"));
  m["sched.priorities_s"] = span("sched/priorities");
  m["sched.validate_s"] = own_cpu_total("sched.validate");

  const double probes =
      count("sched_link_probes_total") + count("sched_optimal_probes_total");
  m["timeline.gap_steps_per_probe"] =
      ratio(count("sched_probe_gap_steps_total"), probes);
  m["timeline.optimal_scan_steps"] = count("sched_optimal_scan_steps_total");
  m["timeline.deferred_insertions"] =
      count("sched_deferred_insertions_total");
  m["timeline.slot_shifts"] = count("sched_slot_shifts_total");
  m["timeline.bandwidth_probes"] = count("sched_bandwidth_probes_total");

  for (const char* family : {"exclusive", "bandwidth", "packet"}) {
    m[std::string("exec.replay_s.") + family] =
        own_cpu_total(std::string("exec.replay.") + family);
  }
  const double events = count("exec_events_total");
  m["exec.events"] = events;
  m["exec.events_per_s"] = ratio(events, span("exec/execute"));
  m["exec.replan_s"] = span("exec/replan");
  m["exec.reschedules"] = count("exec_reschedules_total");

  // Mean, not a histogram quantile: the quantile interpolates by rank
  // inside a log2 bucket and can read the same on every run.
  const svc::Histogram& latency =
      service.metrics().histogram("svc_schedule_seconds");
  m["svc.latency_mean_s"] =
      ratio(latency.sum(), static_cast<double>(latency.count()));
  m["svc.job_s"] = span("svc/job");
  m["svc.batch_s"] = own_total("svc.batch");
  m["svc.schedule_cache_hits"] =
      static_cast<double>(service.cache().stats().hits);
  m["svc.platform_cache_misses"] =
      static_cast<double>(service.platform_cache().stats().misses);
  m["svc.exec_cache_hits"] =
      static_cast<double>(service.execution_cache().stats().hits);
  return m;
}

// ---------------------------------------------------------------------
// Self-test: the checks must reject corrupted copies of a valid plan.

sched::Schedule corrupted(const sched::Schedule& plan,
                          const dag::TaskGraph& graph, dag::TaskId victim,
                          const sched::TaskPlacement& placement) {
  sched::Schedule copy(plan.algorithm(), plan.num_tasks(), plan.num_edges());
  for (const dag::TaskId t : graph.all_tasks()) {
    copy.place_task(t, t == victim ? placement : plan.task(t));
  }
  for (const dag::EdgeId e : graph.all_edges()) {
    copy.set_communication(e, plan.communication(e));
  }
  return copy;
}

bool self_test() {
  const FixedCase fixed = make_f2_case();
  const dag::TaskGraph& graph = *fixed.graph;
  const net::Topology& topology = *fixed.topology;
  const sched::Schedule& plan = *fixed.plan;
  const double bound = lower_bound(graph, topology);
  if (!check_schedule(graph, topology, plan, bound).empty() ||
      !sched::validate(graph, topology, plan).empty()) {
    std::cerr << "self-test: a valid plan was rejected\n";
    return false;
  }
  // The last task to finish has predecessors that finish later than 0.
  dag::TaskId last(std::size_t{0});
  for (const dag::TaskId t : graph.all_tasks()) {
    if (plan.task(t).finish > plan.task(last).finish) {
      last = t;
    }
  }
  sched::TaskPlacement at = plan.task(last);
  std::vector<sched::Schedule> bad;
  // 1. Starts at time 0, before its predecessors finish.
  bad.push_back(corrupted(plan, graph, last,
                          {at.processor, 0.0, at.finish - at.start}));
  // 2. Runs shorter than w/s(P).
  bad.push_back(corrupted(plan, graph, last,
                          {at.processor, at.start,
                           at.start + 0.5 * (at.finish - at.start)}));
  // 3. A task moved onto the processor of another task it overlaps.
  for (const dag::TaskId t : graph.all_tasks()) {
    const sched::TaskPlacement& mine = plan.task(t);
    for (const dag::TaskId u : graph.all_tasks()) {
      const sched::TaskPlacement& other = plan.task(u);
      if (bad.size() == 2 && other.processor != mine.processor &&
          other.start < mine.finish && mine.start < other.finish) {
        bad.push_back(corrupted(plan, graph, t,
                                {other.processor, mine.start, mine.finish}));
      }
    }
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    if (check_schedule(graph, topology, bad[i], bound).empty() ||
        sched::validate(graph, topology, bad[i]).empty()) {
      std::cerr << "self-test: corruption " << i + 1 << " not rejected\n";
      return false;
    }
  }
  return bad.size() == 3;
}

// ---------------------------------------------------------------------


double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  return args;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "frontier_tree") {
    return make_frontier(seed);
  }
  if (name == "paper_grid") {
    return make_grid(seed);
  }
  throw std::invalid_argument("unknown workload " + name);
}

void print_result(const std::map<std::string, std::pair<double, std::string>>&
                      metrics) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (g_outcome.errors == 0 ? "true" : "false")
     << ", \"attempted\": " << g_outcome.attempted
     << ", \"failed\": " << g_outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << value.first << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::string layer_unit(const std::string& name) {
  if (name == "exec.events_per_s") {
    return "1/s";
  }
  if (name.find("per_") != std::string::npos ||
      name == "obs.trace_overhead") {
    return "ratio";
  }
  if (name.ends_with("_s") || name.find("_s.") != std::string::npos) {
    return "s";
  }
  return "count";
}

int run(const Args& args) {
  if (args.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  obs::Tracer::instance().set_mode(obs::TraceMode::kDisabled);
  Runner runner(make_workload(args.workload, args.seed), args.seed);
  runner.start_service();
  // Set-up time is the process's CPU time from its start, on the same
  // kind of clock as the timed calls. The checker self-test and F1/F2,
  // which are the benchmark's own, come after it.
  const double setup_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const std::map<std::string, double> setup_spans = g_spans.totals(-1, true);
  if (!self_test()) {
    g_outcome.error("checker self-test failed");
  }
  runner.build_fixed_cases();

  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  const Clock::time_point start = Clock::now();
  int index = 0;
  double last_pass = 0.0;
  // Whole rounds (a pair of rounds when tracing) until the next one
  // would overrun the budget; always at least one.
  do {
    const Clock::time_point pass_start = Clock::now();
    if (index > 0) {
      runner.start_service();  // every round meets cold service caches
    }
    const RoundResult plain = runner.round(index++);
    std::cerr << "round " << index - 1 << ": " << plain.wall << " s\n";
    untraced_walls.push_back(plain.wall);
    for (const auto& [name, value] : plain.metrics) {
      samples[name].push_back(value);
    }
    if (args.trace) {
      runner.start_service();
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.clear();
      const CounterSnapshot before = CounterSnapshot::take();
      tracer.set_mode(obs::TraceMode::kAggregate);
      const RoundResult traced = runner.round(index++);
      tracer.set_mode(obs::TraceMode::kDisabled);
      const CounterSnapshot after = CounterSnapshot::take();
      traced_walls.push_back(traced.wall);
      for (const auto& [name, value] :
           layer_metrics(g_spans.totals(index - 1),
                         g_spans.totals(index - 1, true), tracer.span_totals(),
                         before, after, runner.service())) {
        layers[name].push_back(value);
      }
    }
    last_pass = seconds_since(pass_start);
  } while (seconds_since(start) + last_pass <= args.seconds);

  std::map<std::string, std::pair<double, std::string>> out;
  if (!args.trace) {
    out["setup_s"] = {setup_s, "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    for (const auto& [name, values] : samples) {
      out[name] = {median(values), "ratio"};
    }
    for (const auto& [name, value] : runner.best_metrics()) {
      out[name] = {value, name.ends_with("_per_s") ? "1/s" : "s"};
    }
  } else {
    const auto setup_total = [&setup_spans](const std::string& name) {
      const auto it = setup_spans.find(name);
      return it == setup_spans.end() ? 0.0 : it->second;
    };
    out["dag.generate_s"] = {setup_total("dag.generate"), "s"};
    out["net.build_s"] = {setup_total("net.build"), "s"};
    out["sched.platform_build_s"] = {setup_total("sched.platform_build"),
                                     "s"};
    for (const auto& [name, values] : layers) {
      out[name] = {median(values), layer_unit(name)};
    }
    out["obs.trace_overhead"] = {median(traced_walls) /
                                     median(untraced_walls),
                                 "ratio"};
  }
  for (const auto& [name, count] : g_outcome.failed_by_name) {
    std::cerr << "failed " << name << ": " << count << "\n";
  }
  std::cerr << "rounds " << index << ", attempted " << g_outcome.attempted
            << ", failed " << g_outcome.failed << ", incorrect "
            << g_outcome.errors << "\n";
  print_result(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
