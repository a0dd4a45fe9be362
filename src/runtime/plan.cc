#include "runtime/plan.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <utility>

#include "common/error.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/fusion.h"
#include "runtime/run_context.h"

namespace janus {
namespace {

ExecutionPlan::OpKind ClassifyOp(const std::string& op) {
  using OpKind = ExecutionPlan::OpKind;
  if (op == "Const") return OpKind::kConst;
  if (op == "Placeholder") return OpKind::kPlaceholder;
  if (op == "Param") return OpKind::kParam;
  if (op == "Switch") return OpKind::kSwitch;
  if (op == "Merge") return OpKind::kMerge;
  if (op == "Enter") return OpKind::kEnter;
  if (op == "Exit") return OpKind::kExit;
  if (op == "NextIteration") return OpKind::kNextIteration;
  return OpKind::kKernel;
}

bool IsControlFlowKind(ExecutionPlan::OpKind kind) {
  using OpKind = ExecutionPlan::OpKind;
  return kind == OpKind::kSwitch || kind == OpKind::kMerge ||
         kind == OpKind::kEnter || kind == OpKind::kExit ||
         kind == OpKind::kNextIteration;
}

bool IsSourceKind(ExecutionPlan::OpKind kind) {
  using OpKind = ExecutionPlan::OpKind;
  return kind == OpKind::kConst || kind == OpKind::kPlaceholder ||
         kind == OpKind::kParam;
}

// The installed post-build verification hook (nullptr = none). Relaxed is
// enough: installation happens once at engine attach / static init, and a
// build that misses a just-installed hook only skips one verification.
std::atomic<PlanVerifyHookFn> g_plan_verify_hook{nullptr};

}  // namespace

void SetPlanVerifyHook(PlanVerifyHookFn hook) {
  g_plan_verify_hook.store(hook, std::memory_order_relaxed);
}

PlanVerifyHookFn GetPlanVerifyHook() {
  return g_plan_verify_hook.load(std::memory_order_relaxed);
}

bool GraphNeedsDynamicExecution(const Graph& graph) {
  for (const auto& node : graph.nodes()) {
    if (IsControlFlowKind(ClassifyOp(node->op()))) return true;
  }
  return false;
}

std::shared_ptr<const ExecutionPlan> ExecutionPlan::Build(
    const Graph& graph, std::span<const NodeOutput> fetches,
    PlanOptions options) {
  obs::TraceScope span("plan_build", "runtime");
  span.set_arg("graph_nodes",
               static_cast<std::int64_t>(graph.nodes().size()));
  auto plan = std::shared_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->fetches_.assign(fetches.begin(), fetches.end());
  plan->graph_version_ = graph.version();
  if (GraphNeedsDynamicExecution(graph)) {
    plan->strategy_ = Strategy::kDynamic;
    plan->BuildDynamic(graph);
  } else {
    plan->strategy_ = Strategy::kDag;
    plan->BuildDag(graph);
  }
  // Fusion rewrites the schedule in place (interior members disappear) and
  // must run before the memory plan: liveness is computed over the fused
  // node array, so interior values are never materialized or tracked.
  if (options.enable_fusion && fusion::GloballyEnabled()) {
    obs::TraceScope fusion_span("fusion", "runtime");
    int regions = 0;
    if (plan->strategy_ == Strategy::kDag) {
      regions = FuseDagPlan(plan->dag_nodes_, plan->dag_fetch_slots_,
                            plan->dag_index_, plan->fused_regions_);
    } else {
      regions = FuseDynPlan(plan->dyn_nodes_, plan->dyn_fetch_slots_,
                            plan->fused_regions_);
    }
    fusion_span.set_arg("regions", static_cast<std::int64_t>(regions));
  }
  plan->memory_ = BuildMemoryPlan(*plan);

  // Attach the source-attributed profiler's per-node accumulator, copying
  // each node's provenance (graph-layer SourceSite -> obs ProfileSite) so
  // the obs layer stays link-independent of the graph. Fused regions keep
  // per-member sites; cost recorded against the region is split across
  // them at export. Registration is unconditional — plan build is a cold
  // path, and a later EnableProfiling() must see already-built plans.
  {
    const auto site_of = [](const Node* node) {
      obs::ProfileSite site;
      if (node != nullptr) {
        site.function = node->site().function;
        site.line = node->site().line;
        site.stmt = node->site().stmt;
      }
      return site;
    };
    const auto info_of = [&](const Node* node, OpKind kind,
                             const FusedRegionPlan* fused) {
      obs::ProfileNodeInfo info;
      if (node != nullptr) {
        info.name = node->name();
        info.op = node->op();
        info.site = site_of(node);
      }
      if (kind == OpKind::kFusedRegion && fused != nullptr) {
        info.op = "FusedRegion";
        for (const FusedRegionPlan::Member& member : fused->members) {
          obs::ProfileNodeInfo member_info;
          member_info.name = member.node->name();
          member_info.op = member.node->op();
          member_info.site = site_of(member.node);
          info.members.push_back(std::move(member_info));
        }
      }
      return info;
    };
    std::vector<obs::ProfileNodeInfo> infos;
    if (plan->strategy_ == Strategy::kDag) {
      infos.reserve(plan->dag_nodes_.size());
      for (const DagNode& dag_node : plan->dag_nodes_) {
        infos.push_back(
            info_of(dag_node.node, dag_node.kind, dag_node.fused));
      }
    } else {
      infos.reserve(plan->dyn_nodes_.size());
      for (const DynNode& dyn_node : plan->dyn_nodes_) {
        infos.push_back(
            info_of(dyn_node.node, dyn_node.kind, dyn_node.fused));
      }
    }
    plan->profile_ = std::make_shared<obs::PlanProfile>(std::move(infos));
    obs::ProfileRegistry::Global().Register(plan->profile_);
  }

  if (const PlanVerifyHookFn hook = GetPlanVerifyHook(); hook != nullptr) {
    hook(graph, *plan);
  }
  return plan;
}

void ExecutionPlan::BuildDag(const Graph& graph) {
  // Per-node scratch is indexed by node id (unique and below id_bound()).
  const auto id_of = [](const Node* node) {
    return static_cast<std::size_t>(node->id());
  };
  const auto id_bound = static_cast<std::size_t>(graph.id_bound());

  // Restrict execution to the nodes the fetches transitively need (through
  // data and control edges): side-effecting ops only run when anchored to a
  // fetch (the update-anchor NoOp convention).
  std::vector<char> needed(id_bound, 0);
  std::vector<const Node*> stack;
  for (const NodeOutput& fetch : fetches_) stack.push_back(fetch.node);
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    JANUS_EXPECTS(id_of(node) < id_bound);  // a node of another graph
    if (needed[id_of(node)] != 0) continue;
    needed[id_of(node)] = 1;
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (const Node* control : node->control_inputs()) {
      stack.push_back(control);
    }
  }

  // Dense schedule in stable topological order. Freshly generated graphs
  // insert nodes topologically, but optimization passes append replacement
  // nodes (folded constants, ZerosLike) at the END of the graph while
  // rewiring earlier consumers onto them — and both fusion's region
  // collection and the plan verifier rely on producers preceding consumers
  // in the dense array. Kahn's algorithm with a min-heap on graph position
  // keeps the order deterministic and as close to insertion order as the
  // edges allow.
  //
  // `stamp` deduplicates a node's producers (a node may read one producer
  // through several slots and control edges): it holds the last consumer,
  // by position, that counted the producer.
  std::vector<int> stamp(id_bound, -1);
  std::vector<const Node*> order;
  {
    std::vector<const Node*> graph_order;
    std::vector<int> position(id_bound, -1);
    for (const auto& node : graph.nodes()) {
      if (needed[id_of(node.get())] == 0) continue;
      position[id_of(node.get())] = static_cast<int>(graph_order.size());
      graph_order.push_back(node.get());
    }
    std::vector<int> indegree(graph_order.size(), 0);
    std::vector<std::vector<int>> dependents(graph_order.size());
    for (std::size_t i = 0; i < graph_order.size(); ++i) {
      const Node* node = graph_order[i];
      const auto count = [&](const Node* producer) {
        int& last = stamp[id_of(producer)];
        if (last == static_cast<int>(i)) return;
        last = static_cast<int>(i);
        ++indegree[i];
        dependents[static_cast<std::size_t>(position[id_of(producer)])]
            .push_back(static_cast<int>(i));
      };
      for (const NodeOutput& input : node->inputs()) count(input.node);
      for (const Node* control : node->control_inputs()) count(control);
    }
    std::priority_queue<int, std::vector<int>, std::greater<>> ready;
    for (std::size_t i = 0; i < graph_order.size(); ++i) {
      if (indegree[i] == 0) ready.push(static_cast<int>(i));
    }
    order.reserve(graph_order.size());
    while (!ready.empty()) {
      const int at = ready.top();
      ready.pop();
      order.push_back(graph_order[static_cast<std::size_t>(at)]);
      for (const int consumer : dependents[static_cast<std::size_t>(at)]) {
        if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
          ready.push(consumer);
        }
      }
    }
    if (order.size() != graph_order.size()) {
      // Cycle: schedule in graph order and let the executor's
      // executed-count check report it.
      order = std::move(graph_order);
    }
  }

  // Dense plan index per node id, for the edge pass below; dag_index_ keeps
  // the pointer-keyed map that fusion and the verifier read.
  std::vector<int> dense(id_bound, -1);
  dag_nodes_.reserve(order.size());
  dag_index_.reserve(order.size());
  for (const Node* node : order) {
    dense[id_of(node)] = static_cast<int>(dag_nodes_.size());
    dag_index_[node] = static_cast<int>(dag_nodes_.size());
    DagNode entry;
    entry.node = node;
    entry.kind = ClassifyOp(node->op());
    if (entry.kind == OpKind::kKernel) {
      entry.kernel = &KernelRegistry::Global().Lookup(node->op());
    } else if (entry.kind == OpKind::kConst) {
      entry.const_value = node->GetTensorAttr("value");
    }
    dag_nodes_.push_back(std::move(entry));
  }

  std::fill(stamp.begin(), stamp.end(), -1);
  for (std::size_t i = 0; i < dag_nodes_.size(); ++i) {
    DagNode& entry = dag_nodes_[i];
    const Node* node = entry.node;
    const auto add_producer = [&](const Node* producer_node) {
      int& last = stamp[id_of(producer_node)];
      if (last == static_cast<int>(i)) return;
      last = static_cast<int>(i);
      ++entry.initial_pending;
      dag_nodes_[static_cast<std::size_t>(dense[id_of(producer_node)])]
          .consumers.push_back(static_cast<int>(i));
    };
    entry.inputs.reserve(node->inputs().size());
    for (const NodeOutput& input : node->inputs()) {
      entry.inputs.push_back({dense[id_of(input.node)], input.index});
      add_producer(input.node);
    }
    for (const Node* control : node->control_inputs()) add_producer(control);
  }

  dag_fetch_slots_.reserve(fetches_.size());
  for (const NodeOutput& fetch : fetches_) {
    dag_fetch_slots_.push_back({dag_index_.at(fetch.node), fetch.index});
  }
}

void ExecutionPlan::BuildDynamic(const Graph& graph) {
  // The dynamic strategy covers the whole graph: deadness propagation, not
  // reachability pruning, decides what executes.
  std::unordered_map<const Node*, int> index;
  dyn_nodes_.reserve(graph.num_nodes());
  for (const auto& node : graph.nodes()) {
    index[node.get()] = static_cast<int>(dyn_nodes_.size());
    DynNode entry;
    entry.node = node.get();
    entry.kind = ClassifyOp(node->op());
    if (entry.kind == OpKind::kKernel) {
      entry.kernel = &KernelRegistry::Global().Lookup(node->op());
    }
    if (entry.kind == OpKind::kEnter) {
      entry.frame = node->GetStringAttr("frame");
      entry.is_constant_enter = node->HasAttr("is_constant") &&
                                node->GetBoolAttr("is_constant");
    }
    entry.is_root_source =
        IsSourceKind(entry.kind) ||
        (entry.kind == OpKind::kKernel && node->num_inputs() == 0 &&
         node->control_inputs().empty());
    entry.out_edges.resize(
        static_cast<std::size_t>(std::max(1, node->num_outputs())));
    dyn_nodes_.push_back(std::move(entry));
  }
  for (std::size_t i = 0; i < dyn_nodes_.size(); ++i) {
    DynNode& entry = dyn_nodes_[i];
    const Node* node = entry.node;
    entry.inputs.reserve(node->inputs().size());
    for (int slot = 0; slot < node->num_inputs(); ++slot) {
      const NodeOutput input = node->input(slot);
      const int producer = index.at(input.node);
      entry.inputs.push_back({producer, input.index});
      dyn_nodes_[static_cast<std::size_t>(producer)]
          .out_edges[static_cast<std::size_t>(input.index)]
          .push_back({static_cast<int>(i), slot});
    }
    entry.control_producers.reserve(node->control_inputs().size());
    for (const Node* control : node->control_inputs()) {
      const int producer = index.at(control);
      entry.control_producers.push_back(producer);
      dyn_nodes_[static_cast<std::size_t>(producer)].control_edges.push_back(
          {static_cast<int>(i), -1});
    }
  }
  dyn_fetch_slots_.reserve(fetches_.size());
  for (const NodeOutput& fetch : fetches_) {
    dyn_fetch_slots_.push_back({index.at(fetch.node), fetch.index});
  }
}

int ExecutionPlan::DagIndexOf(const Node* node) const {
  const auto it = dag_index_.find(node);
  return it == dag_index_.end() ? -1 : it->second;
}

std::shared_ptr<const ExecutionPlan> GetOrBuildPlan(
    const Graph& graph, std::span<const NodeOutput> fetches,
    RunContext* run, PlanOptions options) {
  cache::PlanCache& plan_cache = graph.plan_cache();
  // The PlanCache is type-erased; fetch endpoints map 1:1 onto FetchIds.
  std::vector<cache::PlanCache::FetchId> fetch_ids;
  fetch_ids.reserve(fetches.size());
  for (const NodeOutput& fetch : fetches) {
    fetch_ids.push_back({fetch.node, fetch.index});
  }
  if (std::shared_ptr<const void> cached =
          plan_cache.Find(graph.version(), fetch_ids);
      cached != nullptr) {
    if (run != nullptr) {
      run->plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return std::static_pointer_cast<const ExecutionPlan>(cached);
  }
  auto plan = ExecutionPlan::Build(graph, fetches, options);
  if (run != nullptr) {
    run->plan_builds.fetch_add(1, std::memory_order_relaxed);
  }
  plan_cache.Insert(graph.version(), fetch_ids, plan);
  return plan;
}

}  // namespace janus
