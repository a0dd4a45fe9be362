#include "runtime/memory_plan.h"

#include "runtime/fusion.h"
#include "runtime/plan.h"
#include "tensor/elementwise.h"

namespace janus {

bool OpSupportsInPlace(std::string_view op) {
  // Binary rows are still gated at run time: the executor's InPlaceScope
  // plus OutputBuffer's byte-size and uniqueness checks reject broadcast
  // operands (different byte size) and shared buffers, and kernels
  // themselves fall back to fresh allocation on shape mismatch.
  const elementwise::OpRow* row = elementwise::FindRow(op);
  return row != nullptr && row->in_place;
}

MemoryPlan BuildMemoryPlan(const ExecutionPlan& plan) {
  MemoryPlan mem;
  if (plan.strategy() == ExecutionPlan::Strategy::kDag) {
    const auto& nodes = plan.dag_nodes();
    mem.dag.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const ExecutionPlan::DagNode& node = nodes[i];
      // Fused-region interiors are never materialized, so only the region
      // output participates in liveness; a non-reduction region is same-index
      // elementwise end to end and may overwrite a dying input.
      mem.dag[i].in_place_capable =
          (node.kind == ExecutionPlan::OpKind::kKernel &&
           OpSupportsInPlace(node.node->op())) ||
          (node.kind == ExecutionPlan::OpKind::kFusedRegion &&
           node.fused != nullptr && !node.fused->has_reduction);
      for (const ExecutionPlan::DagInput& input : node.inputs) {
        ++mem.dag[static_cast<std::size_t>(input.producer)].output_reads;
      }
    }
    for (const ExecutionPlan::DagInput& slot : plan.dag_fetch_slots()) {
      mem.dag[static_cast<std::size_t>(slot.producer)].fetch_protected = true;
    }
  } else {
    const auto& nodes = plan.dyn_nodes();
    mem.dyn_in_place.resize(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const ExecutionPlan::DynNode& node = nodes[i];
      mem.dyn_in_place[i] =
          (node.kind == ExecutionPlan::OpKind::kKernel &&
           OpSupportsInPlace(node.node->op())) ||
                  (node.kind == ExecutionPlan::OpKind::kFusedRegion &&
                   node.fused != nullptr && !node.fused->has_reduction)
              ? 1
              : 0;
    }
  }
  return mem;
}

}  // namespace janus
