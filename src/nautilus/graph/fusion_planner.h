#ifndef NAUTILUS_GRAPH_FUSION_PLANNER_H_
#define NAUTILUS_GRAPH_FUSION_PLANNER_H_

#include <vector>

#include "nautilus/graph/model_graph.h"
#include "nautilus/tensor/fused_ops.h"

namespace nautilus {
namespace graph {

/// One accepted fused region: a straight-line chain of graph nodes the
/// fused::Chain interpreter executes as a single cache-blocked memory pass.
/// node_ids is in chain (topological) order; the last node's output is the
/// region's output and the only member value visible outside the region.
struct FusedRegion {
  std::vector<int> node_ids;
  fused::ChainPlan plan;  // one OpDesc per node_id, same order
  /// Per op, the graph node feeding each input slot, in the member node's
  /// parent order; -1 marks the slot fed by the chain value.
  std::vector<std::vector<int>> slot_parents;
  /// Intermediate traffic a fused execution avoids, per record (the cost
  /// model's acceptance quantity): every non-terminal member's output is
  /// neither written to nor re-read from memory.
  double saved_bytes_per_record = 0.0;
};

/// Fusion plan over one ModelGraph (or the merged multi-model graph).
struct FusionPlan {
  std::vector<FusedRegion> regions;
  /// node id -> index into `regions`, or -1 for unfused nodes.
  std::vector<int> region_of;
  bool empty() const { return regions.empty(); }
};

/// Cost-model floor: a region is only accepted when fusing saves at least
/// this many bytes of intermediate traffic per record, so tiny chains don't
/// pay the fused-dispatch overhead for negligible bandwidth wins.
constexpr double kFusionMinSavedBytesPerRecord = 1024.0;

/// Discovers maximal fusible straight-line regions in `graph`:
///   - members must describe themselves via nn::Layer::DescribeFusedOp
///     (elementwise activations, residual AddN, LayerNorm / softmax /
///     mean-pool reduction terminals);
///   - every non-terminal member feeds exactly one child through exactly one
///     slot and is not a graph output (its value never escapes the region);
///   - kMeanPool may only terminate a chain;
///   - regions have >= 2 members and clear the bytes-saved floor.
/// Tile granularity is chosen so tiled reductions reproduce the unfused
/// kernels' fixed 256-row chunking (and whole records for mean-pool) at any
/// thread count; chains whose alignment LCM would blow the staging tile past
/// a cache-friendly bound are rejected.
FusionPlan PlanFusion(
    const ModelGraph& graph,
    double min_saved_bytes_per_record = kFusionMinSavedBytesPerRecord);

}  // namespace graph
}  // namespace nautilus

#endif  // NAUTILUS_GRAPH_FUSION_PLANNER_H_
