#ifndef NAUTILUS_GRAPH_EXECUTOR_H_
#define NAUTILUS_GRAPH_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nautilus/graph/fusion_planner.h"
#include "nautilus/graph/model_graph.h"

namespace nautilus {
namespace graph {

/// Runs forward and backward passes over a ModelGraph on real tensors.
///
/// The same executor drives plain candidate models and Nautilus's rewritten
/// reuse-plan graphs: in a rewritten graph, materialized layer outputs appear
/// as extra input nodes and are fed like any other input. Multiple outputs
/// (fused models) are supported by passing one gradient per output node.
///
/// Both passes use one wavefront scheduler over super-nodes (a fused region,
/// or a single node): supers whose dependencies are all satisfied form a
/// level and run concurrently on the global thread pool, so the
/// inter-operator parallelism that model fusion creates (one shared trunk
/// fanning out into many heads) is actually harvested. Results are bitwise
/// identical at every thread count: each gradient slot accumulates its seed
/// first and then its children's contributions in descending child id order
/// — exactly the order a sequential reverse-topological loop produces — and
/// FLOP totals are summed in fixed node order.
class Executor {
 public:
  explicit Executor(const ModelGraph* model);

  /// Computes all node outputs in topological order. `feeds` must provide a
  /// batch tensor for every input node. With `training` false, backward
  /// caches are not retained. `skip` (optional, indexed by node id) marks
  /// nodes to bypass entirely — used to deactivate fused branches whose
  /// epoch budget is exhausted; a skipped node's output is absent and its
  /// feed may be omitted.
  void Forward(const std::unordered_map<int, Tensor>& feeds, bool training,
               const std::vector<bool>* skip = nullptr);

  const Tensor& Output(int node_id) const;

  /// Back-propagates from the given output gradients, accumulating parameter
  /// gradients of non-frozen layers. Subgraphs with no trainable ancestors
  /// are skipped (the executed-cost analogue of the paper's 1x/2x/3x layer
  /// cost model).
  void Backward(const std::unordered_map<int, Tensor>& output_grads);

  /// Zeroes gradients of all trainable parameters (shared layers once).
  void ZeroGrads();

  /// Trainable parameters of the whole graph (shared layers deduplicated).
  std::vector<nn::Parameter*> TrainableParams() const;

  /// Total FLOPs executed so far (analytic estimate: forward FLOPs per
  /// record x records, doubled/tripled for backward per the cost model).
  double flops_executed() const { return flops_executed_; }

  /// Fused regions this executor runs (empty when NAUTILUS_FUSION is off, no
  /// region cleared the cost model, or a backward pass can serialize on a
  /// duplicated parameterized layer). Snapshotted at construction.
  const FusionPlan& fusion_plan() const { return fusion_plan_; }

  const ModelGraph& model() const { return *model_; }

 private:
  // Populates the per-node trace tags (expression hashes, materializable
  // mask) the first time a traced pass runs; no-op when tracing is off.
  void EnsureTraceTags();

  // Builds the scheduling units: one super per fused region plus one per
  // unfused node. With no regions, super id == node id.
  void BuildSupers();

  const ModelGraph* model_;
  std::vector<bool> needs_grad_;   // some ancestor (or self) is trainable
  // Per node, needs_grad_ of each parent in slot order: the
  // `needs_input_grad` argument of that node's Layer::Backward.
  std::vector<std::vector<bool>> parent_needs_grad_;
  // Deduplicated children (a node listing the same parent twice is still one
  // child), sorted ascending by id; read by the gradient slot reduction.
  std::vector<std::vector<int>> children_unique_;
  // Node lists of parameterized layer instances that sit at >= 1 other
  // grad-carrying node. Layer::Backward accumulates parameter gradients in
  // place, so when >= 2 of one layer's nodes are live in the same pass
  // (decided per pass from the skip mask), the reverse wavefront runs one
  // node per step in descending id order.
  std::vector<std::vector<int>> dup_layer_nodes_;
  bool serial_backward_this_pass_ = false;
  // Operator-fusion state. Supers are the scheduling units: one per fused
  // region plus one per unfused node, numbered in ascending order of their
  // first node; super_node_ is the region's last member for region supers
  // (the only member value visible outside the region).
  FusionPlan fusion_plan_;
  std::vector<int> super_node_;    // super -> representative node id
  std::vector<int> super_region_;  // super -> region index, -1 = singleton
  std::vector<std::vector<int>> super_parents_;   // unique, sorted
  std::vector<std::vector<int>> super_children_;  // unique, sorted
  std::vector<int> region_grad_stop_;  // first member index carrying grad
  std::vector<std::string> region_labels_;
  std::vector<Tensor> outputs_;
  std::vector<std::unique_ptr<nn::LayerCache>> caches_;
  bool forward_was_training_ = false;
  double flops_executed_ = 0.0;
  // Trace-only annotations, computed lazily (empty until a traced pass).
  std::vector<uint64_t> expr_hashes_;
  std::vector<bool> materializable_;
};

}  // namespace graph
}  // namespace nautilus

#endif  // NAUTILUS_GRAPH_EXECUTOR_H_
