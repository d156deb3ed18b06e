#include "nautilus/graph/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "nautilus/obs/metrics.h"
#include "nautilus/obs/trace.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/util/logging.h"
#include "nautilus/util/parallel.h"

namespace nautilus {
namespace graph {

namespace {

// Runs one wavefront level of scheduling units. Single-unit levels run on
// the caller so the kernel keeps its full intra-op ParallelFor budget
// (inside a pool task it would collapse to serial).
template <typename Fn>
void RunLevel(const std::vector<int>& work, const Fn& run) {
  static obs::Histogram& width_hist =
      obs::MetricsRegistry::Global().histogram("executor.wavefront_width");
  if (work.empty()) return;
  width_hist.Record(static_cast<int64_t>(work.size()));
  if (work.size() == 1 || ParallelismDegree() == 1) {
    for (int s : work) run(s);
    return;
  }
  TaskGroup group;
  for (int s : work) {
    group.Submit([&run, s] { run(s); });
  }
  group.Wait();
}

}  // namespace

Executor::Executor(const ModelGraph* model) : model_(model) {
  NAUTILUS_CHECK(model != nullptr);
  const auto& nodes = model_->nodes();
  needs_grad_.assign(nodes.size(), false);
  parent_needs_grad_.assign(nodes.size(), {});
  for (const GraphNode& node : nodes) {
    bool trainable = !node.frozen && !node.layer->Params().empty();
    bool from_parent = false;
    std::vector<bool>& parent_flags =
        parent_needs_grad_[static_cast<size_t>(node.id)];
    for (int p : node.parents) {
      parent_flags.push_back(needs_grad_[static_cast<size_t>(p)]);
      if (parent_flags.back()) from_parent = true;
    }
    needs_grad_[static_cast<size_t>(node.id)] = trainable || from_parent;
  }

  children_unique_.assign(nodes.size(), {});
  for (const GraphNode& node : nodes) {
    std::vector<int> ps = node.parents;
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    for (int p : ps) {
      children_unique_[static_cast<size_t>(p)].push_back(node.id);
    }
  }

  // Backward calls Layer::Backward on every grad-carrying node, and that
  // accumulates the layer's parameter gradients in place. If one layer
  // instance with parameters sits at more than one such node, concurrent
  // backward would race on those accumulations, so those passes run the
  // reverse wavefront one node at a time. Whether a pass serializes is
  // decided per pass: with a skip mask deactivating all but one of the
  // layer's nodes, the parallel backward is safe.
  std::unordered_map<const nn::Layer*, std::vector<int>> grad_nodes_per_layer;
  for (const GraphNode& node : nodes) {
    if (node.parents.empty()) continue;
    if (!needs_grad_[static_cast<size_t>(node.id)]) continue;
    if (node.layer->Params().empty()) continue;
    grad_nodes_per_layer[node.layer.get()].push_back(node.id);
  }
  for (auto& [layer, ids] : grad_nodes_per_layer) {
    (void)layer;
    if (ids.size() > 1) dup_layer_nodes_.push_back(std::move(ids));
  }

  // Operator fusion: planned once per executor. A serial backward relies on
  // super id == node id, so fusion stays off whenever a pass can serialize.
  if (fused::FusionEnabled() && dup_layer_nodes_.empty()) {
    fusion_plan_ = PlanFusion(*model_);
  }
  if (!fusion_plan_.empty()) {
    static obs::Counter& regions_planned =
        obs::MetricsRegistry::Global().counter("fusion.regions_planned");
    regions_planned.Add(static_cast<int64_t>(fusion_plan_.regions.size()));
  }
  BuildSupers();
}

void Executor::BuildSupers() {
  const auto& nodes = model_->nodes();
  std::vector<int> super_of(nodes.size(), -1);  // node id -> super id
  for (const GraphNode& node : nodes) {
    const int r = fusion_plan_.empty()
                      ? -1
                      : fusion_plan_.region_of[static_cast<size_t>(node.id)];
    if (r >= 0) {
      const FusedRegion& region = fusion_plan_.regions[static_cast<size_t>(r)];
      if (region.node_ids.front() != node.id) continue;  // head creates
      const int s = static_cast<int>(super_node_.size());
      for (int id : region.node_ids) super_of[static_cast<size_t>(id)] = s;
      super_node_.push_back(region.node_ids.back());
      super_region_.push_back(r);
    } else {
      super_of[static_cast<size_t>(node.id)] =
          static_cast<int>(super_node_.size());
      super_node_.push_back(node.id);
      super_region_.push_back(-1);
    }
  }

  const size_t n_supers = super_node_.size();
  super_parents_.assign(n_supers, {});
  super_children_.assign(n_supers, {});
  for (const GraphNode& node : nodes) {
    const int s = super_of[static_cast<size_t>(node.id)];
    for (int p : node.parents) {
      const int sp = super_of[static_cast<size_t>(p)];
      if (sp != s) super_parents_[static_cast<size_t>(s)].push_back(sp);
    }
  }
  for (size_t s = 0; s < n_supers; ++s) {
    auto& ps = super_parents_[s];
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    for (int p : ps) {
      super_children_[static_cast<size_t>(p)].push_back(static_cast<int>(s));
    }
  }
  for (auto& cs : super_children_) std::sort(cs.begin(), cs.end());

  // Per region: the first member the backward walk must reach (needs_grad_
  // holds on a suffix of every chain), and a trace label.
  region_grad_stop_.clear();
  region_labels_.clear();
  for (const FusedRegion& region : fusion_plan_.regions) {
    int stop = static_cast<int>(region.node_ids.size());
    for (size_t i = 0; i < region.node_ids.size(); ++i) {
      if (needs_grad_[static_cast<size_t>(region.node_ids[i])]) {
        stop = static_cast<int>(i);
        break;
      }
    }
    region_grad_stop_.push_back(stop);
    std::string label;
    for (const fused::OpDesc& op : region.plan.ops) {
      if (!label.empty()) label += '|';
      label += fused::OpKindName(op.kind);
    }
    region_labels_.push_back(std::move(label));
  }
}

void Executor::EnsureTraceTags() {
  if (!expr_hashes_.empty()) return;
  expr_hashes_ = model_->ExpressionHashes();
  materializable_ = model_->MaterializableMask();
}

void Executor::Forward(const std::unordered_map<int, Tensor>& feeds,
                       bool training, const std::vector<bool>* skip) {
  static obs::Counter& passes =
      obs::MetricsRegistry::Global().counter("executor.forward_passes");
  static obs::Counter& node_forwards =
      obs::MetricsRegistry::Global().counter("executor.node_forwards");
  static obs::Histogram& node_ns =
      obs::MetricsRegistry::Global().histogram("executor.node_forward_ns");
  passes.Add();
  const bool tracing = obs::TracingEnabled();
  if (tracing) EnsureTraceTags();
  obs::TraceScope pass_span("exec", "executor.forward");
  pass_span.AddArg("model", model_->name())
      .AddArg("training", training)
      .AddArg("nodes", model_->num_nodes());

  const auto& nodes = model_->nodes();
  // clear()+resize() (rather than assign) destroys last pass's tensors, so
  // their buffers recycle through the pool before this pass allocates.
  outputs_.clear();
  outputs_.resize(nodes.size());
  caches_.clear();
  caches_.resize(nodes.size());
  forward_was_training_ = training;

  // Satellite of the duplicated-parameter fallback: serialize the coming
  // backward only when >= 2 nodes of one parameterized layer instance are
  // actually live (not skipped) this pass.
  serial_backward_this_pass_ = false;
  for (const auto& ids : dup_layer_nodes_) {
    int live = 0;
    for (int id : ids) {
      if (skip == nullptr || !(*skip)[static_cast<size_t>(id)]) ++live;
    }
    if (live > 1) {
      serial_backward_this_pass_ = true;
      break;
    }
  }

  // FLOPs land in per-node slots and are summed in ascending id order after
  // the pass, so the double total has the same bits at every thread count.
  std::vector<double> node_flops(nodes.size(), 0.0);

  auto run_node = [&](const GraphNode& node) {
    std::vector<const Tensor*> inputs;
    std::vector<Shape> record_shapes;
    inputs.reserve(node.parents.size());
    for (int p : node.parents) {
      const Tensor& t = outputs_[static_cast<size_t>(p)];
      NAUTILUS_CHECK(!t.empty()) << "parent " << p << " not computed";
      inputs.push_back(&t);
      record_shapes.push_back(t.shape().WithBatch(1));
    }
    const int64_t batch = inputs[0]->shape().dim(0);
    std::unique_ptr<nn::LayerCache>* cache_slot =
        training ? &caches_[static_cast<size_t>(node.id)] : nullptr;
    node_forwards.Add();
    {
      obs::TraceScope node_span("exec.node.fwd", node.layer->name());
      node_span.AddArg("node", node.id)
          .AddArg("batch", batch)
          .AddArg("frozen", node.frozen);
      if (node_span.active()) {
        node_span
            .AddArgHex("expr", expr_hashes_[static_cast<size_t>(node.id)])
            .AddArg("materializable",
                    bool{materializable_[static_cast<size_t>(node.id)]});
      }
      // Frozen nodes that no gradient ever reaches may run reduced-precision
      // (int8 GEMM / f16 weights) under the process-wide quant mode. The
      // gate is needs_grad_, not `training`: a frozen prefix then computes
      // identical features in training forwards, eval forwards, and
      // materializer runs, and Backward never visits these nodes, so the
      // missing cache is never read.
      const bool quantized = quant::GlobalQuantMode() != quant::QuantMode::kOff &&
                             node.frozen &&
                             !needs_grad_[static_cast<size_t>(node.id)];
      outputs_[static_cast<size_t>(node.id)] =
          quantized ? node.layer->ForwardQuantized(inputs)
                    : node.layer->Forward(inputs, cache_slot);
      if (node_span.active()) node_ns.Record(node_span.ElapsedNs());
    }
    node_flops[static_cast<size_t>(node.id)] =
        node.layer->ForwardFlopsPerRecord(record_shapes) *
        static_cast<double>(batch);
  };

  // Fused-region execution: gather external inputs, run the chain as one
  // tiled memory pass, publish only the last member's output. Interior
  // member outputs never materialize; per-member FLOPs still land in their
  // own slots so the totals match the unfused pass bitwise.
  static obs::Counter& bytes_saved =
      obs::MetricsRegistry::Global().counter("fusion.bytes_saved");
  auto run_region = [&](int r) {
    const FusedRegion& region = fusion_plan_.regions[static_cast<size_t>(r)];
    const size_t k = region.plan.ops.size();
    std::vector<std::vector<const Tensor*>> inputs(k);
    for (size_t i = 0; i < k; ++i) {
      for (int pid : region.slot_parents[i]) {
        if (pid < 0) {
          inputs[i].push_back(nullptr);
        } else {
          const Tensor& t = outputs_[static_cast<size_t>(pid)];
          NAUTILUS_CHECK(!t.empty()) << "parent " << pid << " not computed";
          inputs[i].push_back(&t);
        }
      }
    }
    const Shape chain_shape = inputs[0][0]->shape();
    const int64_t batch = chain_shape.dim(0);
    node_forwards.Add(static_cast<int64_t>(k));
    {
      obs::TraceScope region_span("exec.region.fwd",
                                  region_labels_[static_cast<size_t>(r)]);
      region_span.AddArg("nodes", static_cast<int>(k)).AddArg("batch", batch);
      outputs_[static_cast<size_t>(region.node_ids.back())] =
          fused::ChainForward(region.plan, inputs);
      if (region_span.active()) node_ns.Record(region_span.ElapsedNs());
    }
    bytes_saved.Add(static_cast<int64_t>(region.saved_bytes_per_record *
                                         static_cast<double>(batch)));
    const Shape chain_record = chain_shape.WithBatch(1);
    for (size_t i = 0; i < k; ++i) {
      const GraphNode& node = nodes[static_cast<size_t>(region.node_ids[i])];
      std::vector<Shape> record_shapes;
      record_shapes.reserve(region.slot_parents[i].size());
      for (int pid : region.slot_parents[i]) {
        record_shapes.push_back(
            pid < 0 ? chain_record
                    : outputs_[static_cast<size_t>(pid)].shape().WithBatch(1));
      }
      node_flops[static_cast<size_t>(node.id)] =
          node.layer->ForwardFlopsPerRecord(record_shapes) *
          static_cast<double>(batch);
    }
  };

  // Wavefront over supers: sdeps[s] counts unsatisfied parent supers, and a
  // level is every super whose count hit zero. A fused region schedules and
  // runs as one unit; every other node is its own super. Skipped nodes
  // complete immediately (producing nothing), so their non-skipped children
  // fail the parent check. A region with every member skipped is skipped; a
  // region the skip mask cuts through runs its live members node by node
  // this pass, preserving unfused semantics exactly.
  auto run_super = [&](int s) {
    const int r = super_region_[static_cast<size_t>(s)];
    if (r < 0) {
      run_node(nodes[static_cast<size_t>(super_node_[static_cast<size_t>(s)])]);
      return;
    }
    const auto& members = fusion_plan_.regions[static_cast<size_t>(r)].node_ids;
    bool any_skipped = false;
    if (skip != nullptr) {
      for (int id : members) {
        if ((*skip)[static_cast<size_t>(id)]) {
          any_skipped = true;
          break;
        }
      }
    }
    if (any_skipped) {
      for (int id : members) {
        if (!(*skip)[static_cast<size_t>(id)]) {
          run_node(nodes[static_cast<size_t>(id)]);
        }
      }
    } else {
      run_region(r);
    }
  };

  std::vector<int> sdeps(super_node_.size(), 0);
  std::vector<int> ready;
  for (size_t s = 0; s < super_node_.size(); ++s) {
    sdeps[s] = static_cast<int>(super_parents_[s].size());
    if (sdeps[s] == 0) ready.push_back(static_cast<int>(s));
  }
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end());
    std::vector<int> work;
    for (int s : ready) {
      const int r = super_region_[static_cast<size_t>(s)];
      if (r < 0) {
        const int id = super_node_[static_cast<size_t>(s)];
        const GraphNode& node = nodes[static_cast<size_t>(id)];
        if (skip != nullptr && (*skip)[static_cast<size_t>(id)]) continue;
        if (node.parents.empty()) {
          auto it = feeds.find(id);
          NAUTILUS_CHECK(it != feeds.end())
              << "missing feed for input node " << id << " ("
              << node.layer->name() << ")";
          outputs_[static_cast<size_t>(id)] = it->second;
          continue;
        }
        work.push_back(s);
      } else {
        const auto& members =
            fusion_plan_.regions[static_cast<size_t>(r)].node_ids;
        bool any_live = false;
        for (int id : members) {
          if (skip == nullptr || !(*skip)[static_cast<size_t>(id)]) {
            any_live = true;
            break;
          }
        }
        if (any_live) work.push_back(s);
      }
    }
    RunLevel(work, run_super);
    std::vector<int> next;
    for (int s : ready) {
      for (int c : super_children_[static_cast<size_t>(s)]) {
        if (--sdeps[static_cast<size_t>(c)] == 0) next.push_back(c);
      }
    }
    ready = std::move(next);
  }

  for (size_t id = 0; id < nodes.size(); ++id) {
    flops_executed_ += node_flops[id];
  }
}

const Tensor& Executor::Output(int node_id) const {
  NAUTILUS_CHECK_GE(node_id, 0);
  NAUTILUS_CHECK_LT(node_id, static_cast<int>(outputs_.size()));
  const Tensor& t = outputs_[static_cast<size_t>(node_id)];
  NAUTILUS_CHECK(!t.empty()) << "node " << node_id << " has no output";
  return t;
}

void Executor::Backward(const std::unordered_map<int, Tensor>& output_grads) {
  NAUTILUS_CHECK(forward_was_training_)
      << "Backward requires a Forward with training=true";
  static obs::Counter& passes =
      obs::MetricsRegistry::Global().counter("executor.backward_passes");
  passes.Add();
  if (obs::TracingEnabled()) EnsureTraceTags();
  obs::TraceScope pass_span("exec", "executor.backward");
  pass_span.AddArg("model", model_->name())
      .AddArg("outputs", output_grads.size());
  const auto& nodes = model_->nodes();
  std::vector<Tensor> grads(nodes.size());
  for (const auto& [id, g] : output_grads) {
    NAUTILUS_CHECK_GE(id, 0);
    NAUTILUS_CHECK_LT(id, static_cast<int>(nodes.size()));
    grads[static_cast<size_t>(id)] = g;
  }

  static obs::Counter& node_backwards =
      obs::MetricsRegistry::Global().counter("executor.node_backwards");
  static obs::Histogram& node_ns =
      obs::MetricsRegistry::Global().histogram("executor.node_backward_ns");
  static obs::Counter& serial_passes =
      obs::MetricsRegistry::Global().counter("executor.serial_backward_passes");
  if (serial_backward_this_pass_) serial_passes.Add();

  std::vector<std::vector<Tensor>> contrib(nodes.size());
  std::vector<double> node_flops(nodes.size(), 0.0);

  auto run_node = [&](int id) {
    const GraphNode& node = nodes[static_cast<size_t>(id)];
    std::vector<const Tensor*> inputs;
    std::vector<Shape> record_shapes;
    inputs.reserve(node.parents.size());
    for (int p : node.parents) {
      inputs.push_back(&outputs_[static_cast<size_t>(p)]);
      record_shapes.push_back(
          outputs_[static_cast<size_t>(p)].shape().WithBatch(1));
    }
    const nn::LayerCache* cache = caches_[static_cast<size_t>(id)].get();
    static const nn::LayerCache kEmptyCache;
    node_backwards.Add();
    {
      obs::TraceScope node_span("exec.node.bwd", node.layer->name());
      node_span.AddArg("node", id).AddArg("frozen", node.frozen);
      if (node_span.active()) {
        node_span.AddArgHex("expr", expr_hashes_[static_cast<size_t>(id)])
            .AddArg("materializable",
                    bool{materializable_[static_cast<size_t>(id)]});
      }
      contrib[static_cast<size_t>(id)] = node.layer->Backward(
          grads[static_cast<size_t>(id)], inputs,
          cache != nullptr ? *cache : kEmptyCache,
          parent_needs_grad_[static_cast<size_t>(id)]);
      if (node_span.active()) node_ns.Record(node_span.ElapsedNs());
    }
    const std::vector<Tensor>& cg = contrib[static_cast<size_t>(id)];
    NAUTILUS_CHECK_EQ(cg.size(), node.parents.size());
    // Parents outside the grad-carrying subgraph are never reduced, so the
    // layer must not have computed (and parked) a gradient for them.
    for (size_t k = 0; k < cg.size(); ++k) {
      NAUTILUS_CHECK(cg[k].empty() ||
                     needs_grad_[static_cast<size_t>(node.parents[k])])
          << node.layer->name() << " returned an unrequested input gradient";
    }
    // The cache is only read by this node's backward; free it eagerly so its
    // tensors return to the pool while the pass is still running.
    caches_[static_cast<size_t>(id)].reset();
    const int64_t batch = inputs[0]->shape().dim(0);
    const bool trainable = !node.frozen && !node.layer->Params().empty();
    // Cost-model-consistent accounting: trainable layers pay ~2x forward in
    // the backward pass (input + parameter gradients), frozen ones ~1x.
    node_flops[static_cast<size_t>(id)] =
        node.layer->ForwardFlopsPerRecord(record_shapes) *
        static_cast<double>(batch) * (trainable ? 2.0 : 1.0);
  };

  // Deterministic slot reduction: seed first (already in grads), then
  // children in descending id order, slots ascending — the exact order of a
  // sequential reverse-topological loop. A contribution is freed as soon as
  // it is added.
  auto reduce_slot = [&](int id) {
    Tensor& slot = grads[static_cast<size_t>(id)];
    const auto& children = children_unique_[static_cast<size_t>(id)];
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      const int c = *it;
      std::vector<Tensor>& cg = contrib[static_cast<size_t>(c)];
      if (cg.empty()) continue;  // child carried no gradient
      const auto& cps = nodes[static_cast<size_t>(c)].parents;
      for (size_t k = 0; k < cps.size(); ++k) {
        if (cps[k] != id) continue;
        Tensor& g = cg[k];
        if (g.empty()) continue;
        if (slot.empty()) {
          slot = std::move(g);
        } else {
          ops::AxpyInPlace(1.0f, g, &slot);
          g = Tensor();
        }
      }
    }
  };

  // Fused-region backward: recompute the chain's tile intermediates from the
  // still-live external inputs and walk the gradient back in the same single
  // memory pass. External-slot gradients land in the members' contrib slots,
  // so the deterministic reduce above consumes them exactly as if each
  // member's Layer::Backward had run.
  auto run_region_bwd = [&](int r) {
    const FusedRegion& region = fusion_plan_.regions[static_cast<size_t>(r)];
    const int last = region.node_ids.back();
    const size_t k = region.plan.ops.size();
    const int stop = region_grad_stop_[static_cast<size_t>(r)];
    std::vector<std::vector<const Tensor*>> inputs(k);
    for (size_t i = 0; i < k; ++i) {
      for (int pid : region.slot_parents[i]) {
        inputs[i].push_back(
            pid < 0 ? nullptr : &outputs_[static_cast<size_t>(pid)]);
      }
    }
    std::vector<std::vector<Tensor>> igrads;
    node_backwards.Add(static_cast<int64_t>(k) - stop);
    {
      obs::TraceScope region_span("exec.region.bwd",
                                  region_labels_[static_cast<size_t>(r)]);
      region_span.AddArg("nodes", static_cast<int>(k)).AddArg("stop", stop);
      fused::ChainBackward(region.plan, inputs, grads[static_cast<size_t>(last)],
                           stop, &igrads);
      if (region_span.active()) node_ns.Record(region_span.ElapsedNs());
    }
    const Shape chain_shape = inputs[0][0]->shape();
    const int64_t batch = chain_shape.dim(0);
    const Shape chain_record = chain_shape.WithBatch(1);
    for (size_t i = static_cast<size_t>(stop); i < k; ++i) {
      const GraphNode& node = nodes[static_cast<size_t>(region.node_ids[i])];
      contrib[static_cast<size_t>(node.id)] = std::move(igrads[i]);
      std::vector<Shape> record_shapes;
      record_shapes.reserve(region.slot_parents[i].size());
      for (int pid : region.slot_parents[i]) {
        record_shapes.push_back(
            pid < 0 ? chain_record
                    : outputs_[static_cast<size_t>(pid)].shape().WithBatch(1));
      }
      const bool trainable = !node.frozen && !node.layer->Params().empty();
      node_flops[static_cast<size_t>(node.id)] =
          node.layer->ForwardFlopsPerRecord(record_shapes) *
          static_cast<double>(batch) * (trainable ? 2.0 : 1.0);
    }
  };

  // Reverse wavefront over the grad-carrying supers. needs_grad_ is
  // downward closed (every child of a grad-carrying node carries grad), so
  // counting unique child supers is exactly counting the contributions a
  // slot must wait for. A region's gradient enters only through its last
  // member (the planner keeps interior values region-private), so one slot
  // reduction per super suffices. Slots are reduced on the caller thread
  // before their supers run; only the backward kernels of a level run
  // concurrently.
  //
  // A serial pass runs one super per step: the highest ready id, leaving the
  // rest ready. Supers are single nodes then (fusion is off when a layer is
  // duplicated), and every child has a higher id than its parents, so the
  // highest-id unprocessed grad-carrying node always has all its children
  // done: Layer::Backward runs one call at a time in descending id order,
  // and a shared layer's in-place parameter gradients neither race nor
  // change summation order.
  auto super_needs_grad = [&](int s) {
    return needs_grad_[static_cast<size_t>(super_node_[static_cast<size_t>(s)])];
  };
  auto run_super = [&](int s) {
    const int r = super_region_[static_cast<size_t>(s)];
    if (r < 0) {
      run_node(super_node_[static_cast<size_t>(s)]);
    } else {
      run_region_bwd(r);
    }
  };

  std::vector<int> srdeps(super_node_.size(), 0);
  std::vector<int> ready;
  for (size_t s = 0; s < super_node_.size(); ++s) {
    if (!super_needs_grad(static_cast<int>(s))) continue;
    srdeps[s] = static_cast<int>(super_children_[s].size());
    if (srdeps[s] == 0) ready.push_back(static_cast<int>(s));
  }
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), std::greater<int>());
    const auto split =
        serial_backward_this_pass_ ? ready.begin() + 1 : ready.end();
    const std::vector<int> level(ready.begin(), split);
    std::vector<int> next(split, ready.end());
    for (int s : level) reduce_slot(super_node_[static_cast<size_t>(s)]);
    std::vector<int> work;
    for (int s : level) {
      const int target = super_node_[static_cast<size_t>(s)];
      if (super_region_[static_cast<size_t>(s)] < 0 &&
          nodes[static_cast<size_t>(target)].parents.empty()) {
        continue;
      }
      if (grads[static_cast<size_t>(target)].empty()) continue;
      work.push_back(s);
    }
    RunLevel(work, run_super);
    for (int s : level) {
      for (int p : super_parents_[static_cast<size_t>(s)]) {
        if (!super_needs_grad(p)) continue;
        if (--srdeps[static_cast<size_t>(p)] == 0) next.push_back(p);
      }
    }
    ready = std::move(next);
  }

  for (int id = static_cast<int>(nodes.size()) - 1; id >= 0; --id) {
    flops_executed_ += node_flops[static_cast<size_t>(id)];
  }
}

void Executor::ZeroGrads() {
  for (nn::Parameter* p : TrainableParams()) p->ZeroGrad();
}

std::vector<nn::Parameter*> Executor::TrainableParams() const {
  std::vector<nn::Parameter*> params;
  std::unordered_set<const nn::Layer*> seen;
  for (const GraphNode& node : model_->nodes()) {
    if (node.frozen) continue;
    if (!seen.insert(node.layer.get()).second) continue;
    for (nn::Parameter* p : node.layer->Params()) params.push_back(p);
  }
  return params;
}

}  // namespace graph
}  // namespace nautilus
