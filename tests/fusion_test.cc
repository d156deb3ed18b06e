// Operator-fusion coverage: the fused-chain interpreter must be bitwise
// identical to the unfused kernels (forward and backward, at thread degrees
// 1/2/8, with and without int8 quantization), the planner must discover
// exactly the regions the grammar and cost model admit, and the executor must
// produce identical training trajectories with fusion on and off.
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "nautilus/graph/executor.h"
#include "nautilus/graph/fusion_planner.h"
#include "nautilus/graph/model_graph.h"
#include "nautilus/nn/basic.h"
#include "nautilus/nn/combine.h"
#include "nautilus/obs/metrics.h"
#include "nautilus/tensor/fused_ops.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/util/parallel.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace {

using fused::ChainPlan;
using fused::OpDesc;
using fused::OpKind;

// Pins the parallelism degree for one scope and restores the previous value.
class ScopedDegree {
 public:
  explicit ScopedDegree(int degree) : saved_(ParallelismDegree()) {
    SetParallelismDegree(degree);
  }
  ~ScopedDegree() { SetParallelismDegree(saved_); }

 private:
  int saved_;
};

bool BitsEqual(const Tensor& a, const Tensor& b) {
  return a.shape().dims() == b.shape().dims() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.NumElements()) * sizeof(float)) == 0;
}

bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Chain interpreter vs unfused kernels
// ---------------------------------------------------------------------------

TEST(FusedChainTest, EltwiseChainBitwiseAtEveryDegree) {
  Rng rng(31);
  // Odd sizes: several tiles plus a remainder tile.
  Tensor x = Tensor::Randn(Shape({777, 33}), &rng, 1.0f);
  Tensor dy = Tensor::Randn(Shape({777, 33}), &rng, 1.0f);

  ChainPlan plan;
  plan.ops.push_back(OpDesc{.kind = OpKind::kRelu});
  plan.ops.push_back(OpDesc{.kind = OpKind::kTanh});
  const std::vector<std::vector<const Tensor*>> inputs = {{&x}, {nullptr}};

  // Unfused reference (bitwise deterministic at any degree by contract).
  Tensor y1 = ops::ReluForward(x);
  Tensor y2 = ops::TanhForward(y1);
  Tensor g1 = ops::TanhBackward(dy, y2);
  Tensor g0 = ops::ReluBackward(g1, y1);

  for (int degree : {1, 2, 8}) {
    ScopedDegree d(degree);
    Tensor out = fused::ChainForward(plan, inputs);
    EXPECT_TRUE(BitsEqual(out, y2)) << "forward differs at degree " << degree;
    std::vector<std::vector<Tensor>> igrads;
    fused::ChainBackward(plan, inputs, dy, /*stop_op=*/0, &igrads);
    ASSERT_EQ(igrads.size(), 2u);
    ASSERT_EQ(igrads[0].size(), 1u);
    EXPECT_TRUE(BitsEqual(igrads[0][0], g0))
        << "backward differs at degree " << degree;
  }
}

TEST(FusedChainTest, ResidualGeluLayerNormChainBitwise) {
  Rng rng(32);
  const int64_t rows = 520;  // crosses one 256-row chunk, leaves a remainder
  const int64_t cols = 48;
  Tensor a = Tensor::Randn(Shape({rows, cols}), &rng, 1.0f);
  Tensor b = Tensor::Randn(Shape({rows, cols}), &rng, 1.0f);
  Tensor dy = Tensor::Randn(Shape({rows, cols}), &rng, 1.0f);
  Tensor gamma = Tensor::Full(Shape({cols}), 1.0f);
  ops::AxpyInPlace(1.0f, Tensor::Randn(Shape({cols}), &rng, 0.2f), &gamma);
  Tensor beta = Tensor::Randn(Shape({cols}), &rng, 0.2f);
  const float eps = 1e-5f;

  // Unfused reference.
  Tensor s = ops::AddN({&a, &b});
  Tensor yg = ops::GeluForward(s);
  ops::LayerNormCache cache;
  Tensor y = ops::LayerNormForward(yg, gamma, beta, eps, &cache);
  Tensor dx2, dgamma, dbeta;
  ops::LayerNormBackward(dy, gamma, cache, &dx2, &dgamma, &dbeta);
  Tensor dx1 = ops::GeluBackward(dx2, s);  // AddN hands dx1 to both slots

  for (int degree : {1, 2, 8}) {
    ScopedDegree d(degree);
    Tensor dgamma_acc(gamma.shape());
    Tensor dbeta_acc(beta.shape());
    ChainPlan plan;
    plan.ops.push_back(OpDesc{.kind = OpKind::kAddN, .num_inputs = 2});
    plan.ops.push_back(OpDesc{.kind = OpKind::kGelu});
    plan.ops.push_back(OpDesc{.kind = OpKind::kLayerNorm,
                              .gamma = &gamma,
                              .beta = &beta,
                              .dgamma_acc = &dgamma_acc,
                              .dbeta_acc = &dbeta_acc,
                              .eps = eps});
    const std::vector<std::vector<const Tensor*>> inputs = {
        {&a, &b}, {nullptr}, {nullptr}};

    Tensor out = fused::ChainForward(plan, inputs);
    EXPECT_TRUE(BitsEqual(out, y)) << "forward differs at degree " << degree;

    std::vector<std::vector<Tensor>> igrads;
    fused::ChainBackward(plan, inputs, dy, /*stop_op=*/0, &igrads);
    ASSERT_EQ(igrads[0].size(), 2u);
    EXPECT_TRUE(BitsEqual(igrads[0][0], dx1)) << "degree " << degree;
    EXPECT_TRUE(BitsEqual(igrads[0][1], dx1)) << "degree " << degree;
    EXPECT_TRUE(BitsEqual(dgamma_acc, dgamma)) << "degree " << degree;
    EXPECT_TRUE(BitsEqual(dbeta_acc, dbeta)) << "degree " << degree;
  }
}

TEST(FusedChainTest, StopOpLimitsBackwardToGradFrontier) {
  Rng rng(33);
  const int64_t rows = 300;
  const int64_t cols = 32;
  Tensor a = Tensor::Randn(Shape({rows, cols}), &rng, 1.0f);
  Tensor b = Tensor::Randn(Shape({rows, cols}), &rng, 1.0f);
  Tensor dy = Tensor::Randn(Shape({rows, cols}), &rng, 1.0f);
  Tensor gamma = Tensor::Full(Shape({cols}), 1.0f);
  Tensor beta(Shape({cols}));
  const float eps = 1e-5f;

  Tensor s = ops::AddN({&a, &b});
  Tensor yg = ops::GeluForward(s);
  ops::LayerNormCache cache;
  (void)ops::LayerNormForward(yg, gamma, beta, eps, &cache);
  Tensor dx2, dgamma, dbeta;
  ops::LayerNormBackward(dy, gamma, cache, &dx2, &dgamma, &dbeta);

  Tensor dgamma_acc(gamma.shape());
  Tensor dbeta_acc(beta.shape());
  ChainPlan plan;
  plan.ops.push_back(OpDesc{.kind = OpKind::kAddN, .num_inputs = 2});
  plan.ops.push_back(OpDesc{.kind = OpKind::kGelu});
  plan.ops.push_back(OpDesc{.kind = OpKind::kLayerNorm,
                            .gamma = &gamma,
                            .beta = &beta,
                            .dgamma_acc = &dgamma_acc,
                            .dbeta_acc = &dbeta_acc,
                            .eps = eps});
  const std::vector<std::vector<const Tensor*>> inputs = {
      {&a, &b}, {nullptr}, {nullptr}};

  // Only the LayerNorm carries gradient: parameter grads must still match
  // the unfused kernel, and no external input grads are produced.
  std::vector<std::vector<Tensor>> igrads;
  fused::ChainBackward(plan, inputs, dy, /*stop_op=*/2, &igrads);
  EXPECT_TRUE(igrads[0].empty());
  EXPECT_TRUE(igrads[1].empty());
  EXPECT_TRUE(BitsEqual(dgamma_acc, dgamma));
  EXPECT_TRUE(BitsEqual(dbeta_acc, dbeta));
}

TEST(FusedChainTest, TanhMeanPoolChainBitwise) {
  Rng rng(35);
  const int64_t batch = 60, seq = 5, dim = 64;
  Tensor x = Tensor::Randn(Shape({batch, seq, dim}), &rng, 1.0f);
  Tensor dy = Tensor::Randn(Shape({batch, dim}), &rng, 1.0f);

  ChainPlan plan;
  plan.ops.push_back(OpDesc{.kind = OpKind::kTanh});
  plan.ops.push_back(OpDesc{.kind = OpKind::kMeanPool});
  plan.tile_rows = 25;  // multiple of seq; many tiles over 300 chain rows
  const std::vector<std::vector<const Tensor*>> inputs = {{&x}, {nullptr}};

  Tensor y1 = ops::TanhForward(x);
  Tensor y = ops::MeanPoolSeq(y1);
  Tensor dt = ops::MeanPoolSeqBackward(dy, x.shape());
  Tensor g0 = ops::TanhBackward(dt, y1);

  for (int degree : {1, 2, 8}) {
    ScopedDegree d(degree);
    Tensor out = fused::ChainForward(plan, inputs);
    EXPECT_TRUE(BitsEqual(out, y)) << "forward differs at degree " << degree;
    std::vector<std::vector<Tensor>> igrads;
    fused::ChainBackward(plan, inputs, dy, /*stop_op=*/0, &igrads);
    EXPECT_TRUE(BitsEqual(igrads[0][0], g0)) << "degree " << degree;
  }
}

TEST(FusedChainTest, QuantModeDoesNotChangeChainBits) {
  Rng rng(36);
  Tensor x = Tensor::Randn(Shape({256, 64}), &rng, 1.0f);
  ChainPlan plan;
  plan.ops.push_back(OpDesc{.kind = OpKind::kRelu});
  plan.ops.push_back(OpDesc{.kind = OpKind::kTanh});
  const std::vector<std::vector<const Tensor*>> inputs = {{&x}, {nullptr}};
  Tensor base = fused::ChainForward(plan, inputs);
  quant::ScopedQuantMode q(quant::QuantMode::kInt8);
  Tensor quantized = fused::ChainForward(plan, inputs);
  EXPECT_TRUE(BitsEqual(base, quantized));
}

// ---------------------------------------------------------------------------
// Planner region grammar and cost model
// ---------------------------------------------------------------------------

// input -> {d1, d2} -> add -> gelu -> layernorm [-> head]. `with_head` hangs
// a Dense classifier after the LayerNorm; otherwise the LN is the output.
graph::ModelGraph BuildResidualGraph(int64_t dim, Rng* rng, bool with_head,
                                     int* ids /* add, act, ln out params */) {
  graph::ModelGraph model("residual_chain");
  const int input_id =
      model.AddInput(std::make_shared<nn::InputLayer>("input", Shape({dim})));
  const int d1 = model.AddNode(
      std::make_shared<nn::DenseLayer>("d1", dim, dim, nn::Activation::kNone,
                                       rng),
      {input_id}, /*frozen=*/false);
  const int d2 = model.AddNode(
      std::make_shared<nn::DenseLayer>("d2", dim, dim, nn::Activation::kNone,
                                       rng),
      {input_id}, /*frozen=*/true);
  const int add = model.AddNode(std::make_shared<nn::AddLayer>("residual"),
                                {d1, d2}, /*frozen=*/true);
  const int act = model.AddNode(
      std::make_shared<nn::ActivationLayer>("act", nn::Activation::kGelu),
      {add}, /*frozen=*/true);
  const int ln =
      model.AddNode(std::make_shared<nn::LayerNormLayer>("ln", dim), {act},
                    /*frozen=*/false);
  if (with_head) {
    const int head = model.AddNode(
        std::make_shared<nn::DenseLayer>("head", dim, 8,
                                         nn::Activation::kNone, rng),
        {ln}, /*frozen=*/false);
    model.MarkOutput(head);
  } else {
    model.MarkOutput(ln);
  }
  model.Validate();
  if (ids != nullptr) {
    ids[0] = add;
    ids[1] = act;
    ids[2] = ln;
  }
  return model;
}

TEST(FusionPlannerTest, DiscoversResidualChain) {
  Rng rng(41);
  int ids[3];
  graph::ModelGraph model = BuildResidualGraph(96, &rng, /*with_head=*/true,
                                               ids);
  const graph::FusionPlan plan = graph::PlanFusion(model);
  ASSERT_EQ(plan.regions.size(), 1u);
  const graph::FusedRegion& r = plan.regions[0];
  EXPECT_EQ(r.node_ids, (std::vector<int>{ids[0], ids[1], ids[2]}));
  ASSERT_EQ(r.plan.ops.size(), 3u);
  EXPECT_EQ(r.plan.ops[0].kind, OpKind::kAddN);
  EXPECT_EQ(r.plan.ops[0].num_inputs, 2);
  EXPECT_EQ(r.plan.ops[1].kind, OpKind::kGelu);
  EXPECT_EQ(r.plan.ops[2].kind, OpKind::kLayerNorm);
  EXPECT_NE(r.plan.ops[2].gamma, nullptr);
  EXPECT_NE(r.plan.ops[2].dgamma_acc, nullptr);
  // Chain slot (-1) marks the value flowing through the region.
  ASSERT_EQ(r.slot_parents.size(), 3u);
  EXPECT_EQ(r.slot_parents[0].size(), 2u);
  EXPECT_EQ(r.slot_parents[1], (std::vector<int>{-1}));
  EXPECT_EQ(r.slot_parents[2], (std::vector<int>{-1}));
  // Bytes saved: add and gelu outputs (2 x 96 floats) never hit memory.
  EXPECT_DOUBLE_EQ(r.saved_bytes_per_record, 2.0 * 2.0 * 96.0 * 4.0);
  // LayerNorm forces 256-row reduction-chunk alignment.
  EXPECT_EQ(r.plan.tile_rows, 256);
  // region_of maps members to the region and everything else to -1.
  for (int id = 0; id < model.num_nodes(); ++id) {
    const bool member = id == ids[0] || id == ids[1] || id == ids[2];
    EXPECT_EQ(plan.region_of[static_cast<size_t>(id)], member ? 0 : -1);
  }
}

TEST(FusionPlannerTest, ChainMayTerminateAtGraphOutput) {
  Rng rng(42);
  int ids[3];
  graph::ModelGraph model = BuildResidualGraph(96, &rng, /*with_head=*/false,
                                               ids);
  const graph::FusionPlan plan = graph::PlanFusion(model);
  ASSERT_EQ(plan.regions.size(), 1u);
  EXPECT_EQ(plan.regions[0].node_ids,
            (std::vector<int>{ids[0], ids[1], ids[2]}));
}

TEST(FusionPlannerTest, InteriorOutputFencesRegion) {
  Rng rng(43);
  int ids[3];
  graph::ModelGraph model = BuildResidualGraph(96, &rng, /*with_head=*/true,
                                               ids);
  // The activation's value now escapes to the trainer: the chain is cut to
  // {add, act}, which saves only 768 bytes/record and fails the 1 KiB floor.
  model.MarkOutput(ids[1]);
  const graph::FusionPlan plan = graph::PlanFusion(model);
  EXPECT_TRUE(plan.empty());
}

TEST(FusionPlannerTest, BranchingConsumerFencesRegion) {
  Rng rng(44);
  graph::ModelGraph model("branching");
  const int input_id =
      model.AddInput(std::make_shared<nn::InputLayer>("input", Shape({96})));
  const int d1 = model.AddNode(
      std::make_shared<nn::DenseLayer>("d1", 96, 96, nn::Activation::kNone,
                                       &rng),
      {input_id}, /*frozen=*/false);
  const int act = model.AddNode(
      std::make_shared<nn::ActivationLayer>("act", nn::Activation::kRelu),
      {d1}, /*frozen=*/true);
  const int ln = model.AddNode(
      std::make_shared<nn::LayerNormLayer>("ln", 96), {act}, /*frozen=*/false);
  // Second consumer of the activation: its value must stay materialized.
  const int head2 = model.AddNode(
      std::make_shared<nn::DenseLayer>("head2", 96, 8, nn::Activation::kNone,
                                       &rng),
      {act}, /*frozen=*/false);
  const int head1 = model.AddNode(
      std::make_shared<nn::DenseLayer>("head1", 96, 8, nn::Activation::kNone,
                                       &rng),
      {ln}, /*frozen=*/false);
  model.MarkOutput(head1);
  model.MarkOutput(head2);
  model.Validate();
  const graph::FusionPlan plan = graph::PlanFusion(model);
  EXPECT_TRUE(plan.empty());
}

TEST(FusionPlannerTest, CostModelFloorRejectsSmallChains) {
  Rng rng(45);
  int ids[3];
  graph::ModelGraph model = BuildResidualGraph(96, &rng, /*with_head=*/true,
                                               ids);
  const graph::FusionPlan plan =
      graph::PlanFusion(model, /*min_saved_bytes_per_record=*/1e9);
  EXPECT_TRUE(plan.empty());
}

// input[seq, dim] -> proj dense -> tanh -> mean-pool -> head.
graph::ModelGraph BuildPoolGraph(int64_t seq, int64_t dim, Rng* rng,
                                 int* ids /* act, pool out params */) {
  graph::ModelGraph model("pool_chain");
  const int input_id = model.AddInput(
      std::make_shared<nn::InputLayer>("input", Shape({seq, dim})));
  const int proj = model.AddNode(
      std::make_shared<nn::DenseLayer>("proj", dim, dim, nn::Activation::kNone,
                                       rng),
      {input_id}, /*frozen=*/false);
  const int act = model.AddNode(
      std::make_shared<nn::ActivationLayer>("act", nn::Activation::kTanh),
      {proj}, /*frozen=*/true);
  const int pool = model.AddNode(std::make_shared<nn::MeanPoolLayer>("pool"),
                                 {act}, /*frozen=*/true);
  const int head = model.AddNode(
      std::make_shared<nn::DenseLayer>("head", dim, 8, nn::Activation::kNone,
                                       rng),
      {pool}, /*frozen=*/false);
  model.MarkOutput(head);
  model.Validate();
  if (ids != nullptr) {
    ids[0] = act;
    ids[1] = pool;
  }
  return model;
}

TEST(FusionPlannerTest, MeanPoolTerminatesChainWithRecordAlignedTiles) {
  Rng rng(46);
  int ids[2];
  graph::ModelGraph model = BuildPoolGraph(4, 64, &rng, ids);
  const graph::FusionPlan plan = graph::PlanFusion(model);
  ASSERT_EQ(plan.regions.size(), 1u);
  const graph::FusedRegion& r = plan.regions[0];
  EXPECT_EQ(r.node_ids, (std::vector<int>{ids[0], ids[1]}));
  EXPECT_EQ(r.plan.ops[1].kind, OpKind::kMeanPool);
  // Tile of 256 chain rows holds whole records (256 % seq == 0).
  EXPECT_EQ(r.plan.tile_rows, 256);
}

// ---------------------------------------------------------------------------
// Executor: fusion on/off bitwise-identical training
// ---------------------------------------------------------------------------

struct TrainingResult {
  std::vector<float> losses;
  std::vector<std::vector<float>> grads;
  std::vector<std::vector<float>> params;
};

void CollectResult(graph::Executor* exec, TrainingResult* result) {
  for (nn::Parameter* p : exec->TrainableParams()) {
    result->grads.emplace_back(p->grad.data(),
                               p->grad.data() + p->grad.NumElements());
    result->params.emplace_back(p->value.data(),
                                p->value.data() + p->value.NumElements());
  }
}

void SgdStep(graph::Executor* exec, float lr) {
  for (nn::Parameter* p : exec->TrainableParams()) {
    float* value = p->value.data();
    const float* grad = p->grad.data();
    for (int64_t k = 0; k < p->value.NumElements(); ++k) {
      value[k] -= lr * grad[k];
    }
  }
}

void ExpectResultsBitwiseEqual(const TrainingResult& a,
                               const TrainingResult& b,
                               const std::string& what) {
  EXPECT_TRUE(BitsEqual(a.losses, b.losses)) << what << ": losses differ";
  ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
  for (size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_TRUE(BitsEqual(a.grads[i], b.grads[i]))
        << what << ": grad " << i << " differs";
    EXPECT_TRUE(BitsEqual(a.params[i], b.params[i]))
        << what << ": param " << i << " differs";
  }
}

// Trains the residual-chain graph for 3 SGD steps. With `trainable_branches`
// false, d1 is frozen too, so the fused region's gradient stops at the
// LayerNorm (the needs-grad frontier sits mid-chain).
TrainingResult RunChainTraining(int degree, bool fusion,
                                bool trainable_branches) {
  ScopedDegree d(degree);
  fused::ScopedFusion f(fusion);
  constexpr int64_t kDim = 96;
  constexpr int64_t kBatch = 300;  // one full tile plus a remainder tile
  constexpr int kSteps = 3;

  Rng rng(51);
  graph::ModelGraph model("chain_training");
  const int input_id = model.AddInput(
      std::make_shared<nn::InputLayer>("input", Shape({kDim})));
  const int d1 = model.AddNode(
      std::make_shared<nn::DenseLayer>("d1", kDim, kDim,
                                       nn::Activation::kNone, &rng),
      {input_id}, /*frozen=*/!trainable_branches);
  const int d2 = model.AddNode(
      std::make_shared<nn::DenseLayer>("d2", kDim, kDim,
                                       nn::Activation::kNone, &rng),
      {input_id}, /*frozen=*/true);
  const int add = model.AddNode(std::make_shared<nn::AddLayer>("residual"),
                                {d1, d2}, /*frozen=*/true);
  const int act = model.AddNode(
      std::make_shared<nn::ActivationLayer>("act", nn::Activation::kGelu),
      {add}, /*frozen=*/true);
  const int ln = model.AddNode(
      std::make_shared<nn::LayerNormLayer>("ln", kDim), {act},
      /*frozen=*/false);
  const int head = model.AddNode(
      std::make_shared<nn::DenseLayer>("head", kDim, 8,
                                       nn::Activation::kNone, &rng),
      {ln}, /*frozen=*/false);
  model.MarkOutput(head);
  model.Validate();

  graph::Executor exec(&model);
  EXPECT_EQ(exec.fusion_plan().empty(), !fusion);

  std::unordered_map<int, Tensor> feeds;
  feeds[input_id] = Tensor::Randn(Shape({kBatch, kDim}), &rng, 1.0f);
  std::vector<int32_t> labels(static_cast<size_t>(kBatch));
  for (int64_t i = 0; i < kBatch; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int32_t>(i % 8);
  }

  TrainingResult result;
  for (int step = 0; step < kSteps; ++step) {
    exec.ZeroGrads();
    exec.Forward(feeds, /*training=*/true);
    Tensor probs = ops::SoftmaxForward(exec.Output(head));
    Tensor dlogits;
    result.losses.push_back(ops::SoftmaxCrossEntropy(probs, labels, &dlogits));
    std::unordered_map<int, Tensor> output_grads;
    output_grads[head] = std::move(dlogits);
    exec.Backward(output_grads);
    SgdStep(&exec, 0.05f);
  }
  CollectResult(&exec, &result);
  return result;
}

TEST(ExecutorFusionTest, ResidualChainTrainingBitwiseFusionOnOff) {
  const TrainingResult baseline =
      RunChainTraining(1, /*fusion=*/false, /*trainable_branches=*/true);
  ASSERT_FALSE(baseline.losses.empty());
  for (int degree : {1, 2, 8}) {
    const TrainingResult fused_run =
        RunChainTraining(degree, /*fusion=*/true, /*trainable_branches=*/true);
    ExpectResultsBitwiseEqual(baseline, fused_run,
                              "fused degree " + std::to_string(degree));
    const TrainingResult unfused_run =
        RunChainTraining(degree, /*fusion=*/false,
                         /*trainable_branches=*/true);
    ExpectResultsBitwiseEqual(baseline, unfused_run,
                              "unfused degree " + std::to_string(degree));
  }
}

TEST(ExecutorFusionTest, MidChainGradFrontierBitwiseFusionOnOff) {
  const TrainingResult baseline =
      RunChainTraining(1, /*fusion=*/false, /*trainable_branches=*/false);
  for (int degree : {1, 2, 8}) {
    const TrainingResult fused_run =
        RunChainTraining(degree, /*fusion=*/true,
                         /*trainable_branches=*/false);
    ExpectResultsBitwiseEqual(baseline, fused_run,
                              "frontier degree " + std::to_string(degree));
  }
}

TEST(ExecutorFusionTest, Int8QuantBitwiseFusionOnOff) {
  quant::ScopedQuantMode q(quant::QuantMode::kInt8);
  const TrainingResult baseline =
      RunChainTraining(1, /*fusion=*/false, /*trainable_branches=*/true);
  for (int degree : {1, 8}) {
    const TrainingResult fused_run =
        RunChainTraining(degree, /*fusion=*/true, /*trainable_branches=*/true);
    ExpectResultsBitwiseEqual(baseline, fused_run,
                              "int8 degree " + std::to_string(degree));
  }
}

// Mean-pool-terminated region: the fused backward expands the pooled
// gradient back over the sequence inside the single pass.
TrainingResult RunPoolTraining(int degree, bool fusion) {
  ScopedDegree d(degree);
  fused::ScopedFusion f(fusion);
  constexpr int64_t kSeq = 4;
  constexpr int64_t kDim = 64;
  constexpr int64_t kBatch = 100;  // 400 chain rows: tile + remainder

  Rng rng(52);
  int ids[2];
  graph::ModelGraph model = BuildPoolGraph(kSeq, kDim, &rng, ids);
  const int input_id = model.input_ids()[0];
  const int head = model.output_ids()[0];

  graph::Executor exec(&model);
  EXPECT_EQ(exec.fusion_plan().empty(), !fusion);

  std::unordered_map<int, Tensor> feeds;
  feeds[input_id] = Tensor::Randn(Shape({kBatch, kSeq, kDim}), &rng, 1.0f);
  std::vector<int32_t> labels(static_cast<size_t>(kBatch));
  for (int64_t i = 0; i < kBatch; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int32_t>(i % 8);
  }

  TrainingResult result;
  for (int step = 0; step < 3; ++step) {
    exec.ZeroGrads();
    exec.Forward(feeds, /*training=*/true);
    Tensor probs = ops::SoftmaxForward(exec.Output(head));
    Tensor dlogits;
    result.losses.push_back(ops::SoftmaxCrossEntropy(probs, labels, &dlogits));
    std::unordered_map<int, Tensor> output_grads;
    output_grads[head] = std::move(dlogits);
    exec.Backward(output_grads);
    SgdStep(&exec, 0.05f);
  }
  CollectResult(&exec, &result);
  return result;
}

TEST(ExecutorFusionTest, MeanPoolChainTrainingBitwiseFusionOnOff) {
  const TrainingResult baseline = RunPoolTraining(1, /*fusion=*/false);
  for (int degree : {1, 2, 8}) {
    const TrainingResult fused_run = RunPoolTraining(degree, /*fusion=*/true);
    ExpectResultsBitwiseEqual(baseline, fused_run,
                              "pool degree " + std::to_string(degree));
  }
}

// Two-branch model: branch A holds the fused region, branch B is plain. A
// skip mask deactivating branch A must leave branch B's results bitwise
// unchanged whether fusion is on or off (the all-skipped region is skipped).
TrainingResult RunSkipTraining(int degree, bool fusion) {
  ScopedDegree d(degree);
  fused::ScopedFusion f(fusion);
  constexpr int64_t kDim = 96;
  constexpr int64_t kBatch = 128;

  Rng rng(53);
  graph::ModelGraph model("skip_branch");
  const int input_id = model.AddInput(
      std::make_shared<nn::InputLayer>("input", Shape({kDim})));
  const int trunk = model.AddNode(
      std::make_shared<nn::DenseLayer>("trunk", kDim, kDim,
                                       nn::Activation::kGelu, &rng),
      {input_id}, /*frozen=*/true);
  // Branch A: residual pair -> add -> act -> ln -> head (fusible chain).
  const int a1 = model.AddNode(
      std::make_shared<nn::DenseLayer>("a1", kDim, kDim,
                                       nn::Activation::kNone, &rng),
      {trunk}, /*frozen=*/false);
  const int a2 = model.AddNode(
      std::make_shared<nn::DenseLayer>("a2", kDim, kDim,
                                       nn::Activation::kNone, &rng),
      {trunk}, /*frozen=*/false);
  const int add = model.AddNode(std::make_shared<nn::AddLayer>("a_res"),
                                {a1, a2}, /*frozen=*/true);
  const int act = model.AddNode(
      std::make_shared<nn::ActivationLayer>("a_act", nn::Activation::kRelu),
      {add}, /*frozen=*/true);
  const int ln = model.AddNode(
      std::make_shared<nn::LayerNormLayer>("a_ln", kDim), {act},
      /*frozen=*/false);
  const int head_a = model.AddNode(
      std::make_shared<nn::DenseLayer>("a_head", kDim, 8,
                                       nn::Activation::kNone, &rng),
      {ln}, /*frozen=*/false);
  model.MarkOutput(head_a);
  // Branch B: plain dense head.
  const int b1 = model.AddNode(
      std::make_shared<nn::DenseLayer>("b1", kDim, kDim,
                                       nn::Activation::kRelu, &rng),
      {trunk}, /*frozen=*/false);
  const int head_b = model.AddNode(
      std::make_shared<nn::DenseLayer>("b_head", kDim, 8,
                                       nn::Activation::kNone, &rng),
      {b1}, /*frozen=*/false);
  model.MarkOutput(head_b);
  model.Validate();

  graph::Executor exec(&model);
  if (fusion) {
    EXPECT_EQ(exec.fusion_plan().regions.size(), 1u);
  }

  std::vector<bool> skip(static_cast<size_t>(model.num_nodes()), false);
  for (int id : {a1, a2, add, act, ln, head_a}) {
    skip[static_cast<size_t>(id)] = true;
  }

  std::unordered_map<int, Tensor> feeds;
  feeds[input_id] = Tensor::Randn(Shape({kBatch, kDim}), &rng, 1.0f);
  std::vector<int32_t> labels(static_cast<size_t>(kBatch));
  for (int64_t i = 0; i < kBatch; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int32_t>(i % 8);
  }

  TrainingResult result;
  for (int step = 0; step < 2; ++step) {
    exec.ZeroGrads();
    exec.Forward(feeds, /*training=*/true, &skip);
    Tensor probs = ops::SoftmaxForward(exec.Output(head_b));
    Tensor dlogits;
    result.losses.push_back(ops::SoftmaxCrossEntropy(probs, labels, &dlogits));
    std::unordered_map<int, Tensor> output_grads;
    output_grads[head_b] = std::move(dlogits);
    exec.Backward(output_grads);
    SgdStep(&exec, 0.05f);
  }
  CollectResult(&exec, &result);
  return result;
}

TEST(ExecutorFusionTest, SkippedRegionBranchBitwiseFusionOnOff) {
  const TrainingResult baseline = RunSkipTraining(1, /*fusion=*/false);
  for (int degree : {1, 8}) {
    const TrainingResult fused_run = RunSkipTraining(degree, /*fusion=*/true);
    ExpectResultsBitwiseEqual(baseline, fused_run,
                              "skip degree " + std::to_string(degree));
  }
}

// ---------------------------------------------------------------------------
// Per-pass serial-backward fallback (shared parameterized layer instances)
// ---------------------------------------------------------------------------

// A trainable layer instance shared by two graph nodes forces the serial
// backward — but only on passes where both nodes are live. The graph also
// contains a fusible chain, which must NOT be planned: a serial pass steps
// through single nodes in descending id, which needs super id == node id.
TrainingResult RunSharedLayerTraining(int degree, bool skip_second) {
  ScopedDegree d(degree);
  fused::ScopedFusion f(true);
  constexpr int64_t kDim = 128;
  constexpr int64_t kBatch = 64;

  Rng rng(54);
  graph::ModelGraph model("shared_layer");
  const int input_id = model.AddInput(
      std::make_shared<nn::InputLayer>("input", Shape({kDim})));
  const int trunk = model.AddNode(
      std::make_shared<nn::DenseLayer>("trunk", kDim, kDim,
                                       nn::Activation::kGelu, &rng),
      {input_id}, /*frozen=*/true);
  auto shared = std::make_shared<nn::DenseLayer>(
      "shared", kDim, 16, nn::Activation::kRelu, &rng);
  const int x_id = model.AddNode(shared, {trunk}, /*frozen=*/false);
  const int y_id = model.AddNode(shared, {trunk}, /*frozen=*/false);
  model.MarkOutput(x_id);
  model.MarkOutput(y_id);
  // Fusible act -> ln chain (1024 bytes/record saved at dim 128).
  const int act = model.AddNode(
      std::make_shared<nn::ActivationLayer>("z_act", nn::Activation::kGelu),
      {trunk}, /*frozen=*/true);
  const int ln = model.AddNode(
      std::make_shared<nn::LayerNormLayer>("z_ln", kDim), {act},
      /*frozen=*/false);
  const int head_z = model.AddNode(
      std::make_shared<nn::DenseLayer>("z_head", kDim, 16,
                                       nn::Activation::kNone, &rng),
      {ln}, /*frozen=*/false);
  model.MarkOutput(head_z);
  model.Validate();

  graph::Executor exec(&model);
  // Duplicated parameterized layer => fusion disabled despite the gate.
  EXPECT_TRUE(exec.fusion_plan().empty());

  std::vector<bool> skip(static_cast<size_t>(model.num_nodes()), false);
  if (skip_second) skip[static_cast<size_t>(y_id)] = true;

  std::unordered_map<int, Tensor> feeds;
  feeds[input_id] = Tensor::Randn(Shape({kBatch, kDim}), &rng, 1.0f);
  std::vector<int32_t> labels(static_cast<size_t>(kBatch));
  for (int64_t i = 0; i < kBatch; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int32_t>(i % 16);
  }

  TrainingResult result;
  for (int step = 0; step < 2; ++step) {
    exec.ZeroGrads();
    exec.Forward(feeds, /*training=*/true, &skip);
    std::unordered_map<int, Tensor> output_grads;
    std::vector<int> live_heads = {x_id, head_z};
    if (!skip_second) live_heads.insert(live_heads.begin() + 1, y_id);
    for (int id : live_heads) {
      Tensor probs = ops::SoftmaxForward(exec.Output(id));
      Tensor dlogits;
      result.losses.push_back(
          ops::SoftmaxCrossEntropy(probs, labels, &dlogits));
      output_grads[id] = std::move(dlogits);
    }
    exec.Backward(output_grads);
    SgdStep(&exec, 0.05f);
  }
  CollectResult(&exec, &result);
  return result;
}

TEST(SerialBackwardTest, SharedLayerBitwiseAcrossDegrees) {
  // Both shared nodes live: the serial fallback must trigger and results
  // must not depend on the degree.
  const TrainingResult baseline = RunSharedLayerTraining(1, false);
  for (int degree : {2, 8}) {
    const TrainingResult run = RunSharedLayerTraining(degree, false);
    ExpectResultsBitwiseEqual(baseline, run,
                              "serial degree " + std::to_string(degree));
  }
}

TEST(SerialBackwardTest, SkipMaskReenablesParallelBackwardDeterministically) {
  // Only one shared node live per pass: no duplicate-accumulation race, the
  // parallel wavefront backward runs, and results stay degree-invariant.
  const TrainingResult baseline = RunSharedLayerTraining(1, true);
  for (int degree : {2, 8}) {
    const TrainingResult run = RunSharedLayerTraining(degree, true);
    ExpectResultsBitwiseEqual(baseline, run,
                              "skip-serial degree " + std::to_string(degree));
  }
}

// Three nodes a < b < c apply one trainable Dense layer to a frozen trunk,
// and only b feeds a further node (a head). The reverse wavefront therefore
// finishes a and c one level before b, while descending id runs c, b, a.
// With `clones`, each node gets its own copy of the layer (identical
// weights), so nothing serializes and every copy keeps its own gradient.
struct FanOutGraph {
  graph::ModelGraph model{"shared_fan_out"};
  int input = -1;
  int users[3] = {-1, -1, -1};  // a, b, c
  int head = -1;
  std::shared_ptr<nn::Layer> layers[3];
};

std::unique_ptr<FanOutGraph> BuildFanOut(bool clones) {
  constexpr int64_t kDim = 64;
  Rng rng(77);
  auto g = std::make_unique<FanOutGraph>();
  g->input = g->model.AddInput(
      std::make_shared<nn::InputLayer>("input", Shape({kDim})));
  const int trunk = g->model.AddNode(
      std::make_shared<nn::DenseLayer>("trunk", kDim, kDim,
                                       nn::Activation::kGelu, &rng),
      {g->input}, /*frozen=*/true);
  auto shared = std::make_shared<nn::DenseLayer>(
      "shared", kDim, 16, nn::Activation::kRelu, &rng);
  auto head = std::make_shared<nn::DenseLayer>(
      "head", 16, 16, nn::Activation::kNone, &rng);
  for (int i = 0; i < 3; ++i) {
    g->layers[i] = clones && i > 0 ? shared->Clone() : shared;
    g->users[i] = g->model.AddNode(g->layers[i], {trunk}, /*frozen=*/false);
  }
  g->head = g->model.AddNode(head, {g->users[1]}, /*frozen=*/false);
  g->model.MarkOutput(g->users[0]);
  g->model.MarkOutput(g->users[2]);
  g->model.MarkOutput(g->head);
  g->model.Validate();
  return g;
}

// One forward + backward with fixed random output gradients.
void RunFanOutStep(FanOutGraph* g, graph::Executor* exec) {
  constexpr int64_t kBatch = 48;
  Rng rng(78);
  std::unordered_map<int, Tensor> feeds;
  feeds[g->input] = Tensor::Randn(Shape({kBatch, 64}), &rng, 1.0f);
  exec->ZeroGrads();
  exec->Forward(feeds, /*training=*/true);
  std::unordered_map<int, Tensor> output_grads;
  for (int id : {g->users[0], g->users[2], g->head}) {
    output_grads[id] = Tensor::Randn(Shape({kBatch, 16}), &rng, 1.0f);
  }
  exec->Backward(output_grads);
}

Tensor SumInOrder(const std::vector<const Tensor*>& parts) {
  Tensor sum = *parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    ops::AxpyInPlace(1.0f, *parts[i], &sum);
  }
  return sum;
}

TEST(SerialBackwardTest, SharedLayerGradientFollowsDescendingNodeId) {
  // Reference: per-clone gradients (no serialization needed).
  auto ref = BuildFanOut(/*clones=*/true);
  graph::Executor ref_exec(&ref->model);
  RunFanOutStep(ref.get(), &ref_exec);
  for (int param : {0, 1}) {  // weight, bias
    const Tensor* ga = &ref->layers[0]->Params()[param]->grad;
    const Tensor* gb = &ref->layers[1]->Params()[param]->grad;
    const Tensor* gc = &ref->layers[2]->Params()[param]->grad;
    const Tensor by_id = SumInOrder({gc, gb, ga});
    if (param == 0) {
      // Summing whole reverse levels ({c, a} then {b}) rounds differently
      // on this data, so a fold that ran whole levels would fail below.
      const Tensor by_level = SumInOrder({gc, ga, gb});
      ASSERT_FALSE(BitsEqual(by_id, by_level));
    }

    static obs::Counter& serial_passes =
        obs::MetricsRegistry::Global().counter(
            "executor.serial_backward_passes");
    for (int degree : {1, 2, 8}) {
      ScopedDegree d(degree);
      auto shared = BuildFanOut(/*clones=*/false);
      graph::Executor exec(&shared->model);
      const int64_t before = serial_passes.value();
      RunFanOutStep(shared.get(), &exec);
      EXPECT_EQ(serial_passes.value(), before + 1);
      EXPECT_TRUE(
          BitsEqual(shared->layers[0]->Params()[param]->grad, by_id))
          << "param " << param << " degree " << degree;
    }
  }
}

// ---------------------------------------------------------------------------
// DOT rendering of fused regions
// ---------------------------------------------------------------------------

TEST(ToDotTest, RendersFusedRegionsAsClusters) {
  Rng rng(55);
  int ids[3];
  graph::ModelGraph model = BuildResidualGraph(96, &rng, /*with_head=*/true,
                                               ids);
  const graph::FusionPlan plan = graph::PlanFusion(model);
  ASSERT_EQ(plan.regions.size(), 1u);
  std::vector<std::vector<int>> clusters;
  for (const graph::FusedRegion& r : plan.regions) {
    clusters.push_back(r.node_ids);
  }
  const std::string plain = model.ToDot();
  EXPECT_EQ(plain.find("cluster_fused"), std::string::npos);
  const std::string dot = model.ToDot(&clusters);
  EXPECT_NE(dot.find("subgraph cluster_fused0"), std::string::npos);
  EXPECT_NE(dot.find("fused region 0"), std::string::npos);
  // Member nodes render inside the cluster, and every edge survives.
  EXPECT_NE(dot.find("residual"), std::string::npos);
  for (const graph::GraphNode& node : model.nodes()) {
    for (int p : node.parents) {
      const std::string edge = "n" + std::to_string(p) + " -> n" +
                               std::to_string(node.id) + ";";
      EXPECT_NE(dot.find(edge), std::string::npos) << edge;
    }
  }
}

}  // namespace
}  // namespace nautilus
