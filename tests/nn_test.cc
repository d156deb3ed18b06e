// Unit and gradient-check tests for every nn layer and the optimizers.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nautilus/nn/basic.h"
#include "nautilus/nn/combine.h"
#include "nautilus/nn/conv.h"
#include "nautilus/nn/optimizer.h"
#include "nautilus/nn/transformer.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace nn {
namespace {

using testing_util::ExpectGradientsClose;

double WeightedSum(const Tensor& t, const Tensor& w) {
  double acc = 0.0;
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    acc += static_cast<double>(t.at(i)) * static_cast<double>(w.at(i));
  }
  return acc;
}

// Checks a layer's input gradient and every parameter gradient against
// finite differences of the weighted-sum objective.
void CheckLayerGradients(Layer* layer, const Tensor& x, uint64_t seed,
                         double eps = 1e-2, double atol = 3e-2,
                         double rtol = 8e-2) {
  Rng rng(seed);
  std::unique_ptr<LayerCache> cache;
  Tensor y = layer->Forward({&x}, &cache);
  Tensor w = Tensor::Randn(y.shape(), &rng, 1.0f);

  layer->ZeroGrads();
  std::vector<Tensor> input_grads = layer->Backward(w, {&x}, *cache, {true});
  ASSERT_EQ(input_grads.size(), 1u);

  auto f_input = [&](const Tensor& probe) {
    std::unique_ptr<LayerCache> c;
    return WeightedSum(layer->Forward({&probe}, &c), w);
  };
  ExpectGradientsClose(f_input, x, input_grads[0], eps, atol, rtol);

  for (Parameter* p : layer->Params()) {
    Tensor analytic = p->grad;
    Tensor original = p->value;
    auto f_param = [&](const Tensor& probe) {
      p->value = probe;
      std::unique_ptr<LayerCache> c;
      double v = WeightedSum(layer->Forward({&x}, &c), w);
      p->value = original;
      return v;
    };
    ExpectGradientsClose(f_param, original, analytic, eps, atol, rtol);
    p->value = original;
  }
}

// Backward with the input gradient not requested returns an empty input
// gradient and accumulates parameter gradients bitwise equal to a full
// backward's: skipping dX never touches the dW/db arithmetic.
void CheckSkippedInputGradient(Layer* layer, const Tensor& x, uint64_t seed) {
  Rng rng(seed);
  std::unique_ptr<LayerCache> cache;
  Tensor y = layer->Forward({&x}, &cache);
  Tensor w = Tensor::Randn(y.shape(), &rng, 1.0f);

  layer->ZeroGrads();
  std::vector<Tensor> full = layer->Backward(w, {&x}, *cache, {true});
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].shape(), x.shape());
  std::vector<Tensor> full_param_grads;
  for (Parameter* p : layer->Params()) full_param_grads.push_back(p->grad);

  layer->ZeroGrads();
  std::vector<Tensor> skipped = layer->Backward(w, {&x}, *cache, {false});
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_TRUE(skipped[0].empty()) << layer->type_name();
  std::vector<Parameter*> params = layer->Params();
  ASSERT_EQ(params.size(), full_param_grads.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& got = params[i]->grad;
    const Tensor& want = full_param_grads[i];
    ASSERT_EQ(got.shape(), want.shape()) << params[i]->name;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.SizeBytes())),
              0)
        << params[i]->name;
  }
}

TEST(SkippedInputGradientTest, ParameterGradientsMatchFullBackward) {
  Rng rng(20);
  TransformerBlockLayer block("blk", 8, 2, 16, &rng);
  CheckSkippedInputGradient(&block, Tensor::Randn(Shape({2, 5, 8}), &rng, 1.0f),
                            200);
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kGelu, Activation::kTanh}) {
    DenseLayer d(std::string("d_") + ActivationName(act), 5, 4, act, &rng);
    CheckSkippedInputGradient(&d, Tensor::Randn(Shape({3, 2, 5}), &rng, 0.8f),
                              210 + static_cast<uint64_t>(act));
  }
  AdapterLayer adapter("ad", 8, 2, &rng);
  CheckSkippedInputGradient(
      &adapter, Tensor::Randn(Shape({2, 3, 8}), &rng, 1.0f), 220);
  LayerNormLayer ln("ln", 8);
  CheckSkippedInputGradient(&ln, Tensor::Randn(Shape({4, 8}), &rng, 1.0f),
                            230);
  ResidualBlockLayer res("r", 2, 2, 4, /*stride=*/2, &rng);
  CheckSkippedInputGradient(
      &res, Tensor::Randn(Shape({1, 2, 4, 4}), &rng, 0.6f), 240);
}

TEST(DenseLayerTest, ShapesAndFlops) {
  Rng rng(1);
  DenseLayer d("d", 8, 3, Activation::kNone, &rng);
  EXPECT_EQ(d.OutputShape({Shape({5, 8})}), Shape({5, 3}));
  EXPECT_EQ(d.OutputShape({Shape({5, 4, 8})}), Shape({5, 4, 3}));
  // 2*8*3 + 2*3 per row.
  EXPECT_DOUBLE_EQ(d.ForwardFlopsPerRecord({Shape({1, 8})}), 54.0);
  EXPECT_EQ(d.ParamCount(), 8 * 3 + 3);
}

TEST(DenseLayerTest, GradientsAllActivations) {
  Rng rng(2);
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kGelu, Activation::kTanh}) {
    DenseLayer d(std::string("d_") + ActivationName(act), 5, 4, act, &rng);
    Tensor x = Tensor::Randn(Shape({3, 5}), &rng, 0.8f);
    CheckLayerGradients(&d, x, 100 + static_cast<uint64_t>(act));
  }
}

TEST(DenseLayerTest, CloneSharesValuesNotUid) {
  Rng rng(3);
  DenseLayer d("d", 4, 4, Activation::kNone, &rng);
  auto copy = d.Clone();
  EXPECT_NE(copy->uid(), d.uid());
  Tensor x = Tensor::Randn(Shape({2, 4}), &rng, 1.0f);
  std::unique_ptr<LayerCache> c1, c2;
  EXPECT_LT(Tensor::MaxAbsDiff(d.Forward({&x}, &c1), copy->Forward({&x}, &c2)),
            1e-6f);
}

TEST(LayerNormLayerTest, NormalizesRows) {
  Rng rng(4);
  LayerNormLayer ln("ln", 8);
  Tensor x = Tensor::Randn(Shape({4, 8}), &rng, 3.0f);
  std::unique_ptr<LayerCache> cache;
  Tensor y = ln.Forward({&x}, &cache);
  for (int64_t i = 0; i < 4; ++i) {
    float mean = 0.0f;
    for (int64_t j = 0; j < 8; ++j) mean += y.at(i * 8 + j);
    EXPECT_NEAR(mean / 8.0f, 0.0f, 1e-4f);
  }
}

TEST(LayerNormLayerTest, Gradients) {
  Rng rng(5);
  LayerNormLayer ln("ln", 6);
  Tensor x = Tensor::Randn(Shape({3, 6}), &rng, 1.0f);
  CheckLayerGradients(&ln, x, 50, 1e-3, 3e-2, 9e-2);
}

TEST(CombineLayersTest, AddAndConcatGradients) {
  Rng rng(6);
  AddLayer add("add");
  Tensor a = Tensor::Randn(Shape({2, 3}), &rng, 1.0f);
  Tensor b = Tensor::Randn(Shape({2, 3}), &rng, 1.0f);
  std::unique_ptr<LayerCache> cache;
  Tensor y = add.Forward({&a, &b}, &cache);
  Tensor w = Tensor::Randn(y.shape(), &rng, 1.0f);
  auto grads = add.Backward(w, {&a, &b}, LayerCache(), {true, true});
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_LT(Tensor::MaxAbsDiff(grads[0], w), 1e-6f);
  EXPECT_LT(Tensor::MaxAbsDiff(grads[1], w), 1e-6f);

  ConcatLayer cat("cat");
  Tensor yc = cat.Forward({&a, &b}, &cache);
  EXPECT_EQ(yc.shape(), Shape({2, 6}));
  auto cgrads = cat.Backward(Tensor::Randn(yc.shape(), &rng, 1.0f),
                             {&a, &b}, LayerCache(), {true, true});
  EXPECT_EQ(cgrads[0].shape(), a.shape());
  EXPECT_EQ(cgrads[1].shape(), b.shape());
}

TEST(CombineLayersTest, MeanPoolAndSelectTokenShapes) {
  MeanPoolLayer pool("pool");
  EXPECT_EQ(pool.OutputShape({Shape({4, 6, 8})}), Shape({4, 8}));
  SelectTokenLayer sel("sel", 0);
  EXPECT_EQ(sel.OutputShape({Shape({4, 6, 8})}), Shape({4, 8}));
}

TEST(EmbeddingBlockTest, ShapesAndGradients) {
  Rng rng(7);
  EmbeddingBlockLayer emb("emb", /*vocab=*/11, /*seq=*/4, /*hidden=*/6, &rng);
  EXPECT_EQ(emb.OutputShape({Shape({3, 4})}), Shape({3, 4, 6}));

  Tensor ids(Shape({2, 4}), {0, 3, 7, 10, 5, 5, 1, 2});
  std::unique_ptr<LayerCache> cache;
  Tensor y = emb.Forward({&ids}, &cache);
  EXPECT_EQ(y.shape(), Shape({2, 4, 6}));

  // Parameter gradient check (ids themselves have no gradient).
  Tensor w = Tensor::Randn(y.shape(), &rng, 1.0f);
  emb.ZeroGrads();
  emb.Backward(w, {&ids}, *cache, {false});
  for (Parameter* p : emb.Params()) {
    Tensor analytic = p->grad;
    Tensor original = p->value;
    auto f = [&](const Tensor& probe) {
      p->value = probe;
      std::unique_ptr<LayerCache> c;
      double v = WeightedSum(emb.Forward({&ids}, &c), w);
      p->value = original;
      return v;
    };
    ExpectGradientsClose(f, original, analytic, 1e-2, 3e-2, 8e-2);
    p->value = original;
  }
}

TEST(TransformerBlockTest, ShapeAndProfilePositive) {
  Rng rng(8);
  TransformerBlockLayer block("blk", 8, 2, 16, &rng);
  EXPECT_EQ(block.OutputShape({Shape({3, 5, 8})}), Shape({3, 5, 8}));
  EXPECT_GT(block.ForwardFlopsPerRecord({Shape({1, 5, 8})}), 0.0);
  EXPECT_GT(block.InternalActivationBytesPerRecord({Shape({1, 5, 8})}), 0.0);
  EXPECT_EQ(block.Params().size(), 16u);
}

TEST(TransformerBlockTest, Gradients) {
  Rng rng(9);
  TransformerBlockLayer block("blk", 4, 2, 8, &rng);
  Tensor x = Tensor::Randn(Shape({2, 3, 4}), &rng, 0.7f);
  CheckLayerGradients(&block, x, 90, 1e-2, 4e-2, 1e-1);
}

TEST(TransformerBlockTest, CloneProducesIdenticalFunction) {
  Rng rng(10);
  TransformerBlockLayer block("blk", 8, 2, 16, &rng);
  auto copy = block.Clone();
  Tensor x = Tensor::Randn(Shape({2, 4, 8}), &rng, 1.0f);
  std::unique_ptr<LayerCache> c1, c2;
  EXPECT_LT(
      Tensor::MaxAbsDiff(block.Forward({&x}, &c1), copy->Forward({&x}, &c2)),
      1e-6f);
  EXPECT_NE(copy->uid(), block.uid());
}

TEST(AdapterLayerTest, NearIdentityAtInit) {
  Rng rng(11);
  AdapterLayer adapter("ad", 8, 2, &rng);
  Tensor x = Tensor::Randn(Shape({2, 3, 8}), &rng, 1.0f);
  std::unique_ptr<LayerCache> cache;
  Tensor y = adapter.Forward({&x}, &cache);
  // Up-projection initialized near zero -> output close to input.
  EXPECT_LT(Tensor::MaxAbsDiff(x, y), 0.05f);
}

TEST(AdapterLayerTest, Gradients) {
  Rng rng(12);
  AdapterLayer adapter("ad", 6, 3, &rng);
  // Give the adapter non-trivial weights so gradients are informative.
  for (Parameter* p : adapter.Params()) {
    p->value = Tensor::Randn(p->value.shape(), &rng, 0.4f);
  }
  Tensor x = Tensor::Randn(Shape({2, 2, 6}), &rng, 0.8f);
  CheckLayerGradients(&adapter, x, 120);
}

TEST(ConvBlockLayerTest, ShapesAndGradients) {
  Rng rng(13);
  ConvBlockLayer conv("conv", 2, 3, /*kernel=*/3, /*stride=*/1, /*padding=*/1,
                      /*relu=*/true, &rng);
  EXPECT_EQ(conv.OutputShape({Shape({2, 2, 4, 4})}), Shape({2, 3, 4, 4}));
  Tensor x = Tensor::Randn(Shape({1, 2, 4, 4}), &rng, 0.6f);
  // Small eps: the ReLU kink makes wide central differences inaccurate when
  // pre-activations sit near zero.
  CheckLayerGradients(&conv, x, 130, 2e-3);
}

TEST(ResidualBlockLayerTest, ShapesWithAndWithoutProjection) {
  Rng rng(14);
  ResidualBlockLayer same("r1", 8, 2, 8, /*stride=*/1, &rng);
  EXPECT_EQ(same.OutputShape({Shape({1, 8, 4, 4})}), Shape({1, 8, 4, 4}));
  EXPECT_EQ(same.Params().size(), 9u);  // no projection

  ResidualBlockLayer down("r2", 8, 4, 16, /*stride=*/2, &rng);
  EXPECT_EQ(down.OutputShape({Shape({1, 8, 4, 4})}), Shape({1, 16, 2, 2}));
  EXPECT_EQ(down.Params().size(), 12u);  // with projection
}

TEST(ResidualBlockLayerTest, Gradients) {
  Rng rng(15);
  ResidualBlockLayer block("r", 2, 2, 4, /*stride=*/2, &rng);
  Tensor x = Tensor::Randn(Shape({1, 2, 4, 4}), &rng, 0.6f);
  CheckLayerGradients(&block, x, 150, 1e-2, 4e-2, 1e-1);
}

TEST(MaxPoolAndGapTest, Shapes) {
  MaxPoolLayer pool("p", 2);
  EXPECT_EQ(pool.OutputShape({Shape({1, 3, 8, 8})}), Shape({1, 3, 4, 4}));
  GlobalAvgPoolLayer gap("g");
  EXPECT_EQ(gap.OutputShape({Shape({1, 3, 8, 8})}), Shape({1, 3}));
}

// ---------------------------------------------------------------------------
// Optimizers: each must reduce a quadratic objective.
// ---------------------------------------------------------------------------

class OptimizerTest : public ::testing::TestWithParam<int> {};

std::unique_ptr<Optimizer> MakeOptimizer(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<SgdOptimizer>(0.1);
    case 1:
      return std::make_unique<MomentumOptimizer>(0.05, 0.9);
    default:
      return std::make_unique<AdamOptimizer>(0.1);
  }
}

TEST_P(OptimizerTest, MinimizesQuadratic) {
  auto opt = MakeOptimizer(GetParam());
  Parameter p("w", Tensor(Shape({4}), {3.0f, -2.0f, 1.0f, 4.0f}));
  double initial = 0.0;
  for (int64_t i = 0; i < 4; ++i) initial += p.value.at(i) * p.value.at(i);
  for (int step = 0; step < 100; ++step) {
    p.ZeroGrad();
    for (int64_t i = 0; i < 4; ++i) p.grad.at(i) = 2.0f * p.value.at(i);
    opt->Step({&p});
  }
  double final_loss = 0.0;
  for (int64_t i = 0; i < 4; ++i) final_loss += p.value.at(i) * p.value.at(i);
  EXPECT_LT(final_loss, initial * 0.01);
}

TEST_P(OptimizerTest, CloneFreshHasSameHyperparams) {
  auto opt = MakeOptimizer(GetParam());
  auto fresh = opt->CloneFresh();
  EXPECT_DOUBLE_EQ(fresh->learning_rate(), opt->learning_rate());
  EXPECT_EQ(fresh->DebugString(), opt->DebugString());
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerTest,
                         ::testing::Values(0, 1, 2));

TEST(OptimizerDeterminismTest, SameSeedsSameTrajectory) {
  // Two identical parameter/optimizer pairs stepped with the same gradients
  // stay bitwise identical (required by the Nautilus equivalence tests).
  Rng rng(77);
  Tensor init = Tensor::Randn(Shape({8}), &rng, 1.0f);
  Parameter p1("a", init);
  Parameter p2("b", init);
  AdamOptimizer o1(0.01), o2(0.01);
  for (int step = 0; step < 20; ++step) {
    Tensor g = Tensor::Randn(Shape({8}), &rng, 1.0f);
    p1.grad = g;
    p2.grad = g;
    o1.Step({&p1});
    o2.Step({&p2});
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(p1.value, p2.value), 0.0f);
}

}  // namespace
}  // namespace nn
}  // namespace nautilus
