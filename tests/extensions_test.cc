// Tests for the extension features: search spaces (grid/random), unrolled
// recurrent models, and materialize-then-train data augmentation.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "nautilus/core/multi_model.h"
#include "nautilus/core/planner.h"
#include "nautilus/core/search_space.h"
#include "nautilus/data/augmentation.h"
#include "nautilus/data/synthetic.h"
#include "nautilus/graph/executor.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/zoo/bert_like.h"
#include "nautilus/zoo/rnn_like.h"

namespace nautilus {
namespace {

// ---------------------------------------------------------------------------
// SearchSpace
// ---------------------------------------------------------------------------

TEST(SearchSpaceTest, GridIsCartesianProduct) {
  core::SearchSpace space;
  space.AddBatchSizes({16, 32})
      .AddLearningRates({5e-5, 3e-5, 2e-5})
      .AddEpochs({5})
      .AddVariants({0, 1, 2, 3});
  EXPECT_EQ(space.GridSize(), 24);
  auto grid = space.Grid();
  ASSERT_EQ(grid.size(), 24u);
  // Every combination distinct; indices sequential.
  std::set<std::tuple<int64_t, int64_t, double, int64_t>> seen;
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, static_cast<int>(i));
    seen.insert({grid[i].variant, grid[i].hp.batch_size,
                 grid[i].hp.learning_rate, grid[i].hp.epochs});
  }
  EXPECT_EQ(seen.size(), 24u);
}

TEST(SearchSpaceTest, GridMatchesPaperFtr2Shape) {
  // FTR-2's Table 3 grid expressed via SearchSpace.
  core::SearchSpace space;
  space.AddBatchSizes({16, 32})
      .AddLearningRates({5e-5, 3e-5, 2e-5})
      .AddVariants({0, 1, 2, 3});
  EXPECT_EQ(space.GridSize(), 24);
}

TEST(SearchSpaceTest, RandomSampleWithoutReplacement) {
  core::SearchSpace space;
  space.AddBatchSizes({16, 32}).AddLearningRates({1e-3, 1e-4}).AddVariants(
      {0, 1, 2});
  Rng rng(3);
  auto sample = space.RandomSample(5, &rng);
  ASSERT_EQ(sample.size(), 5u);
  std::set<std::tuple<int64_t, int64_t, double>> seen;
  for (const auto& a : sample) {
    EXPECT_TRUE(
        seen.insert({a.variant, a.hp.batch_size, a.hp.learning_rate}).second);
  }
  // Oversampling clamps to the grid.
  Rng rng2(4);
  EXPECT_EQ(space.RandomSample(100, &rng2).size(), 12u);
}

TEST(SearchSpaceTest, BuildWorkloadInvokesBuilderPerAssignment) {
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 1);
  core::SearchSpace space;
  space.AddLearningRates({1e-3, 1e-4}).AddVariants({0, 1});
  auto grid = space.Grid();
  core::Workload workload = core::SearchSpace::BuildWorkload(
      grid, [&](const core::SearchSpace::Assignment& a) {
        const zoo::BertFeature feature = a.variant == 0
                                             ? zoo::BertFeature::kLastHidden
                                             : zoo::BertFeature::kSumLast4;
        return zoo::BuildBertFeatureTransferModel(
            source, feature, 3, "ss_m" + std::to_string(a.index),
            100 + static_cast<uint64_t>(a.index));
      });
  ASSERT_EQ(workload.size(), 4u);
  for (size_t i = 0; i < workload.size(); ++i) {
    workload[i].model.Validate();
    EXPECT_EQ(workload[i].hp.learning_rate, grid[i].hp.learning_rate);
  }
}

// ---------------------------------------------------------------------------
// Unrolled recurrent models (Section 2.5)
// ---------------------------------------------------------------------------

TEST(RnnLikeTest, UnrolledSourceIsDagAndMaterializable) {
  zoo::RnnLikeModel source(zoo::RnnConfig::TinyScale(), 2);
  graph::ModelGraph g = source.BuildSourceGraph();
  // input + embedding + h0 + (select + cell) per step.
  EXPECT_EQ(g.num_nodes(), 3 + 2 * source.config().seq_len);
  auto mask = g.MaterializableMask();
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_TRUE(mask[static_cast<size_t>(i)]) << "node " << i;
  }
}

TEST(RnnLikeTest, UnrolledForwardMatchesManualRecurrence) {
  zoo::RnnLikeModel source(zoo::RnnConfig::TinyScale(), 3);
  const auto& cfg = source.config();
  graph::ModelGraph g = source.BuildSourceGraph();
  Rng rng(4);
  Tensor ids(Shape({2, cfg.seq_len}));
  for (int64_t i = 0; i < ids.NumElements(); ++i) {
    ids.at(i) = static_cast<float>(rng.UniformInt(cfg.vocab));
  }
  graph::Executor ex(&g);
  ex.Forward({{g.input_ids()[0], ids}}, false);
  Tensor unrolled = ex.Output(g.output_ids()[0]);

  // Manual recurrence over the same embedding.
  std::unique_ptr<nn::LayerCache> cache;
  Tensor emb = source.embedding()->Forward({&ids}, &cache);
  Tensor h(Shape({2, cfg.hidden}));
  for (int64_t t = 0; t < cfg.seq_len; ++t) {
    Tensor xt = ops::SelectSeqPosition(emb, t);
    h = source.cell()->Forward({&xt, &h}, &cache);
  }
  EXPECT_LT(Tensor::MaxAbsDiff(unrolled, h), 1e-6f);
}

TEST(RnnLikeTest, UnrolledChainsMergeAcrossCandidates) {
  zoo::RnnLikeModel source(zoo::RnnConfig::TinyScale(), 5);
  core::Workload workload;
  core::Hyperparams hp;
  hp.batch_size = 8;
  hp.epochs = 2;
  for (int i = 0; i < 3; ++i) {
    hp.learning_rate = 1e-3 / (i + 1);
    workload.emplace_back(
        zoo::BuildRnnFeatureTransferModel(source, 3,
                                          "rnn_m" + std::to_string(i),
                                          50 + static_cast<uint64_t>(i)),
        hp);
  }
  core::SystemConfig config;
  config.expected_max_records = 200;
  core::MultiModelGraph mm(&workload, config);
  // The whole unrolled chain merges: unit count is one model's
  // materializable count, not three models' worth.
  const int per_model = 3 + 2 * static_cast<int>(source.config().seq_len);
  EXPECT_EQ(static_cast<int>(mm.units().size()), per_model);
  // And the final hidden state is shared by all three candidates.
  int max_shared = 0;
  for (const auto& unit : mm.units()) {
    max_shared =
        std::max(max_shared, static_cast<int>(unit.used_by_models.size()));
  }
  EXPECT_EQ(max_shared, 3);
}

TEST(RnnLikeTest, FineTuneUnrollLeavesNothingMaterializableBeyondInputs) {
  zoo::RnnLikeModel source(zoo::RnnConfig::TinyScale(), 6);
  graph::ModelGraph g = zoo::BuildRnnFineTuneModel(source, 3, "rnn_ft", 60);
  auto mask = g.MaterializableMask();
  int materializable = 0;
  for (int i = 0; i < g.num_nodes(); ++i) {
    materializable += mask[static_cast<size_t>(i)] ? 1 : 0;
  }
  // Input + embedding + h0 + the per-step selectors stay materializable
  // (they only depend on the frozen embedding); every cell application and
  // the head do not.
  EXPECT_EQ(materializable,
            3 + static_cast<int>(source.config().seq_len));
}

TEST(RnnLikeTest, UnrolledModelTrains) {
  zoo::RnnLikeModel source(zoo::RnnConfig::TinyScale(), 7);
  graph::ModelGraph g =
      zoo::BuildRnnFeatureTransferModel(source, 2, "rnn_train", 70);
  Rng rng(8);
  Tensor ids(Shape({12, source.config().seq_len}));
  std::vector<int32_t> labels;
  for (int64_t i = 0; i < ids.NumElements(); ++i) {
    ids.at(i) = static_cast<float>(rng.UniformInt(source.config().vocab));
  }
  for (int64_t i = 0; i < 12; ++i) {
    labels.push_back(static_cast<int32_t>(ids.at(i * ids.shape().dim(1))) % 2);
  }
  graph::Executor ex(&g);
  float first = 0.0f;
  float last = 0.0f;
  for (int step = 0; step < 40; ++step) {
    ex.ZeroGrads();
    ex.Forward({{g.input_ids()[0], ids}}, true);
    Tensor probs = ops::SoftmaxForward(ex.Output(g.output_ids()[0]));
    Tensor dlogits;
    const float loss = ops::SoftmaxCrossEntropy(probs, labels, &dlogits);
    if (step == 0) first = loss;
    last = loss;
    ex.Backward({{g.output_ids()[0], dlogits}});
    for (nn::Parameter* p : ex.TrainableParams()) {
      for (int64_t i = 0; i < p->value.NumElements(); ++i) {
        p->value.at(i) -= 0.5f * p->grad.at(i);
      }
    }
  }
  EXPECT_LT(last, first);
}

TEST(RnnCellGradTest, BackwardMatchesFiniteDifference) {
  Rng rng(9);
  nn::RnnCellLayer cell("cell", 3, 4, &rng);
  Tensor x = Tensor::Randn(Shape({2, 3}), &rng, 0.7f);
  Tensor h = Tensor::Randn(Shape({2, 4}), &rng, 0.7f);
  Tensor w = Tensor::Randn(Shape({2, 4}), &rng, 1.0f);
  std::unique_ptr<nn::LayerCache> cache;
  (void)cell.Forward({&x, &h}, &cache);
  cell.ZeroGrads();
  auto grads = cell.Backward(w, {&x, &h}, *cache, {true, true});
  ASSERT_EQ(grads.size(), 2u);

  auto weighted = [&](const Tensor& a, const Tensor& b) {
    std::unique_ptr<nn::LayerCache> c;
    Tensor y = cell.Forward({&a, &b}, &c);
    double acc = 0.0;
    for (int64_t i = 0; i < y.NumElements(); ++i) {
      acc += static_cast<double>(y.at(i)) * w.at(i);
    }
    return acc;
  };
  // Probe a few entries of each input gradient.
  for (int64_t i : {int64_t{0}, int64_t{3}, int64_t{5}}) {
    Tensor xp = x;
    xp.at(i) += 1e-3f;
    Tensor xm = x;
    xm.at(i) -= 1e-3f;
    const double numeric = (weighted(xp, h) - weighted(xm, h)) / 2e-3;
    EXPECT_NEAR(grads[0].at(i), numeric, 5e-2);
  }
}

// ---------------------------------------------------------------------------
// Data augmentation (Section 2.5)
// ---------------------------------------------------------------------------

TEST(AugmentationTest, TextAugmentPreservesLabelsAndVocab) {
  zoo::BertLikeModel encoder(zoo::BertConfig::TinyScale(), 10);
  data::LabeledDataset pool = data::GenerateTextPool(encoder, 20, 3, 11);
  data::LabeledDataset augmented =
      data::AugmentTextPool(pool, /*copies=*/2, /*replace_prob=*/0.3,
                            encoder.config().vocab, 12);
  EXPECT_EQ(augmented.size(), 60);
  for (int64_t i = 0; i < 60; ++i) {
    EXPECT_EQ(augmented.labels()[static_cast<size_t>(i)],
              pool.labels()[static_cast<size_t>(i % 20)]);
  }
  for (int64_t i = 0; i < augmented.inputs().NumElements(); ++i) {
    const float v = augmented.inputs().at(i);
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, static_cast<float>(encoder.config().vocab));
  }
  // Copies actually differ from the originals.
  EXPECT_GT(Tensor::MaxAbsDiff(augmented.inputs().SliceRows(20, 40),
                               pool.inputs()),
            0.0f);
}

TEST(AugmentationTest, ImageAugmentPreservesShapeAndLabels) {
  zoo::ResNetConfig cfg = zoo::ResNetConfig::MiniScale();
  data::LabeledDataset pool = data::GenerateImagePool(cfg, 10, 2, 13);
  data::LabeledDataset augmented =
      data::AugmentImagePool(pool, /*copies=*/1, /*noise_stddev=*/0.1f, 14);
  EXPECT_EQ(augmented.size(), 20);
  EXPECT_EQ(augmented.inputs().shape().ElementsPerRecord(),
            pool.inputs().shape().ElementsPerRecord());
  EXPECT_GT(Tensor::MaxAbsDiff(augmented.inputs().SliceRows(10, 20),
                               pool.inputs()),
            0.0f);
}

TEST(AugmentationTest, ZeroCopiesIsIdentity) {
  zoo::ResNetConfig cfg = zoo::ResNetConfig::MiniScale();
  data::LabeledDataset pool = data::GenerateImagePool(cfg, 6, 2, 15);
  data::LabeledDataset same = data::AugmentImagePool(pool, 0, 0.1f, 16);
  EXPECT_EQ(same.size(), pool.size());
  EXPECT_EQ(Tensor::MaxAbsDiff(same.inputs(), pool.inputs()), 0.0f);
}

}  // namespace
}  // namespace nautilus
