#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nautilus/storage/checkpoint_store.h"
#include "nautilus/storage/io_stats.h"
#include "nautilus/storage/tensor_store.h"
#include "nautilus/util/random.h"
#include "nautilus/zoo/bert_like.h"

namespace nautilus {
namespace storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nautilus_storage_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(StorageTest, PutGetRoundTrip) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Rng rng(1);
  Tensor t = Tensor::Randn(Shape({4, 3}), &rng, 1.0f);
  ASSERT_TRUE(store.Put("features", t).ok());
  auto loaded = store.Get("features");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->shape(), t.shape());
  EXPECT_EQ(Tensor::MaxAbsDiff(*loaded, t), 0.0f);
}

TEST_F(StorageTest, GetMissingIsNotFound) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  auto result = store.Get("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, AppendRowsGrowsTensor) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor a(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b(Shape({1, 3}), {7, 8, 9});
  ASSERT_TRUE(store.AppendRows("f", a).ok());
  ASSERT_TRUE(store.AppendRows("f", b).ok());
  EXPECT_EQ(store.NumRows("f"), 3);
  auto loaded = store.Get("f");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->shape(), Shape({3, 3}));
  EXPECT_FLOAT_EQ(loaded->at(8), 9.0f);
}

TEST_F(StorageTest, AppendShapeMismatchRejected) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.AppendRows("f", Tensor(Shape({2, 3}))).ok());
  EXPECT_FALSE(store.AppendRows("f", Tensor(Shape({2, 4}))).ok());
  EXPECT_FALSE(store.AppendRows("f", Tensor(Shape({2, 3, 1}))).ok());
}

TEST_F(StorageTest, GetRowsReadsSlice) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor t(Shape({4, 2}), {0, 1, 2, 3, 4, 5, 6, 7});
  ASSERT_TRUE(store.Put("f", t).ok());
  auto rows = store.GetRows("f", 1, 3);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(rows->at(0), 2.0f);
  EXPECT_FLOAT_EQ(rows->at(3), 5.0f);

  EXPECT_FALSE(store.GetRows("f", 2, 9).ok());
}

TEST_F(StorageTest, IoStatsCountBytes) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor t(Shape({10, 10}));
  ASSERT_TRUE(store.Put("f", t).ok());
  EXPECT_GE(stats.bytes_written(), t.SizeBytes());
  EXPECT_EQ(stats.bytes_read(), 0);
  ASSERT_TRUE(store.Get("f").ok());
  EXPECT_GE(stats.bytes_read(), t.SizeBytes());
  EXPECT_EQ(stats.num_reads(), 1);
  EXPECT_EQ(stats.num_writes(), 1);
  stats.Reset();
  EXPECT_EQ(stats.bytes_written(), 0);
}

TEST_F(StorageTest, RemoveAndClear) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("a", Tensor(Shape({2}))).ok());
  ASSERT_TRUE(store.Put("b", Tensor(Shape({2}))).ok());
  EXPECT_TRUE(store.Contains("a"));
  ASSERT_TRUE(store.Remove("a").ok());
  EXPECT_FALSE(store.Contains("a"));
  ASSERT_TRUE(store.Clear().ok());
  EXPECT_FALSE(store.Contains("b"));
  EXPECT_EQ(store.TotalBytes(), 0);
}

TEST_F(StorageTest, TotalBytesTracksBudgetAccounting) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("a", Tensor(Shape({100, 10}))).ok());
  // 1000 floats + header.
  EXPECT_GE(store.TotalBytes(), 4000);
  EXPECT_LE(store.TotalBytes(), 4200);
}

TEST_F(StorageTest, GetReturnsZeroCopyViewWithCopyOnWrite) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor t(Shape({2, 2}), {1, 2, 3, 4});
  ASSERT_TRUE(store.Put("f", t).ok());
  auto view = store.Get("f");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->IsView());
  EXPECT_EQ(Tensor::MaxAbsDiff(*view, t), 0.0f);
  // Mutation detaches the view without touching the stored bytes.
  view->Fill(9.0f);
  EXPECT_FALSE(view->IsView());
  auto reread = store.Get("f");
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(Tensor::MaxAbsDiff(*reread, t), 0.0f);
}

TEST_F(StorageTest, ViewOutlivesRemoveAndReplacingPut) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor t(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(store.Put("f", t).ok());
  auto view = store.Get("f");
  ASSERT_TRUE(view.ok());
  // The mapping pins the inode: unlinking and replacing the file must not
  // change the bytes an existing view sees.
  ASSERT_TRUE(store.Remove("f").ok());
  EXPECT_EQ(Tensor::MaxAbsDiff(*view, t), 0.0f);
  ASSERT_TRUE(store.Put("f", Tensor(Shape({3, 2}))).ok());
  EXPECT_EQ(Tensor::MaxAbsDiff(*view, t), 0.0f);
  auto fresh = store.Get("f");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FLOAT_EQ(fresh->at(0), 0.0f);
}

TEST_F(StorageTest, GetRowsViewSlicesWithoutCopy) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor t(Shape({4, 2}), {0, 1, 2, 3, 4, 5, 6, 7});
  ASSERT_TRUE(store.Put("f", t).ok());
  auto rows = store.GetRowsView("f", 1, 3);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->IsView());
  EXPECT_EQ(rows->shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(rows->at(0), 2.0f);
  EXPECT_FLOAT_EQ(rows->at(3), 5.0f);
  EXPECT_FALSE(store.GetRowsView("f", 2, 9).ok());
}

TEST_F(StorageTest, GetBatchMatchesSerialReads) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Rng rng(7);
  Tensor a = Tensor::Randn(Shape({8, 3}), &rng, 1.0f);
  Tensor b = Tensor::Randn(Shape({5, 4}), &rng, 1.0f);
  ASSERT_TRUE(store.Put("a", a).ok());
  ASSERT_TRUE(store.Put("b", b).ok());
  auto batch = store.GetBatch({{"a", 0, -1}, {"b", 1, 4}, {"a", 0, -1}});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_EQ(Tensor::MaxAbsDiff((*batch)[0], a), 0.0f);
  EXPECT_EQ(Tensor::MaxAbsDiff((*batch)[1], b.SliceRows(1, 4)), 0.0f);
  EXPECT_EQ(Tensor::MaxAbsDiff((*batch)[2], a), 0.0f);
}

TEST_F(StorageTest, GetBatchReportsLowestIndexedError) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("a", Tensor(Shape({2, 2}))).ok());
  auto batch = store.GetBatch({{"a", 0, -1}, {"missing", 0, -1}});
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, WarmReadsSkipDisk) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("f", Tensor(Shape({64, 8}))).ok());
  ASSERT_TRUE(store.Get("f").ok());
  const int64_t cold_bytes = stats.bytes_read();
  EXPECT_GT(cold_bytes, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Get("f").ok());
  }
  EXPECT_EQ(stats.bytes_read(), cold_bytes);  // warm reads are memory-only
  EXPECT_EQ(store.cache_entry_count(), 1);
}

TEST_F(StorageTest, ListKeysRoundTripsRawKeys) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  const std::vector<std::string> raw = {
      "session.train.inputs", "unit_3.valid", "weird/key:with spaces",
      "unicode\xc3\xa9"};
  for (const std::string& key : raw) {
    ASSERT_TRUE(store.Put(key, Tensor(Shape({1}), {1.0f})).ok());
  }
  std::vector<std::string> expected = raw;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(store.ListKeys(), expected);
}

TEST_F(StorageTest, AppendAfterCachedReadReturnsGrownTensor) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor a(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(store.Put("f", a).ok());
  auto before = store.Get("f");  // populate the cache
  ASSERT_TRUE(before.ok());
  Tensor b(Shape({1, 3}), {7, 8, 9});
  ASSERT_TRUE(store.AppendRows("f", b).ok());
  auto after = store.Get("f");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->shape(), Shape({3, 3}));
  EXPECT_FLOAT_EQ(after->at(8), 9.0f);
  // The stale view still sees the pre-append rows (append-only growth).
  EXPECT_EQ(Tensor::MaxAbsDiff(*before, a), 0.0f);
}

TEST_F(StorageTest, CheckpointSaveLoadRoundTrip) {
  IoStats stats;
  CheckpointStore store(dir_.string(), &stats);
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 5);
  graph::ModelGraph m = zoo::BuildBertFeatureTransferModel(
      source, zoo::BertFeature::kLastHidden, 3, "m", 7);

  ASSERT_TRUE(store.SaveModel(m, "ckpt", /*include_frozen=*/true).ok());

  // Perturb a trainable parameter, reload, and verify restoration.
  nn::Parameter* target = nullptr;
  for (const auto& node : m.nodes()) {
    if (!node.frozen && !node.layer->Params().empty()) {
      target = node.layer->Params()[0];
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  Tensor original = target->value;
  target->value.Fill(123.0f);
  ASSERT_TRUE(store.LoadModel(m, "ckpt").ok());
  EXPECT_EQ(Tensor::MaxAbsDiff(target->value, original), 0.0f);
}

TEST_F(StorageTest, PrunedCheckpointIsMuchSmaller) {
  // The Figure 11 effect: skipping frozen parameters shrinks checkpoints by
  // the frozen fraction of the model.
  IoStats stats;
  CheckpointStore store(dir_.string(), &stats);
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 6);
  graph::ModelGraph m = zoo::BuildBertFeatureTransferModel(
      source, zoo::BertFeature::kLastHidden, 3, "m", 8);
  ASSERT_TRUE(store.SaveModel(m, "full", true).ok());
  ASSERT_TRUE(store.SaveModel(m, "pruned", false).ok());
  EXPECT_LT(store.SizeBytes("pruned"), store.SizeBytes("full"));
  EXPECT_NEAR(static_cast<double>(store.SizeBytes("full")),
              CheckpointStore::EstimateBytes(m, true), 64.0);
  EXPECT_NEAR(static_cast<double>(store.SizeBytes("pruned")),
              CheckpointStore::EstimateBytes(m, false), 64.0);
}

TEST_F(StorageTest, EstimateBytesWorksOnStubs) {
  nn::ProfileOnlyScope profile_only;
  zoo::BertLikeModel source(zoo::BertConfig::PaperScale(), 7);
  graph::ModelGraph m = source.BuildSourceGraph();
  // BERT-base full checkpoint is ~440 MB of float32 weights.
  const double bytes = CheckpointStore::EstimateBytes(m, true);
  EXPECT_GT(bytes, 3.0e8);
  EXPECT_LT(bytes, 6.0e8);
}

}  // namespace
}  // namespace storage
}  // namespace nautilus
