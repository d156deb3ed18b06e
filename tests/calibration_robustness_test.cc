// Hardware calibration, DOT export, and storage fault-handling tests.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "nautilus/core/calibration.h"
#include "nautilus/storage/tensor_store.h"
#include "nautilus/zoo/bert_like.h"

namespace nautilus {
namespace {

TEST(CalibrationTest, MeasuresPositiveThroughputs) {
  const auto dir =
      std::filesystem::temp_directory_path() / "nautilus_calibration";
  std::filesystem::remove_all(dir);
  core::CalibrationResult result =
      core::MeasureHardware(dir.string(), /*probe_seconds=*/0.05);
  // Any real machine computes at least 10 MFLOP/s and moves 1 MB/s.
  EXPECT_GT(result.flops_per_second, 1e7);
  EXPECT_LT(result.flops_per_second, 1e15);
  EXPECT_GT(result.disk_write_bytes_per_second, 1e6);
  EXPECT_GT(result.disk_read_bytes_per_second, 1e6);
  std::filesystem::remove_all(dir);
}

TEST(CalibrationTest, CalibrateConfigOverridesThroughputFields) {
  const auto dir =
      std::filesystem::temp_directory_path() / "nautilus_calibration2";
  std::filesystem::remove_all(dir);
  core::SystemConfig base;
  base.disk_budget_bytes = 123.0;
  core::SystemConfig tuned =
      core::CalibrateConfig(base, dir.string(), 0.05);
  EXPECT_GT(tuned.flops_per_second, 0.0);
  EXPECT_GT(tuned.disk_bytes_per_second, 0.0);
  EXPECT_DOUBLE_EQ(tuned.disk_budget_bytes, 123.0);  // budgets untouched
  std::filesystem::remove_all(dir);
}

TEST(DotExportTest, ContainsEveryNodeAndEdge) {
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 1);
  graph::ModelGraph m = zoo::BuildBertFeatureTransferModel(
      source, zoo::BertFeature::kSumLast4, 3, "dot_m", 5);
  const std::string dot = m.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (const auto& node : m.nodes()) {
    EXPECT_NE(dot.find("n" + std::to_string(node.id) + " [label="),
              std::string::npos)
        << "missing node " << node.id;
  }
  // Frozen nodes render grey, trainable ones yellow.
  EXPECT_NE(dot.find("lightgrey"), std::string::npos);
  EXPECT_NE(dot.find("lightyellow"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "nautilus_store_fault";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Filenames embed a key hash, so fault injection locates the single file
  // the store just wrote instead of hardcoding a name.
  std::filesystem::path SoleTnsFile() const {
    std::filesystem::path found;
    int count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".tns") {
        found = entry.path();
        ++count;
      }
    }
    EXPECT_EQ(count, 1);
    return found;
  }

  std::filesystem::path dir_;
};

TEST_F(StoreFaultTest, BadMagicRejected) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("t", Tensor(Shape({2, 2}))).ok());
  // Corrupt the magic number.
  {
    std::fstream f(SoleTnsFile(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const char junk[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    f.write(junk, 8);
  }
  auto result = store.Get("t");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(StoreFaultTest, TruncatedDataRejected) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("t", Tensor(Shape({64, 64}))).ok());
  std::filesystem::resize_file(SoleTnsFile(), 64);
  auto result = store.Get("t");
  EXPECT_FALSE(result.ok());
}

TEST_F(StoreFaultTest, AbsurdRankRejected) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("t", Tensor(Shape({2, 2}))).ok());
  // Overwrite the stored file with a well-formed magic and dtype followed by
  // a header claiming rank 99: the rank check itself must reject it.
  {
    std::ofstream f(SoleTnsFile(), std::ios::binary);
    const int64_t magic = 0x4e41555433000001;
    const int64_t dtype = 0;  // f32
    const int64_t rank = 99;
    f.write(reinterpret_cast<const char*>(&magic), 8);
    f.write(reinterpret_cast<const char*>(&dtype), 8);
    f.write(reinterpret_cast<const char*>(&rank), 8);
  }
  auto result = store.Get("t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("unsupported tensor rank"),
            std::string::npos)
      << result.status().message();
}

TEST_F(StoreFaultTest, KeySanitizationKeepsKeysDistinctFiles) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  ASSERT_TRUE(store.Put("a/b", Tensor(Shape({1}), {1.0f})).ok());
  ASSERT_TRUE(store.Put("a:b", Tensor(Shape({1}), {2.0f})).ok());
  ASSERT_TRUE(store.Put("a_b", Tensor(Shape({1}), {3.0f})).ok());
  // Every key maps to its own file (the filename carries a key hash), so
  // keys that flatten to the same safe name stay distinct.
  auto v1 = store.Get("a/b");
  auto v2 = store.Get("a:b");
  auto v3 = store.Get("a_b");
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(v3.ok());
  EXPECT_FLOAT_EQ(v1->at(0), 1.0f);
  EXPECT_FLOAT_EQ(v2->at(0), 2.0f);
  EXPECT_FLOAT_EQ(v3->at(0), 3.0f);
  // And ListKeys round-trips the raw keys.
  const std::vector<std::string> keys = store.ListKeys();
  EXPECT_EQ(keys, (std::vector<std::string>{"a/b", "a:b", "a_b"}));
}

}  // namespace
}  // namespace nautilus
