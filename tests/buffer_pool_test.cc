// Buffer pool behavior: hit/miss accounting, capacity normalization, budget
// enforcement, no-aliasing of live rentals, and the Tensor lifecycle hooks
// (rented construction and copies, recycling destructor and assignment,
// storage-moving reshape), down to a training step that leaves the pool's
// size unchanged.
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "nautilus/nn/transformer.h"
#include "nautilus/tensor/tensor.h"
#include "nautilus/util/buffer_pool.h"
#include "nautilus/util/parallel.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace {

using util::BufferPool;
using util::BufferPoolStats;

constexpr int64_t kMin = BufferPool::kMinPooledFloats;

// The pool is a process-wide singleton shared with every other test in this
// binary, so assertions work on deltas from a snapshot.
class PoolSnapshot {
 public:
  PoolSnapshot() : before_(BufferPool::Global().stats()) {}
  int64_t hits() const { return now().hits - before_.hits; }
  int64_t misses() const { return now().misses - before_.misses; }
  int64_t bytes_reused() const {
    return now().bytes_reused - before_.bytes_reused;
  }
  int64_t recycled() const { return now().recycled - before_.recycled; }
  int64_t dropped() const { return now().dropped - before_.dropped; }
  int64_t resident_bytes() const {
    return now().resident_bytes - before_.resident_bytes;
  }

 private:
  static BufferPoolStats now() { return BufferPool::Global().stats(); }
  BufferPoolStats before_;
};

TEST(BufferPool, RecycleThenRentHits) {
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  PoolSnapshot snap;
  std::vector<float> buf = pool.Rent(2 * kMin);
  EXPECT_EQ(snap.misses(), 1);
  buf[0] = 123.0f;
  pool.Recycle(std::move(buf));
  EXPECT_EQ(snap.recycled(), 1);
  std::vector<float> again = pool.Rent(2 * kMin);
  EXPECT_EQ(snap.hits(), 1);
  EXPECT_EQ(snap.bytes_reused(), 2 * kMin * 4);
  EXPECT_EQ(static_cast<int64_t>(again.size()), 2 * kMin);
}

TEST(BufferPool, OddSizesShareAClassViaCapacityNormalization) {
  // A miss reserves the full class capacity, so any later request that maps
  // to the same class reuses the buffer even when the exact sizes differ.
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  PoolSnapshot snap;
  std::vector<float> buf = pool.Rent(kMin + 300);
  EXPECT_GE(static_cast<int64_t>(buf.capacity()), 2 * kMin);
  pool.Recycle(std::move(buf));
  std::vector<float> other = pool.Rent(2 * kMin - 1);
  EXPECT_EQ(snap.hits(), 1);
  EXPECT_EQ(static_cast<int64_t>(other.size()), 2 * kMin - 1);
}

TEST(BufferPool, SmallRequestsBypassThePool) {
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  PoolSnapshot snap;
  std::vector<float> buf = pool.Rent(kMin - 1);
  EXPECT_EQ(static_cast<int64_t>(buf.size()), kMin - 1);
  EXPECT_EQ(snap.hits() + snap.misses(), 0);
  pool.Recycle(std::move(buf));
  EXPECT_EQ(snap.recycled(), 0);
}

TEST(BufferPool, MissesComeBackZeroFilled) {
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  std::vector<float> buf = pool.Rent(kMin);
  for (int64_t i = 0; i < kMin; ++i) ASSERT_EQ(buf[i], 0.0f);
}

TEST(BufferPool, BudgetDropsOversizedAndOverflowingBuffers) {
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  const int64_t saved = pool.budget_bytes();
  pool.set_budget_bytes(32 * kMin * 4);
  PoolSnapshot snap;
  // Larger than a quarter of the budget: dropped outright.
  pool.Recycle(pool.Rent(16 * kMin));
  EXPECT_EQ(snap.dropped(), 1);
  // Fill the budget with 8-class buffers, then one more must be dropped.
  std::vector<std::vector<float>> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.Rent(8 * kMin));
  for (auto& b : held) pool.Recycle(std::move(b));
  EXPECT_GE(snap.dropped(), 2);  // budget holds at most 4 of them
  EXPECT_LE(pool.stats().resident_bytes, pool.budget_bytes());
  pool.set_budget_bytes(saved);
  pool.Clear();
}

TEST(BufferPool, ConcurrentRentalsNeverAlias) {
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  // Park a buffer (the loop re-rents the same one), then hold more live
  // rentals than the pool contains so both hit and miss paths are covered.
  for (int i = 0; i < 3; ++i) pool.Recycle(pool.Rent(kMin));
  std::vector<std::vector<float>> live;
  for (int i = 0; i < 8; ++i) live.push_back(pool.Rent(kMin));
  std::set<const float*> ptrs;
  for (auto& b : live) ptrs.insert(b.data());
  EXPECT_EQ(ptrs.size(), live.size());
  // Each rental is independently writable without trampling the others.
  for (size_t i = 0; i < live.size(); ++i) {
    for (auto& v : live[i]) v = static_cast<float>(i);
  }
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i][0], static_cast<float>(i));
    EXPECT_EQ(live[i][kMin - 1], static_cast<float>(i));
  }
}

TEST(BufferPool, ParallelRentRecycleIsSafe) {
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  ParallelFor(64, [&pool](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      std::vector<float> b = pool.Rent(kMin + (i % 7) * 100);
      b[0] = static_cast<float>(i);
      ASSERT_EQ(b[0], static_cast<float>(i));
      pool.Recycle(std::move(b));
    }
  });
  EXPECT_LE(pool.stats().resident_bytes, pool.budget_bytes());
}

// ---------------------------------------------------------------------------
// Tensor lifecycle integration.
// ---------------------------------------------------------------------------

TEST(TensorPool, DestructorRecyclesLargeTensors) {
  BufferPool::Global().Clear();
  PoolSnapshot snap;
  { Tensor t(Shape({4, kMin})); }
  EXPECT_EQ(snap.recycled(), 1);
  // The next equally-sized construction would find it again.
  Tensor t2 = Tensor::Uninitialized(Shape({4, kMin}));
  EXPECT_EQ(snap.hits(), 1);
}

TEST(TensorPool, SmallTensorsAreNotPooled) {
  BufferPool::Global().Clear();
  PoolSnapshot snap;
  { Tensor t(Shape({8})); }
  EXPECT_EQ(snap.recycled(), 0);
}

TEST(TensorPool, UninitializedHasShapeAndIsFullyWritable) {
  Tensor t = Tensor::Uninitialized(Shape({3, kMin}));
  ASSERT_EQ(t.NumElements(), 3 * kMin);
  float* p = t.data();
  for (int64_t i = 0; i < t.NumElements(); ++i) p[i] = 2.0f;
  EXPECT_EQ(t.at(0), 2.0f);
  EXPECT_EQ(t.at(t.NumElements() - 1), 2.0f);
}

TEST(TensorPool, ConstructionRentsFromThePool) {
  BufferPool::Global().Clear();
  { Tensor t(Shape({2, kMin})); }
  PoolSnapshot snap;
  Tensor again(Shape({2, kMin}));
  EXPECT_EQ(snap.hits(), 1);
  EXPECT_EQ(snap.misses(), 0);
}

TEST(TensorPool, CopyIsAPoolHitDeepAndExact) {
  BufferPool::Global().Clear();
  Tensor src(Shape({2, kMin}));
  for (int64_t i = 0; i < src.NumElements(); ++i) {
    src.at(i) = static_cast<float>(i % 97);
  }
  { Tensor parked(Shape({2, kMin})); }
  PoolSnapshot snap;
  Tensor copy = src;
  EXPECT_EQ(snap.hits(), 1);
  EXPECT_EQ(snap.misses(), 0);
  EXPECT_EQ(Tensor::MaxAbsDiff(src, copy), 0.0f);
  EXPECT_NE(copy.data(), src.data());
  copy.at(0) = -1.0f;
  EXPECT_EQ(src.at(0), 0.0f);

  // Copy assignment rents too, and hands the overwritten buffer back.
  Tensor assigned(Shape({2, kMin}));
  PoolSnapshot assign_snap;
  assigned = src;
  EXPECT_EQ(assign_snap.recycled(), 1);
  EXPECT_EQ(Tensor::MaxAbsDiff(src, assigned), 0.0f);
  EXPECT_NE(assigned.data(), src.data());
}

TEST(TensorPool, MoveAssignmentRecyclesTheOverwrittenBuffer) {
  BufferPool::Global().Clear();
  Tensor target(Shape({2, kMin}));
  Tensor source(Shape({2, kMin}));
  const float* source_data = source.data();
  PoolSnapshot snap;
  target = std::move(source);
  EXPECT_EQ(snap.recycled(), 1);
  EXPECT_EQ(target.data(), source_data);
}

TEST(TensorPool, RvalueReshapeMovesTheStorage) {
  Tensor t(Shape({4, kMin}));
  t.at(5) = 7.0f;
  const float* data = t.data();
  PoolSnapshot snap;
  Tensor r = std::move(t).Reshaped(Shape({2, 2 * kMin}));
  EXPECT_EQ(r.data(), data);
  EXPECT_EQ(r.shape(), Shape({2, 2 * kMin}));
  EXPECT_EQ(r.at(5), 7.0f);
  EXPECT_EQ(snap.hits() + snap.misses(), 0);

  // The lvalue form still copies: the source stays intact and separate.
  Tensor l = r.Reshaped(Shape({4, kMin}));
  EXPECT_NE(l.data(), r.data());
  EXPECT_EQ(l.at(5), 7.0f);
  EXPECT_EQ(r.shape(), Shape({2, 2 * kMin}));
}

TEST(TensorPool, TrainingStepsLeaveThePoolSizeUnchanged) {
  // Every buffer a fwd+bwd step rents goes back to the pool when the step
  // ends, and nothing else does: once the first steps have warmed the size
  // classes, the pool neither grows nor shrinks. Degree 1 makes the number
  // of GEMM packing buffers live at once the same in every step.
  const int saved_degree = ParallelismDegree();
  SetParallelismDegree(1);
  Rng rng(11);
  nn::TransformerBlockLayer block("blk", 32, 4, 64, &rng);
  const Tensor x = Tensor::Randn(Shape({12, 12, 32}), &rng, 1.0f);
  const Tensor dy = Tensor::Randn(x.shape(), &rng, 1.0f);
  auto step = [&] {
    std::unique_ptr<nn::LayerCache> cache;
    Tensor y = block.Forward({&x}, &cache);
    block.Backward(dy, {&x}, *cache, {true});
  };
  BufferPool::Global().Clear();
  for (int i = 0; i < 3; ++i) step();
  PoolSnapshot snap;
  for (int i = 0; i < 20; ++i) step();
  SetParallelismDegree(saved_degree);
  EXPECT_EQ(snap.resident_bytes(), 0);
  EXPECT_EQ(snap.misses(), 0);
  EXPECT_EQ(snap.dropped(), 0);
}

TEST(TensorPool, RecycledContentsNeverLeakIntoZeroInitTensors) {
  // Tensor(shape) promises zeros even when its storage came off the pool by
  // way of the vector-assignment path; only Uninitialized skips clearing.
  BufferPool::Global().Clear();
  {
    Tensor t = Tensor::Uninitialized(Shape({2, kMin}));
    float* p = t.data();
    for (int64_t i = 0; i < t.NumElements(); ++i) p[i] = 9.0f;
  }
  Tensor z(Shape({2, kMin}));
  for (int64_t i = 0; i < z.NumElements(); ++i) ASSERT_EQ(z.at(i), 0.0f);
}

}  // namespace
}  // namespace nautilus
