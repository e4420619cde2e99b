#include "index/residual_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RawVec;

ResidualRecord Rec(Timestamp ts, SparseVector prefix, double q = 0.1) {
  ResidualRecord r;
  r.prefix = std::move(prefix);
  r.q = q;
  r.ts = ts;
  r.vm = r.prefix.max_value();
  r.sum = r.prefix.sum();
  r.nnz = static_cast<uint32_t>(r.prefix.nnz());
  return r;
}

TEST(ResidualStoreTest, InsertAndFind) {
  ResidualStore store;
  store.Insert(1, Rec(0.0, RawVec({{1, 1.0}})));
  store.Insert(2, Rec(1.0, RawVec({{2, 1.0}})));
  ASSERT_NE(store.Find(1), nullptr);
  EXPECT_EQ(store.Find(1)->ts, 0.0);
  EXPECT_EQ(store.Find(3), nullptr);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ResidualStoreTest, ExpireDropsOldOnly) {
  ResidualStore store;
  for (int i = 0; i < 10; ++i) {
    store.Insert(i, Rec(static_cast<double>(i), RawVec({{0, 1.0}})));
  }
  store.ExpireOlderThan(5.0);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.Find(4), nullptr);
  ASSERT_NE(store.Find(5), nullptr);  // ts == cutoff is kept
}

TEST(ResidualStoreTest, ExpireEmptyIsSafe) {
  ResidualStore store;
  store.ExpireOlderThan(100.0);
  EXPECT_TRUE(store.empty());
}

TEST(ResidualStoreTest, PrefixDimIterationFindsMatches) {
  ResidualStore store(/*track_prefix_dims=*/true);
  store.Insert(1, Rec(0.0, RawVec({{3, 1.0}, {7, 2.0}})));
  store.Insert(2, Rec(1.0, RawVec({{7, 1.0}})));
  store.Insert(3, Rec(2.0, RawVec({{9, 1.0}})));
  std::vector<VectorId> hits;
  store.ForEachWithPrefixDim(7, [&](VectorId id, const ResidualRecord&) {
    hits.push_back(id);
  });
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 1u);
  EXPECT_EQ(hits[1], 2u);
}

TEST(ResidualStoreTest, PrefixDimIterationSkipsExpired) {
  ResidualStore store(/*track_prefix_dims=*/true);
  store.Insert(1, Rec(0.0, RawVec({{5, 1.0}})));
  store.Insert(2, Rec(10.0, RawVec({{5, 1.0}})));
  store.ExpireOlderThan(5.0);
  std::vector<VectorId> hits;
  store.ForEachWithPrefixDim(5, [&](VectorId id, const ResidualRecord&) {
    hits.push_back(id);
  });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2u);
}

TEST(ResidualStoreTest, PrefixDimIterationSkipsShrunkenPrefixes) {
  // After re-indexing, a record's prefix may no longer contain the dim;
  // the lazy inverted index must not report it.
  ResidualStore store(/*track_prefix_dims=*/true);
  store.Insert(1, Rec(0.0, RawVec({{2, 1.0}, {5, 1.0}})));
  store.UpdatePrefix(1, /*keep=*/1, /*q=*/0.0);  // dim 5 moved to the index
  std::vector<VectorId> hits;
  store.ForEachWithPrefixDim(5, [&](VectorId id, const ResidualRecord&) {
    hits.push_back(id);
  });
  EXPECT_TRUE(hits.empty());
  // Stale entries are compacted: a second scan also finds nothing.
  store.ForEachWithPrefixDim(5, [&](VectorId id, const ResidualRecord&) {
    hits.push_back(id);
  });
  EXPECT_TRUE(hits.empty());
}

TEST(ResidualStoreTest, RecordMutationThroughIteration) {
  // Records found through the prefix-dim iteration are updated through
  // the store (re-indexing's Q refresh), never through the callback.
  ResidualStore store(/*track_prefix_dims=*/true);
  store.Insert(1, Rec(0.0, RawVec({{4, 1.0}}), 0.5));
  std::vector<VectorId> hits;
  store.ForEachWithPrefixDim(4, [&](VectorId id, const ResidualRecord&) {
    hits.push_back(id);
  });
  ASSERT_EQ(hits.size(), 1u);
  store.UpdatePrefix(hits[0], /*keep=*/1, /*q=*/0.125);
  EXPECT_DOUBLE_EQ(store.Find(1)->q, 0.125);
  EXPECT_EQ(store.Find(1)->prefix.nnz(), 1u);
}

TEST(ResidualStoreTest, ClearResetsEverything) {
  ResidualStore store(/*track_prefix_dims=*/true);
  store.Insert(1, Rec(0.0, RawVec({{4, 1.0}})));
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Find(1), nullptr);
}

TEST(ResidualStoreTest, MetaFieldsStored) {
  ResidualStore store;
  ResidualRecord r = Rec(3.0, RawVec({{1, 2.0}, {2, 3.0}}), 0.7);
  r.vm = 9.0;
  r.sum = 11.0;
  r.nnz = 42;
  store.Insert(5, std::move(r));
  const ResidualRecord* got = store.Find(5);
  ASSERT_NE(got, nullptr);
  EXPECT_DOUBLE_EQ(got->vm, 9.0);
  EXPECT_DOUBLE_EQ(got->sum, 11.0);
  EXPECT_EQ(got->nnz, 42u);
  EXPECT_DOUBLE_EQ(got->q, 0.7);
}

}  // namespace
}  // namespace sssj
