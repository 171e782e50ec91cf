// Unit tests for the columnar kernel containers: Value, Bat, StringHeap,
// Candidates, ColumnSet.

#include <gtest/gtest.h>

#include "bat/bat.h"
#include "bat/candidates.h"
#include "bat/string_heap.h"
#include "bat/types.h"

namespace dc {
namespace {

TEST(ValueTest, BasicsAndToString) {
  EXPECT_EQ(Value::I64(42).ToString(), "42");
  EXPECT_EQ(Value::F64(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::F64(3.0).ToString(), "3");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Ts(5).type(), TypeId::kTs);
}

TEST(ValueTest, Compare) {
  EXPECT_LT(Value::I64(1).Compare(Value::I64(2)), 0);
  EXPECT_EQ(Value::I64(2).Compare(Value::F64(2.0)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
}

TEST(ValueTest, Casts) {
  EXPECT_EQ(Value::I64(3).CastTo(TypeId::kF64)->AsF64(), 3.0);
  EXPECT_EQ(Value::Str("17").CastTo(TypeId::kI64)->AsI64(), 17);
  EXPECT_EQ(Value::Str("2.5").CastTo(TypeId::kF64)->AsF64(), 2.5);
  EXPECT_EQ(Value::F64(9.9).CastTo(TypeId::kI64)->AsI64(), 9);
  EXPECT_EQ(Value::I64(5).CastTo(TypeId::kTs)->AsI64(), 5);
  EXPECT_EQ(Value::I64(12).CastTo(TypeId::kStr)->AsStr(), "12");
  EXPECT_FALSE(Value::Str("abc").CastTo(TypeId::kI64).ok());
}

TEST(TypeTest, Names) {
  EXPECT_STREQ(TypeName(TypeId::kI64), "i64");
  EXPECT_EQ(*TypeFromName("BIGINT"), TypeId::kI64);
  EXPECT_EQ(*TypeFromName("varchar"), TypeId::kStr);
  EXPECT_EQ(*TypeFromName("timestamp"), TypeId::kTs);
  EXPECT_FALSE(TypeFromName("blob").ok());
}

TEST(StringHeapTest, AddAndGet) {
  StringHeap heap;
  const uint64_t a = heap.Add("hello");
  const uint64_t b = heap.Add("");
  const uint64_t c = heap.Add("world");
  EXPECT_EQ(heap.Get(a), "hello");
  EXPECT_EQ(heap.Get(b), "");
  EXPECT_EQ(heap.Get(c), "world");
}

TEST(BatTest, AppendAndRead) {
  auto b = Bat::MakeI64({1, 2, 3});
  EXPECT_EQ(b->size(), 3u);
  b->AppendI64(4);
  EXPECT_EQ(b->I64Data()[3], 4);
  EXPECT_EQ(b->GetValue(0).AsI64(), 1);
}

TEST(BatTest, StringColumn) {
  auto b = Bat::MakeStr({"aa", "bb", "cc"});
  EXPECT_EQ(b->StrAt(1), "bb");
  b->AppendStr("dd");
  EXPECT_EQ(b->size(), 4u);
  EXPECT_EQ(b->GetValue(3).AsStr(), "dd");
}

TEST(BatTest, SliceAndGather) {
  auto b = Bat::MakeI64({10, 20, 30, 40, 50});
  auto s = b->Slice(1, 4);
  EXPECT_EQ(s->size(), 3u);
  EXPECT_EQ(s->I64Data()[0], 20);
  auto g = b->Gather(Candidates::FromVector({0, 2, 4}));
  EXPECT_EQ(g->size(), 3u);
  EXPECT_EQ(g->I64Data()[2], 50);
}

TEST(BatTest, DropHeadIntColumn) {
  auto b = Bat::MakeI64({1, 2, 3, 4});
  b->DropHead(2);
  EXPECT_EQ(b->size(), 2u);
  EXPECT_EQ(b->I64Data()[0], 3);
}

TEST(BatTest, DropHeadRebuildsStringHeap) {
  auto b = Bat::MakeStr({"first", "second", "third"});
  const size_t before = b->MemoryBytes();
  b->DropHead(2);
  EXPECT_EQ(b->size(), 1u);
  EXPECT_EQ(b->StrAt(0), "third");
  EXPECT_LT(b->MemoryBytes(), before);
}

TEST(BatTest, AppendRangeAcrossTypes) {
  auto src = Bat::MakeF64({1.5, 2.5, 3.5});
  Bat dst(TypeId::kF64);
  dst.AppendRange(*src, 1, 3);
  EXPECT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.F64Data()[0], 2.5);
}

TEST(BatTest, AppendValueCoercesNumeric) {
  Bat dst(TypeId::kF64);
  dst.AppendValue(Value::I64(3));
  EXPECT_EQ(dst.F64Data()[0], 3.0);
}

TEST(BatTest, SetNullsMatchesAppendNull) {
  // Built row by row: 7, NULL, 9 (the NULL row stores 0).
  auto want = Bat::MakeEmpty(TypeId::kI64);
  want->AppendI64(7);
  want->AppendNull();
  want->AppendI64(9);
  // Bulk: payload with a nonzero value under the NULL, trailing zeros.
  auto got = Bat::MakeI64({7, 42, 9});
  got->SetNulls({0, 3, 0});
  ASSERT_EQ(got->size(), 3u);
  EXPECT_TRUE(got->IsNull(1));
  EXPECT_EQ(got->I64Data()[1], 0);
  EXPECT_EQ(got->NullFlags().size(), want->NullFlags().size());
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got->IsNull(i), want->IsNull(i));
    EXPECT_EQ(got->I64Data()[i], want->I64Data()[i]);
  }

  auto str = Bat::MakeStr({"a", "b"});
  str->SetNulls({1});
  EXPECT_TRUE(str->IsNull(0));
  EXPECT_EQ(str->StrAt(0), "");
  EXPECT_EQ(str->StrAt(1), "b");

  // An all-zero bitmap leaves the column without NULLs.
  auto none = Bat::MakeF64({1.5, 2.5});
  none->SetNulls({0, 0});
  EXPECT_FALSE(none->has_nulls());
}

TEST(CandidatesTest, DenseRange) {
  auto c = Candidates::Range(5, 3);
  EXPECT_TRUE(c.is_dense());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.At(0), 5u);
  EXPECT_EQ(c.At(2), 7u);
  EXPECT_TRUE(c.Contains(6));
  EXPECT_FALSE(c.Contains(8));
}

TEST(CandidatesTest, VectorNormalizesToDense) {
  auto c = Candidates::FromVector({3, 4, 5});
  EXPECT_TRUE(c.is_dense());
  auto sparse = Candidates::FromVector({3, 5, 9});
  EXPECT_FALSE(sparse.is_dense());
  EXPECT_TRUE(sparse.Contains(5));
}

TEST(CandidatesTest, IntersectDense) {
  auto a = Candidates::Range(0, 10);
  auto b = Candidates::Range(5, 10);
  auto c = Candidates::Intersect(a, b);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.At(0), 5u);
}

TEST(CandidatesTest, IntersectSparse) {
  auto a = Candidates::FromVector({1, 3, 5, 7});
  auto b = Candidates::FromVector({3, 4, 7, 9});
  auto c = Candidates::Intersect(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<Oid>{3, 7}));
}

TEST(CandidatesTest, UnionAndDifference) {
  auto a = Candidates::FromVector({1, 3, 5});
  auto b = Candidates::FromVector({2, 3, 6});
  EXPECT_EQ(Candidates::Union(a, b).ToVector(),
            (std::vector<Oid>{1, 2, 3, 5, 6}));
  auto domain = Candidates::Range(0, 7);
  EXPECT_EQ(Candidates::Difference(domain, a).ToVector(),
            (std::vector<Oid>{0, 2, 4, 6}));
}

TEST(CandidatesTest, EmptyBehaviour) {
  Candidates empty;
  EXPECT_TRUE(empty.empty());
  auto a = Candidates::Range(0, 5);
  EXPECT_EQ(Candidates::Intersect(empty, a).size(), 0u);
  EXPECT_EQ(Candidates::Union(empty, a).size(), 5u);
}

TEST(ColumnSetTest, FindAndRow) {
  ColumnSet cs;
  cs.names = {"a", "b"};
  cs.cols = {Bat::MakeI64({1, 2}), Bat::MakeStr({"x", "y"})};
  EXPECT_EQ(*cs.Find("b"), 1u);
  EXPECT_FALSE(cs.Find("z").ok());
  auto row = cs.Row(1);
  EXPECT_EQ(row[0].AsI64(), 2);
  EXPECT_EQ(row[1].AsStr(), "y");
  EXPECT_NE(cs.ToString().find("a"), std::string::npos);
}

}  // namespace
}  // namespace dc
