#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/bits.h"
#include "common/bitvec.h"
#include "common/default_init.h"
#include "common/hex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"

namespace catmark {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad e");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad e");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad e");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kConstraintViolation),
            "ConstraintViolation");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ConstraintViolationPredicate) {
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_FALSE(Status::Internal("x").IsConstraintViolation());
}

Status ReturnIfErrorHelper(bool fail) {
  CATMARK_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::OK());
  return Status::NotFound("after");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(ReturnIfErrorHelper(true).code(), StatusCode::kInternal);
  EXPECT_EQ(ReturnIfErrorHelper(false).code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------ Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  const std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r(7);
  EXPECT_EQ(r.value_or(-1), 7);
}

Result<int> AssignOrReturnHelper(bool fail) {
  CATMARK_ASSIGN_OR_RETURN(
      const int v, fail ? Result<int>(Status::Internal("x")) : Result<int>(5));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(AssignOrReturnHelper(false).value(), 6);
  EXPECT_EQ(AssignOrReturnHelper(true).status().code(), StatusCode::kInternal);
}

// -------------------------------------------------------------------- bits

TEST(BitsTest, BitWidthMatchesPaperNotation) {
  EXPECT_EQ(BitWidth(0), 1);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(3), 2);
  EXPECT_EQ(BitWidth(4), 3);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth(16000), 14);  // the paper's departure-city example
  EXPECT_EQ(BitWidth(~std::uint64_t{0}), 64);
}

TEST(BitsTest, MsbExtractsTopBits) {
  EXPECT_EQ(Msb(0xF000000000000000ULL, 4), 0xFu);
  EXPECT_EQ(Msb(0x8000000000000000ULL, 1), 1u);
  EXPECT_EQ(Msb(0x0123456789ABCDEFULL, 8), 0x01u);
  EXPECT_EQ(Msb(42, 64), 42u);
  EXPECT_EQ(Msb(42, 0), 0u);
}

TEST(BitsTest, MsbWithNarrowWidthLeftPads) {
  // A 8-bit value, asking for the top 4 bits of its 8-bit representation.
  EXPECT_EQ(Msb(0xAB, 4, 8), 0xAu);
  EXPECT_EQ(Msb(0x0B, 4, 8), 0x0u);  // left-padded with zeroes
}

TEST(BitsTest, SetBitForcesPosition) {
  EXPECT_EQ(SetBit(0b1000, 0, 1), 0b1001u);
  EXPECT_EQ(SetBit(0b1001, 0, 0), 0b1000u);
  EXPECT_EQ(SetBit(0, 63, 1), 0x8000000000000000ULL);
  EXPECT_EQ(SetBit(0b1111, 2, 0), 0b1011u);
}

TEST(BitsTest, GetBitReadsPosition) {
  EXPECT_EQ(GetBit(0b1010, 0), 0);
  EXPECT_EQ(GetBit(0b1010, 1), 1);
  EXPECT_EQ(GetBit(0b1010, 3), 1);
}

TEST(BitsTest, SetThenGetRoundTrips) {
  for (int pos = 0; pos < 64; ++pos) {
    EXPECT_EQ(GetBit(SetBit(0, pos, 1), pos), 1);
    EXPECT_EQ(GetBit(SetBit(~std::uint64_t{0}, pos, 0), pos), 0);
  }
}

TEST(BitsTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(BitsTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
}

// ---------------------------------------------------------------- BitVector

TEST(BitVectorTest, ConstructsZeroFilled) {
  BitVector v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.PopCount(), 0u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(v.Get(i), 0);
}

TEST(BitVectorTest, ConstructsOneFilled) {
  BitVector v(70, 1);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.PopCount(), 70u);  // unused high word bits must stay clear
}

TEST(BitVectorTest, SetGetFlip) {
  BitVector v(130);
  v.Set(0, 1);
  v.Set(64, 1);
  v.Set(129, 1);
  EXPECT_EQ(v.Get(0), 1);
  EXPECT_EQ(v.Get(64), 1);
  EXPECT_EQ(v.Get(129), 1);
  EXPECT_EQ(v.PopCount(), 3u);
  v.Flip(0);
  EXPECT_EQ(v.Get(0), 0);
  v.Flip(1);
  EXPECT_EQ(v.Get(1), 1);
}

TEST(BitVectorTest, PushBackGrows) {
  BitVector v;
  for (int i = 0; i < 100; ++i) v.PushBack(i % 2);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.PopCount(), 50u);
  EXPECT_EQ(v.Get(1), 1);
  EXPECT_EQ(v.Get(98), 0);
}

TEST(BitVectorTest, FromStringParses) {
  Result<BitVector> r = BitVector::FromString("10110");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 5u);
  EXPECT_EQ(r.value().ToString(), "10110");
}

TEST(BitVectorTest, FromStringRejectsBadCharacters) {
  EXPECT_FALSE(BitVector::FromString("10120").ok());
  EXPECT_FALSE(BitVector::FromString("abc").ok());
}

TEST(BitVectorTest, FromStringEmptyIsEmpty) {
  Result<BitVector> r = BitVector::FromString("");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(BitVectorTest, HammingDistance) {
  const BitVector a = BitVector::FromString("101010").value();
  const BitVector b = BitVector::FromString("100110").value();
  EXPECT_EQ(a.HammingDistance(b), 2u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
  EXPECT_DOUBLE_EQ(a.NormalizedHammingDistance(b), 2.0 / 6.0);
}

TEST(BitVectorTest, EqualityIncludesSize) {
  const BitVector a(5);
  const BitVector b(6);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, BitVector(5));
}

TEST(BitVectorTest, FromGeneratorUsesLowBitsOfWords) {
  int calls = 0;
  const BitVector v = BitVector::FromGenerator(128, [&] {
    ++calls;
    return ~std::uint64_t{0};
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(v.PopCount(), 128u);
}

TEST(BitVectorTest, FromGeneratorPartialWord) {
  const BitVector v =
      BitVector::FromGenerator(10, [] { return std::uint64_t{0b1011}; });
  EXPECT_EQ(v.ToString(), "1101000000");
}

// ---------------------------------------------------------------------- hex

TEST(HexTest, EncodesBytes) {
  const std::vector<std::uint8_t> bytes = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(HexEncode(bytes), "deadbeef");
}

TEST(HexTest, DecodeRoundTrips) {
  const std::vector<std::uint8_t> bytes = {0x00, 0x7f, 0xff, 0x10};
  Result<std::vector<std::uint8_t>> r = HexDecode(HexEncode(bytes));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes);
}

TEST(HexTest, DecodeAcceptsUpperCase) {
  Result<std::vector<std::uint8_t>> r = HexDecode("DEADBEEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(HexEncode(r.value()), "deadbeef");
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(HexTest, DecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

// ----------------------------------------------------------------- strings

TEST(StrUtilTest, SplitPreservesEmptyFields) {
  const auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StrUtilTest, SplitSingleField) {
  const auto parts = StrSplit("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StrUtilTest, JoinInvertsSplit) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StrUtilTest, TrimRemovesWhitespace) {
  EXPECT_EQ(StrTrim("  x \t\n"), "x");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("a b"), "a b");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("watermark", "water"));
  EXPECT_FALSE(StartsWith("water", "watermark"));
  EXPECT_TRUE(EndsWith("watermark", "mark"));
  EXPECT_FALSE(EndsWith("mark", "watermark"));
}

TEST(StrUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

// ---------------------------------------------------------- DefaultInit

TEST(DefaultInitVectorTest, BehavesAsAVectorWhereValuesAreGiven) {
  DefaultInitVector<std::uint64_t> v;
  v.push_back(7);
  v.resize(4, 9);  // an explicit value fills as std::vector does
  EXPECT_EQ(v, (DefaultInitVector<std::uint64_t>{7, 9, 9, 9}));
  v.resize(2);  // shrinking keeps the prefix
  EXPECT_EQ(v, (DefaultInitVector<std::uint64_t>{7, 9}));
  // A value-less grow leaves the new slots to their owner; the old ones
  // survive the reallocation.
  v.resize(1000);
  for (std::size_t i = 2; i < v.size(); ++i) v[i] = i;
  EXPECT_EQ(v[0], 7u);
  EXPECT_EQ(v[1], 9u);
  EXPECT_EQ(v[999], 999u);
  const DefaultInitVector<std::uint64_t> copy = v;
  EXPECT_EQ(copy, v);
}

bool OnHugePageBoundary(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

TEST(DefaultInitVectorTest, LargeBuffersStartOnAHugePageBoundary) {
  for (const std::size_t bytes :
       {kHugePageBytes, kHugePageBytes + 1, 3 * kHugePageBytes + 4096}) {
    DefaultInitVector<std::uint8_t> v;
    v.resize(bytes);
    EXPECT_TRUE(OnHugePageBoundary(v.data())) << bytes;
  }
  // 12-byte elements: the rule is on bytes, not on the element count.
  struct Triple {
    std::uint32_t a, b, c;
  };
  DefaultInitVector<Triple> triples;
  triples.resize(kHugePageBytes / sizeof(Triple) + 1);
  EXPECT_TRUE(OnHugePageBoundary(triples.data()));
}

/// v[i] == i for every i < n, and v holds n elements.
void ExpectIota(const DefaultInitVector<std::uint32_t>& v, std::size_t n) {
  ASSERT_EQ(v.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != i) {
      ADD_FAILURE() << "v[" << i << "] = " << v[i];
      return;
    }
  }
}

TEST(DefaultInitVectorTest, ContentsSurviveCrossingTheHugePageThreshold) {
  // The first element count whose buffer takes the huge-page path. Every
  // reallocation below moves the contents between the two paths, and each
  // buffer must go back to the allocator that made it (the sanitizer legs
  // flag a mismatch).
  constexpr std::size_t kLarge = kHugePageBytes / sizeof(std::uint32_t);
  DefaultInitVector<std::uint32_t> v;
  for (std::uint32_t i = 0; i < kLarge + 10; ++i) v.push_back(i);
  ExpectIota(v, kLarge + 10);
  EXPECT_TRUE(OnHugePageBoundary(v.data()));

  v.reserve(4 * kLarge);
  ExpectIota(v, kLarge + 10);
  v.resize(3 * kLarge, 7);
  EXPECT_EQ(v[kLarge + 9], kLarge + 9);
  EXPECT_EQ(v[kLarge + 10], 7u);
  EXPECT_EQ(v.back(), 7u);

  v.resize(100);
  v.shrink_to_fit();
  ExpectIota(v, 100);
  EXPECT_LT(v.capacity(), kLarge);

  DefaultInitVector<std::uint32_t> large;
  for (std::uint32_t i = 0; i < 2 * kLarge; ++i) large.push_back(i);
  DefaultInitVector<std::uint32_t> small = v;
  ExpectIota(small, 100);
  small.swap(large);
  ExpectIota(small, 2 * kLarge);
  ExpectIota(large, 100);
  large = small;  // small -> large by copy-assignment
  ExpectIota(large, 2 * kLarge);
  small = v;  // large -> small
  ExpectIota(small, 100);
  DefaultInitVector<std::uint32_t> moved = std::move(large);
  ExpectIota(moved, 2 * kLarge);
  moved = std::move(small);
  ExpectIota(moved, 100);
  const DefaultInitVector<std::uint32_t> copy(2 * kLarge, 5);
  EXPECT_TRUE(OnHugePageBoundary(copy.data()));
  EXPECT_EQ(copy.front(), 5u);
  EXPECT_EQ(copy.back(), 5u);
}

}  // namespace
}  // namespace catmark
