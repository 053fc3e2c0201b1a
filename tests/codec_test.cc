#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "common/bits.h"
#include "core/codec.h"
#include "core/keys.h"

namespace catmark {
namespace {

// ---------------------------------------------------------------- fitness

std::unique_ptr<KeyedPrf> KeyedHash(const SecretKey& key) {
  return CreateKeyedPrf(PrfKind::kKeyedHash, key);
}

std::uint64_t KeyHash(const KeyedPrf& k1, const Value& v) {
  HashScratch scratch;
  return HashValue(k1, v, scratch);
}

// The Section 3.2.1 tuple rule, one key at a time: H(v, k1) mod e == 0.
bool IsFit(const KeyedPrf& k1, std::uint64_t e, const Value& v) {
  return KeyHash(k1, v) % e == 0;
}

TEST(FitnessTest, DeterministicPerKey) {
  const SecretKey k1 = SecretKey::FromSeed(1);
  const auto a = KeyedHash(k1);
  const auto b = KeyedHash(k1);
  const Value v(std::int64_t{12345});
  EXPECT_EQ(KeyHash(*a, v), KeyHash(*b, v));
  EXPECT_EQ(IsFit(*a, 10, v), IsFit(*b, 10, v));
}

TEST(FitnessTest, DifferentKeysSelectDifferentTuples) {
  const auto a = KeyedHash(SecretKey::FromSeed(1));
  const auto b = KeyedHash(SecretKey::FromSeed(2));
  int differing = 0;
  for (std::int64_t i = 0; i < 200; ++i) {
    if (IsFit(*a, 5, Value(i)) != IsFit(*b, 5, Value(i))) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FitnessTest, SelectsApproximatelyOneInE) {
  // The parameter e "determin[es] the percentage of considered tuples":
  // roughly N/e elements (Section 3.2.1 footnote 1).
  const auto k1 = KeyedHash(SecretKey::FromSeed(3));
  for (const std::uint64_t e : {10ull, 60ull, 100ull}) {
    std::size_t hits = 0;
    const std::size_t n = 30000;
    for (std::size_t i = 0; i < n; ++i) {
      if (IsFit(*k1, e, Value(static_cast<std::int64_t>(i)))) ++hits;
    }
    const double expected = static_cast<double>(n) / static_cast<double>(e);
    EXPECT_NEAR(static_cast<double>(hits), expected, 4 * std::sqrt(expected))
        << "e=" << e;
  }
}

TEST(FitnessTest, EOneSelectsEverything) {
  const auto k1 = KeyedHash(SecretKey::FromSeed(4));
  for (std::int64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(IsFit(*k1, 1, Value(i)));
  }
}

TEST(FitnessTest, StringKeysWork) {
  const auto k1 = KeyedHash(SecretKey::FromSeed(5));
  EXPECT_EQ(IsFit(*k1, 7, Value("alpha")), IsFit(*k1, 7, Value("alpha")));
}

TEST(FitnessTest, TypeTaggedHashing) {
  // INT64 7 and STRING "7" must hash differently (canonical serialization).
  const auto k1 = KeyedHash(SecretKey::FromSeed(6));
  EXPECT_NE(KeyHash(*k1, Value(std::int64_t{7})), KeyHash(*k1, Value("7")));
}

// ------------------------------------------------------------ bit position

TEST(PayloadIndexTest, ModuloModeInRange) {
  for (std::uint64_t h : {0ull, 1ull, 12345ull, ~0ull}) {
    for (std::size_t len : {1u, 7u, 100u, 4096u}) {
      EXPECT_LT(PayloadIndexFromHash(h, len, BitIndexMode::kModulo), len);
    }
  }
}

TEST(PayloadIndexTest, MsbModeInRange) {
  for (std::uint64_t h : {0ull, 1ull, 12345ull, ~0ull}) {
    for (std::size_t len : {1u, 7u, 100u, 128u}) {
      EXPECT_LT(PayloadIndexFromHash(h, len, BitIndexMode::kMsbModL), len);
    }
  }
}

TEST(PayloadIndexTest, MsbModeUsesTopBits) {
  // For a power-of-two length, msb mode uses exactly the top b(L) bits.
  const std::size_t len = 128;  // b(128) = 8
  EXPECT_EQ(PayloadIndexFromHash(0xFF00000000000000ULL, len,
                                 BitIndexMode::kMsbModL),
            0xFFu % len);
  EXPECT_EQ(PayloadIndexFromHash(0x0100000000000000ULL, len,
                                 BitIndexMode::kMsbModL),
            1u);
}

TEST(PayloadIndexTest, ModuloModeRoughlyUniform) {
  const auto h = KeyedHash(SecretKey::FromSeed(7));
  const std::size_t len = 10;
  std::vector<int> counts(len, 0);
  for (std::uint64_t i = 0; i < 50000; ++i) {
    std::uint8_t be[8];
    StoreBigEndian64(i, be);
    ++counts[PayloadIndexFromHash(h->Hash64(be, sizeof(be)), len,
                                  BitIndexMode::kModulo)];
  }
  for (int c : counts) EXPECT_NEAR(c, 5000, 400);
}

// ------------------------------------------------------------ value select

TEST(SelectValueIndexTest, ForcesLsb) {
  for (std::uint64_t h = 0; h < 1000; ++h) {
    for (const std::size_t n : {2u, 3u, 10u, 1001u}) {
      EXPECT_EQ(SelectValueIndex(h, n, 0) & 1u, 0u);
      EXPECT_EQ(SelectValueIndex(h, n, 1) & 1u, 1u);
    }
  }
}

TEST(SelectValueIndexTest, StaysInDomain) {
  for (std::uint64_t h = 0; h < 5000; ++h) {
    for (const std::size_t n : {2u, 3u, 5u, 17u, 1000u}) {
      EXPECT_LT(SelectValueIndex(h, n, 0), n);
      EXPECT_LT(SelectValueIndex(h, n, 1), n);
    }
  }
}

TEST(SelectValueIndexTest, OddDomainWrapCase) {
  // h % 5 == 4, bit 1 -> raw 5 (out of range) -> pulled back to 3.
  EXPECT_EQ(SelectValueIndex(4, 5, 1), 3u);
  EXPECT_EQ(SelectValueIndex(4, 5, 0), 4u);
}

TEST(SelectValueIndexTest, TwoValueDomain) {
  for (std::uint64_t h = 0; h < 100; ++h) {
    EXPECT_EQ(SelectValueIndex(h, 2, 0), 0u);
    EXPECT_EQ(SelectValueIndex(h, 2, 1), 1u);
  }
}

TEST(SelectValueIndexTest, ExtractInvertsSelect) {
  // The decoding rule t & 1 must read back exactly the embedded bit.
  for (std::uint64_t h = 0; h < 2000; ++h) {
    for (const std::size_t n : {2u, 3u, 10u, 999u}) {
      for (int bit : {0, 1}) {
        EXPECT_EQ(ExtractBitFromValueIndex(SelectValueIndex(h, n, bit)), bit);
      }
    }
  }
}

TEST(SelectValueIndexTest, BaseIndexVariesWithHash) {
  // The base value (before LSB forcing) must depend on the hash — the new
  // attribute value is "selected by the secret key k1 [and] the associated
  // relational primary key value", not constant.
  std::set<std::size_t> seen;
  for (std::uint64_t h = 0; h < 100; ++h) {
    seen.insert(SelectValueIndex(h, 1000, 0));
  }
  EXPECT_GT(seen.size(), 10u);
}

// --------------------------------------------------------------- key sets

TEST(KeySetTest, FromPassphraseProducesDistinctKeys) {
  const WatermarkKeySet ks = WatermarkKeySet::FromPassphrase("owner");
  EXPECT_TRUE(ks.valid());
  EXPECT_FALSE(ks.k1 == ks.k2);
}

TEST(KeySetTest, FromSeedDeterministic) {
  const WatermarkKeySet a = WatermarkKeySet::FromSeed(9);
  const WatermarkKeySet b = WatermarkKeySet::FromSeed(9);
  EXPECT_EQ(a.k1, b.k1);
  EXPECT_EQ(a.k2, b.k2);
  const WatermarkKeySet c = WatermarkKeySet::FromSeed(10);
  EXPECT_FALSE(a.k1 == c.k1);
}

TEST(KeySetTest, HashValueSeparatesKeyRoles) {
  // k1-derived and k2-derived hashes of the same tuple key must be
  // unrelated (the Section 3.2.1 "no correlation" requirement).
  const WatermarkKeySet ks = WatermarkKeySet::FromSeed(11);
  EXPECT_NE(KeyHash(*KeyedHash(ks.k1), Value(std::int64_t{42})),
            KeyHash(*KeyedHash(ks.k2), Value(std::int64_t{42})));
}

}  // namespace
}  // namespace catmark
