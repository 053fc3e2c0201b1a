// The keyed-PRF subsystem: reference vectors per backend (published
// SipHash-2-4 vectors, RFC 4231 HMAC-SHA256 cases), the default backend
// against a hand-built H(k;V;k) sandwich, batch-vs-single-shot identity,
// and the --prf / CATMARK_PRF name validation.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "crypto/keyed_hash.h"
#include "crypto/md5.h"
#include "crypto/prf.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/siphash.h"
#include "relation/value.h"

namespace catmark {
namespace {

// ----------------------------------------------------------- raw SipHash-2-4

// The published reference vectors (Aumasson & Bernstein's SipHash
// repository, vectors_sip64): key = 00 01 .. 0f, message i = bytes
// 00 01 .. i-1, SipHash-2-4 64-bit output read little-endian. Sixteen
// lengths cover every tail residue (0..7 bytes) on both sides of a full
// 8-byte block.
TEST(SipHashTest, ReferenceVectors) {
  const std::uint64_t kExpected[16] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
      0x9e0082df0ba9e4b0ULL, 0x7a5dbbc594ddb9f3ULL, 0xf4b32f46226bada7ULL,
      0x751e8fbc860ee5fbULL, 0x14ea5627c0843d90ULL, 0xf723ca908e7af2eeULL,
      0xa129ca6149be45e5ULL,
  };
  std::uint8_t key[16];
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  std::uint8_t message[16];
  for (int i = 0; i < 16; ++i) message[i] = static_cast<std::uint8_t>(i);
  for (std::size_t len = 0; len < 16; ++len) {
    EXPECT_EQ(SipHash24(key, message, len), kExpected[len])
        << "message length " << len;
  }
}

TEST(SipHashTest, KeySplitIsLittleEndian) {
  std::uint8_t key[16];
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  const std::uint8_t msg[3] = {0, 1, 2};
  EXPECT_EQ(SipHash24(key, msg, 3),
            SipHash24(0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL, msg, 3));
}

// -------------------------------------------------------------- name/registry

TEST(PrfRegistryTest, NamesRoundTrip) {
  for (const PrfKind kind : {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                             PrfKind::kSipHash24}) {
    const Result<PrfKind> back = PrfKindFromName(PrfKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), kind);
  }
}

TEST(PrfRegistryTest, UnknownNameListsRegisteredBackends) {
  const Result<PrfKind> r = PrfKindFromName("blake3");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().ToString().find("keyed-hash"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("hmac-sha256"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("siphash24"), std::string::npos);
}

TEST(PrfRegistryTest, NameMatchingIsExact) {
  // Mirrors the ResolveThreadCountEnv strictness: no case folding, no
  // trimming — "SIPHASH24" or "siphash24 " must not silently select a
  // backend the user did not spell.
  for (const char* bad : {"SIPHASH24", " siphash24", "siphash24 ",
                          "siphash-24", "keyed_hash", "hmac", "sha256"}) {
    EXPECT_FALSE(PrfKindFromName(bad).ok()) << bad;
  }
}

TEST(PrfRegistryTest, EnvUnsetFallsBackPerCaller) {
  for (const PrfKind fallback : {PrfKind::kKeyedHash, PrfKind::kSipHash24}) {
    const Result<PrfKind> unset = ResolvePrfKindEnv(nullptr, fallback);
    ASSERT_TRUE(unset.ok());
    EXPECT_EQ(unset.value(), fallback);
    const Result<PrfKind> empty = ResolvePrfKindEnv("", fallback);
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty.value(), fallback);
  }
}

TEST(PrfRegistryTest, EnvGarbageIsInvalidArgumentNotFallback) {
  // An ignored CATMARK_PRF typo would run detection under the wrong
  // primitive and read as a destroyed watermark — so unlike
  // CATMARK_THREADS, garbage here is an error, not a fallback.
  for (const char* bad : {"bogus", "0", "siphash", "keyedhash", "auto"}) {
    const Result<PrfKind> r = ResolvePrfKindEnv(bad, PrfKind::kKeyedHash);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << bad;
  }
}

TEST(PrfRegistryTest, ExplicitParamsChoiceSkipsTheEnvironment) {
  const Result<PrfKind> r = ResolvePrfKind(PrfKind::kSipHash24);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), PrfKind::kSipHash24);
}

// ----------------------------------------------------------------- backends

// H(V, k) = crypto_hash(k ; V ; k) (Section 2.2), built by hand from the
// raw hash so the backend is checked against the paper, not against itself.
template <typename H>
std::uint64_t HandBuiltSandwich(const SecretKey& key, std::string_view msg) {
  H h;
  h.Update(key.bytes().data(), key.bytes().size());
  h.Update(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  h.Update(key.bytes().data(), key.bytes().size());
  return h.Finish().ToUint64();
}

TEST(KeyedPrfTest, KeyedHashBackendMatchesHandBuiltSandwich) {
  const SecretKey key = SecretKey::FromPassphrase("golden");
  for (const std::string_view msg :
       {std::string_view(""), std::string_view("watermark"),
        std::string_view("a much longer message that crosses the "
                         "64-byte compression-block boundary of the "
                         "underlying hash function")}) {
    EXPECT_EQ(CreateKeyedPrf(PrfKind::kKeyedHash, key, HashAlgorithm::kMd5)
                  ->Hash64(msg),
              HandBuiltSandwich<Md5>(key, msg));
    EXPECT_EQ(CreateKeyedPrf(PrfKind::kKeyedHash, key, HashAlgorithm::kSha1)
                  ->Hash64(msg),
              HandBuiltSandwich<Sha1>(key, msg));
    EXPECT_EQ(
        CreateKeyedPrf(PrfKind::kKeyedHash, key, HashAlgorithm::kSha256)
            ->Hash64(msg),
        HandBuiltSandwich<Sha256>(key, msg));
  }
}

TEST(KeyedPrfTest, KeyedHashBackendMatchesGoldenVectors) {
  // The pinned H(V,k1) values from golden_test.cc: the default PRF backend
  // must keep producing them, or deployed watermarks orphan.
  const SecretKey k1 = SecretKey::FromPassphrase("golden/k1");
  const auto prf = CreateKeyedPrf(PrfKind::kKeyedHash, k1);
  const std::uint8_t one_be[8] = {0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(prf->Hash64(one_be, 8), 0x1a6a2a152f01c4e4ULL);
  EXPECT_EQ(prf->Hash64(std::string_view("watermark")),
            0x5c16678f632a5643ULL);
}

TEST(KeyedPrfTest, HmacBackendMatchesRfc4231Vectors) {
  // RFC 4231 test case 1: the PRF truncation is the first 8 digest bytes
  // big-endian, so Hash64 must equal the digest prefix.
  const SecretKey key1 =
      SecretKey::FromBytes(std::vector<std::uint8_t>(20, 0x0b));
  const auto prf1 = CreateKeyedPrf(PrfKind::kHmacSha256, key1);
  EXPECT_EQ(prf1->Hash64(std::string_view("Hi There")),
            0xb0344c61d8db3853ULL);

  // RFC 4231 test case 2 ("Jefe").
  const std::string jefe = "Jefe";
  const SecretKey key2 = SecretKey::FromBytes(
      std::vector<std::uint8_t>(jefe.begin(), jefe.end()));
  const auto prf2 = CreateKeyedPrf(PrfKind::kHmacSha256, key2);
  EXPECT_EQ(prf2->Hash64(std::string_view("what do ya want for nothing?")),
            0x5bdcc146bf60754eULL);
}

TEST(KeyedPrfTest, SipHashBackendIsDeterministicAndKeyed) {
  const auto a =
      CreateKeyedPrf(PrfKind::kSipHash24, SecretKey::FromSeed(1));
  const auto a2 =
      CreateKeyedPrf(PrfKind::kSipHash24, SecretKey::FromSeed(1));
  const auto b =
      CreateKeyedPrf(PrfKind::kSipHash24, SecretKey::FromSeed(2));
  EXPECT_EQ(a->Hash64(std::string_view("msg")),
            a2->Hash64(std::string_view("msg")));
  EXPECT_NE(a->Hash64(std::string_view("msg")),
            b->Hash64(std::string_view("msg")));
}

TEST(KeyedPrfTest, BackendsDisagreeWithEachOther) {
  // Sanity: selecting a different backend really changes the channel.
  const SecretKey key = SecretKey::FromSeed(7);
  const auto kh = CreateKeyedPrf(PrfKind::kKeyedHash, key);
  const auto hmac = CreateKeyedPrf(PrfKind::kHmacSha256, key);
  const auto sip = CreateKeyedPrf(PrfKind::kSipHash24, key);
  const std::string_view msg = "tuple-key";
  EXPECT_NE(kh->Hash64(msg), hmac->Hash64(msg));
  EXPECT_NE(kh->Hash64(msg), sip->Hash64(msg));
  EXPECT_NE(hmac->Hash64(msg), sip->Hash64(msg));
}

TEST(KeyedPrfTest, Hash64ArenaMatchesSingleShotForEveryBackend) {
  std::vector<std::string> inputs;
  for (int i = 0; i < 300; ++i) {
    inputs.push_back("key-" + std::to_string(i * 7919));
  }
  inputs.push_back("");  // empty message
  inputs.push_back(std::string(200, 'x'));
  std::vector<std::uint8_t> arena;
  std::vector<std::size_t> bounds = {0};
  for (const std::string& in : inputs) {
    arena.insert(arena.end(), in.begin(), in.end());
    bounds.push_back(arena.size());
  }
  for (const PrfKind kind : {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                             PrfKind::kSipHash24}) {
    const auto prf = CreateKeyedPrf(kind, SecretKey::FromSeed(42));
    std::vector<std::uint64_t> batch(inputs.size(), 0);
    prf->Hash64Arena(arena.data(), std::span<const std::size_t>(bounds),
                     batch);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(batch[i], prf->Hash64(inputs[i]))
          << PrfKindName(kind) << " input " << i;
    }
  }
}

TEST(KeyedPrfTest, Hash64ArenaBoundsEdgesForEveryBackend) {
  // The arena API's degenerate shapes, for every backend: a zero-message
  // span is bounds == {0} with an empty out (nothing may be read from the
  // arena pointer, which is null here), a single empty message is bounds ==
  // {0, 0}, and empty messages may sit between non-empty ones. None of
  // these may underflow the bounds arithmetic or touch out-of-range arena
  // bytes.
  for (const PrfKind kind : {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                             PrfKind::kSipHash24}) {
    const auto prf = CreateKeyedPrf(kind, SecretKey::FromSeed(11));

    const std::size_t empty_bounds[1] = {0};
    prf->Hash64Arena(nullptr, std::span<const std::size_t>(empty_bounds),
                     std::span<std::uint64_t>());  // must not crash

    const std::size_t one_empty[2] = {0, 0};
    std::uint64_t out1[1] = {~0ULL};
    prf->Hash64Arena(nullptr, std::span<const std::size_t>(one_empty), out1);
    EXPECT_EQ(out1[0], prf->Hash64(std::string_view()))
        << PrfKindName(kind) << " single empty message";

    // Empty messages interleaved with real ones: {"", "ab", "", "c", ""}.
    const std::uint8_t arena[3] = {'a', 'b', 'c'};
    const std::size_t bounds[6] = {0, 0, 2, 2, 3, 3};
    std::uint64_t out5[5];
    prf->Hash64Arena(arena, std::span<const std::size_t>(bounds), out5);
    const std::string_view msgs[5] = {"", "ab", "", "c", ""};
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(out5[i], prf->Hash64(msgs[i]))
          << PrfKindName(kind) << " message " << i;
    }
  }
}

TEST(KeyedPrfTest, Hash64ArenaEqualLengthEdgesForEveryBackend) {
  // Equal-length batches take siphash24's constant-stride path: 40
  // zero-length messages, and 37 two-byte messages that start past the
  // arena's first byte (a bounds subspan of a larger block). Both counts
  // cover whole lane groups of every width plus a tail.
  for (const PrfKind kind : {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                             PrfKind::kSipHash24}) {
    const auto prf = CreateKeyedPrf(kind, SecretKey::FromSeed(12));

    const std::vector<std::size_t> empties(41, 0);
    std::vector<std::uint64_t> out_empty(40, ~0ULL);
    prf->Hash64Arena(nullptr, std::span<const std::size_t>(empties),
                     out_empty);
    for (std::size_t i = 0; i < out_empty.size(); ++i) {
      EXPECT_EQ(out_empty[i], prf->Hash64(std::string_view()))
          << PrfKindName(kind) << " empty message " << i;
    }

    std::vector<std::uint8_t> arena(1 + 2 * 37);
    std::vector<std::size_t> bounds;
    for (std::size_t i = 0; i < arena.size(); ++i) {
      arena[i] = static_cast<std::uint8_t>(i * 29 + 3);
      if (i % 2 == 1) bounds.push_back(i);
    }
    bounds.push_back(arena.size());
    std::vector<std::uint64_t> out(37);
    prf->Hash64Arena(arena.data(), std::span<const std::size_t>(bounds), out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], prf->Hash64(arena.data() + 1 + 2 * i, 2))
          << PrfKindName(kind) << " message " << i;
    }
  }
}

TEST(KeyedPrfTest, Hash64Int64KeysForEveryBackend) {
  // The typed batch form must agree with hashing each key's canonical
  // serialization (Value::SerializeForHash) for every backend, including
  // the SipHash24 override that feeds the SIMD int64 kernels.
  const std::vector<std::int64_t> vals = {
      0,
      1,
      -1,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      42,
      -99999,
      0x0102030405060708LL};
  for (const PrfKind kind : {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                             PrfKind::kSipHash24}) {
    const auto prf = CreateKeyedPrf(kind, SecretKey::FromSeed(31));

    prf->Hash64Int64Keys(nullptr, 0, std::span<std::uint64_t>());

    std::vector<std::uint64_t> out(vals.size());
    prf->Hash64Int64Keys(vals.data(), vals.size(), out);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      std::vector<std::uint8_t> bytes;
      Value(vals[i]).SerializeForHash(bytes);
      EXPECT_EQ(out[i], prf->Hash64(bytes.data(), bytes.size()))
          << PrfKindName(kind) << " value " << vals[i];
    }
  }
}

TEST(KeyedPrfTest, NameMatchesKind) {
  for (const PrfKind kind : {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                             PrfKind::kSipHash24}) {
    const auto prf = CreateKeyedPrf(kind, SecretKey::FromSeed(5));
    EXPECT_EQ(prf->kind(), kind);
    EXPECT_EQ(prf->Name(), PrfKindName(kind));
  }
}

}  // namespace
}  // namespace catmark
