#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/bits.h"
#include "crypto/hash.h"
#include "crypto/keyed_hash.h"
#include "crypto/md5.h"
#include "crypto/prf.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace catmark {
namespace {

// ------------------------------------------------------- MD5 (RFC 1321 A.5)

struct HashVector {
  const char* message;
  const char* digest_hex;
};

class Md5VectorTest : public ::testing::TestWithParam<HashVector> {};

TEST_P(Md5VectorTest, MatchesRfc1321) {
  Md5 md5;
  EXPECT_EQ(md5.Hash(GetParam().message).ToHex(), GetParam().digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5VectorTest,
    ::testing::Values(
        HashVector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        HashVector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        HashVector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        HashVector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        HashVector{"abcdefghijklmnopqrstuvwxyz",
                   "c3fcd3d76192e4007dfb496cca67e13b"},
        HashVector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                   "56789",
                   "d174ab98d277d9f5a5611c2c9f419d9f"},
        HashVector{"1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890",
                   "57edf4a22be3c955ac49da2e2107b67a"}));

// ------------------------------------------------------------ SHA-1 (FIPS)

class Sha1VectorTest : public ::testing::TestWithParam<HashVector> {};

TEST_P(Sha1VectorTest, MatchesFips180) {
  Sha1 sha;
  EXPECT_EQ(sha.Hash(GetParam().message).ToHex(), GetParam().digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha1VectorTest,
    ::testing::Values(
        HashVector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        HashVector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        HashVector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
        HashVector{"The quick brown fox jumps over the lazy dog",
                   "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"}));

// ---------------------------------------------------------- SHA-256 (FIPS)

class Sha256VectorTest : public ::testing::TestWithParam<HashVector> {};

TEST_P(Sha256VectorTest, MatchesFips180) {
  Sha256 sha;
  EXPECT_EQ(sha.Hash(GetParam().message).ToHex(), GetParam().digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256VectorTest,
    ::testing::Values(
        HashVector{
            "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        HashVector{
            "abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        HashVector{
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        HashVector{
            "The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"}));

// ----------------------------------------------------- streaming behaviour

TEST(HashStreamingTest, ChunkedUpdateEqualsOneShot) {
  const std::string msg(1000, 'x');
  for (const HashAlgorithm algo :
       {HashAlgorithm::kMd5, HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    auto one_shot = CreateHash(algo);
    const Digest expected = one_shot->Hash(msg);

    auto streaming = CreateHash(algo);
    streaming->Reset();
    for (std::size_t i = 0; i < msg.size(); i += 7) {
      const std::size_t n = std::min<std::size_t>(7, msg.size() - i);
      streaming->Update(
          reinterpret_cast<const std::uint8_t*>(msg.data()) + i, n);
    }
    EXPECT_EQ(streaming->Finish(), expected)
        << "algorithm " << HashAlgorithmName(algo);
  }
}

TEST(HashStreamingTest, ReusableAfterFinish) {
  Sha256 sha;
  const Digest first = sha.Hash("one");
  const Digest second = sha.Hash("two");
  const Digest first_again = sha.Hash("one");
  EXPECT_EQ(first, first_again);
  EXPECT_FALSE(first == second);
}

TEST(HashStreamingTest, MultiBlockMessages) {
  // Exercise the 64-byte block boundary paths (55/56/64/65 bytes).
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 128u, 1000u}) {
    const std::string msg(len, 'q');
    Sha256 a, b;
    a.Update(reinterpret_cast<const std::uint8_t*>(msg.data()), len);
    const Digest whole = a.Finish();
    b.Update(reinterpret_cast<const std::uint8_t*>(msg.data()), len / 2);
    b.Update(reinterpret_cast<const std::uint8_t*>(msg.data()) + len / 2,
             len - len / 2);
    EXPECT_EQ(b.Finish(), whole) << "length " << len;
  }
}

TEST(DigestTest, ToUint64IsBigEndianPrefix) {
  Digest d;
  d.size = 16;
  for (int i = 0; i < 8; ++i) {
    d.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);
  }
  EXPECT_EQ(d.ToUint64(), 0x0102030405060708ULL);
}

TEST(DigestTest, DigestSizesMatchAlgorithms) {
  EXPECT_EQ(Md5().DigestSize(), 16u);
  EXPECT_EQ(Sha1().DigestSize(), 20u);
  EXPECT_EQ(Sha256().DigestSize(), 32u);
}

TEST(HashFactoryTest, CreatesNamedAlgorithms) {
  EXPECT_EQ(CreateHash(HashAlgorithm::kMd5)->Name(), "MD5");
  EXPECT_EQ(CreateHash(HashAlgorithm::kSha1)->Name(), "SHA-1");
  EXPECT_EQ(CreateHash(HashAlgorithm::kSha256)->Name(), "SHA-256");
}

// ----------------------------------------------------------------- SecretKey

TEST(SecretKeyTest, FromPassphraseIsDeterministic) {
  const SecretKey a = SecretKey::FromPassphrase("owner-secret");
  const SecretKey b = SecretKey::FromPassphrase("owner-secret");
  const SecretKey c = SecretKey::FromPassphrase("other-secret");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.bytes().size(), 32u);
}

TEST(SecretKeyTest, FromSeedIsDeterministic) {
  EXPECT_EQ(SecretKey::FromSeed(7), SecretKey::FromSeed(7));
  EXPECT_FALSE(SecretKey::FromSeed(7) == SecretKey::FromSeed(8));
}

TEST(SecretKeyTest, FromBytesKeepsBytes) {
  const SecretKey k = SecretKey::FromBytes({1, 2, 3});
  EXPECT_EQ(k.ToHex(), "010203");
}

// ------------------------------------------------- keyed-hash PRF backend

std::unique_ptr<KeyedPrf> KeyedHash(
    const SecretKey& key, HashAlgorithm algo = HashAlgorithm::kSha256) {
  return CreateKeyedPrf(PrfKind::kKeyedHash, key, algo);
}

TEST(KeyedHashPrfTest, DeterministicPerKeyAndMessage) {
  const auto h = KeyedHash(SecretKey::FromPassphrase("k"));
  EXPECT_EQ(h->Hash64(std::string_view("msg")),
            h->Hash64(std::string_view("msg")));
  EXPECT_NE(h->Hash64(std::string_view("msg")),
            h->Hash64(std::string_view("msh")));
}

TEST(KeyedHashPrfTest, DifferentKeysDiffer) {
  const auto h1 = KeyedHash(SecretKey::FromPassphrase("k1"));
  const auto h2 = KeyedHash(SecretKey::FromPassphrase("k2"));
  EXPECT_NE(h1->Hash64(std::string_view("msg")),
            h2->Hash64(std::string_view("msg")));
}

TEST(KeyedHashPrfTest, MatchesManualKeyWrapConstruction) {
  // H(V, k) = crypto_hash(k ; V ; k), Section 2.2.
  const SecretKey key = SecretKey::FromBytes({0xAA, 0xBB});
  const auto h = KeyedHash(key, HashAlgorithm::kSha256);
  Sha256 manual;
  const std::string msg = "tuple-key";
  manual.Update(key.bytes().data(), key.bytes().size());
  manual.Update(reinterpret_cast<const std::uint8_t*>(msg.data()),
                msg.size());
  manual.Update(key.bytes().data(), key.bytes().size());
  EXPECT_EQ(h->Hash64(msg), manual.Finish().ToUint64());
}

TEST(KeyedHashPrfTest, EmptyKeyIsRejected) {
  // An empty key would make H(k ; V ; k) a plain, unkeyed hash.
  EXPECT_DEATH(KeyedHash(SecretKey()), "non-empty key");
}

TEST(KeyedHashPrfTest, AllAlgorithmsWork) {
  const SecretKey key = SecretKey::FromSeed(2);
  for (const HashAlgorithm algo :
       {HashAlgorithm::kMd5, HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    const auto h = KeyedHash(key, algo);
    EXPECT_NE(h->Hash64(std::string_view("x")), 0u)
        << HashAlgorithmName(algo);
  }
}

TEST(KeyedHashPrfTest, Hash64IsUniformishAcrossResidues) {
  // Sanity check of the fitness channel: residues mod e should be roughly
  // uniform so that ~N/e tuples are selected.
  const auto h = KeyedHash(SecretKey::FromSeed(3));
  const std::uint64_t e = 10;
  std::size_t hits = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t be[8];
    StoreBigEndian64(i, be);
    if (h->Hash64(be, sizeof(be)) % e == 0) ++hits;
  }
  const double fraction = static_cast<double>(hits) / static_cast<double>(n);
  EXPECT_NEAR(fraction, 0.1, 0.02);
}

}  // namespace
}  // namespace catmark
