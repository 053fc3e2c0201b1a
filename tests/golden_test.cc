// Golden regression vectors: with everything pinned (data seed, keys, e,
// ECC), the embedding algorithm's output is part of the on-disk/contract
// surface — detectors in the field hold certificates for data marked by
// *this* exact algorithm, so any accidental change to the fitness test,
// the bit-position hash or the value-selection rule must fail loudly here
// rather than silently orphan deployed watermarks.

#include <gtest/gtest.h>

#include "core/certificate.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/csv.h"

namespace catmark {
namespace {

struct GoldenSetup {
  Relation marked;
  EmbedReport report;
  BitVector wm;
};

// `prf` nullopt = the pre-PRF-subsystem call shape (auto resolution); the
// compatibility guards below also run it with the explicit legacy backend
// and assert both are byte-identical to the pinned pre-refactor hashes.
GoldenSetup RunGoldenEmbedding(std::optional<PrfKind> prf = std::nullopt) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.domain_size = 64;
  gen.zipf_s = 1.0;
  gen.seed = 424242;
  GoldenSetup s;
  s.marked = GenerateKeyedCategorical(gen);
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("golden");
  WatermarkParams params;
  params.e = 25;
  params.prf = prf;
  s.wm = BitVector::FromString("1011001110").value();
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  s.report = Embedder(keys, params).Embed(s.marked, options, s.wm).value();
  return s;
}

TEST(GoldenTest, GeneratorIsStable) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.domain_size = 64;
  gen.seed = 424242;
  const Relation rel = GenerateKeyedCategorical(gen);
  Sha256 sha;
  EXPECT_EQ(
      sha.Hash(WriteCsvString(rel)).ToHex(),
      "a74968c3b53d067b5bf36f885cadf48e6c8ec835c801cd26b51b6cba8084a0a8");
}

TEST(GoldenTest, EmbeddingIsStable) {
  const GoldenSetup s = RunGoldenEmbedding();
  Sha256 sha;
  EXPECT_EQ(
      sha.Hash(WriteCsvString(s.marked)).ToHex(),
      "cdc9fcdcdc04480afcdb7338d8c67512911da1251e3ce1e57be25df5903c2e82");
}

TEST(GoldenTest, ReportCountsAreStable) {
  const GoldenSetup s = RunGoldenEmbedding();
  EXPECT_EQ(s.report.fit_tuples, 71u);
  EXPECT_EQ(s.report.altered_tuples, 70u);
  EXPECT_EQ(s.report.payload_length, 80u);
}

TEST(GoldenTest, KeyedHashVectorsAreStable) {
  // The exact H(V,k) values the fitness test depends on.
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("golden");
  const auto h1 = CreateKeyedPrf(PrfKind::kKeyedHash, keys.k1);
  const std::uint8_t one_be[8] = {0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(h1->Hash64(one_be, 8), 0x1a6a2a152f01c4e4ULL);
  EXPECT_EQ(h1->Hash64(std::string_view("watermark")),
            0x5c16678f632a5643ULL);
}

// --- PRF-subsystem compatibility guards -----------------------------------
//
// The keyed-PRF refactor must not move a single byte of the default
// channel: datasets watermarked (and certificates issued) before it have to
// keep verifying forever.

TEST(GoldenCompatTest, ExplicitLegacyBackendMatchesPreRefactorEmbedding) {
  // Selecting "keyed-hash" explicitly reproduces the exact pre-refactor
  // dataset (same pinned hash as GoldenTest.EmbeddingIsStable).
  const GoldenSetup s = RunGoldenEmbedding(PrfKind::kKeyedHash);
  EXPECT_EQ(s.report.prf, PrfKind::kKeyedHash);
  Sha256 sha;
  EXPECT_EQ(
      sha.Hash(WriteCsvString(s.marked)).ToHex(),
      "cdc9fcdcdc04480afcdb7338d8c67512911da1251e3ce1e57be25df5903c2e82");
}

TEST(GoldenCompatTest, CertificateRoundTripIsByteStable) {
  // The full serialized certificate of the golden embedding is part of the
  // contract surface: owners hold these files. Byte-identical round-trip,
  // and the serialization itself is pinned (a deliberate format change must
  // update this hash consciously).
  const GoldenSetup s = RunGoldenEmbedding(PrfKind::kKeyedHash);
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("golden");
  WatermarkParams params;
  params.e = 25;
  params.prf = PrfKind::kKeyedHash;
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const WatermarkCertificate cert = WatermarkCertificate::Create(
      keys, params, options, s.report, s.wm, {}, "golden");
  const std::string text = cert.Serialize();
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(text).value();
  EXPECT_TRUE(back == cert);
  EXPECT_EQ(back.Serialize(), text);
  Sha256 sha;
  EXPECT_EQ(
      sha.Hash(text).ToHex(),
      "a697187197650f046b7d1e7f83ba02aa0ce7267135248b6f35178613c5486a24");

  // And the certificate actually verifies the golden dataset.
  const CertifiedDetection result =
      DetectWithCertificate(s.marked, back, keys).value();
  EXPECT_TRUE(result.decision.owned);
}

TEST(GoldenCompatTest, SipHashEmbeddingIsStable) {
  // Pin the fast backend's output too: once users embed under siphash24,
  // its channel is as much a contract as the legacy one.
  const GoldenSetup s = RunGoldenEmbedding(PrfKind::kSipHash24);
  EXPECT_EQ(s.report.prf, PrfKind::kSipHash24);
  Sha256 sha;
  EXPECT_EQ(
      sha.Hash(WriteCsvString(s.marked)).ToHex(),
      "d325634b623a545ca00b353945cf90dd2f06ca31b9f47fc44d372f13fa2fc690");
}

}  // namespace
}  // namespace catmark
