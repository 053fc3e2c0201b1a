#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/certificate.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/histogram.h"
#include "relation/ops.h"
#include "random/rng.h"

namespace catmark {
namespace {

struct CertTestData {
  Relation marked;
  WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("cert-owner");
  WatermarkParams params;
  BitVector wm;
  WatermarkCertificate cert;
};

CertTestData MakeSetup() {
  CertTestData s;
  KeyedCategoricalConfig gen;
  gen.num_tuples = 5000;
  gen.domain_size = 80;
  gen.seed = 111;
  s.marked = GenerateKeyedCategorical(gen);
  s.params.e = 40;
  s.wm = MakeWatermark(10, 111);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(s.keys, s.params).Embed(s.marked, options, s.wm).value();
  const auto freqs = FrequencyHistogram::Compute(
                         s.marked, 1, report.domain)
                         .value()
                         .Frequencies();
  s.cert = WatermarkCertificate::Create(s.keys, s.params, options, report,
                                        s.wm, freqs, "ItemScan sample #1");
  return s;
}

TEST(CertificateTest, SerializationRoundTrips) {
  const CertTestData s = MakeSetup();
  const std::string text = s.cert.Serialize();
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(text).value();
  EXPECT_TRUE(back == s.cert);
}

TEST(CertificateTest, CarriesEverythingDetectionNeeds) {
  const CertTestData s = MakeSetup();
  const WatermarkCertificate cert =
      WatermarkCertificate::Deserialize(s.cert.Serialize()).value();
  // Detect purely from certificate + keys.
  const Detector detector(s.keys, cert.params);
  DetectOptions options;
  options.key_attr = cert.key_attr;
  options.target_attr = cert.target_attr;
  options.payload_length = cert.payload_length;
  options.domain = cert.domain;
  const DetectionResult detection =
      detector.Detect(s.marked, options, cert.wm.size()).value();
  EXPECT_EQ(detection.wm, cert.wm);
}

TEST(CertificateTest, KeyCommitmentVerifies) {
  const CertTestData s = MakeSetup();
  EXPECT_TRUE(s.cert.VerifyKeys(s.keys));
  EXPECT_FALSE(s.cert.VerifyKeys(WatermarkKeySet::FromPassphrase("mallory")));
}

TEST(CertificateTest, CommitmentDoesNotRevealKeys) {
  // The commitment is a single SHA-256: 64 hex chars, not the key bytes.
  const CertTestData s = MakeSetup();
  EXPECT_EQ(s.cert.key_commitment_hex.size(), 64u);
  EXPECT_EQ(s.cert.Serialize().find(s.keys.k1.ToHex()), std::string::npos);
}

TEST(CertificateTest, IntegerDomainRoundTrips) {
  SalesGenConfig gen;
  gen.num_tuples = 2000;
  gen.num_items = 50;
  Relation rel = GenerateItemScan(gen);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(112);
  WatermarkParams params;
  EmbedOptions options;
  options.key_attr = "Visit_Nbr";
  options.target_attr = "Item_Nbr";
  const BitVector wm = MakeWatermark(10, 112);
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();
  const WatermarkCertificate cert =
      WatermarkCertificate::Create(keys, params, options, report, wm);
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(cert.Serialize()).value();
  EXPECT_TRUE(back == cert);
  EXPECT_TRUE(back.domain.value(0).is_int64());
}

TEST(CertificateTest, NonDefaultParamsRoundTrip) {
  CertTestData s = MakeSetup();
  s.cert.params.ecc = EccKind::kHamming74;
  s.cert.params.hash_algo = HashAlgorithm::kSha1;
  s.cert.params.bit_index_mode = BitIndexMode::kMsbModL;
  s.cert.params.min_category_keep = 7;
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(s.cert.Serialize()).value();
  EXPECT_TRUE(back == s.cert);
}

TEST(CertificateTest, RecordsThePrfBackendUsed) {
  // Embed under the fast backend: the certificate must pin it so dispute-
  // time detection re-verifies with the right primitive.
  CertTestData s;
  KeyedCategoricalConfig gen;
  gen.num_tuples = 5000;
  gen.domain_size = 80;
  gen.seed = 111;
  s.marked = GenerateKeyedCategorical(gen);
  s.params.e = 40;
  s.params.prf = PrfKind::kSipHash24;
  s.wm = MakeWatermark(10, 111);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(s.keys, s.params).Embed(s.marked, options, s.wm).value();
  EXPECT_EQ(report.prf, PrfKind::kSipHash24);
  s.cert = WatermarkCertificate::Create(s.keys, s.params, options, report,
                                        s.wm);
  EXPECT_NE(s.cert.Serialize().find("prf=siphash24"), std::string::npos);

  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(s.cert.Serialize()).value();
  EXPECT_TRUE(back == s.cert);
  ASSERT_TRUE(back.params.prf.has_value());
  EXPECT_EQ(*back.params.prf, PrfKind::kSipHash24);

  // One-call certificate detection picks the backend up transparently.
  const CertifiedDetection result =
      DetectWithCertificate(s.marked, back, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
  EXPECT_EQ(result.detection.prf, PrfKind::kSipHash24);
}

TEST(CertificateTest, LegacyCertificateWithoutPrfFieldStillVerifies) {
  // Certificates issued before the PRF subsystem carry no prf= line; they
  // must keep deserializing and must verify with the legacy keyed hash.
  const CertTestData s = MakeSetup();
  std::string text = s.cert.Serialize();
  const std::size_t pos = text.find("prf=");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) - pos + 1);
  ASSERT_EQ(text.find("prf="), std::string::npos);

  const WatermarkCertificate legacy =
      WatermarkCertificate::Deserialize(text).value();
  ASSERT_TRUE(legacy.params.prf.has_value());
  EXPECT_EQ(*legacy.params.prf, PrfKind::kKeyedHash);
  EXPECT_TRUE(legacy == s.cert);

  const CertifiedDetection result =
      DetectWithCertificate(s.marked, legacy, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
  EXPECT_EQ(result.detection.wm, s.cert.wm);
}

TEST(CertificateTest, RejectsUnknownPrfName) {
  const CertTestData s = MakeSetup();
  std::string text = s.cert.Serialize();
  const std::size_t pos = text.find("prf=keyed-hash");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("prf=keyed-hash").size(), "prf=rot13");
  const auto result = WatermarkCertificate::Deserialize(text);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // The error teaches the valid choices.
  EXPECT_NE(result.status().ToString().find("siphash24"), std::string::npos);
}

TEST(CertificateTest, RejectsGarbage) {
  EXPECT_FALSE(WatermarkCertificate::Deserialize("not a cert").ok());
  EXPECT_FALSE(WatermarkCertificate::Deserialize(
                   "catmark-certificate-v1\nbogus_field=1\n")
                   .ok());
  EXPECT_FALSE(WatermarkCertificate::Deserialize(
                   "catmark-certificate-v1\ndescription=x\n")
                   .ok());  // missing wm/payload
}

// A claimant writes the certificate, so its integer fields are parsed
// strictly: the whole field, no sign, in range. A field that fails must be
// InvalidArgument — never read as 0 (e=0 would abort detection) or as a
// size detection would allocate vote arrays for.
TEST(CertificateTest, RejectsHostileIntegerFields) {
  const CertTestData s = MakeSetup();
  const std::string text = s.cert.Serialize();
  const auto with_field = [&](const std::string& key,
                              const std::string& value) {
    std::string out = text;
    const std::size_t begin = out.find("\n" + key + "=") + 1;
    const std::size_t end = out.find('\n', begin);
    out.replace(begin, end - begin, key + "=" + value);
    return out;
  };
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"e", "banana"},
           {"e", "0"},
           {"e", "-3"},
           {"e", "+40"},
           {"e", ""},
           {"payload_length", "400000000000"},
           {"payload_length", "12abc"},
           {"payload_length", "0"},
           {"payload_length", "9"},  // shorter than the 10-bit mark
       }) {
    const auto result =
        WatermarkCertificate::Deserialize(with_field(key, value));
    ASSERT_FALSE(result.ok()) << key << "=" << value;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << key << "=" << value;
  }
  // The bounds themselves are accepted.
  EXPECT_TRUE(WatermarkCertificate::Deserialize(with_field("e", "1")).ok());
  EXPECT_TRUE(
      WatermarkCertificate::Deserialize(with_field("payload_length", "10"))
          .ok());
  EXPECT_TRUE(WatermarkCertificate::Deserialize(
                  with_field("payload_length", "4294967295"))
                  .ok());
}

// The remaining typed fields are just as strict: min_category_keep and
// each frequency must consume the whole field and lie in range, an unknown
// bit_index_mode is an error (not modulo), and a repeated field is an
// error (not last-one-wins).
TEST(CertificateTest, RejectsHostileTypedFields) {
  const CertTestData s = MakeSetup();
  const std::string text = s.cert.Serialize();
  ASSERT_NE(text.find("\nfrequencies=0"), std::string::npos);
  const auto with_field = [&](const std::string& key,
                              const std::string& value) {
    std::string out = text;
    const std::size_t begin = out.find("\n" + key + "=") + 1;
    const std::size_t end = out.find('\n', begin);
    out.replace(begin, end - begin, key + "=" + value);
    return out;
  };
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"min_category_keep", "banana"},
           {"min_category_keep", "-1"},
           {"min_category_keep", "3x"},
           {"min_category_keep", ""},
           {"min_category_keep", "99999999999999999999"},
           {"frequencies", "0.5,banana"},
           {"frequencies", "0.5,"},
           {"frequencies", "nan"},
           {"frequencies", "inf"},
           {"frequencies", "1.5"},
           {"frequencies", "-0.25"},
           {"frequencies", "0.5, 0.25"},
           {"bit_index_mode", "bogus"},
           {"bit_index_mode", ""},
       }) {
    const auto result =
        WatermarkCertificate::Deserialize(with_field(key, value));
    ASSERT_FALSE(result.ok()) << key << "=" << value;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << key << "=" << value;
  }
  // In-range values still parse, including scientific notation.
  const auto keep0 =
      WatermarkCertificate::Deserialize(with_field("min_category_keep", "0"));
  ASSERT_TRUE(keep0.ok()) << keep0.status().ToString();
  EXPECT_EQ(keep0->params.min_category_keep, 0);
  const auto freqs =
      WatermarkCertificate::Deserialize(with_field("frequencies", "0,1,2e-3"));
  ASSERT_TRUE(freqs.ok()) << freqs.status().ToString();
  EXPECT_EQ(freqs->frequencies, (std::vector<double>{0.0, 1.0, 2e-3}));
  const auto msb =
      WatermarkCertificate::Deserialize(with_field("bit_index_mode", "msb"));
  ASSERT_TRUE(msb.ok()) << msb.status().ToString();
  EXPECT_EQ(msb->params.bit_index_mode, BitIndexMode::kMsbModL);

  // A field given twice is rejected, even with the same value.
  for (const std::string& line :
       {std::string("e=40"), std::string("wm=1"), std::string("description=x"),
        std::string("payload_length=4294967295")}) {
    const auto dup = WatermarkCertificate::Deserialize(text + line + "\n");
    ASSERT_FALSE(dup.ok()) << line;
    EXPECT_TRUE(dup.status().IsInvalidArgument()) << line;
    EXPECT_NE(dup.status().ToString().find("duplicate"), std::string::npos)
        << line;
  }
}

TEST(CertifiedDetectionTest, OneCallWorkflow) {
  const CertTestData s = MakeSetup();
  const CertifiedDetection result =
      DetectWithCertificate(s.marked, s.cert, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
  EXPECT_EQ(result.detection.wm, s.cert.wm);
}

TEST(CertifiedDetectionTest, RefusesMismatchedKeys) {
  const CertTestData s = MakeSetup();
  const auto result = DetectWithCertificate(
      s.marked, s.cert, WatermarkKeySet::FromPassphrase("impostor"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("commitment"), std::string::npos);
}

TEST(CertifiedDetectionTest, SurvivesAttackThroughCertificate) {
  const CertTestData s = MakeSetup();
  Xoshiro256ss rng(7);
  const Relation kept = SampleRows(s.marked, 0.5, rng).value();
  const CertifiedDetection result =
      DetectWithCertificate(kept, s.cert, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
}

TEST(CertificateTest, ValuesWithCommasSurvive) {
  // Hex-encoding must protect domain values containing the separators.
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}},
                              "K")
                   .value());
  for (int i = 0; i < 600; ++i) {
    rel.AppendRowUnchecked({Value(static_cast<std::int64_t>(i)),
                            Value(i % 2 ? "a,b=c" : "x\ny")});
  }
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(113);
  WatermarkParams params;
  params.e = 20;
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const BitVector wm = MakeWatermark(4, 113);
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();
  const WatermarkCertificate cert =
      WatermarkCertificate::Create(keys, params, options, report, wm);
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(cert.Serialize()).value();
  EXPECT_TRUE(back == cert);
  EXPECT_TRUE(back.domain.Contains(Value("a,b=c")));
  EXPECT_TRUE(back.domain.Contains(Value("x\ny")));
}

}  // namespace
}  // namespace catmark
