#include <gtest/gtest.h>

#include <algorithm>
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

// ------------------------------------------------------ hostile input fuzz

// A parsed certificate must serialize back to itself, and certified
// detection over it must come back as a Status — OK or not, never an
// abort — whatever its fields claim.
void ExpectParsedCertificateIsUsable(const WatermarkCertificate& cert,
                                     const Relation& suspect,
                                     const WatermarkKeySet& keys) {
  const Result<WatermarkCertificate> again =
      WatermarkCertificate::Deserialize(cert.Serialize());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value() == cert);
  const Result<CertifiedDetection> detected =
      DetectWithCertificate(suspect, cert, keys);
  if (!detected.ok()) {
    EXPECT_FALSE(detected.status().message().empty());
  }
}

Relation SmallSuspect() {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 300;
  gen.domain_size = 80;
  gen.seed = 111;
  return GenerateKeyedCategorical(gen);
}

// Random byte flips, truncations and splices of a real certificate. Every
// mutation must parse to a Status; one that still parses must be usable.
// Run under ASan in CI, this is the no-crash guarantee for the text a
// claimant hands over.
TEST(CertificateFuzzTest, CorruptedBytesNeverCrash) {
  const CertTestData s = MakeSetup();
  const Relation suspect = SmallSuspect();
  const std::string text = s.cert.Serialize();
  std::size_t parsed = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256ss rng(seed * 0x9E3779B97F4A7C15ULL + 3);
    for (int trial = 0; trial < 60; ++trial) {
      std::string mutated = text;
      switch (rng.NextBounded(3)) {
        case 0:  // flip 1-4 random bytes
          for (std::size_t f = 1 + rng.NextBounded(4); f > 0; --f) {
            mutated[rng.NextBounded(mutated.size())] =
                static_cast<char>(rng.Next());
          }
          break;
        case 1:  // truncate
          mutated.resize(rng.NextBounded(mutated.size() + 1));
          break;
        case 2: {  // splice random bytes over a random range
          const std::size_t at = rng.NextBounded(mutated.size());
          const std::size_t len = std::min<std::size_t>(
              rng.NextBounded(64), mutated.size() - at);
          for (std::size_t i = 0; i < len; ++i) {
            mutated[at + i] = static_cast<char>(rng.Next());
          }
          break;
        }
      }
      const Result<WatermarkCertificate> cert =
          WatermarkCertificate::Deserialize(mutated);
      if (!cert.ok()) {
        EXPECT_FALSE(cert.status().message().empty());
        continue;
      }
      ++parsed;
      ExpectParsedCertificateIsUsable(cert.value(), suspect, s.keys);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Some mutations land in free text (the description) and must still
  // parse; the sweep is not only a rejection test.
  EXPECT_GT(parsed, 0u);
}

// Field-grammar fuzz: certificates assembled line by line from the real
// field names (plus unknown ones), each given a value that is valid for
// some field or hostile for all — empty, signed, huge, non-numeric, NaN,
// bad hex, stray '=' and ',', control bytes — with fields dropped,
// duplicated and reordered, and blank or whitespace-padded lines; then the
// forged identity-ECC / huge-payload / all-zero-mark combination.
TEST(CertificateFuzzTest, FieldGrammarNeverCrashes) {
  const CertTestData s = MakeSetup();
  const Relation suspect = SmallSuspect();
  // The real certificate's own lines, as (field, value) pairs.
  std::vector<std::pair<std::string, std::string>> real;
  {
    const std::string text = s.cert.Serialize();
    std::size_t pos = text.find('\n') + 1;
    while (pos < text.size()) {
      const std::size_t eol = text.find('\n', pos);
      const std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      const std::size_t eq = line.find('=');
      real.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
  }
  std::vector<std::string> names;
  std::vector<std::string> values;
  for (const auto& [name, value] : real) {
    names.push_back(name);
    values.push_back(value);
  }
  names.insert(names.end(), {"", "E", "e ", " e", "domain2", "wm\x01"});
  values.insert(
      values.end(),
      {"", "0", "1", "-1", "+1", "18446744073709551615",
       "18446744073709551616", "4294967295", "4294967296", "1e3", "0x10",
       "nan", "-inf", "1.5", "0.5,0.5", ",", ",,", "=", "a=b", "s:", "s:zz",
       "i:", "i:1x", "d:", "s:6", "z:00", "0,1,2e-3", "modulo", "msb",
       "identity", "block-repetition", "hamming74", "sha1", "siphash24",
       "keyed-hash", "01", "102", "0000000000000000",
       std::string(300, '1'), std::string(4096, 'f'), "\t", "\r", "\x7f",
       "\xff\xfe", std::string("a\0b", 3)});

  std::size_t parsed = 0;
  Xoshiro256ss rng(0xCE27F1ULL);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = rng.NextBool(0.95) ? "catmark-certificate-v1\n"
                                          : " catmark-certificate-v1 \r\n";
    // Mostly the real fields in their order, each maybe dropped, replaced,
    // duplicated, padded or moved; sometimes a pile of random lines.
    std::vector<std::string> lines;
    if (rng.NextBool(0.8)) {
      for (const auto& [name, value] : real) {
        if (rng.NextBool(0.05)) continue;
        const std::string& v =
            rng.NextBool(0.15) ? values[rng.NextBounded(values.size())]
                               : value;
        lines.push_back(name + "=" + v);
        if (rng.NextBool(0.03)) lines.push_back(lines.back());
      }
      if (rng.NextBool(0.3) && lines.size() > 1) {
        std::swap(lines[rng.NextBounded(lines.size())],
                  lines[rng.NextBounded(lines.size())]);
      }
    } else {
      for (std::size_t k = rng.NextBounded(20); k > 0; --k) {
        lines.push_back(names[rng.NextBounded(names.size())] + "=" +
                        values[rng.NextBounded(values.size())]);
      }
    }
    for (const std::string& line : lines) {
      if (rng.NextBool(0.02)) text += "\n";
      if (rng.NextBool(0.02)) text += "  ";
      text += line;
      if (rng.NextBool(0.98)) text += "\n";
    }
    const Result<WatermarkCertificate> cert =
        WatermarkCertificate::Deserialize(text);
    if (!cert.ok()) {
      EXPECT_FALSE(cert.status().message().empty());
      continue;
    }
    ++parsed;
    ExpectParsedCertificateIsUsable(cert.value(), suspect, s.keys);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(parsed, 0u);

  // The forged combination that erases nearly every vote: identity ECC, the
  // largest payload and an all-zero mark. It parses, and certified
  // detection over it returns a verdict without allocating per slot.
  std::string forged = s.cert.Serialize();
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"ecc", "identity"},
           {"payload_length", "4294967295"},
           {"wm", "0000000000000000"}}) {
    const std::size_t begin = forged.find("\n" + key + "=") + 1;
    const std::size_t end = forged.find('\n', begin);
    forged.replace(begin, end - begin, key + "=" + value);
  }
  const Result<WatermarkCertificate> cert =
      WatermarkCertificate::Deserialize(forged);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  ExpectParsedCertificateIsUsable(cert.value(), suspect, s.keys);
}

}  // namespace
}  // namespace catmark
