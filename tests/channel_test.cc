// The channel resolver (core/channel.h): the payload-length rule, the slot
// rule, the column half, and one table that pins the same StatusCode from
// every path that resolves a channel (embed, detect, stream, injection) for
// each refused input. Also the two forged-certificate replays: a domain of
// the wrong type, and key attribute == target attribute.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/certificate.h"
#include "core/channel.h"
#include "core/detect_engine.h"
#include "core/embedder.h"
#include "core/injection.h"
#include "relation/domain.h"
#include "service/service.h"
#include "service/session.h"
#include "test_util.h"

namespace catmark {
namespace {

using testutil::SmallKeyedRelation;
using testutil::TestKeys;
using testutil::TestWatermark;

/// Sets CATMARK_PRF for one scope (nullptr leaves it alone) and restores
/// the previous value.
class ScopedPrfEnv {
 public:
  explicit ScopedPrfEnv(const char* value) : set_(value != nullptr) {
    if (!set_) return;
    if (const char* old = std::getenv("CATMARK_PRF")) saved_ = old;
    ::setenv("CATMARK_PRF", value, 1);
  }
  ~ScopedPrfEnv() {
    if (!set_) return;
    if (saved_.has_value()) {
      ::setenv("CATMARK_PRF", saved_->c_str(), 1);
    } else {
      ::unsetenv("CATMARK_PRF");
    }
  }
  ScopedPrfEnv(const ScopedPrfEnv&) = delete;
  ScopedPrfEnv& operator=(const ScopedPrfEnv&) = delete;

 private:
  bool set_;
  std::optional<std::string> saved_;
};

TEST(PayloadLengthTest, DeriveFloorsAtWatermarkLength) {
  EXPECT_EQ(DerivePayloadLength(6000, 60, 10), 100u);
  EXPECT_EQ(DerivePayloadLength(100, 60, 10), 10u);  // N/e = 1 < |wm|
  EXPECT_EQ(DerivePayloadLength(0, 60, 10), 10u);
}

// The pinned length wins; 0 derives, which needs N/e >= 1; either must lie
// in [MinPayloadLength(ecc, |wm|), kMaxPayloadLength].
TEST(PayloadLengthTest, PinnedWinsAndRangeIsChecked) {
  WatermarkParams params;
  params.e = 60;
  EXPECT_EQ(ResolvePayloadLength(params, 6000, 10).value(), 100u);
  EXPECT_TRUE(
      ResolvePayloadLength(params, 59, 10).status().IsFailedPrecondition());
  params.payload_length = 64;
  EXPECT_EQ(ResolvePayloadLength(params, 6000, 10).value(), 64u);
  EXPECT_EQ(ResolvePayloadLength(params, 0, 10).value(), 64u);
  params.payload_length = kMaxPayloadLength;
  EXPECT_EQ(ResolvePayloadLength(params, 6000, 10).value(),
            kMaxPayloadLength);
  params.payload_length = kMaxPayloadLength + 1;
  EXPECT_TRUE(
      ResolvePayloadLength(params, 6000, 10).status().IsInvalidArgument());
  params.payload_length = 9;  // below |wm|
  EXPECT_TRUE(
      ResolvePayloadLength(params, 6000, 10).status().IsInvalidArgument());
  params.ecc = EccKind::kHamming74;
  params.payload_length = 20;  // >= |wm| but below 7 * ceil(10 / 4) = 21
  EXPECT_TRUE(
      ResolvePayloadLength(params, 6000, 10).status().IsInvalidArgument());
  params.payload_length = 21;
  EXPECT_EQ(ResolvePayloadLength(params, 6000, 10).value(), 21u);
}

TEST(ChannelTest, SlotIsThePayloadIndexRule) {
  WatermarkParams params;
  params.prf = PrfKind::kSipHash24;
  params.payload_length = 50;
  for (const BitIndexMode mode :
       {BitIndexMode::kModulo, BitIndexMode::kMsbModL}) {
    params.bit_index_mode = mode;
    const Channel channel = Channel::Create(TestKeys(), params, 0, 8).value();
    EXPECT_EQ(channel.payload_length(), 50u);
    EXPECT_EQ(channel.Slot(0), 0u);
    for (std::uint64_t h = 1; h < (std::uint64_t{1} << 63); h = h * 7 + 3) {
      EXPECT_EQ(channel.Slot(h), PayloadIndexFromHash(h, 50, mode));
    }
  }
}

// Without k2 (the embedding-map position source) the scanner finds the
// same fit keys with the same h1 and reports h2 = 0.
TEST(ChannelTest, WithoutK2TheScannerReportsNoPosition) {
  WatermarkParams params;
  params.e = 4;
  params.prf = PrfKind::kHmacSha256;
  params.payload_length = 32;
  const Channel with_k2 = Channel::Create(TestKeys(), params, 0, 8).value();
  const Channel without =
      Channel::Create(TestKeys(), params, 0, 8, /*hash_k2=*/false).value();
  std::vector<Value> keys;
  for (std::int64_t k = 0; k < 500; ++k) keys.emplace_back(k);
  const auto fits = [&](const Channel& channel) {
    std::vector<std::pair<std::size_t, std::uint64_t>> out;
    std::vector<std::uint64_t> h2s;
    FitScratch scratch;
    FitScanner scan = channel.Scanner(scratch);
    scan.Scan(
        keys.size(), [&](std::size_t i) { return &keys[i]; },
        [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
          out.emplace_back(i, h1);
          h2s.push_back(h2);
        });
    return std::make_pair(out, h2s);
  };
  const auto [fit_k2, h2_k2] = fits(with_k2);
  const auto [fit_map, h2_map] = fits(without);
  EXPECT_GT(fit_k2.size(), 50u);
  EXPECT_EQ(fit_map, fit_k2);
  EXPECT_NE(h2_k2, std::vector<std::uint64_t>(h2_k2.size(), 0));
  EXPECT_EQ(h2_map, std::vector<std::uint64_t>(h2_map.size(), 0));
}

// A given domain is borrowed, a recovered one is owned and survives moves.
TEST(ChannelColumnsTest, BorrowsAGivenDomainAndOwnsARecoveredOne) {
  const Relation rel = SmallKeyedRelation(300, 6);
  const CategoricalDomain given =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  const ChannelColumns borrowed =
      ChannelColumns::Resolve(rel, "K", "A", &given).value();
  EXPECT_EQ(&borrowed.domain(), &given);
  ChannelColumns recovered =
      ChannelColumns::Resolve(rel, "K", "A", nullptr).value();
  const ChannelColumns moved = std::move(recovered);
  EXPECT_EQ(moved.key_col(), 0u);
  EXPECT_EQ(moved.target_col(), 1u);
  EXPECT_EQ(moved.domain(), given);
}

// ---------------------------------------------------------------------
// One input, every path.

struct Inputs {
  WatermarkKeySet keys = TestKeys();
  WatermarkParams params;
  BitVector wm = TestWatermark(16);
  std::string key_attr = "K";
  std::string target_attr = "A";
  std::optional<CategoricalDomain> domain;  // unset: recover from the data
  const char* env_prf = nullptr;            // CATMARK_PRF for the case
};

// What each path returns for one input. `session` is StreamSession::Create
// and, when that succeeds, one InsertRange onto the base: the column half
// needs a relation, so a session reports it at its first insert.
struct Expected {
  StatusCode embed;
  StatusCode detect;  // DetectEngine::Create, then Detect and DetectMany
  StatusCode session;
  StatusCode inject;
};

struct Case {
  const char* name;
  std::function<void(Inputs&)> apply;
  Expected want;
};

constexpr StatusCode kOk = StatusCode::kOk;
constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
constexpr StatusCode kPrecondition = StatusCode::kFailedPrecondition;
constexpr StatusCode kNotFound = StatusCode::kNotFound;
constexpr std::size_t kRows = 600;

std::string Name(StatusCode code) {
  return std::string(StatusCodeToString(code));
}

std::vector<Case> Cases() {
  return {
      {"baseline", [](Inputs&) {}, {kOk, kOk, kOk, kOk}},
      {"k1 == k2", [](Inputs& in) { in.keys.k2 = in.keys.k1; },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
      {"e = 0", [](Inputs& in) { in.params.e = 0; },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
      {"empty mark", [](Inputs& in) { in.wm = BitVector(); },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
      {"payload_length > kMaxPayloadLength",
       [](Inputs& in) { in.params.payload_length = kMaxPayloadLength + 1; },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
      {"payload_length < MinPayloadLength",
       [](Inputs& in) {
         in.params.ecc = EccKind::kHamming74;
         in.params.payload_length = 27;  // 16 bits need 7 * 4 = 28 slots
       },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
      // A session never consults CATMARK_PRF: an unpinned PRF is refused
      // whatever the environment holds.
      {"unknown CATMARK_PRF, prf unset",
       [](Inputs& in) {
         in.params.prf.reset();
         in.env_prf = "no-such-prf";
       },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
      // A session never derives its payload length: 0 is "not pinned".
      {"N/e == 0, derived payload length",
       [](Inputs& in) {
         in.params.e = kRows + 1;
         in.params.payload_length = 0;
       },
       {kPrecondition, kPrecondition, kInvalid, kPrecondition}},
      // Only embed needs N/e >= 1 with a pinned payload length: a suspect
      // or a grown relation may hold fewer tuples than e.
      {"N/e == 0, pinned payload length",
       [](Inputs& in) { in.params.e = kRows + 1; },
       {kPrecondition, kOk, kOk, kOk}},
      {"unknown attribute", [](Inputs& in) { in.target_attr = "NOPE"; },
       {kNotFound, kNotFound, kNotFound, kNotFound}},
      {"key == target", [](Inputs& in) { in.key_attr = "A"; },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
      {"1-value domain",
       [](Inputs& in) {
         in.domain = CategoricalDomain::FromValues({Value("only")}).value();
       },
       {kPrecondition, kPrecondition, kPrecondition, kPrecondition}},
      {"wrong-typed domain",
       [](Inputs& in) {
         in.domain = CategoricalDomain::FromValues(
                         {Value(std::int64_t{1}), Value(std::int64_t{2})})
                         .value();
       },
       {kInvalid, kInvalid, kInvalid, kInvalid}},
  };
}

EmbedOptions OptionsOf(const Inputs& in) {
  EmbedOptions options;
  options.key_attr = in.key_attr;
  options.target_attr = in.target_attr;
  options.domain = in.domain;
  return options;
}

StatusCode RunEmbed(const Inputs& in, const Relation& base) {
  Relation rel = base;
  const Status s =
      Embedder(in.keys, in.params).Embed(rel, OptionsOf(in), in.wm).status();
  if (!s.ok()) {
    EXPECT_TRUE(rel.SameContent(base)) << s.ToString();
  }
  return s.code();
}

std::pair<StatusCode, StatusCode> RunDetect(const Inputs& in,
                                            const Relation& base) {
  DetectEngineOptions options;
  options.key_attr = in.key_attr;
  options.target_attr = in.target_attr;
  options.domain = in.domain.has_value() ? &*in.domain : nullptr;
  const Result<DetectEngine> engine = DetectEngine::Create(base, options);
  if (!engine.ok()) return {engine.status().code(), engine.status().code()};
  const KeyCandidate candidate{in.keys, in.params, in.wm.size()};
  return {engine->Detect(candidate).status().code(),
          engine->DetectMany(std::span<const KeyCandidate>(&candidate, 1))[0]
              .status()
              .code()};
}

StatusCode RunSession(const Inputs& in, const Relation& base) {
  SessionSpec spec;
  spec.keys = in.keys;
  spec.params = in.params;
  spec.key_attr = in.key_attr;
  spec.target_attr = in.target_attr;
  spec.domain = in.domain.has_value()
                    ? *in.domain
                    : CategoricalDomain::FromRelationColumn(base, 1).value();
  spec.wm = in.wm;
  Result<StreamSession> session = StreamSession::Create(std::move(spec));
  if (!session.ok()) return session.status().code();
  const Relation src = SmallKeyedRelation(200, 8, /*seed=*/5);
  Relation rel = base;
  const Status s = session->InsertRange(rel, src, 0, src.NumRows()).status();
  if (!s.ok()) {
    EXPECT_TRUE(rel.SameContent(base)) << s.ToString();
  }
  return s.code();
}

StatusCode RunInject(const Inputs& in, const Relation& base) {
  Relation rel = base;
  InjectionConfig config;
  config.padd = 0.01;
  const Status s = FitTupleInjector(in.keys, in.params)
                       .Inject(rel, OptionsOf(in), in.wm, config)
                       .status();
  if (!s.ok()) {
    EXPECT_TRUE(rel.SameContent(base)) << s.ToString();
  }
  return s.code();
}

TEST(ChannelChecksTest, EveryPathReturnsTheSameStatusCode) {
  const Relation base = SmallKeyedRelation(kRows, 8);
  for (const Case& c : Cases()) {
    Inputs in;
    in.params.e = 10;
    in.params.prf = PrfKind::kSipHash24;
    in.params.payload_length = 64;
    c.apply(in);
    const ScopedPrfEnv env(in.env_prf);
    const auto [detect, detect_many] = RunDetect(in, base);
    EXPECT_EQ(Name(RunEmbed(in, base)), Name(c.want.embed))
        << c.name << ": embed";
    EXPECT_EQ(Name(detect), Name(c.want.detect)) << c.name << ": Detect";
    EXPECT_EQ(Name(detect_many), Name(c.want.detect))
        << c.name << ": DetectMany";
    EXPECT_EQ(Name(RunSession(in, base)), Name(c.want.session))
        << c.name << ": stream";
    EXPECT_EQ(Name(RunInject(in, base)), Name(c.want.inject))
        << c.name << ": inject";
  }
}

// ---------------------------------------------------------------------
// Forged certificates.

struct Marked {
  Relation rel;
  WatermarkCertificate cert;
};

Marked EmbedWithCertificate(const Relation& base, const WatermarkKeySet& keys,
                            const BitVector& wm) {
  WatermarkParams params;
  params.e = 20;
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  Marked out{base, {}};
  const EmbedReport report =
      Embedder(keys, params).Embed(out.rel, options, wm).value();
  // Through the text form, as a claimant hands it in.
  out.cert = WatermarkCertificate::Deserialize(
                 WatermarkCertificate::Create(keys, params, options, report,
                                              wm)
                     .Serialize())
                 .value();
  return out;
}

// Mallory marks a copy of the base under Mallory's own key with an all-zero
// mark and rewrites the real certificate's domain as INT64 values. On the
// STRING target every cell then falls outside the domain, every bit decodes
// as 0, and the all-zero claim used to read SUPPORTED on the owner's data,
// in a sweep for every key tested against it too.
TEST(ForgedCertificateTest, WrongTypedDomainIsRefusedByDetectAndSweep) {
  const Relation base = SmallKeyedRelation(4000, 40);
  const WatermarkKeySet owner_keys = WatermarkKeySet::FromPassphrase("owner");
  const WatermarkKeySet mallory_keys =
      WatermarkKeySet::FromPassphrase("mallory");
  const Marked owner =
      EmbedWithCertificate(base, owner_keys, TestWatermark(16));
  WatermarkCertificate forged =
      EmbedWithCertificate(base, mallory_keys, BitVector(16)).cert;
  std::vector<Value> ints;
  for (std::int64_t v = 0; v < 40; ++v) ints.emplace_back(v);
  forged.domain = CategoricalDomain::FromValues(ints).value();
  forged = WatermarkCertificate::Deserialize(forged.Serialize()).value();

  const Result<CertifiedDetection> claim =
      DetectWithCertificate(owner.rel, forged, mallory_keys);
  EXPECT_TRUE(claim.status().IsInvalidArgument()) << claim.status().ToString();

  const std::vector<OwnershipCandidate> candidates = {
      {"owner", owner.cert, owner_keys},
      {"mallory", forged, mallory_keys},
      {"eve", forged, WatermarkKeySet::FromPassphrase("eve")},
  };
  const SweepReport report =
      WatermarkService()
          .SweepOwnership(owner.rel,
                          std::span<const OwnershipCandidate>(candidates))
          .value();
  ASSERT_EQ(report.ranked.size(), 1u);
  EXPECT_EQ(report.ranked[0].id, "owner");
  EXPECT_TRUE(report.ranked[0].decision.owned);
  ASSERT_EQ(report.failed.size(), 2u);
  for (const auto& [id, status] : report.failed) {
    EXPECT_TRUE(id == "mallory" || id == "eve") << id;
    EXPECT_TRUE(status.IsInvalidArgument()) << id << ": " << status.ToString();
  }
}

// The owner's own certificate with key_attr rewritten to the target
// attribute: embed refuses the pairing, and so must detection, the sweep,
// a stream (which used to rewrite the key cells of fit inserts) and the
// injector.
TEST(ForgedCertificateTest, KeyEqualToTargetIsRefusedOnEveryPath) {
  const Relation base = SmallKeyedRelation(4000, 40);
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("owner");
  const Marked owner = EmbedWithCertificate(base, keys, TestWatermark(16));
  WatermarkCertificate forged = owner.cert;
  forged.key_attr = "A";
  forged = WatermarkCertificate::Deserialize(forged.Serialize()).value();

  EXPECT_TRUE(DetectWithCertificate(owner.rel, forged, keys)
                  .status()
                  .IsInvalidArgument());

  const std::vector<OwnershipCandidate> candidates = {{"owner", forged, keys}};
  const SweepReport report =
      WatermarkService()
          .SweepOwnership(owner.rel,
                          std::span<const OwnershipCandidate>(candidates))
          .value();
  EXPECT_TRUE(report.ranked.empty());
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_TRUE(report.failed[0].second.IsInvalidArgument());

  // The stream leaves the base exactly as it was.
  const Relation rows = SmallKeyedRelation(2000, 40, /*seed=*/11);
  Relation grown = owner.rel;
  Result<StreamSession> session = StreamSession::Create(
      SessionSpec::FromCertificate(forged, keys).value());
  Status stream = session.status();
  Status refresh = session.status();
  if (session.ok()) {
    stream = session->InsertRange(grown, rows, 0, rows.NumRows()).status();
    refresh = session->Refresh(grown, 0).status();
  }
  EXPECT_TRUE(stream.IsInvalidArgument()) << stream.ToString();
  EXPECT_TRUE(refresh.IsInvalidArgument()) << refresh.ToString();
  EXPECT_EQ(grown.NumRows(), owner.rel.NumRows());
  EXPECT_TRUE(grown.SameContent(owner.rel));

  EmbedOptions options;
  options.key_attr = "A";
  options.target_attr = "A";
  Relation injected = owner.rel;
  EXPECT_TRUE(FitTupleInjector(keys, forged.params)
                  .Inject(injected, options, forged.wm, InjectionConfig{})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(injected.SameContent(owner.rel));
}

}  // namespace
}  // namespace catmark
