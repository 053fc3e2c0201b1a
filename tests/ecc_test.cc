#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "ecc/code.h"
#include "ecc/hamming.h"
#include "ecc/identity.h"
#include "ecc/interleaver.h"
#include "ecc/majority.h"
#include "ecc/repetition.h"
#include "random/rng.h"

namespace catmark {
namespace {

BitVector RandomBits(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return BitVector::FromGenerator(n, [&] { return rng.Next(); });
}

/// Detection's view of a payload: one ±1 run per present position; an
/// erased position has no run.
struct Payload {
  std::vector<SlotVote> runs;
  std::size_t length = 0;
};

Payload WithErasures(const BitVector& bits, const BitVector& present) {
  Payload p;
  p.length = bits.size();
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (present.Get(i)) p.runs.push_back({i, bits.Get(i) ? 1 : -1});
  }
  return p;
}

Payload FullyPresent(const BitVector& bits) {
  return WithErasures(bits, BitVector(bits.size(), 1));
}

Result<BitVector> Decode(const ErrorCorrectingCode& code, const Payload& p,
                         std::size_t wm_len) {
  Result<DecodedMark> decoded = code.Decode(p.runs, p.length, wm_len);
  if (!decoded.ok()) return decoded.status();
  return std::move(decoded).value().wm;
}

// --------------------------------------------------------- shared contract

/// Parameterized over (EccKind, wm_len, payload_len): every code must
/// satisfy decode(encode(wm)) == wm on an undamaged payload.
class EccRoundTripTest
    : public ::testing::TestWithParam<std::tuple<EccKind, int, int>> {};

TEST_P(EccRoundTripTest, CleanRoundTrip) {
  const auto [kind, wm_len, payload_len] = GetParam();
  const auto code = CreateEcc(kind);
  const BitVector wm = RandomBits(static_cast<std::size_t>(wm_len), 99);
  if (static_cast<std::size_t>(payload_len) <
      code->MinPayloadLength(wm.size())) {
    EXPECT_FALSE(code->Encode(wm, static_cast<std::size_t>(payload_len)).ok());
    return;
  }
  const BitVector payload =
      code->Encode(wm, static_cast<std::size_t>(payload_len)).value();
  EXPECT_EQ(payload.size(), static_cast<std::size_t>(payload_len));
  const BitVector decoded =
      Decode(*code, FullyPresent(payload), wm.size()).value();
  EXPECT_EQ(decoded, wm) << EccKindName(kind) << " wm=" << wm_len
                         << " payload=" << payload_len;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, EccRoundTripTest,
    ::testing::Combine(::testing::Values(EccKind::kMajorityVoting,
                                         EccKind::kIdentity,
                                         EccKind::kBlockRepetition,
                                         EccKind::kHamming74),
                       ::testing::Values(1, 4, 10, 32),
                       ::testing::Values(10, 64, 100, 1000)));

// ---------------------------------------------------------- majority code

TEST(MajorityTest, EncodeRepeatsCyclically) {
  MajorityVotingCode code;
  const BitVector wm = BitVector::FromString("101").value();
  const BitVector payload = code.Encode(wm, 8).value();
  EXPECT_EQ(payload.ToString(), "10110110");
}

TEST(MajorityTest, ToleratesMinorityFlips) {
  MajorityVotingCode code;
  const BitVector wm = RandomBits(10, 1);
  BitVector payload = code.Encode(wm, 1000).value();
  // Flip 30% of positions: each wm bit has 100 votes, 30 wrong — majority
  // still correct with overwhelming probability.
  Xoshiro256ss rng(2);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (rng.NextBool(0.3)) payload.Flip(i);
  }
  EXPECT_EQ(Decode(code, FullyPresent(payload), 10).value(), wm);
}

TEST(MajorityTest, ToleratesMassiveErasure) {
  MajorityVotingCode code;
  const BitVector wm = RandomBits(10, 3);
  const BitVector payload = code.Encode(wm, 1000).value();
  BitVector present(payload.size());
  // Only 5% of positions survive — still >= ~5 clean votes per bit.
  Xoshiro256ss rng(4);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    present.Set(i, rng.NextBool(0.05) ? 1 : 0);
  }
  EXPECT_EQ(Decode(code, WithErasures(payload, present), 10).value(), wm);
}

TEST(MajorityTest, FullyErasedDecodesToZeros) {
  MajorityVotingCode code;
  const BitVector wm = RandomBits(8, 5);
  const BitVector payload = code.Encode(wm, 100).value();
  // Every position erased: no runs at all.
  const Payload erased = WithErasures(payload, BitVector(payload.size()));
  EXPECT_EQ(Decode(code, erased, 8).value(), BitVector(8));
}

TEST(MajorityTest, RejectsEmptyWatermark) {
  MajorityVotingCode code;
  EXPECT_FALSE(code.Encode(BitVector(), 10).ok());
  EXPECT_FALSE(Decode(code, FullyPresent(BitVector(10)), 0).ok());
}

TEST(MajorityTest, RejectsSlotBeyondPayload) {
  // The runs analogue of a bits/present length mismatch: a run naming a
  // position the payload does not have.
  MajorityVotingCode code;
  Payload bad = FullyPresent(BitVector(10));
  bad.length = 9;
  EXPECT_FALSE(Decode(code, bad, 5).ok());
}

TEST(MajorityTest, RejectsUnsortedRuns) {
  MajorityVotingCode code;
  Payload bad = FullyPresent(BitVector(10));
  std::swap(bad.runs[2], bad.runs[3]);
  EXPECT_FALSE(Decode(code, bad, 5).ok());
}

TEST(MajorityTest, InsufficientBandwidthFails) {
  MajorityVotingCode code;
  EXPECT_FALSE(code.Encode(RandomBits(20, 6), 10).ok());
}

// ---------------------------------------------------------- identity code

TEST(IdentityTest, CarriesWatermarkOnce) {
  IdentityCode code;
  const BitVector wm = BitVector::FromString("1101").value();
  const BitVector payload = code.Encode(wm, 10).value();
  EXPECT_EQ(payload.ToString(), "1101000000");
}

TEST(IdentityTest, SingleFlipCorruptsOutput) {
  IdentityCode code;
  const BitVector wm = RandomBits(10, 7);
  BitVector payload = code.Encode(wm, 100).value();
  payload.Flip(3);
  const BitVector decoded = Decode(code, FullyPresent(payload), 10).value();
  EXPECT_EQ(decoded.HammingDistance(wm), 1u);  // no redundancy, no repair
}

TEST(IdentityTest, ErasedPositionsDecodeToZero) {
  IdentityCode code;
  const BitVector wm = BitVector(4, 1);
  const BitVector payload = code.Encode(wm, 8).value();
  BitVector present(8, 1);
  present.Set(2, 0);
  const BitVector decoded =
      Decode(code, WithErasures(payload, present), 4).value();
  EXPECT_EQ(decoded.ToString(), "1101");
}

// -------------------------------------------------------- block repetition

TEST(RepetitionTest, BlocksAreContiguous) {
  BlockRepetitionCode code;
  const BitVector wm = BitVector::FromString("10").value();
  const BitVector payload = code.Encode(wm, 10).value();
  EXPECT_EQ(payload.ToString(), "1111100000");
}

TEST(RepetitionTest, SurvivesUniformFlips) {
  BlockRepetitionCode code;
  const BitVector wm = RandomBits(10, 8);
  BitVector payload = code.Encode(wm, 1000).value();
  Xoshiro256ss rng(9);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (rng.NextBool(0.25)) payload.Flip(i);
  }
  EXPECT_EQ(Decode(code, FullyPresent(payload), 10).value(), wm);
}

TEST(RepetitionTest, VulnerableToBurstDamage) {
  // Contiguous damage wipes whole blocks — the weakness the keyed
  // interleaver exists to repair.
  BlockRepetitionCode code;
  const BitVector wm = BitVector(10, 1);
  BitVector payload = code.Encode(wm, 1000).value();
  for (std::size_t i = 0; i < 100; ++i) payload.Set(i, 0);  // kill block 0
  const BitVector decoded = Decode(code, FullyPresent(payload), 10).value();
  EXPECT_EQ(decoded.Get(0), 0);
  EXPECT_EQ(decoded.Get(1), 1);
}

// ----------------------------------------------------------- hamming(7,4)

TEST(HammingTest, MinPayloadLength) {
  Hamming74Code code;
  EXPECT_EQ(code.MinPayloadLength(4), 7u);
  EXPECT_EQ(code.MinPayloadLength(5), 14u);
  EXPECT_EQ(code.MinPayloadLength(10), 21u);
}

TEST(HammingTest, CorrectsOneFlipPerCodeword) {
  Hamming74Code code;
  const BitVector wm = RandomBits(8, 10);  // two codewords
  BitVector payload = code.Encode(wm, 14).value();
  payload.Flip(2);   // one error in codeword 0
  payload.Flip(9);   // one error in codeword 1
  EXPECT_EQ(Decode(code, FullyPresent(payload), 8).value(), wm);
}

TEST(HammingTest, RepetitionPlusCorrectionSurvivesNoise) {
  Hamming74Code code;
  const BitVector wm = RandomBits(10, 11);
  BitVector payload = code.Encode(wm, 2100).value();  // 100 repetitions
  Xoshiro256ss rng(12);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (rng.NextBool(0.3)) payload.Flip(i);
  }
  EXPECT_EQ(Decode(code, FullyPresent(payload), 10).value(), wm);
}

TEST(HammingTest, RejectsTooShortPayload) {
  Hamming74Code code;
  EXPECT_FALSE(code.Encode(RandomBits(10, 13), 20).ok());
}

// ------------------------------------------------------------- interleaver

TEST(InterleaverTest, RoundTripsThroughInnerCode) {
  auto code = std::make_unique<InterleavedCode>(
      std::make_unique<BlockRepetitionCode>(), SecretKey::FromSeed(42));
  const BitVector wm = RandomBits(10, 14);
  const BitVector payload = code->Encode(wm, 500).value();
  EXPECT_EQ(Decode(*code, FullyPresent(payload), 10).value(), wm);
}

TEST(InterleaverTest, PermutationIsKeyDependent) {
  InterleavedCode a(std::make_unique<IdentityCode>(), SecretKey::FromSeed(1));
  InterleavedCode b(std::make_unique<IdentityCode>(), SecretKey::FromSeed(2));
  const BitVector wm = RandomBits(16, 15);
  EXPECT_NE(a.Encode(wm, 64).value(), b.Encode(wm, 64).value());
}

TEST(InterleaverTest, EncodeBitsArePinned) {
  // The permutation's seed is the keyed hash of "interleave" under the
  // code's key (SHA-256 sandwich): these exact bits are what a deployed
  // interleaved mark was embedded with, so a change to the hash path that
  // moves a single slot must fail here.
  InterleavedCode code(std::make_unique<MajorityVotingCode>(),
                       SecretKey::FromSeed(42));
  const BitVector wm = BitVector::FromString("1011001110001011").value();
  EXPECT_EQ(code.Encode(wm, 96).value().ToString(),
            "101011011111010111111110101111000100011101110100"
            "000111111000100100010011001101010011110110010010");
}

TEST(InterleaverTest, RepairsBurstWeaknessOfBlockCode) {
  auto interleaved = std::make_unique<InterleavedCode>(
      std::make_unique<BlockRepetitionCode>(), SecretKey::FromSeed(7));
  const BitVector wm = BitVector(10, 1);
  BitVector payload = interleaved->Encode(wm, 1000).value();
  // The same burst that kills a block of the bare code (see RepetitionTest)
  // now spreads across all blocks.
  for (std::size_t i = 0; i < 100; ++i) payload.Set(i, 0);
  EXPECT_EQ(Decode(*interleaved, FullyPresent(payload), 10).value(), wm);
}

TEST(InterleaverTest, RejectsSlotBeyondPayload) {
  InterleavedCode code(std::make_unique<IdentityCode>(),
                       SecretKey::FromSeed(3));
  Payload bad = FullyPresent(BitVector(10));
  bad.length = 9;
  EXPECT_FALSE(Decode(code, bad, 5).ok());
}

// ---------------------------------------------------------------- factory

TEST(EccFactoryTest, CreatesAllKinds) {
  EXPECT_EQ(CreateEcc(EccKind::kMajorityVoting)->Name(), "majority-voting");
  EXPECT_EQ(CreateEcc(EccKind::kIdentity)->Name(), "identity");
  EXPECT_EQ(CreateEcc(EccKind::kBlockRepetition)->Name(), "block-repetition");
  EXPECT_EQ(CreateEcc(EccKind::kHamming74)->Name(), "hamming74");
}

TEST(EccFactoryTest, KindNames) {
  EXPECT_EQ(EccKindName(EccKind::kMajorityVoting), "majority-voting");
  EXPECT_EQ(EccKindName(EccKind::kHamming74), "hamming74");
}

}  // namespace
}  // namespace catmark
