#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "core/params.h"
#include "ecc/code.h"
#include "random/rng.h"
#include "reference_scheme.h"

namespace catmark {
namespace {

constexpr EccKind kAllKinds[] = {EccKind::kMajorityVoting, EccKind::kIdentity,
                                 EccKind::kBlockRepetition,
                                 EccKind::kHamming74};

BitVector RandomBits(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return BitVector::FromGenerator(n, [&] { return rng.Next(); });
}

/// wm_data written out slot by slot through PayloadBits::Get.
BitVector Written(EccKind kind, const BitVector& wm, std::size_t len) {
  const PayloadBits bits = PayloadBits::Create(kind, wm, len).value();
  BitVector out(len);
  for (std::size_t i = 0; i < len; ++i) out.Set(i, bits.Get(i));
  return out;
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

Result<BitVector> DecodeWm(EccKind kind, const Payload& p,
                           std::size_t wm_len) {
  Result<DecodedMark> decoded = Decode(kind, p.runs, p.length, wm_len);
  if (!decoded.ok()) return decoded.status();
  return std::move(decoded).value().wm;
}

// --------------------------------------------------------- shared contract

/// Parameterized over (EccKind, |wm|, L): PayloadBits::Get must match the
/// oracle's literal wm_data at every slot, and Decode over the undamaged
/// runs must return the mark. L runs over the code's minimum, one past it,
/// 2·min + 3 and 1000.
class PayloadBitsTest
    : public ::testing::TestWithParam<std::tuple<EccKind, int, int>> {};

TEST_P(PayloadBitsTest, MatchesReferenceAndRoundTrips) {
  const auto [kind, wm_len, length_choice] = GetParam();
  const BitVector wm = RandomBits(static_cast<std::size_t>(wm_len), 99);
  const std::size_t min_len = MinPayloadLength(kind, wm.size());
  const std::size_t lengths[] = {min_len, min_len + 1, 2 * min_len + 3, 1000};
  const std::size_t len = lengths[length_choice];
  const std::string where = std::string(EccKindName(kind)) +
                            " wm=" + std::to_string(wm_len) +
                            " L=" + std::to_string(len);

  const BitVector want = reference::ReferencePayload(kind, wm, len).value();
  const BitVector got = Written(kind, wm, len);
  EXPECT_EQ(got.ToString(), want.ToString()) << where;

  EXPECT_EQ(DecodeWm(kind, FullyPresent(got), wm.size()).value(), wm)
      << where;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, PayloadBitsTest,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(1, 4, 5, 16, 17),
                       ::testing::Values(0, 1, 2, 3)));

TEST(EccContractTest, MinPayloadLengths) {
  for (const EccKind kind : {EccKind::kMajorityVoting, EccKind::kIdentity,
                             EccKind::kBlockRepetition}) {
    EXPECT_EQ(MinPayloadLength(kind, 1), 1u);
    EXPECT_EQ(MinPayloadLength(kind, 10), 10u);
  }
  EXPECT_EQ(MinPayloadLength(EccKind::kHamming74, 4), 7u);
  EXPECT_EQ(MinPayloadLength(EccKind::kHamming74, 5), 14u);
  EXPECT_EQ(MinPayloadLength(EccKind::kHamming74, 10), 21u);
}

TEST(EccContractTest, EveryCodeRejectsAnEmptyMarkOrAShortPayload) {
  for (const EccKind kind : kAllKinds) {
    const BitVector wm = RandomBits(10, 6);
    const std::size_t min_len = MinPayloadLength(kind, wm.size());
    EXPECT_TRUE(PayloadBits::Create(kind, BitVector(), 10)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(PayloadBits::Create(kind, wm, min_len - 1)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(PayloadBits::Create(kind, wm, min_len).ok());

    EXPECT_FALSE(DecodeWm(kind, FullyPresent(BitVector(10)), 0).ok());
    const Status short_payload =
        DecodeWm(kind, FullyPresent(BitVector(min_len - 1)), wm.size())
            .status();
    EXPECT_TRUE(short_payload.IsInvalidArgument()) << EccKindName(kind);
  }
}

TEST(EccContractTest, RejectsSlotBeyondPayload) {
  // The runs analogue of a bits/present length mismatch: a run naming a
  // position the payload does not have.
  for (const EccKind kind : kAllKinds) {
    Payload bad = FullyPresent(BitVector(20));
    bad.length = 19;
    EXPECT_FALSE(DecodeWm(kind, bad, 4).ok()) << EccKindName(kind);
  }
}

TEST(EccContractTest, RejectsUnsortedRuns) {
  for (const EccKind kind : kAllKinds) {
    Payload bad = FullyPresent(BitVector(20));
    std::swap(bad.runs[2], bad.runs[3]);
    EXPECT_FALSE(DecodeWm(kind, bad, 4).ok()) << EccKindName(kind);
  }
}

TEST(EccContractTest, LargestPayloadLengthHoldsOnlyTheCodeword) {
  // PayloadBits is O(|wm|) whatever L claims: the last slot of a 2^32 - 1
  // slot payload reads its position's codeword bit.
  const BitVector wm = BitVector::FromString("1011001110").value();
  const std::size_t last = kMaxPayloadLength - 1;
  const auto bit = [&](EccKind kind, std::size_t slot) {
    return PayloadBits::Create(kind, wm, kMaxPayloadLength).value().Get(slot);
  };
  EXPECT_EQ(bit(EccKind::kMajorityVoting, last), wm.Get(last % wm.size()));
  EXPECT_EQ(bit(EccKind::kIdentity, last), 0);
  EXPECT_EQ(bit(EccKind::kBlockRepetition, last), wm.Get(wm.size() - 1));
  EXPECT_EQ(bit(EccKind::kBlockRepetition, 0), wm.Get(0));
  EXPECT_EQ(bit(EccKind::kHamming74, last),
            Written(EccKind::kHamming74, wm, 21).Get(last % 21));
}

// ---------------------------------------------------------- majority code

TEST(MajorityTest, PayloadRepeatsCyclically) {
  const BitVector wm = BitVector::FromString("101").value();
  EXPECT_EQ(Written(EccKind::kMajorityVoting, wm, 8).ToString(), "10110110");
}

TEST(MajorityTest, ToleratesMinorityFlips) {
  const BitVector wm = RandomBits(10, 1);
  BitVector payload = Written(EccKind::kMajorityVoting, wm, 1000);
  // Flip 30% of positions: each wm bit has 100 votes, 30 wrong — majority
  // still correct with overwhelming probability.
  Xoshiro256ss rng(2);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (rng.NextBool(0.3)) payload.Flip(i);
  }
  EXPECT_EQ(
      DecodeWm(EccKind::kMajorityVoting, FullyPresent(payload), 10).value(),
      wm);
}

TEST(MajorityTest, ToleratesMassiveErasure) {
  const BitVector wm = RandomBits(10, 3);
  const BitVector payload = Written(EccKind::kMajorityVoting, wm, 1000);
  BitVector present(payload.size());
  // Only 5% of positions survive — still >= ~5 clean votes per bit.
  Xoshiro256ss rng(4);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    present.Set(i, rng.NextBool(0.05) ? 1 : 0);
  }
  EXPECT_EQ(DecodeWm(EccKind::kMajorityVoting, WithErasures(payload, present),
                     10)
                .value(),
            wm);
}

TEST(MajorityTest, FullyErasedDecodesToZeros) {
  // Every position erased: no runs at all.
  const Payload erased{{}, 100};
  EXPECT_EQ(DecodeWm(EccKind::kMajorityVoting, erased, 8).value(),
            BitVector(8));
}

// Regression: majority voting used to skip the payload-length check, so a
// claimed payload shorter than the mark decoded — every vote landed on the
// low bits and the rest read as erased zeros.
TEST(MajorityTest, RejectsPayloadShorterThanTheMark) {
  const Payload one_slot = FullyPresent(BitVector::FromString("1").value());
  const Status status =
      DecodeWm(EccKind::kMajorityVoting, one_slot, 16).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("payload length 1 "), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------- identity code

TEST(IdentityTest, CarriesWatermarkOnce) {
  const BitVector wm = BitVector::FromString("1101").value();
  EXPECT_EQ(Written(EccKind::kIdentity, wm, 10).ToString(), "1101000000");
}

TEST(IdentityTest, SingleFlipCorruptsOutput) {
  const BitVector wm = RandomBits(10, 7);
  BitVector payload = Written(EccKind::kIdentity, wm, 100);
  payload.Flip(3);
  const BitVector decoded =
      DecodeWm(EccKind::kIdentity, FullyPresent(payload), 10).value();
  EXPECT_EQ(decoded.HammingDistance(wm), 1u);  // no redundancy, no repair
}

TEST(IdentityTest, ErasedPositionsDecodeToZero) {
  const BitVector wm = BitVector(4, 1);
  const BitVector payload = Written(EccKind::kIdentity, wm, 8);
  BitVector present(8, 1);
  present.Set(2, 0);
  const BitVector decoded =
      DecodeWm(EccKind::kIdentity, WithErasures(payload, present), 4).value();
  EXPECT_EQ(decoded.ToString(), "1101");
}

// -------------------------------------------------------- block repetition

TEST(RepetitionTest, BlocksAreContiguous) {
  EXPECT_EQ(Written(EccKind::kBlockRepetition,
                    BitVector::FromString("10").value(), 10)
                .ToString(),
            "1111100000");
  // Block j covers the slots i with j·L <= i·|wm| < (j+1)·L.
  EXPECT_EQ(Written(EccKind::kBlockRepetition,
                    BitVector::FromString("101").value(), 10)
                .ToString(),
            "1111000111");
}

TEST(RepetitionTest, SurvivesUniformFlips) {
  const BitVector wm = RandomBits(10, 8);
  BitVector payload = Written(EccKind::kBlockRepetition, wm, 1000);
  Xoshiro256ss rng(9);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (rng.NextBool(0.25)) payload.Flip(i);
  }
  EXPECT_EQ(
      DecodeWm(EccKind::kBlockRepetition, FullyPresent(payload), 10).value(),
      wm);
}

TEST(RepetitionTest, VulnerableToBurstDamage) {
  // Contiguous damage wipes whole blocks, which majority voting's cyclic
  // spread would have shared out over every bit.
  const BitVector wm = BitVector(10, 1);
  BitVector payload = Written(EccKind::kBlockRepetition, wm, 1000);
  for (std::size_t i = 0; i < 100; ++i) payload.Set(i, 0);  // kill block 0
  const BitVector decoded =
      DecodeWm(EccKind::kBlockRepetition, FullyPresent(payload), 10).value();
  EXPECT_EQ(decoded.Get(0), 0);
  EXPECT_EQ(decoded.Get(1), 1);
}

// ----------------------------------------------------------- hamming(7,4)

TEST(HammingTest, CodewordsArePinned) {
  // 1011 -> [p1 p2 d1 p3 d2 d3 d4] = 0110011; the last bit 0, zero-padded
  // to 0000 -> 0000000; the codeword string then repeats. 0001 -> 1101001.
  const BitVector wm = BitVector::FromString("10110").value();
  EXPECT_EQ(Written(EccKind::kHamming74, wm, 16).ToString(),
            "0110011" "0000000" "01");
  EXPECT_EQ(Written(EccKind::kHamming74, BitVector::FromString("0001").value(),
                    7)
                .ToString(),
            "1101001");
}

TEST(HammingTest, CorrectsOneFlipPerCodeword) {
  const BitVector wm = RandomBits(8, 10);  // two codewords
  BitVector payload = Written(EccKind::kHamming74, wm, 14);
  payload.Flip(2);  // one error in codeword 0
  payload.Flip(9);  // one error in codeword 1
  EXPECT_EQ(DecodeWm(EccKind::kHamming74, FullyPresent(payload), 8).value(),
            wm);
}

TEST(HammingTest, RepetitionPlusCorrectionSurvivesNoise) {
  const BitVector wm = RandomBits(10, 11);
  BitVector payload = Written(EccKind::kHamming74, wm, 2100);  // 100 reps
  Xoshiro256ss rng(12);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (rng.NextBool(0.3)) payload.Flip(i);
  }
  EXPECT_EQ(DecodeWm(EccKind::kHamming74, FullyPresent(payload), 10).value(),
            wm);
}

// ------------------------------------------------------------------ names

TEST(EccKindTest, NamesRoundTrip) {
  EXPECT_EQ(EccKindName(EccKind::kMajorityVoting), "majority-voting");
  EXPECT_EQ(EccKindName(EccKind::kIdentity), "identity");
  EXPECT_EQ(EccKindName(EccKind::kBlockRepetition), "block-repetition");
  EXPECT_EQ(EccKindName(EccKind::kHamming74), "hamming74");
  for (const EccKind kind : kAllKinds) {
    EXPECT_EQ(EccKindFromName(EccKindName(kind)).value(), kind);
  }
  const Status unknown = EccKindFromName("banana").status();
  EXPECT_TRUE(unknown.IsInvalidArgument());
  EXPECT_NE(unknown.ToString().find("unknown ecc 'banana'"),
            std::string::npos);
}

}  // namespace
}  // namespace catmark
