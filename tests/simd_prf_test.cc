// The multi-lane SipHash-2-4 backend: lane-by-lane pins against the
// published reference vectors, SIMD-vs-scalar bit-identity across random
// message lengths (including the fixed-width serialized-key shapes), the
// bounds-edge cases of the batch entry points, and end-to-end detect parity
// across forced dispatch levels x thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "crypto/siphash.h"
#include "crypto/siphash_simd.h"
#include "reference_scheme.h"
#include "relation/value.h"
#include "test_util.h"

namespace catmark {
namespace {

// The reference-vector key 00 01 .. 0f split little-endian.
constexpr std::uint64_t kVecK0 = 0x0706050403020100ULL;
constexpr std::uint64_t kVecK1 = 0x0f0e0d0c0b0a0908ULL;

/// RAII dispatch override; restores the environment/hardware default.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { ForceSimdLevel(level); }
  ~ScopedSimdLevel() { ForceSimdLevel(std::nullopt); }
};

/// Every level this machine can actually run (always includes kScalar).
std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(HardwareSimdLevel()); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

struct ArenaBatch {
  std::vector<std::uint8_t> arena;
  std::vector<std::size_t> bounds{0};

  void Add(const std::vector<std::uint8_t>& msg) {
    arena.insert(arena.end(), msg.begin(), msg.end());
    bounds.push_back(arena.size());
  }
  std::size_t size() const { return bounds.size() - 1; }
};

// ------------------------------------------------------- reference vectors

// Each of the 16 published vectors (key 00..0f, message bytes 00..i-1) must
// come out of every lane position, at every dispatch level: the batch holds
// the 16 messages plus rotations, so every (length, lane) pairing occurs.
TEST(SimdSipHashTest, ReferenceVectorsLaneByLane) {
  const std::uint64_t kExpected[16] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
      0x9e0082df0ba9e4b0ULL, 0x7a5dbbc594ddb9f3ULL, 0xf4b32f46226bada7ULL,
      0x751e8fbc860ee5fbULL, 0x14ea5627c0843d90ULL, 0xf723ca908e7af2eeULL,
      0xa129ca6149be45e5ULL,
  };
  std::vector<std::uint8_t> message(16);
  for (int i = 0; i < 16; ++i) message[i] = static_cast<std::uint8_t>(i);

  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    // rot shifts which lane each length lands in, so a lane-crossing bug
    // (swapped set_epi64x order, wrong tail lane) cannot hide.
    for (std::size_t rot = 0; rot < 16; ++rot) {
      ArenaBatch batch;
      std::vector<std::size_t> lens;
      for (std::size_t i = 0; i < 16; ++i) {
        const std::size_t len = (i + rot) % 16;
        batch.Add(std::vector<std::uint8_t>(message.begin(),
                                            message.begin() + len));
        lens.push_back(len);
      }
      std::vector<std::uint64_t> out(batch.size());
      SipHash24Batch(kVecK0, kVecK1, batch.arena.data(),
                     std::span<const std::size_t>(batch.bounds),
                     std::span<std::uint64_t>(out));
      for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(out[i], kExpected[lens[i]])
            << "level=" << SimdLevelName(level) << " rot=" << rot
            << " slot=" << i << " len=" << lens[i];
      }
    }
  }
}

// --------------------------------------------------- SIMD-vs-scalar parity

// Random message lengths 0..128 — covering the 4-byte dict-code shape, the
// 9-byte serialized-int64 shape, and both sides of every 8-byte block
// boundary — must hash bit-identically to the scalar reference at every
// dispatch level through the arena entry point.
TEST(SimdSipHashTest, RandomLengthBatchesMatchScalar) {
  std::mt19937_64 rng(2024);
  ArenaBatch batch;
  // Deterministic coverage first (every length 0..128 twice, so each
  // bucket also exercises a partial flush), then random fill.
  std::vector<std::size_t> lengths;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t len = 0; len <= 128; ++len) lengths.push_back(len);
  }
  for (int i = 0; i < 1500; ++i) {
    lengths.push_back(rng() % 129);
  }
  for (const std::size_t len : lengths) {
    std::vector<std::uint8_t> msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    batch.Add(msg);
  }

  std::vector<std::uint64_t> expected(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expected[i] = SipHash24(kVecK0, kVecK1,
                            batch.arena.data() + batch.bounds[i], lengths[i]);
  }

  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    std::vector<std::uint64_t> out(batch.size());
    SipHash24Batch(kVecK0, kVecK1, batch.arena.data(),
                   std::span<const std::size_t>(batch.bounds),
                   std::span<std::uint64_t>(out));
    EXPECT_EQ(out, expected) << "level=" << SimdLevelName(level);
  }
}

/// Bounds of `count` back-to-back messages of `len` bytes starting at arena
/// offset `first`: the equal-length batch SipHash24Batch streams at a
/// constant stride.
std::vector<std::size_t> EqualLengthBounds(std::size_t first,
                                           std::size_t len,
                                           std::size_t count) {
  std::vector<std::size_t> bounds(count + 1);
  for (std::size_t i = 0; i <= count; ++i) bounds[i] = first + i * len;
  return bounds;
}

TEST(SimdSipHashTest, FixedStrideMatchesScalar) {
  std::mt19937_64 rng(77);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                std::size_t{8}, std::size_t{9}, std::size_t{16},
                                std::size_t{33}, std::size_t{128}}) {
    // The batch may start anywhere in the arena (a bounds subspan of a
    // larger block), not just at offset 0.
    for (const std::size_t first : {std::size_t{0}, std::size_t{3}}) {
      const std::size_t count = 101;
      std::vector<std::uint8_t> buf(first + count * len + 16);
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
      std::vector<std::uint64_t> expected(count);
      for (std::size_t i = 0; i < count; ++i) {
        expected[i] =
            SipHash24(kVecK0, kVecK1, buf.data() + first + i * len, len);
      }
      const std::vector<std::size_t> bounds =
          EqualLengthBounds(first, len, count);
      for (const SimdLevel level : RunnableLevels()) {
        ScopedSimdLevel forced(level);
        std::vector<std::uint64_t> out(count);
        SipHash24Batch(kVecK0, kVecK1, buf.data(),
                       std::span<const std::size_t>(bounds),
                       std::span<std::uint64_t>(out));
        EXPECT_EQ(out, expected) << "level=" << SimdLevelName(level)
                                 << " len=" << len << " first=" << first;
      }
    }
  }
}

// The typed int64-key entry point never materializes the 9-byte record, so
// pin it against serialize + scalar SipHash for every level, every lane
// position (counts straddling the 16/8/scalar group boundaries), and the
// sign/extreme values where a byte-order bug would hide.
TEST(SimdSipHashTest, Int64KeysMatchSerializedScalar) {
  std::mt19937_64 rng(99);
  std::vector<std::int64_t> vals = {0,
                                    1,
                                    -1,
                                    std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    42,
                                    -42,
                                    0x0102030405060708LL};
  for (int i = 0; i < 500; ++i) {
    vals.push_back(static_cast<std::int64_t>(rng()));
  }
  std::vector<std::uint64_t> expected(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    std::vector<std::uint8_t> bytes;
    Value(vals[i]).SerializeForHash(bytes);
    ASSERT_EQ(bytes.size(), 9u);
    expected[i] = SipHash24(kVecK0, kVecK1, bytes.data(), bytes.size());
  }
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
          std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{13},
          std::size_t{64}, vals.size()}) {
      std::vector<std::uint64_t> out(count, 1);
      SipHash24Int64Keys(kVecK0, kVecK1, vals.data(), count,
                         std::span<std::uint64_t>(out));
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], expected[i])
            << "level=" << SimdLevelName(level) << " count=" << count
            << " i=" << i << " val=" << vals[i];
      }
    }
  }
}

// The packed fitness bitset must agree bit-for-bit with the scalar
// DivisibilityCheck at every level, for even/odd/power-of-two divisors and
// counts straddling the 64-hash word boundary; trailing bits of a partial
// last word must be zero.
TEST(SimdSipHashTest, DivisibilityMaskMatchesScalar) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> h(1000);
  for (auto& x : h) x = rng();
  // Plant guaranteed multiples so small divisors see plenty of set bits.
  for (std::size_t i = 0; i < h.size(); i += 3) h[i] = (rng() % 1000) * 60;
  for (const std::uint64_t d :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{4},
        std::uint64_t{6}, std::uint64_t{7}, std::uint64_t{12},
        std::uint64_t{60}, std::uint64_t{64}, std::uint64_t{97},
        std::uint64_t{255}, std::uint64_t{1} << 20}) {
    const DivisibilityCheck check(d);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{200}, h.size()}) {
      std::vector<std::uint64_t> expected((count + 63) / 64, 0);
      for (std::size_t i = 0; i < count; ++i) {
        if (check(h[i])) expected[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      for (const SimdLevel level : RunnableLevels()) {
        ScopedSimdLevel forced(level);
        std::vector<std::uint64_t> words((count + 63) / 64,
                                         ~std::uint64_t{0});
        DivisibilityMask64(check, h.data(), count, words.data());
        EXPECT_EQ(words, expected) << "level=" << SimdLevelName(level)
                                   << " d=" << d << " count=" << count;
      }
    }
  }
}

// Uniform-length arena batches take the fixed-stride shortcut inside
// SipHash24Batch; pin that path against the scalar loop explicitly.
TEST(SimdSipHashTest, UniformArenaMatchesScalar) {
  std::mt19937_64 rng(31);
  for (const std::size_t len : {std::size_t{4}, std::size_t{9}}) {
    ArenaBatch batch;
    for (int i = 0; i < 257; ++i) {
      std::vector<std::uint8_t> msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
      batch.Add(msg);
    }
    std::vector<std::uint64_t> expected(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expected[i] = SipHash24(kVecK0, kVecK1,
                              batch.arena.data() + batch.bounds[i], len);
    }
    for (const SimdLevel level : RunnableLevels()) {
      ScopedSimdLevel forced(level);
      std::vector<std::uint64_t> out(batch.size());
      SipHash24Batch(kVecK0, kVecK1, batch.arena.data(),
                     std::span<const std::size_t>(batch.bounds),
                     std::span<std::uint64_t>(out));
      EXPECT_EQ(out, expected) << "level=" << SimdLevelName(level)
                               << " len=" << len;
    }
  }
}

// Every count 0..47 and each length 0..40 through the equal-length batch:
// the 16-lane kernel leaves tails of 1..15 messages that are not a multiple
// of any narrower width, and the lengths cross every 8-byte block edge.
TEST(SimdSipHashTest, FixedStrideEveryCountAndTail) {
  std::mt19937_64 rng(4816);
  constexpr std::size_t kMaxCount = 47;
  for (std::size_t len = 0; len <= 40; ++len) {
    std::vector<std::uint8_t> buf(kMaxCount * len + 1);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint64_t> expected(kMaxCount);
    for (std::size_t i = 0; i < kMaxCount; ++i) {
      expected[i] = SipHash24(kVecK0, kVecK1, buf.data() + i * len, len);
    }
    for (const SimdLevel level : RunnableLevels()) {
      ScopedSimdLevel forced(level);
      for (std::size_t count = 0; count <= kMaxCount; ++count) {
        const std::vector<std::size_t> bounds =
            EqualLengthBounds(0, len, count);
        std::vector<std::uint64_t> out(count, 1);
        SipHash24Batch(kVecK0, kVecK1, buf.data(),
                       std::span<const std::size_t>(bounds),
                       std::span<std::uint64_t>(out));
        EXPECT_TRUE(std::equal(out.begin(), out.end(), expected.begin()))
            << "level=" << SimdLevelName(level) << " len=" << len
            << " count=" << count;
      }
    }
  }
}

// The int64-key cascade (16- and 8-wide groups, then scalar) at every
// count 0..47, starting at every offset 0..3 of the value array so no
// group boundary lines up with an aligned load.
TEST(SimdSipHashTest, Int64KeysEveryCountAndTail) {
  std::mt19937_64 rng(1516);
  std::vector<std::int64_t> vals(51);
  for (auto& v : vals) v = static_cast<std::int64_t>(rng());
  std::vector<std::uint64_t> expected(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    std::vector<std::uint8_t> bytes;
    Value(vals[i]).SerializeForHash(bytes);
    expected[i] = SipHash24(kVecK0, kVecK1, bytes.data(), bytes.size());
  }
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (std::size_t first = 0; first < 4; ++first) {
      for (std::size_t count = 0; count <= 47; ++count) {
        std::vector<std::uint64_t> out(count, 1);
        SipHash24Int64Keys(kVecK0, kVecK1, vals.data() + first, count,
                           std::span<std::uint64_t>(out));
        EXPECT_TRUE(std::equal(out.begin(), out.end(),
                               expected.begin() + first))
            << "level=" << SimdLevelName(level) << " first=" << first
            << " count=" << count;
      }
    }
  }
}

// The fitness bitset at every count 0..47 past one and two whole 64-hash
// words, so the vector word kernel hands a partial word of every length to
// the scalar tail, for odd, even and power-of-two divisors.
TEST(SimdSipHashTest, DivisibilityMaskEveryTail) {
  std::mt19937_64 rng(6448);
  std::vector<std::uint64_t> h(64 * 2 + 47);
  for (std::size_t i = 0; i < h.size(); ++i) {
    h[i] = i % 2 == 0 ? (rng() % 5000) * 24 : rng();
  }
  for (const std::uint64_t d : {std::uint64_t{1}, std::uint64_t{3},
                                std::uint64_t{8}, std::uint64_t{24},
                                std::uint64_t{40}}) {
    const DivisibilityCheck check(d);
    for (const std::size_t words_before : {std::size_t{0}, std::size_t{1},
                                           std::size_t{2}}) {
      for (std::size_t tail = 0; tail <= 47; ++tail) {
        const std::size_t count = 64 * words_before + tail;
        std::vector<std::uint64_t> expected((count + 63) / 64, 0);
        for (std::size_t i = 0; i < count; ++i) {
          if (check(h[i])) expected[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        for (const SimdLevel level : RunnableLevels()) {
          ScopedSimdLevel forced(level);
          std::vector<std::uint64_t> words((count + 63) / 64,
                                           ~std::uint64_t{0});
          DivisibilityMask64(check, h.data(), count, words.data());
          EXPECT_EQ(words, expected) << "level=" << SimdLevelName(level)
                                     << " d=" << d << " count=" << count;
        }
      }
    }
  }
}

// ------------------------------------------------------------- bounds edges

// The zero-message batch is the single bound {0} (the seed every arena
// producer starts from) and must be a no-op at every level, even with a
// null arena pointer — nothing may dereference it.
TEST(SimdSipHashTest, EmptyBatchEveryLevel) {
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    const std::vector<std::size_t> bounds = {0};
    SipHash24Batch(kVecK0, kVecK1, nullptr,
                   std::span<const std::size_t>(bounds),
                   std::span<std::uint64_t>());
  }
}

// Empty messages (bounds {0, 0, ...}) are legal inputs with a defined
// SipHash value; a full lane group of them must flush through the kernels.
TEST(SimdSipHashTest, EmptyMessagesEveryLevel) {
  const std::uint64_t expected = SipHash24(kVecK0, kVecK1, nullptr, 0);
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t count : {std::size_t{1}, std::size_t{8},
                                    std::size_t{11}}) {
      const std::vector<std::size_t> bounds(count + 1, 0);
      const std::vector<std::uint8_t> arena;  // nothing to read
      std::vector<std::uint64_t> out(count, 1);
      SipHash24Batch(kVecK0, kVecK1, arena.data(),
                     std::span<const std::size_t>(bounds),
                     std::span<std::uint64_t>(out));
      for (const std::uint64_t h : out) EXPECT_EQ(h, expected);
    }
  }
}

// ------------------------------------------------------- dispatch controls

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const auto back = SimdLevelFromName(SimdLevelName(level));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, level);
  }
  EXPECT_EQ(SimdLevelFromName("scalar"), SimdLevel::kScalar);
  // There is no SSE2 level: "sse2" is an unknown name, not an alias.
  EXPECT_FALSE(SimdLevelFromName("sse2").has_value());
  EXPECT_FALSE(SimdLevelFromName("avx1024").has_value());
  EXPECT_FALSE(SimdLevelFromName("").has_value());
  EXPECT_FALSE(SimdLevelFromName("AVX2").has_value());  // case-sensitive
}

// Prints the hardware and active levels (the CI dispatch sweep runs this
// first in each leg, so the log shows what a leg really ran), and checks
// that a CATMARK_SIMD request clamps to the hardware: on a host without
// AVX-512, CATMARK_SIMD=avx512 runs the AVX2 kernels.
TEST(SimdDispatchTest, EnvironmentRequestClampsToHardware) {
  const char* env = std::getenv("CATMARK_SIMD");
  std::printf("hardware SIMD level: %s, active: %s (CATMARK_SIMD=%s)\n",
              std::string(SimdLevelName(HardwareSimdLevel())).c_str(),
              std::string(SimdLevelName(ActiveSimdLevel())).c_str(),
              env != nullptr ? env : "");
  const std::optional<SimdLevel> requested =
      env != nullptr ? SimdLevelFromName(env) : std::nullopt;
  const SimdLevel expected = requested.has_value()
                                 ? std::min(*requested, HardwareSimdLevel())
                                 : HardwareSimdLevel();
  EXPECT_EQ(ActiveSimdLevel(), expected);
}

TEST(SimdDispatchTest, ForceClampsToHardwareAndRestores) {
  const SimdLevel ambient = ActiveSimdLevel();
  ForceSimdLevel(SimdLevel::kAvx512);
  EXPECT_EQ(ActiveSimdLevel(), HardwareSimdLevel());
  ForceSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(ActiveSimdLevel(), HardwareSimdLevel());
  ForceSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ForceSimdLevel(std::nullopt);
  EXPECT_EQ(ActiveSimdLevel(), ambient);
}

// --------------------------------------------- end-to-end detection parity

// A full embed -> detect cycle must produce the identical DetectionResult
// at every dispatch level x thread count, through Detector::Detect and
// through an engine built directly. This is the bit-identity the
// siphash24 golden/attack suites rely on when CI runs them under
// CATMARK_SIMD=off|avx2|avx512.
TEST(SimdDetectParityTest, LevelsAndThreadsBitIdentical) {
  Relation rel = testutil::SmallKeyedRelation(1500, 30, 5);
  WatermarkParams params;
  params.e = 4;
  params.prf = PrfKind::kSipHash24;
  params.payload_length = 24;
  const WatermarkKeySet keys = testutil::TestKeys();
  const BitVector wm = testutil::TestWatermark(24);
  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;
  const Embedder embedder(keys, params);
  const EmbedReport report = embedder.Embed(rel, embed_options, wm).value();

  KeyCandidate candidate;
  candidate.keys = keys;
  candidate.params = params;
  candidate.wm_len = wm.size();

  std::optional<DetectionResult> baseline;
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      WatermarkParams detect_params = params;
      detect_params.num_threads = threads;
      const Detector detector(keys, detect_params);
      DetectOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = report.domain;
      const DetectionResult detected =
          detector.Detect(rel, options, wm.size()).value();
      EXPECT_EQ(detected.wm, wm) << "level=" << SimdLevelName(level);

      DetectEngineOptions engine_options;
      engine_options.key_attr = testutil::kKeyAttr;
      engine_options.target_attr = testutil::kTargetAttr;
      engine_options.domain = &report.domain;
      engine_options.num_threads = threads;
      const DetectEngine engine =
          DetectEngine::Create(rel, engine_options).value();
      const DetectionResult engine_result = engine.Detect(candidate).value();

      for (const DetectionResult* r : {&detected, &engine_result}) {
        if (!baseline.has_value()) {
          baseline = *r;
          continue;
        }
        EXPECT_EQ(r->wm, baseline->wm);
        EXPECT_EQ(r->fit_tuples, baseline->fit_tuples);
        EXPECT_EQ(r->usable_votes, baseline->usable_votes);
        EXPECT_EQ(r->positions_present, baseline->positions_present);
        EXPECT_EQ(r->bit_confidence, baseline->bit_confidence)
            << "level=" << SimdLevelName(level) << " threads=" << threads;
      }
    }
  }
}

// NULL keys break the plain-key pass's dense-chunk assumption mid-chunk
// (row indices must be backfilled the moment the first NULL appears), so
// pin a relation with scattered NULL keys, at every dispatch level and
// thread count, to the paper-literal oracle, which hashes one key at a
// time and has no chunks.
TEST(SimdDetectParityTest, NullKeysBitIdenticalAcrossLevels) {
  const Relation base = testutil::SmallKeyedRelation(1200, 25, 9);
  Relation rel(base.schema());
  for (std::size_t j = 0; j < base.NumRows(); ++j) {
    Row row = {base.Get(j, 0), base.Get(j, 1)};
    if (j % 97 == 0) row[0] = Value();  // NULL key
    ASSERT_TRUE(rel.AppendRow(std::move(row)).ok());
  }

  WatermarkParams params;
  params.e = 4;
  params.prf = PrfKind::kSipHash24;
  params.payload_length = 16;
  const WatermarkKeySet keys = testutil::TestKeys();
  const BitVector wm = testutil::TestWatermark(16);
  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;
  const Embedder embedder(keys, params);
  const EmbedReport report = embedder.Embed(rel, embed_options, wm).value();

  KeyCandidate candidate;
  candidate.keys = keys;
  candidate.params = params;
  candidate.wm_len = wm.size();
  const Result<reference::ReferenceDetection> want = reference::ReferenceDetect(
      rel, reference::DetectInputsOf(candidate, report.domain));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(want.value().wm, wm);
  std::size_t keyed_rows = 0;
  for (std::size_t j = 0; j < rel.NumRows(); ++j) {
    keyed_rows += rel.Get(j, 0).is_null() ? 0 : 1;
  }

  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      const std::string where = "level=" + std::string(SimdLevelName(level)) +
                                " threads=" + std::to_string(threads);
      WatermarkParams detect_params = params;
      detect_params.num_threads = threads;
      DetectOptions detect_options;
      detect_options.key_attr = testutil::kKeyAttr;
      detect_options.target_attr = testutil::kTargetAttr;
      detect_options.domain = report.domain;
      const Result<DetectionResult> detected =
          Detector(keys, detect_params).Detect(rel, detect_options, wm.size());
      reference::ExpectDetectMatchesReference(detected, want,
                                              where + " Detector::Detect");

      DetectEngineOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = &report.domain;
      options.num_threads = threads;
      const DetectEngine engine = DetectEngine::Create(rel, options).value();
      EXPECT_EQ(engine.num_messages(), keyed_rows) << where;
      const std::vector<Result<DetectionResult>> many =
          engine.DetectMany(std::span<const KeyCandidate>(&candidate, 1));
      reference::ExpectDetectMatchesReference(many[0], want,
                                              where + " DetectMany");
      ASSERT_TRUE(detected.ok() && many[0].ok());
      EXPECT_EQ(detected.value().messages_hashed, keyed_rows) << where;
      EXPECT_EQ(many[0].value().messages_hashed, keyed_rows) << where;
    }
  }
}

}  // namespace
}  // namespace catmark
