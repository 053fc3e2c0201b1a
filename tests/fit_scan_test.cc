// The fit scanner against a one-key-at-a-time reference: Hash64 over
// SerializeForHash under k1, `% e`, and Hash64 under k2 fed through
// PayloadIndexFromHash. Both inputs (key accessor and prepared arena) must
// report the exact on_fit sequence and hashed count the reference predicts,
// for every PRF backend x SIMD dispatch level x key shape x e x count,
// with counts straddling the 64-bit mask words and the scanner's chunks.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/fit_scan.h"
#include "crypto/prf.h"
#include "crypto/siphash_simd.h"
#include "relation/relation.h"
#include "relation/value.h"
#include "test_util.h"

namespace catmark {
namespace {

constexpr PrfKind kBackends[] = {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                                 PrfKind::kSipHash24};
constexpr std::size_t kChunk = FitScanner::kChunk;
constexpr std::size_t kPayloadLen = 97;

// The e values and counts a backend is scanned with (counts ascending).
// siphash24 runs the full grid. The two SHA-256 backends share every line
// of scanner code with it and differ only in their batch-hash
// implementations, so they run a sub-grid that still crosses the mask-word
// boundaries: their per-key SHA-256 would make the full grid take minutes
// under the sanitizers.
struct Grid {
  std::vector<std::uint64_t> es;
  std::vector<std::size_t> counts;
};

Grid GridFor(PrfKind prf) {
  if (prf == PrfKind::kSipHash24) {
    return {{1, 2, 3, 64},
            {0, 1, 63, 64, 65, kChunk - 1, kChunk, kChunk + 1}};
  }
  return {{3}, {0, 1, 63, 64, 65, 130}};
}

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { ForceSimdLevel(level); }
  ~ScopedSimdLevel() { ForceSimdLevel(std::nullopt); }
};

std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(HardwareSimdLevel()); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

enum class Shape {
  kDenseInt,
  kIntNullAtChunkStart,
  kIntNullMidChunk,
  kIntNullAtChunkEnd,
  kIntDemotesMidChunk,
  kString,
  kDouble,
  kAllNull,
};

constexpr Shape kShapes[] = {
    Shape::kDenseInt,           Shape::kIntNullAtChunkStart,
    Shape::kIntNullMidChunk,    Shape::kIntNullAtChunkEnd,
    Shape::kIntDemotesMidChunk, Shape::kString,
    Shape::kDouble,             Shape::kAllNull};

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kDenseInt:
      return "dense-int";
    case Shape::kIntNullAtChunkStart:
      return "int-null-at-chunk-start";
    case Shape::kIntNullMidChunk:
      return "int-null-mid-chunk";
    case Shape::kIntNullAtChunkEnd:
      return "int-null-at-chunk-end";
    case Shape::kIntDemotesMidChunk:
      return "int-demotes-mid-chunk";
    case Shape::kString:
      return "string";
    case Shape::kDouble:
      return "double";
    case Shape::kAllNull:
      return "all-null";
  }
  return "?";
}

// Key j of a shape; the chunk-relative positions make the NULLs and the
// demoting string land at the start, middle and end of every chunk.
Value KeyOf(Shape shape, std::size_t j) {
  const std::size_t at = j % kChunk;
  const auto int_key = [&] {
    return Value(static_cast<std::int64_t>(j * 0x9E3779B97F4A7C15ULL));
  };
  switch (shape) {
    case Shape::kDenseInt:
      return int_key();
    case Shape::kIntNullAtChunkStart:
      return at == 0 || at == 5 ? Value() : int_key();
    case Shape::kIntNullMidChunk:
      return at == 40 || at == 70 ? Value() : int_key();
    case Shape::kIntNullAtChunkEnd:
      return at == 62 || at == kChunk - 1 ? Value() : int_key();
    case Shape::kIntDemotesMidChunk:
      if (at == 9) return Value();
      return at == 50 ? Value("s" + std::to_string(j)) : int_key();
    case Shape::kString:
      return Value(std::string(j % 23, 'x') + std::to_string(j * 7));
    case Shape::kDouble:
      return Value(static_cast<double>(j) * 0.5);
    case Shape::kAllNull:
      return Value();
  }
  return Value();
}

struct Fit {
  std::size_t i;
  std::uint64_t h1;
  std::uint64_t h2;
  std::size_t position;
  bool operator==(const Fit&) const = default;
};

// Single-shot hashes of key j, computed once per backend and shape.
struct Reference {
  std::vector<bool> present;
  std::vector<std::uint64_t> h1;
  std::vector<std::uint64_t> h2;
};

Reference MakeReference(const std::vector<Value>& keys, const KeyedPrf& k1,
                        const KeyedPrf& k2) {
  Reference ref;
  for (const Value& key : keys) {
    ref.present.push_back(!key.is_null());
    std::vector<std::uint8_t> bytes;
    key.SerializeForHash(bytes);
    const bool null = key.is_null();
    ref.h1.push_back(null ? 0 : k1.Hash64(bytes.data(), bytes.size()));
    ref.h2.push_back(null ? 0 : k2.Hash64(bytes.data(), bytes.size()));
  }
  return ref;
}

// What the scanner must report for keys [0, count) of `ref`: fit indices
// ascending, and the number of keys hashed. Index i counts non-NULL keys
// only when `compact` (the prepared arenas hold no NULLs).
std::pair<std::vector<Fit>, std::size_t> Expected(const Reference& ref,
                                                  std::size_t count,
                                                  std::uint64_t e,
                                                  bool with_k2,
                                                  bool compact) {
  std::vector<Fit> fits;
  std::size_t hashed = 0;
  for (std::size_t j = 0; j < count; ++j) {
    if (!ref.present[j]) continue;
    const std::size_t i = compact ? hashed : j;
    ++hashed;
    if (ref.h1[j] % e != 0) continue;
    const std::uint64_t h2 = with_k2 ? ref.h2[j] : 0;
    fits.push_back(Fit{i, ref.h1[j], h2,
                       PayloadIndexFromHash(h2, kPayloadLen,
                                            BitIndexMode::kModulo)});
  }
  return {fits, hashed};
}

std::string Label(PrfKind prf, SimdLevel level, Shape shape, std::uint64_t e,
                  std::size_t count) {
  return std::string(PrfKindName(prf)) + " " +
         std::string(SimdLevelName(level)) + " " + ShapeName(shape) +
         " e=" + std::to_string(e) + " count=" + std::to_string(count);
}

TEST(FitScanTest, ScanMatchesSingleShotReference) {
  const WatermarkKeySet keys = testutil::TestKeys();
  for (const PrfKind prf : kBackends) {
    const std::unique_ptr<KeyedPrf> k1 = CreateKeyedPrf(prf, keys.k1);
    const std::unique_ptr<KeyedPrf> k2 = CreateKeyedPrf(prf, keys.k2);
    const Grid grid = GridFor(prf);
    for (const Shape shape : kShapes) {
      std::vector<Value> values;
      for (std::size_t j = 0; j < grid.counts.back(); ++j) {
        values.push_back(KeyOf(shape, j));
      }
      const Reference ref = MakeReference(values, *k1, *k2);
      for (const SimdLevel level : RunnableLevels()) {
        ScopedSimdLevel forced(level);
        FitScratch scratch;
        for (const std::uint64_t e : grid.es) {
          // Fitness-only scans (no k2) report h2 == 0; one e covers them.
          for (const bool with_k2 : {true, false}) {
            if (!with_k2 && e != grid.es.back()) continue;
            FitScanner scan(*k1, with_k2 ? k2.get() : nullptr, e, scratch);
            for (const std::size_t count : grid.counts) {
              std::vector<Fit> got;
              // All-NULL keys alternate a null pointer and a NULL value.
              const std::size_t hashed = scan.Scan(
                  count,
                  [&](std::size_t i) -> const Value* {
                    if (shape == Shape::kAllNull && i % 2 == 1) return nullptr;
                    return &values[i];
                  },
                  [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
                    got.push_back(Fit{i, h1, h2,
                                      PayloadIndexFromHash(
                                          h2, kPayloadLen,
                                          BitIndexMode::kModulo)});
                  });
              const auto [want, want_hashed] =
                  Expected(ref, count, e, with_k2, /*compact=*/false);
              const std::string label = Label(prf, level, shape, e, count) +
                                        (with_k2 ? "" : " no-k2");
              EXPECT_EQ(hashed, want_hashed) << label;
              EXPECT_TRUE(got == want) << label;
            }
          }
        }
      }
    }
  }
}

TEST(FitScanTest, ScanPreparedMatchesSingleShotReference) {
  const WatermarkKeySet keys = testutil::TestKeys();
  for (const PrfKind prf : kBackends) {
    const std::unique_ptr<KeyedPrf> k1 = CreateKeyedPrf(prf, keys.k1);
    const std::unique_ptr<KeyedPrf> k2 = CreateKeyedPrf(prf, keys.k2);
    const Grid grid = GridFor(prf);
    // Fixed-length messages (9-byte int64 records) and mixed-length ones
    // (strings of varying length).
    for (const Shape shape : {Shape::kDenseInt, Shape::kString}) {
      std::vector<Value> values;
      for (std::size_t j = 0; j < grid.counts.back(); ++j) {
        values.push_back(KeyOf(shape, j));
      }
      const Reference ref = MakeReference(values, *k1, *k2);
      std::vector<std::uint8_t> arena;
      std::vector<std::size_t> bounds = {0};
      for (const Value& v : values) {
        v.SerializeForHash(arena);
        bounds.push_back(arena.size());
      }
      for (const SimdLevel level : RunnableLevels()) {
        ScopedSimdLevel forced(level);
        FitScratch scratch;
        for (const std::uint64_t e : grid.es) {
          FitScanner scan(*k1, k2.get(), e, scratch);
          for (const std::size_t count : grid.counts) {
            std::vector<Fit> got;
            const std::size_t hashed = scan.ScanPrepared(
                arena.data(),
                std::span<const std::size_t>(bounds.data(), count + 1),
                [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
                  got.push_back(Fit{i, h1, h2,
                                    PayloadIndexFromHash(
                                        h2, kPayloadLen,
                                        BitIndexMode::kModulo)});
                });
            const auto [want, want_hashed] =
                Expected(ref, count, e, /*with_k2=*/true, /*compact=*/true);
            const std::string label = Label(prf, level, shape, e, count);
            EXPECT_EQ(hashed, want_hashed) << label;
            EXPECT_TRUE(got == want) << label;
          }
        }
      }
    }
  }
}

// The lane entry against Scan over the same keys as Values: identical
// on_fit sequences and hashed counts at NULL densities 0, 1/13 and 1, for
// row ranges that start off a bitmap word and straddle the chunks.
TEST(FitScanTest, ScanInt64MatchesScanAtEveryNullDensity) {
  const WatermarkKeySet keys = testutil::TestKeys();
  constexpr std::size_t kRows = 3 * kChunk + 70;
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 0},           {0, 1},
      {0, kChunk},      {0, kChunk + 1},
      {3, 2 * kChunk + 5}, {kChunk - 1, kChunk + 1},
      {65, kRows},      {kRows - 1, kRows}};
  for (const PrfKind prf : kBackends) {
    const std::unique_ptr<KeyedPrf> k1 = CreateKeyedPrf(prf, keys.k1);
    const std::unique_ptr<KeyedPrf> k2 = CreateKeyedPrf(prf, keys.k2);
    for (const std::size_t null_every : {std::size_t{0}, std::size_t{13},
                                         std::size_t{1}}) {
      std::vector<std::int64_t> lane(kRows);
      std::vector<std::uint64_t> null_words((kRows + 63) / 64, 0);
      std::vector<Value> values;
      for (std::size_t j = 0; j < kRows; ++j) {
        const bool null = null_every != 0 && j % null_every == 0;
        lane[j] =
            null ? 0 : static_cast<std::int64_t>(j * 0x9E3779B97F4A7C15ULL);
        if (null) null_words[j / 64] |= std::uint64_t{1} << (j % 64);
        values.push_back(null ? Value() : Value(lane[j]));
      }
      // No NULL: the scanner may also be handed no bitmap at all.
      const std::uint64_t* words =
          null_every == 0 ? nullptr : null_words.data();
      for (const SimdLevel level : RunnableLevels()) {
        if (prf != PrfKind::kSipHash24 && level != SimdLevel::kScalar) {
          continue;
        }
        ScopedSimdLevel forced(level);
        FitScratch scratch;
        for (const std::uint64_t e : {std::uint64_t{1}, std::uint64_t{3}}) {
          for (const bool with_k2 : {true, false}) {
            FitScanner scan(*k1, with_k2 ? k2.get() : nullptr, e, scratch);
            for (const auto& [begin, end] : ranges) {
              // The SHA-256 backends share every scanner line with
              // siphash24; the chunk-edge ranges suffice for them.
              if (prf != PrfKind::kSipHash24 && end - begin > 2) continue;
              std::vector<Fit> want, got;
              const auto sink = [](std::vector<Fit>& out) {
                return [&out](std::size_t i, std::uint64_t h1,
                              std::uint64_t h2) {
                  out.push_back(Fit{i, h1, h2, 0});
                };
              };
              const std::size_t want_hashed = scan.Scan(
                  end - begin,
                  [&](std::size_t i) { return &values[begin + i]; },
                  sink(want));
              const std::size_t hashed =
                  scan.ScanInt64(lane.data(), words, begin, end, sink(got));
              const std::string label =
                  std::string(PrfKindName(prf)) + " " +
                  std::string(SimdLevelName(level)) +
                  " null_every=" + std::to_string(null_every) +
                  " e=" + std::to_string(e) + " [" + std::to_string(begin) +
                  ", " + std::to_string(end) + ")" + (with_k2 ? "" : " no-k2");
              EXPECT_EQ(hashed, want_hashed) << label;
              EXPECT_TRUE(got == want) << label;
            }
          }
        }
      }
    }
  }
}

// ScanKeyColumn dispatches every key-column layout — INT64 lane, DOUBLE
// lane, STRING values, dictionary codes — to the same sequence Scan
// reports over the materialized Values.
TEST(FitScanTest, ScanKeyColumnMatchesScanOnEveryLayout) {
  const WatermarkKeySet keys = testutil::TestKeys();
  const std::unique_ptr<KeyedPrf> k1 =
      CreateKeyedPrf(PrfKind::kSipHash24, keys.k1);
  const std::unique_ptr<KeyedPrf> k2 =
      CreateKeyedPrf(PrfKind::kSipHash24, keys.k2);
  const Schema schema = Schema::Create({{"I", ColumnType::kInt64, false},
                                        {"D", ColumnType::kDouble, false},
                                        {"S", ColumnType::kString, false},
                                        {"C", ColumnType::kInt64, true}},
                                       "")
                            .value();
  constexpr std::size_t kRows = kChunk + 200;
  Relation rel(schema);
  for (std::size_t j = 0; j < kRows; ++j) {
    const bool null = j % 13 == 0;
    const auto k = static_cast<std::int64_t>(j * 2654435761ULL);
    rel.AppendRowUnchecked(
        {null ? Value() : Value(k),
         null ? Value() : Value(static_cast<double>(j) * 0.25),
         null ? Value() : Value("s" + std::to_string(j)),
         null ? Value() : Value(static_cast<std::int64_t>(j % 50))});
  }
  FitScratch scratch;
  FitScanner scan(*k1, k2.get(), 3, scratch);
  for (std::size_t col = 0; col < schema.num_columns(); ++col) {
    for (const auto& [begin, end] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, kRows}, {7, kChunk + 9}, {kRows, kRows}}) {
      std::vector<Fit> want, got;
      std::vector<Value> cells;
      for (std::size_t j = begin; j < end; ++j) {
        cells.push_back(rel.Get(j, col));
      }
      const std::size_t want_hashed = scan.Scan(
          end - begin, [&](std::size_t i) { return &cells[i]; },
          [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
            want.push_back(Fit{i, h1, h2, 0});
          });
      const std::size_t hashed = ScanKeyColumn(
          scan, rel.store(), col, begin, end,
          [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
            got.push_back(Fit{i, h1, h2, 0});
          });
      EXPECT_EQ(hashed, want_hashed) << col << " [" << begin << ", " << end;
      EXPECT_TRUE(got == want) << col << " [" << begin << ", " << end;
    }
  }
}

// The packed-bitset walkers every fit reader shares.
TEST(FitScanTest, ForEachFitRowVisitsSetBitsInRange) {
  std::vector<std::uint64_t> words = {0x8000000000000001ULL, 0,
                                      0x10ULL | (1ULL << 63), 0x3ULL};
  std::vector<std::size_t> all;
  for (std::size_t j = 0; j < 64 * words.size(); ++j) {
    if (FitBit(words.data(), j)) all.push_back(j);
  }
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 63, 132, 191, 192, 193}));
  for (std::size_t begin = 0; begin <= 200; begin += 7) {
    for (std::size_t end = begin; end <= 256; end += 11) {
      std::vector<std::size_t> got;
      ForEachFitRow(words.data(), begin, end,
                    [&](std::size_t j) { got.push_back(j); });
      std::vector<std::size_t> want;
      for (const std::size_t j : all) {
        if (j >= begin && j < end) want.push_back(j);
      }
      EXPECT_EQ(got, want) << begin << ".." << end;
    }
  }
}

}  // namespace
}  // namespace catmark
