#ifndef CATMARK_CORE_FIT_SCAN_H_
#define CATMARK_CORE_FIT_SCAN_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "crypto/prf.h"
#include "relation/column_store.h"
#include "relation/value.h"

namespace catmark {

/// Bit j of a packed fitness bitset (bit j % 64 of words[j / 64]).
inline bool FitBit(const std::uint64_t* words, std::size_t j) {
  return (words[j >> 6] >> (j & 63)) & 1;
}

/// Calls fn(j) for every set bit j in [begin, end) of a packed bitset, in
/// ascending order: one word test skips 64 unfit rows, and the body runs
/// only for the ~1/e fit tuples.
template <typename Fn>
inline void ForEachFitRow(const std::uint64_t* fit_words, std::size_t begin,
                          std::size_t end, Fn&& fn) {
  if (begin >= end) return;
  std::size_t w = begin >> 6;
  const std::size_t wend = (end + 63) >> 6;
  std::uint64_t word = fit_words[w] & (~std::uint64_t{0} << (begin & 63));
  for (;;) {
    while (word != 0) {
      const std::size_t j =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      if (j >= end) return;
      fn(j);
      word &= word - 1;
    }
    if (++w >= wend) return;
    word = fit_words[w];
  }
}

/// Per-worker buffers of a FitScanner. They live apart from the scanner so
/// a sweep worker reuses one set across every candidate key it scans.
struct FitScratch {
  std::vector<std::int64_t> i64;      // typed key lane of the chunk
  std::vector<std::uint32_t> rows;    // chunk offset per key, once sparse
  std::vector<std::uint8_t> arena;    // serialized keys, general path
  std::vector<std::size_t> bounds;    // arena offsets, leading 0
  std::vector<std::uint64_t> h1;      // k1 hash per key
  std::vector<std::uint64_t> mask;    // packed fitness verdicts
  std::vector<std::uint32_t> fit;     // key index of each fit key
  std::vector<std::int64_t> fit_i64;  // fit subset of i64, for k2
  std::vector<std::uint8_t> fit_arena;
  std::vector<std::size_t> fit_bounds;
  std::vector<std::uint64_t> h2;      // k2 hash per fit key
};

/// The Section 3.2.1 tuple rule, implemented once: a key is fit when
/// H(key, k1) mod e == 0, and then H(key, k2) picks its payload position.
/// Embed, the detect engine's per-key pass (one key or a sweep) and
/// streaming inserts and refreshes all run it through this scanner and keep
/// only their own sink.
///
/// Keys are processed in chunks of kChunk: one batched k1 call, the
/// vectorized DivisibilityMask64 verdicts, a set-bit walk, then one batched
/// k2 call over just the ~1/e fit keys (skipped when k2 is null). Every
/// call then reports on_fit(i, h1, h2) in ascending key index i (h2 is 0
/// without k2) and returns the number of keys hashed.
///
/// The scanner is bound to its PRFs and e and holds no state between
/// calls beyond the reusable scratch; it is not thread-safe — one per
/// worker.
class FitScanner {
 public:
  static constexpr std::size_t kChunk = 4096;

  /// `k2` may be null when the caller needs fitness only. e must be >= 1.
  FitScanner(const KeyedPrf& k1, const KeyedPrf* k2, std::uint64_t e,
             FitScratch& scratch);

  /// Scans keys 0..count-1, where key_at(i) returns a `const Value*` that
  /// need stay valid only until the next key_at call; a null pointer or a
  /// NULL value is skipped and not hashed. While a chunk
  /// holds only int64 keys they hash through the typed Hash64Int64Keys lane
  /// (dense until the first NULL, then row offsets are backfilled); the
  /// first other value moves the whole chunk to the serialized-arena path.
  template <typename KeyAt, typename OnFit>
  std::size_t Scan(std::size_t count, KeyAt&& key_at, OnFit&& on_fit) {
    FitScratch& s = scratch_;
    std::size_t hashed = 0;
    for (std::size_t base = 0; base < count; base += kChunk) {
      const std::size_t len = std::min(kChunk, count - base);
      bool typed = true;
      bool dense = true;
      std::size_t n = 0;
      std::int64_t* vals = s.i64.data();
      for (std::size_t i = 0; i < len; ++i) {
        const Value* v = key_at(base + i);
        const std::int64_t* kv = v != nullptr ? v->TryInt64() : nullptr;
        if (kv == nullptr) {
          if (v == nullptr || v->is_null()) {
            if (dense) {
              dense = false;
              s.rows.resize(n);
              for (std::size_t t = 0; t < n; ++t) {
                s.rows[t] = static_cast<std::uint32_t>(t);
              }
            }
            continue;
          }
          typed = false;
          break;
        }
        vals[n++] = *kv;
        if (!dense) s.rows.push_back(static_cast<std::uint32_t>(i));
      }
      if (!typed) {
        dense = false;
        s.rows.clear();
        s.arena.clear();
        s.bounds.assign(1, 0);
        for (std::size_t i = 0; i < len; ++i) {
          const Value* v = key_at(base + i);
          if (v == nullptr || v->is_null()) continue;
          v->SerializeForHash(s.arena);
          s.bounds.push_back(s.arena.size());
          s.rows.push_back(static_cast<std::uint32_t>(i));
        }
        n = s.rows.size();
      }
      hashed += n;
      HashKeys(typed ? vals : nullptr, n);
      Report(base, dense, on_fit);
    }
    return hashed;
  }

  /// The lane entry: scans the int64 keys of rows [begin, end), where
  /// keys[j] is row j's key and row j is NULL — skipped, not hashed — when
  /// `null_words` is non-null and has bit j set (bit j % 64 of word j / 64).
  /// A chunk without a NULL hashes straight from the lane; one with NULLs
  /// gathers its other keys first. Reports on_fit(j - begin, h1, h2) in
  /// ascending j, exactly as Scan would over the same keys as Values.
  template <typename OnFit>
  std::size_t ScanInt64(const std::int64_t* keys,
                        const std::uint64_t* null_words, std::size_t begin,
                        std::size_t end, OnFit&& on_fit) {
    FitScratch& s = scratch_;
    std::size_t hashed = 0;
    for (std::size_t base = begin; base < end; base += kChunk) {
      const std::size_t len = std::min(kChunk, end - base);
      const bool dense =
          null_words == nullptr || !AnyBitIn(null_words, base, base + len);
      std::size_t n = len;
      const std::int64_t* typed = keys + base;
      if (!dense) {
        s.rows.clear();
        n = 0;
        for (std::size_t i = 0; i < len; ++i) {
          if (FitBit(null_words, base + i)) continue;
          s.i64[n++] = keys[base + i];
          s.rows.push_back(static_cast<std::uint32_t>(i));
        }
        typed = s.i64.data();
      }
      hashed += n;
      HashKeys(typed, n);
      Report(base - begin, dense, on_fit);
    }
    return hashed;
  }

  /// Scans prepared messages: message i is arena bytes [bounds[i],
  /// bounds[i + 1]), so there are bounds.size() - 1 of them.
  template <typename OnFit>
  std::size_t ScanPrepared(const std::uint8_t* arena,
                           std::span<const std::size_t> bounds,
                           OnFit&& on_fit) {
    const std::size_t count = bounds.size() - 1;
    for (std::size_t base = 0; base < count; base += kChunk) {
      const std::size_t len = std::min(kChunk, count - base);
      HashPrepared(arena, bounds.subspan(base, len + 1));
      Report(base, /*dense=*/true, on_fit);
    }
    return count;
  }

 private:
  // True when any bit in [begin, end) of a packed bitset is set.
  static bool AnyBitIn(const std::uint64_t* words, std::size_t begin,
                       std::size_t end) {
    for (std::size_t j = begin; j < end; j = (j | 63) + 1) {
      std::uint64_t word = words[j >> 6] >> (j & 63);
      const std::size_t bits = std::min<std::size_t>(64 - (j & 63), end - j);
      if (bits < 64) word &= (std::uint64_t{1} << bits) - 1;
      if (word != 0) return true;
    }
    return false;
  }

  // Reports a hashed chunk's fit keys: key m of the chunk is chunk row m
  // when `dense`, else scratch.rows[m]; chunk rows count from `base`.
  template <typename OnFit>
  void Report(std::size_t base, bool dense, OnFit& on_fit) {
    const FitScratch& s = scratch_;
    for (std::size_t f = 0; f < s.fit.size(); ++f) {
      const std::size_t m = s.fit[f];
      on_fit(base + (dense ? m : s.rows[m]), s.h1[m],
             k2_ != nullptr ? s.h2[f] : 0);
    }
  }

  // k1-hashes the n keys of a chunk, then SelectFit: the int64 keys at
  // `typed`, or the serialized arena when `typed` is null.
  void HashKeys(const std::int64_t* typed, std::size_t n);
  // k1-hashes one chunk of prepared messages, then SelectFit.
  void HashPrepared(const std::uint8_t* arena,
                    std::span<const std::size_t> bounds);
  // The shared tail: fitness bitset, set-bit walk into scratch.fit, and one
  // batched k2 call over the fit subset — typed lane or gathered bytes.
  void SelectFit(std::size_t n, const std::int64_t* typed,
                 const std::uint8_t* arena, const std::size_t* bounds);

  const KeyedPrf& k1_;
  const KeyedPrf* k2_;
  DivisibilityCheck fit_by_e_;
  FitScratch& scratch_;
};

/// Runs `scan` over the keys of rows [begin, end) of column `col`,
/// reporting on_fit(row - begin, h1, h2): an INT64 lane through the lane
/// entry, every other column through Scan — a dictionary column by code, a
/// STRING column in place, a DOUBLE lane one materialized Value at a time.
template <typename OnFit>
std::size_t ScanKeyColumn(FitScanner& scan, const ColumnStore& store,
                          std::size_t col, std::size_t begin, std::size_t end,
                          OnFit&& on_fit) {
  if (store.IsDictColumn(col)) {
    const std::vector<Value>& dict = store.Dict(col);
    const std::int32_t* codes = store.Codes(col).data() + begin;
    return scan.Scan(
        end - begin,
        [&](std::size_t i) -> const Value* {
          return codes[i] < 0 ? nullptr
                              : &dict[static_cast<std::size_t>(codes[i])];
        },
        on_fit);
  }
  if (!store.IsLaneColumn(col)) {
    const Value* values = store.StringValues(col).data() + begin;
    return scan.Scan(
        end - begin, [&](std::size_t i) { return &values[i]; }, on_fit);
  }
  const NumericLane lane = store.Lane(col);
  if (lane.type == ColumnType::kInt64) {
    return scan.ScanInt64(
        lane.int64s().data(),
        lane.null_words.empty() ? nullptr : lane.null_words.data(), begin,
        end, on_fit);
  }
  Value key;
  return scan.Scan(
      end - begin,
      [&](std::size_t i) {
        key = lane.Get(begin + i);
        return &key;
      },
      on_fit);
}

}  // namespace catmark

#endif  // CATMARK_CORE_FIT_SCAN_H_
