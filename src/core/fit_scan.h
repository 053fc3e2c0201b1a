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
/// Embed, one-shot detect, the sweep's per-key pass and streaming inserts
/// all run it through this scanner and keep only their own sink.
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

  /// Scans keys 0..count-1, where key_at(i) returns a `const Value*`; a
  /// null pointer or a NULL value is skipped and not hashed. While a chunk
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
      HashKeys(typed, n);
      for (std::size_t f = 0; f < s.fit.size(); ++f) {
        const std::size_t m = s.fit[f];
        on_fit(base + (dense ? m : s.rows[m]), s.h1[m],
               k2_ != nullptr ? s.h2[f] : 0);
      }
    }
    return hashed;
  }

  /// Scans prepared messages: message i is arena bytes [bounds[i],
  /// bounds[i + 1]), so there are bounds.size() - 1 of them. A
  /// non-negative `fixed_len` promises every message has that length and
  /// hashes at a constant stride with no bounds reads.
  template <typename OnFit>
  std::size_t ScanPrepared(const std::uint8_t* arena,
                           std::span<const std::size_t> bounds,
                           std::ptrdiff_t fixed_len, OnFit&& on_fit) {
    const FitScratch& s = scratch_;
    const std::size_t count = bounds.size() - 1;
    for (std::size_t base = 0; base < count; base += kChunk) {
      const std::size_t len = std::min(kChunk, count - base);
      HashPrepared(arena, bounds.subspan(base, len + 1), fixed_len);
      for (std::size_t f = 0; f < s.fit.size(); ++f) {
        const std::size_t m = s.fit[f];
        on_fit(base + m, s.h1[m], k2_ != nullptr ? s.h2[f] : 0);
      }
    }
    return count;
  }

 private:
  // k1-hashes the n gathered keys of a Scan chunk, then SelectFit.
  void HashKeys(bool typed, std::size_t n);
  // k1-hashes one chunk of prepared messages, then SelectFit.
  void HashPrepared(const std::uint8_t* arena,
                    std::span<const std::size_t> bounds,
                    std::ptrdiff_t fixed_len);
  // The shared tail: fitness bitset, set-bit walk into scratch.fit, and one
  // batched k2 call over the fit subset — typed lane or gathered bytes.
  void SelectFit(std::size_t n, const std::int64_t* typed,
                 const std::uint8_t* arena, const std::size_t* bounds);

  const KeyedPrf& k1_;
  const KeyedPrf* k2_;
  DivisibilityCheck fit_by_e_;
  FitScratch& scratch_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_FIT_SCAN_H_
