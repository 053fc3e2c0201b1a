#include "core/tuple_plan.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "core/codec.h"
#include "core/fit_scan.h"
#include "relation/column_store.h"

namespace catmark {

namespace {

/// Runs fn(shard, begin, end) over [0, n) split on 64-row boundaries, so no
/// two shards write the same fit_words word.
template <typename Fn>
void ParallelForWords(std::size_t n, std::size_t num_threads, Fn&& fn) {
  const std::size_t words = (n + 63) / 64;
  ParallelFor(words, EffectiveThreadCount(num_threads, words),
              [&](std::size_t shard, std::size_t begin, std::size_t end) {
                fn(shard, begin * 64, std::min(n, end * 64));
              });
}

/// Popcount of the fit bits of rows [begin, end).
std::size_t CountFitRows(const std::vector<std::uint64_t>& words,
                         std::size_t begin, std::size_t end) {
  std::size_t count = 0;
  for (std::size_t j = begin; j < end; j = (j | 63) + 1) {
    const std::size_t bits = std::min<std::size_t>(64 - (j & 63), end - j);
    std::uint64_t word = words[j >> 6] >> (j & 63);
    if (bits < 64) word &= (std::uint64_t{1} << bits) - 1;
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

}  // namespace

TuplePlan BuildTuplePlan(const Relation& rel, std::size_t key_col,
                         const WatermarkKeySet& keys,
                         const WatermarkParams& params,
                         const TuplePlanOptions& options) {
  const std::size_t n = rel.NumRows();
  TuplePlan plan;
  plan.fit_words.assign((n + 63) / 64, 0);
  plan.h1.assign(n, 0);
  if (options.with_payload_index) {
    CATMARK_CHECK_GE(options.payload_len, 1u);
    CATMARK_CHECK_LE(options.payload_len,
                     static_cast<std::size_t>(
                         std::numeric_limits<std::uint32_t>::max()));
    plan.payload_index.assign(n, 0);
  }

  // One immutable PRF instance per key, shared by every worker: the key
  // schedule is set up here, once, not per shard or per row.
  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(options.prf, keys.k1, params.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      options.with_payload_index
          ? CreateKeyedPrf(options.prf, keys.k2, params.hash_algo)
          : nullptr;
  const auto position = [&](std::uint64_t h2) {
    return static_cast<std::uint32_t>(PayloadIndexFromHash(
        h2, options.payload_len, params.bit_index_mode));
  };

  const ColumnStore& store = rel.store();
  std::uint64_t* fit_words = plan.fit_words.data();
  std::vector<std::size_t> shard_hashed;

  if (store.IsDictColumn(key_col)) {
    // Dictionary-encoded key column: every row with the same key value
    // hashes identically, so scan each live distinct dictionary entry once
    // and fan the verdicts out through the code vector — |dict| keyed
    // hashes instead of N. Dead entries (live count 0) have no referencing
    // row and are not hashed.
    const std::vector<Value>& dict = store.Dict(key_col);
    const std::vector<std::int32_t>& codes = store.Codes(key_col);
    const std::vector<std::int64_t>& live = store.DictLiveCounts(key_col);
    std::vector<std::uint8_t> fit_of(dict.size(), 0);
    std::vector<std::uint64_t> h1_of(dict.size(), 0);
    std::vector<std::uint32_t> index_of(
        options.with_payload_index ? dict.size() : 0, 0);
    const std::size_t dict_threads =
        EffectiveThreadCount(options.num_threads, dict.size());
    shard_hashed.assign(dict_threads, 0);
    ParallelFor(dict.size(), dict_threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  FitScratch scratch;
                  FitScanner scan(*prf_k1, prf_k2.get(), params.e, scratch);
                  shard_hashed[shard] = scan.Scan(
                      end - begin,
                      [&](std::size_t i) -> const Value* {
                        return live[begin + i] != 0 ? &dict[begin + i]
                                                    : nullptr;
                      },
                      [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
                        const std::size_t code = begin + i;
                        fit_of[code] = 1;
                        h1_of[code] = h1;
                        if (prf_k2 != nullptr) index_of[code] = position(h2);
                      });
                });
    ParallelForWords(n, options.num_threads, [&](std::size_t /*shard*/,
                                                 std::size_t begin,
                                                 std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        const std::int32_t code = codes[j];
        if (code < 0 || !fit_of[static_cast<std::size_t>(code)]) continue;
        fit_words[j >> 6] |= std::uint64_t{1} << (j & 63);
        plan.h1[j] = h1_of[static_cast<std::size_t>(code)];
        if (prf_k2 != nullptr) {
          plan.payload_index[j] = index_of[static_cast<std::size_t>(code)];
        }
      }
    });
  } else {
    shard_hashed.assign(
        EffectiveThreadCount(options.num_threads, (n + 63) / 64), 0);
    ParallelForWords(n, options.num_threads, [&](std::size_t shard,
                                                 std::size_t begin,
                                                 std::size_t end) {
      FitScratch scratch;
      FitScanner scan(*prf_k1, prf_k2.get(), params.e, scratch);
      shard_hashed[shard] = ScanKeyColumn(
          scan, store, key_col, begin, end,
          [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
            const std::size_t j = begin + i;
            fit_words[j >> 6] |= std::uint64_t{1} << (j & 63);
            plan.h1[j] = h1;
            if (prf_k2 != nullptr) plan.payload_index[j] = position(h2);
          });
    });
  }
  for (const std::size_t h : shard_hashed) plan.messages_hashed += h;

  // Fit counts over the embedder's ShardBounds(n, threads) row partition.
  const std::size_t threads = EffectiveThreadCount(options.num_threads, n);
  const std::vector<std::size_t> bounds = ShardBounds(n, threads);
  plan.shard_fit.assign(threads, 0);
  for (std::size_t s = 0; s < threads; ++s) {
    plan.shard_fit[s] = CountFitRows(plan.fit_words, bounds[s], bounds[s + 1]);
    plan.fit_count += plan.shard_fit[s];
  }
  return plan;
}

}  // namespace catmark
