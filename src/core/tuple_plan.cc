#include "core/tuple_plan.h"

#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "core/codec.h"
#include "core/fit_scan.h"
#include "relation/column_store.h"

namespace catmark {

namespace {

// Capacity for the fit list of a `rows`-row shard: the expected rows / e
// fit tuples plus slack for the binomial spread, so the list rarely grows.
std::size_t FitListReserve(std::size_t rows, std::uint64_t e) {
  const std::size_t expected = rows / e;
  return expected + expected / 8 + 16;
}

}  // namespace

TuplePlan BuildTuplePlan(const Relation& rel, std::size_t key_col,
                         const WatermarkKeySet& keys,
                         const WatermarkParams& params,
                         const TuplePlanOptions& options) {
  const std::size_t n = rel.NumRows();
  if (options.with_payload_index) {
    CATMARK_CHECK_GE(options.payload_len, 1u);
    CATMARK_CHECK_LE(options.payload_len,
                     static_cast<std::size_t>(
                         std::numeric_limits<std::uint32_t>::max()));
  }

  // One immutable PRF instance per key, shared by every worker: the key
  // schedule is set up here, once, not per shard or per row.
  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(options.prf, keys.k1, params.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      options.with_payload_index
          ? CreateKeyedPrf(options.prf, keys.k2, params.hash_algo)
          : nullptr;
  // The k2 payload index of a fit key; the map path asks for none.
  const auto position = [&](std::uint64_t h2) -> std::uint32_t {
    if (prf_k2 == nullptr) return 0;
    return static_cast<std::uint32_t>(PayloadIndexFromHash(
        h2, options.payload_len, params.bit_index_mode));
  };

  const ColumnStore& store = rel.store();
  const std::size_t row_threads = EffectiveThreadCount(options.num_threads, n);
  TuplePlan plan;
  plan.shards.resize(row_threads);
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
    std::vector<std::uint32_t> index_of(dict.size(), 0);
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
                        index_of[code] = position(h2);
                      });
                });
    ParallelFor(n, row_threads, [&](std::size_t shard, std::size_t begin,
                                    std::size_t end) {
      std::vector<FitTuple>& fit = plan.shards[shard];
      fit.reserve(FitListReserve(end - begin, params.e));
      for (std::size_t j = begin; j < end; ++j) {
        if (codes[j] < 0) continue;
        const std::size_t code = static_cast<std::size_t>(codes[j]);
        if (fit_of[code]) fit.push_back({j, h1_of[code], index_of[code]});
      }
    });
  } else {
    shard_hashed.assign(row_threads, 0);
    ParallelFor(n, row_threads, [&](std::size_t shard, std::size_t begin,
                                    std::size_t end) {
      std::vector<FitTuple>& fit = plan.shards[shard];
      fit.reserve(FitListReserve(end - begin, params.e));
      FitScratch scratch;
      FitScanner scan(*prf_k1, prf_k2.get(), params.e, scratch);
      shard_hashed[shard] = ScanKeyColumn(
          scan, store, key_col, begin, end,
          [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
            fit.push_back({begin + i, h1, position(h2)});
          });
    });
  }
  for (const std::size_t h : shard_hashed) plan.messages_hashed += h;
  return plan;
}

}  // namespace catmark
