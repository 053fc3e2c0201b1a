#include "core/tuple_plan.h"

#include "common/parallel.h"
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
                         const Channel& channel, std::size_t num_threads) {
  const std::size_t n = rel.NumRows();
  const ColumnStore& store = rel.store();
  const std::size_t row_threads = EffectiveThreadCount(num_threads, n);
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
    const std::span<const std::int32_t> codes = store.Codes(key_col);
    const std::vector<std::int64_t>& live = store.DictLiveCounts(key_col);
    std::vector<std::uint8_t> fit_of(dict.size(), 0);
    std::vector<std::uint64_t> h1_of(dict.size(), 0);
    std::vector<std::uint32_t> index_of(dict.size(), 0);
    const std::size_t dict_threads =
        EffectiveThreadCount(num_threads, dict.size());
    shard_hashed.assign(dict_threads, 0);
    ParallelFor(dict.size(), dict_threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  FitScratch scratch;
                  FitScanner scan = channel.Scanner(scratch);
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
                        index_of[code] = channel.Slot(h2);
                      });
                });
    ParallelFor(n, row_threads, [&](std::size_t shard, std::size_t begin,
                                    std::size_t end) {
      std::vector<FitTuple>& fit = plan.shards[shard];
      fit.reserve(FitListReserve(end - begin, channel.e()));
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
      fit.reserve(FitListReserve(end - begin, channel.e()));
      FitScratch scratch;
      FitScanner scan = channel.Scanner(scratch);
      shard_hashed[shard] = ScanKeyColumn(
          scan, store, key_col, begin, end,
          [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
            fit.push_back({begin + i, h1, channel.Slot(h2)});
          });
    });
  }
  for (const std::size_t h : shard_hashed) plan.messages_hashed += h;
  return plan;
}

}  // namespace catmark
