#include "core/detect_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <optional>
#include <string_view>

#include "common/check.h"
#include "common/parallel.h"
#include "core/codec.h"
#include "relation/column_store.h"

namespace catmark {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

constexpr std::uint32_t kNoMessage = std::numeric_limits<std::uint32_t>::max();

}  // namespace

/// Per-candidate-worker reusable buffers of the PerKeyPass: the fit
/// scanner's chunk buffers, one sparse (slot, vote) hit buffer per pass
/// worker (hits[0] also receives the merged runs) and the merge's sort
/// buffer. A sweep touches these thousands of times per worker; once they
/// have grown to a candidate's ~fit-message count, no key allocates a
/// tally again, and nothing here is sized by the payload length.
struct DetectEngine::Scratch {
  FitScratch fit;
  std::vector<std::vector<SlotVote>> hits;
  std::vector<SlotVote> sort_buffer;
};

namespace {

/// Figure 2(b)'s position source: the index the owner's embedding map
/// recorded for the message's key bytes (Value::SerializeKeyInto form), mod
/// the payload length. A key the map does not hold, e.g. a tuple Mallory
/// added, has no slot and casts no vote.
struct MapSlots {
  const EmbeddingMap& map;
  std::size_t payload_len;

  template <typename KeyBytes>
  std::optional<std::size_t> operator()(std::uint64_t /*h2*/,
                                        const KeyBytes& key_bytes) const {
    const std::optional<std::size_t> found = map.Lookup(key_bytes());
    if (!found.has_value()) return std::nullopt;
    return *found % payload_len;
  }
};

/// Runs `tally` with the candidate's position source, chosen once per pass:
/// the map's (Figure 2(b)), else Figure 2's slot of the k2 hash, whose
/// `key_bytes` is never called.
template <typename Tally>
void WithSlots(const KeyCandidate& candidate, const Channel& channel,
               Tally&& tally) {
  if (candidate.embedding_map != nullptr) {
    tally(MapSlots{*candidate.embedding_map, channel.payload_length()});
  } else {
    tally([&channel](std::uint64_t h2, const auto& /*key_bytes*/) {
      return std::optional<std::size_t>(channel.Slot(h2));
    });
  }
}

}  // namespace

Result<DetectEngine> DetectEngine::Create(const Relation& rel,
                                          const DetectEngineOptions& options) {
  if (rel.empty()) {
    return Status::FailedPrecondition("cannot detect in an empty relation");
  }
  DetectEngine engine;
  CATMARK_ASSIGN_OR_RETURN(
      engine.columns_,
      ChannelColumns::Resolve(rel, options.key_attr, options.target_attr,
                              options.domain));

  const std::size_t key_col = engine.columns_.key_col();
  const std::size_t n = rel.NumRows();
  engine.rel_ = &rel;
  engine.num_rows_ = n;
  engine.num_threads_ = options.num_threads;
  const std::size_t threads = EffectiveThreadCount(options.num_threads, n);
  const ColumnStore& store = rel.store();
  engine.dict_keys_ = store.IsDictColumn(key_col);
  // The one place a target cell's domain index is resolved: the zero-copy
  // view of a dictionary target, or one O(N) domain lookup pass on a plain
  // one, shared by every candidate the plan serves.
  engine.target_index_ = ValueIndexColumn::Build(
      rel, engine.columns_.target_col(), engine.columns_.domain(), threads);

  if (!engine.dict_keys_) {
    // Plain key column: one message per non-NULL key row, so a prepared
    // plan would copy the column only to stream it back once per
    // candidate. The plan is the column itself: the pass serializes a
    // cache-resident chunk, hashes it while hot, and reads the target
    // index (and a map candidate's key bytes) of the ~1/e fit rows only.
    engine.row_bounds_ = ShardBounds(n, threads);
    // One message per non-NULL key row: a lane counts its NULL bitmap (no
    // bit is set past the last row), any other column reads each cell.
    if (store.IsLaneColumn(key_col)) {
      engine.num_messages_ = n;
      for (const std::uint64_t word : store.Lane(key_col).null_words) {
        engine.num_messages_ -= static_cast<std::size_t>(std::popcount(word));
      }
    } else {
      const ColumnReader key_reader(store, key_col);
      for (std::size_t j = 0; j < n; ++j) {
        if (!key_reader.IsNull(j)) ++engine.num_messages_;
      }
    }
    return engine;
  }

  // Dict-code gather: one message per *live* distinct dictionary entry,
  // prepared once — every row holding that entry shares its fitness and
  // position hashes, so the pass never revisits the row dimension. An
  // INT64 column keeps its values as a typed lane; any other type, or an
  // INT64 dictionary holding a value of another type (the unchecked
  // append paths do not type-check), is serialized into the arena.
  const std::vector<Value>& dict = store.Dict(key_col);
  const std::span<const std::int32_t> codes = store.Codes(key_col);
  const std::vector<std::int64_t>& live = store.DictLiveCounts(key_col);
  const std::size_t dict_threads =
      EffectiveThreadCount(options.num_threads, dict.size());
  bool typed = rel.schema().column(key_col).type == ColumnType::kInt64;
  for (std::size_t code = 0; typed && code < dict.size(); ++code) {
    typed = live[code] == 0 || dict[code].TryInt64() != nullptr;
  }
  // Size every shard *before* the fan-out: ParallelFor never invokes the
  // body for zero items (a dictionary with no live entry — e.g. an
  // all-NULL key column), and TallyShard reads bounds.size() - 1 as the
  // message count.
  if (typed) {
    engine.int64_keys_.resize(dict_threads);
  } else {
    engine.arena_.resize(dict_threads);
    engine.bounds_.assign(dict_threads, std::vector<std::size_t>{0});
  }
  std::vector<std::vector<std::uint32_t>> shard_codes(dict_threads);
  ParallelFor(dict.size(), dict_threads,
              [&](std::size_t shard, std::size_t begin, std::size_t end) {
                for (std::size_t code = begin; code < end; ++code) {
                  if (live[code] == 0) continue;  // no referencing row
                  if (typed) {
                    engine.int64_keys_[shard].push_back(
                        *dict[code].TryInt64());
                  } else {
                    dict[code].SerializeForHash(engine.arena_[shard]);
                    engine.bounds_[shard].push_back(
                        engine.arena_[shard].size());
                  }
                  shard_codes[shard].push_back(
                      static_cast<std::uint32_t>(code));
                }
              });

  engine.msg_base_.resize(dict_threads);
  std::size_t total = 0;
  std::vector<std::uint32_t> msg_of_code(dict.size(), kNoMessage);
  for (std::size_t s = 0; s < dict_threads; ++s) {
    engine.msg_base_[s] = total;
    for (const std::uint32_t code : shard_codes[s]) {
      msg_of_code[code] = static_cast<std::uint32_t>(total++);
    }
  }
  engine.num_messages_ = total;
  engine.vote_.assign(total, 0);
  engine.usable_.assign(total, 0);
  engine.rows_.assign(total, 0);

  // Fold every row into its message's key-independent aggregates. The
  // per-worker accumulators are |messages| wide, so cap the worker count
  // when a near-unique key column would make the transient copies large
  // (the fold is a cheap streaming pass; extra workers buy little there).
  std::size_t agg_threads = EffectiveThreadCount(options.num_threads, n);
  const std::size_t per_worker_bytes = total * 12;
  while (agg_threads > 1 &&
         (agg_threads - 1) * per_worker_bytes > (std::size_t{64} << 20)) {
    --agg_threads;
  }
  std::vector<std::vector<std::int32_t>> shard_vote(
      agg_threads, std::vector<std::int32_t>(total, 0));
  std::vector<std::vector<std::uint32_t>> shard_usable(
      agg_threads, std::vector<std::uint32_t>(total, 0));
  std::vector<std::vector<std::uint32_t>> shard_rows(
      agg_threads, std::vector<std::uint32_t>(total, 0));
  ParallelFor(n, agg_threads,
              [&](std::size_t shard, std::size_t begin, std::size_t end) {
                std::vector<std::int32_t>& vote = shard_vote[shard];
                std::vector<std::uint32_t>& usable = shard_usable[shard];
                std::vector<std::uint32_t>& rows = shard_rows[shard];
                for (std::size_t j = begin; j < end; ++j) {
                  const std::int32_t code = codes[j];
                  if (code < 0) continue;  // NULL key: unfit, no message
                  const std::uint32_t m =
                      msg_of_code[static_cast<std::size_t>(code)];
                  ++rows[m];
                  const std::int32_t t = engine.target_index_.index(j);
                  if (t < 0) continue;  // NULL / out-of-domain target
                  ++usable[m];
                  vote[m] += ExtractBitFromValueIndex(
                                 static_cast<std::size_t>(t))
                                 ? 1
                                 : -1;
                }
              });
  for (std::size_t s = 0; s < agg_threads; ++s) {
    for (std::size_t m = 0; m < total; ++m) {
      engine.vote_[m] += shard_vote[s][m];
      engine.usable_[m] += shard_usable[s][m];
      engine.rows_[m] += shard_rows[s][m];
    }
  }
  return engine;
}

template <typename Slots>
void DetectEngine::TallyShard(std::size_t shard, FitScanner& scan,
                              const Slots& slots,
                              std::vector<SlotVote>& hits,
                              std::size_t& usable_votes,
                              std::size_t& fit_tuples) const {
  std::size_t usable = 0;
  std::size_t fit_rows = 0;
  if (!dict_keys_) {
    // The plan is the key column: scan the shard's rows in place and read
    // the target index of each fit row only.
    const std::size_t begin = row_bounds_[shard];
    const ColumnStore& store = rel_->store();
    const ColumnReader key_reader(store, columns_.key_col());
    std::vector<std::uint8_t> key_bytes;
    ScanKeyColumn(
        scan, store, columns_.key_col(), begin, row_bounds_[shard + 1],
        [&](std::size_t i, std::uint64_t /*h1*/, std::uint64_t h2) {
          const std::size_t j = begin + i;
          ++fit_rows;
          const std::optional<std::size_t> idx = slots(
              h2, [&] { return key_reader.SerializeKeyInto(j, key_bytes); });
          if (!idx.has_value()) return;
          const std::int32_t t = target_index_.index(j);
          if (t < 0) return;  // NULL / out-of-domain target
          ++usable;
          hits.push_back(
              {*idx,
               ExtractBitFromValueIndex(static_cast<std::size_t>(t)) ? 1 : -1});
        });
    usable_votes += usable;
    fit_tuples += fit_rows;
    return;
  }
  const std::size_t base = msg_base_[shard];
  // `key_bytes()` yields message i's SerializeKeyInto form; only a map
  // candidate calls it, for its fit messages.
  const auto tally = [&](std::size_t i, std::uint64_t h2,
                         const auto& key_bytes) {
    const std::size_t m = base + i;
    fit_rows += rows_[m];
    const std::optional<std::size_t> idx = slots(h2, key_bytes);
    if (!idx.has_value()) return;
    usable += usable_[m];
    const std::int32_t v = vote_[m];
    if (v != 0) hits.push_back({*idx, v});
  };
  if (!int64_keys_.empty()) {
    const std::vector<std::int64_t>& keys = int64_keys_[shard];
    std::uint8_t bytes[9];
    scan.ScanInt64(
        keys.data(), /*null_words=*/nullptr, 0, keys.size(),
        [&](std::size_t i, std::uint64_t /*h1*/, std::uint64_t h2) {
          tally(i, h2, [&] {
            Value::SerializeNumberTo(ColumnType::kInt64,
                                     static_cast<std::uint64_t>(keys[i]),
                                     bytes);
            return std::string_view(reinterpret_cast<const char*>(bytes),
                                    sizeof(bytes));
          });
        });
  } else {
    const std::uint8_t* arena = arena_[shard].data();
    const std::vector<std::size_t>& bounds = bounds_[shard];
    scan.ScanPrepared(
        arena, std::span<const std::size_t>(bounds),
        [&](std::size_t i, std::uint64_t /*h1*/, std::uint64_t h2) {
          tally(i, h2, [&] {
            return std::string_view(
                reinterpret_cast<const char*>(arena + bounds[i]),
                bounds[i + 1] - bounds[i]);
          });
        });
  }
  usable_votes += usable;
  fit_tuples += fit_rows;
}

Result<DetectionResult> DetectEngine::RunPass(const KeyCandidate& candidate,
                                              std::size_t num_threads,
                                              Scratch& scratch) const {
  const SteadyClock::time_point start = SteadyClock::now();
  CATMARK_ASSIGN_OR_RETURN(
      const Channel channel,
      Channel::Create(candidate.keys, candidate.params, num_rows_,
                      candidate.wm_len, candidate.embedding_map == nullptr));
  DetectionResult result;
  result.num_tuples = num_rows_;
  result.payload_length = channel.payload_length();
  result.prf = channel.prf();

  const std::size_t num_shards =
      dict_keys_ ? msg_base_.size() : row_bounds_.size() - 1;
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(num_threads, num_shards));
  if (scratch.hits.size() < threads) scratch.hits.resize(threads);
  const std::span<std::vector<SlotVote>> hits(scratch.hits.data(), threads);
  for (std::vector<SlotVote>& worker_hits : hits) worker_hits.clear();
  std::size_t usable_votes = 0;
  std::size_t fit_tuples = 0;
  WithSlots(candidate, channel, [&](const auto& slots) {
    if (threads <= 1) {
      FitScanner scan = channel.Scanner(scratch.fit);
      for (std::size_t s = 0; s < num_shards; ++s) {
        TallyShard(s, scan, slots, hits[0], usable_votes, fit_tuples);
      }
      return;
    }
    // Plan shards append to per-worker hit buffers, merged below by
    // commutative integer sums — bit-identical at every thread count.
    std::vector<std::size_t> worker_usable(threads, 0);
    std::vector<std::size_t> worker_fit(threads, 0);
    ParallelFor(num_shards, threads,
                [&](std::size_t worker, std::size_t begin, std::size_t end) {
                  FitScratch local;
                  FitScanner scan = channel.Scanner(local);
                  for (std::size_t s = begin; s < end; ++s) {
                    TallyShard(s, scan, slots, hits[worker],
                               worker_usable[worker], worker_fit[worker]);
                  }
                });
    for (std::size_t w = 0; w < threads; ++w) {
      usable_votes += worker_usable[w];
      fit_tuples += worker_fit[w];
    }
  });
  result.usable_votes = usable_votes;
  result.fit_tuples = fit_tuples;

  const Status finish =
      FinishVoteTally(MergeSlotRuns(hits, scratch.sort_buffer),
                      channel.payload_length(),
                      candidate.wm_len, candidate.params.ecc, result);
  if (!finish.ok()) return finish;
  result.rows_scanned = num_rows_;
  result.messages_hashed = num_messages_;
  result.wall_seconds = SecondsSince(start);
  return result;
}

Result<DetectionResult> DetectEngine::Detect(
    const KeyCandidate& candidate) const {
  Scratch scratch;
  return RunPass(candidate,
                 EffectiveThreadCount(num_threads_, num_messages_), scratch);
}

std::vector<Result<DetectionResult>> DetectEngine::DetectMany(
    std::span<const KeyCandidate> candidates) const {
  std::vector<Result<DetectionResult>> results(
      candidates.size(),
      Result<DetectionResult>(Status::Internal("pass not run")));
  if (candidates.empty()) return results;

  // Split the worker budget keys × shards: candidates fan out first (their
  // passes are fully independent), and leftover workers parallelize each
  // pass's plan shards.
  const std::size_t budget = EffectiveThreadCount(num_threads_, num_rows_);
  const std::size_t outer = std::min(budget, candidates.size());
  const std::size_t inner = std::max<std::size_t>(1, budget / outer);
  ParallelFor(candidates.size(), outer,
              [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
                Scratch scratch;
                for (std::size_t i = begin; i < end; ++i) {
                  results[i] = RunPass(candidates[i], inner, scratch);
                }
              });
  return results;
}

}  // namespace catmark
