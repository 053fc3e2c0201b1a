#include "core/detect_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string_view>

#include "common/check.h"
#include "common/parallel.h"
#include "core/codec.h"
#include "core/embedder.h"
#include "core/fit_scan.h"
#include "crypto/prf.h"
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

/// Candidate sanity shared by RunPass and DetectOneShot — one source, so
/// the fused and planned paths cannot drift on what they reject.
Status ValidateCandidate(const KeyCandidate& candidate) {
  if (candidate.wm_len == 0) {
    return Status::InvalidArgument("watermark length must be > 0");
  }
  if (!candidate.keys.valid()) {
    return Status::InvalidArgument("invalid watermark key set (k1 == k2?)");
  }
  if (candidate.params.e == 0) {
    return Status::InvalidArgument("encoding parameter e must be >= 1");
  }
  return Status::OK();
}

/// The payload-length precedence ladder shared by RunPass and
/// DetectOneShot: engine/options override, then the candidate's claimed
/// params, then re-derivation from the suspect size.
Result<std::size_t> ResolveDetectPayloadLength(std::size_t override_len,
                                               const KeyCandidate& candidate,
                                               std::size_t num_rows) {
  if (override_len != 0) return override_len;
  if (candidate.params.payload_length != 0) {
    return candidate.params.payload_length;
  }
  if (num_rows / candidate.params.e == 0) {
    return Status::FailedPrecondition(
        "cannot derive the payload length: e exceeds the suspect relation "
        "size (N/e == 0); pass the owner-side payload_length instead");
  }
  return DerivePayloadLength(num_rows, candidate.params.e, candidate.wm_len);
}

/// Figure 2's position source: a fit message's slot comes from its k2
/// hash. `key_bytes` is never called.
struct K2Slots {
  std::size_t payload_len;
  BitIndexMode mode;

  template <typename KeyBytes>
  std::optional<std::size_t> operator()(std::uint64_t h2,
                                        const KeyBytes& /*key_bytes*/) const {
    return PayloadIndexFromHash(h2, payload_len, mode);
  }
};

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

/// Runs `tally` with the candidate's position source, chosen once per pass.
template <typename Tally>
void WithSlots(const KeyCandidate& candidate, std::size_t payload_len,
               Tally&& tally) {
  if (candidate.embedding_map != nullptr) {
    tally(MapSlots{*candidate.embedding_map, payload_len});
  } else {
    tally(K2Slots{payload_len, candidate.params.bit_index_mode});
  }
}

}  // namespace

/// What the per-relation prologue resolved: the attribute columns and the
/// domain — a caller's view, the caller's optional, or one recovered from
/// the suspect data and owned here.
struct DetectEngine::RelationInputs {
  std::size_t key_col = 0;
  std::size_t target_col = 0;
  const CategoricalDomain* domain = nullptr;
  std::unique_ptr<CategoricalDomain> recovered_domain;
};

Result<DetectEngine::RelationInputs> DetectEngine::ResolveInputs(
    const Relation& rel, const DetectEngineOptions& options) {
  RelationInputs in;
  CATMARK_ASSIGN_OR_RETURN(in.key_col,
                           rel.schema().ColumnIndexOrError(options.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      in.target_col, rel.schema().ColumnIndexOrError(options.target_attr));
  if (rel.empty()) {
    return Status::FailedPrecondition("cannot detect in an empty relation");
  }
  if (options.domain_view != nullptr) {
    in.domain = options.domain_view;
  } else if (options.domain.has_value()) {
    in.domain = &*options.domain;
  } else {
    CATMARK_ASSIGN_OR_RETURN(
        CategoricalDomain recovered,
        CategoricalDomain::FromRelationColumn(rel, in.target_col));
    in.recovered_domain =
        std::make_unique<CategoricalDomain>(std::move(recovered));
    in.domain = in.recovered_domain.get();
  }
  if (in.domain->size() < 2) {
    return Status::FailedPrecondition("domain has fewer than 2 values");
  }
  if (options.target_index != nullptr &&
      options.target_index->size() != rel.NumRows()) {
    return Status::InvalidArgument(
        "target_index has a different row count than the suspect relation");
  }
  return in;
}

Result<DetectEngine> DetectEngine::Create(const Relation& rel,
                                          const DetectEngineOptions& options) {
  const SteadyClock::time_point start = SteadyClock::now();
  CATMARK_ASSIGN_OR_RETURN(RelationInputs inputs, ResolveInputs(rel, options));
  DetectEngine engine = Build(rel, options, std::move(inputs));
  engine.plan_build_seconds_ = SecondsSince(start);
  return engine;
}

DetectEngine DetectEngine::Build(const Relation& rel,
                                 const DetectEngineOptions& options,
                                 RelationInputs&& inputs) {
  DetectEngine engine;
  // The engine outlives `options`: keep a view, own a recovered domain, and
  // copy the caller's optional.
  engine.owned_domain_ = std::move(inputs.recovered_domain);
  if (engine.owned_domain_ == nullptr && options.domain_view == nullptr) {
    engine.owned_domain_ = std::make_unique<CategoricalDomain>(*inputs.domain);
  }
  engine.domain_ = engine.owned_domain_ != nullptr ? engine.owned_domain_.get()
                                                   : options.domain_view;
  const std::size_t key_col = inputs.key_col;
  const std::size_t target_col = inputs.target_col;

  const std::size_t n = rel.NumRows();
  engine.num_rows_ = n;
  engine.num_threads_ = options.num_threads;
  engine.default_payload_length_ = options.payload_length;
  const std::size_t threads = EffectiveThreadCount(options.num_threads, n);

  const ValueIndexColumn* target_index = options.target_index;
  ValueIndexColumn local_index;
  if (target_index == nullptr) {
    local_index =
        ValueIndexColumn::Build(rel, target_col, *engine.domain_, threads);
    target_index = &local_index;
  }

  const ColumnStore& store = rel.store();
  engine.dict_keys_ = store.IsDictColumn(key_col);

  if (engine.dict_keys_) {
    // Dict-code gather: one message per *live* distinct dictionary entry,
    // prepared once — every row holding that entry shares its fitness and
    // position hashes, so the pass never revisits the row dimension. An
    // INT64 column keeps its values as a typed lane; any other type, or an
    // INT64 dictionary holding a value of another type (the unchecked
    // append paths do not type-check), is serialized into the arena.
    const std::vector<Value>& dict = store.Dict(key_col);
    const std::vector<std::int32_t>& codes = store.Codes(key_col);
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
                    const std::int32_t t = target_index->index(j);
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
  } else {
    // Plain key column: one message per non-NULL key row, fused with the
    // vote computation in a single sharded pass (vote 0 = unusable row, so
    // the tally can add it unconditionally). An INT64 lane keeps its keys
    // as a typed lane, as an INT64 dictionary does; any other type is
    // serialized into the arena.
    const ColumnReader key_reader(store, key_col);
    const bool typed = store.IsLaneColumn(key_col) &&
                       store.Lane(key_col).type == ColumnType::kInt64;
    const std::int64_t* lane_keys =
        typed ? store.Lane(key_col).int64s().data() : nullptr;
    if (typed) {
      engine.int64_keys_.resize(threads);
    } else {
      engine.arena_.resize(threads);
      engine.bounds_.assign(threads, std::vector<std::size_t>{0});
    }
    std::vector<std::vector<std::int32_t>> shard_vote(threads);
    ParallelFor(n, threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  std::vector<std::int32_t>& vote = shard_vote[shard];
                  if (typed) engine.int64_keys_[shard].reserve(end - begin);
                  for (std::size_t j = begin; j < end; ++j) {
                    if (key_reader.IsNull(j)) continue;
                    if (typed) {
                      engine.int64_keys_[shard].push_back(lane_keys[j]);
                    } else {
                      key_reader.SerializeForHash(j, engine.arena_[shard]);
                      engine.bounds_[shard].push_back(
                          engine.arena_[shard].size());
                    }
                    const std::int32_t t = target_index->index(j);
                    vote.push_back(
                        t < 0 ? 0
                              : (ExtractBitFromValueIndex(
                                     static_cast<std::size_t>(t))
                                     ? 1
                                     : -1));
                  }
                });
    engine.msg_base_.resize(threads);
    std::size_t total = 0;
    for (std::size_t s = 0; s < threads; ++s) {
      engine.msg_base_[s] = total;
      total += shard_vote[s].size();
    }
    engine.num_messages_ = total;
    engine.vote_.reserve(total);
    for (std::size_t s = 0; s < threads; ++s) {
      engine.vote_.insert(engine.vote_.end(), shard_vote[s].begin(),
                          shard_vote[s].end());
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
  const std::size_t base = msg_base_[shard];
  std::size_t usable = 0;
  std::size_t fit_rows = 0;
  // `key_bytes()` yields message i's SerializeKeyInto form; only a map
  // candidate calls it, for its fit messages.
  const auto tally = [&](std::size_t i, std::uint64_t h2,
                         const auto& key_bytes) {
    const std::size_t m = base + i;
    fit_rows += dict_keys_ ? rows_[m] : 1;
    const std::optional<std::size_t> idx = slots(h2, key_bytes);
    if (!idx.has_value()) return;
    const std::int32_t v = vote_[m];
    usable += dict_keys_ ? usable_[m] : (v != 0);
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
  const Status valid = ValidateCandidate(candidate);
  if (!valid.ok()) return valid;

  DetectionResult result;
  result.num_tuples = num_rows_;
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t payload_len,
      ResolveDetectPayloadLength(default_payload_length_, candidate,
                                 num_rows_));
  result.payload_length = payload_len;
  CATMARK_ASSIGN_OR_RETURN(const PrfKind prf_kind,
                           ResolvePrfKind(candidate.params.prf));
  result.prf = prf_kind;

  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(prf_kind, candidate.keys.k1, candidate.params.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      candidate.embedding_map != nullptr
          ? nullptr
          : CreateKeyedPrf(prf_kind, candidate.keys.k2,
                           candidate.params.hash_algo);

  const std::size_t num_shards = msg_base_.size();
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(num_threads, num_shards));
  if (scratch.hits.size() < threads) scratch.hits.resize(threads);
  const std::span<std::vector<SlotVote>> hits(scratch.hits.data(), threads);
  for (std::vector<SlotVote>& worker_hits : hits) worker_hits.clear();
  std::size_t usable_votes = 0;
  std::size_t fit_tuples = 0;
  WithSlots(candidate, payload_len, [&](const auto& slots) {
    if (threads <= 1) {
      FitScanner scan(*prf_k1, prf_k2.get(), candidate.params.e, scratch.fit);
      for (std::size_t s = 0; s < num_shards; ++s) {
        TallyShard(s, scan, slots, hits[0], usable_votes, fit_tuples);
      }
      return;
    }
    // Message shards append to per-worker hit buffers, merged below by
    // commutative integer sums — bit-identical at every thread count.
    std::vector<std::size_t> worker_usable(threads, 0);
    std::vector<std::size_t> worker_fit(threads, 0);
    ParallelFor(num_shards, threads,
                [&](std::size_t worker, std::size_t begin, std::size_t end) {
                  FitScratch local;
                  FitScanner scan(*prf_k1, prf_k2.get(), candidate.params.e,
                                  local);
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
      FinishVoteTally(MergeSlotRuns(hits, scratch.sort_buffer), payload_len,
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

Result<DetectionResult> DetectEngine::DetectOneShot(
    const Relation& rel, const DetectEngineOptions& options,
    const KeyCandidate& candidate) {
  const SteadyClock::time_point start = SteadyClock::now();
  const Status valid = ValidateCandidate(candidate);
  if (!valid.ok()) return valid;
  CATMARK_ASSIGN_OR_RETURN(RelationInputs inputs, ResolveInputs(rel, options));
  const ColumnStore& store = rel.store();
  const std::size_t key_col = inputs.key_col;
  const std::size_t target_col = inputs.target_col;
  const CategoricalDomain& domain = *inputs.domain;

  if (store.IsDictColumn(key_col)) {
    // Dict-code gather: the plan arena is O(live dict entries) and folding
    // the rows into it is the whole win — the plan IS the fused pass here.
    const DetectEngine engine = Build(rel, options, std::move(inputs));
    CATMARK_ASSIGN_OR_RETURN(DetectionResult result,
                             engine.Detect(candidate));
    result.wall_seconds = SecondsSince(start);
    return result;
  }

  // Plain key column: one message per non-NULL key row, so the plan would
  // materialize an O(N) arena + bounds + votes only to stream them back
  // exactly once. Fuse instead: serialize a cache-resident chunk, hash it
  // while hot, fitness-test, and tally — target-domain indices (and a map
  // candidate's key bytes) resolved only for the ~1/e fit rows.
  const std::size_t n = rel.NumRows();
  const std::size_t threads = EffectiveThreadCount(options.num_threads, n);

  // Domain-index view of the target column: a caller-provided cache wins;
  // a dict-encoded target builds its zero-copy O(dict) view; a plain
  // target resolves lazily per fit row below — never an O(N) index build.
  const ValueIndexColumn* cached_index = options.target_index;
  ValueIndexColumn local_index;
  if (cached_index == nullptr && store.IsDictColumn(target_col)) {
    local_index = ValueIndexColumn::Build(rel, target_col, domain, threads);
    cached_index = &local_index;
  }

  DetectionResult result;
  result.num_tuples = n;
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t payload_len,
      ResolveDetectPayloadLength(options.payload_length, candidate, n));
  result.payload_length = payload_len;
  CATMARK_ASSIGN_OR_RETURN(const PrfKind prf_kind,
                           ResolvePrfKind(candidate.params.prf));
  result.prf = prf_kind;
  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(prf_kind, candidate.keys.k1, candidate.params.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      candidate.embedding_map != nullptr
          ? nullptr
          : CreateKeyedPrf(prf_kind, candidate.keys.k2,
                           candidate.params.hash_algo);
  const ColumnReader key_reader(store, key_col);

  std::vector<std::vector<SlotVote>> worker_hits(threads);
  std::vector<std::size_t> worker_usable(threads, 0);
  std::vector<std::size_t> worker_fit(threads, 0);
  std::vector<std::size_t> worker_hashed(threads, 0);
  WithSlots(candidate, payload_len, [&](const auto& slots) {
    ParallelFor(n, threads, [&](std::size_t shard, std::size_t begin,
                                std::size_t end) {
      std::vector<SlotVote>& hits = worker_hits[shard];
      std::size_t usable = 0;
      std::size_t fit = 0;
      FitScratch scratch;
      std::vector<std::uint8_t> key_bytes;
      FitScanner scan(*prf_k1, prf_k2.get(), candidate.params.e, scratch);
      worker_hashed[shard] = ScanKeyColumn(
          scan, store, key_col, begin, end,
          [&](std::size_t i, std::uint64_t /*h1*/, std::uint64_t h2) {
            const std::size_t j = begin + i;
            ++fit;
            const std::optional<std::size_t> idx = slots(
                h2, [&] { return key_reader.SerializeKeyInto(j, key_bytes); });
            if (!idx.has_value()) return;
            std::int32_t t;
            if (cached_index != nullptr) {
              t = cached_index->index(j);
            } else {
              const Value& attr_value = rel.Get(j, target_col);
              if (attr_value.is_null()) return;
              const auto domain_index = domain.IndexOf(attr_value);
              t = domain_index.has_value()
                      ? static_cast<std::int32_t>(*domain_index)
                      : ValueIndexColumn::kNoIndex;
            }
            if (t < 0) return;  // NULL / out-of-domain target
            ++usable;
            hits.push_back(
                {*idx,
                 ExtractBitFromValueIndex(static_cast<std::size_t>(t)) ? 1
                                                                       : -1});
          });
      worker_usable[shard] = usable;
      worker_fit[shard] = fit;
    });
  });

  for (std::size_t w = 0; w < threads; ++w) {
    result.usable_votes += worker_usable[w];
    result.fit_tuples += worker_fit[w];
    result.messages_hashed += worker_hashed[w];
  }

  std::vector<SlotVote> sort_buffer;
  const Status finish =
      FinishVoteTally(MergeSlotRuns(worker_hits, sort_buffer), payload_len,
                      candidate.wm_len, candidate.params.ecc, result);
  if (!finish.ok()) return finish;
  result.rows_scanned = n;
  result.wall_seconds = SecondsSince(start);
  return result;
}

std::vector<Result<DetectionResult>> DetectEngine::DetectMany(
    std::span<const KeyCandidate> candidates) const {
  std::vector<Result<DetectionResult>> results(
      candidates.size(),
      Result<DetectionResult>(Status::Internal("pass not run")));
  if (candidates.empty()) return results;

  // Split the worker budget keys × shards: candidates fan out first (their
  // passes are fully independent), and leftover workers parallelize each
  // pass's message shards.
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
