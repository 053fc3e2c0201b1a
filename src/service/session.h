#ifndef CATMARK_SERVICE_SESSION_H_
#define CATMARK_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/certificate.h"
#include "core/embedder.h"
#include "core/keys.h"
#include "core/params.h"
#include "core/fit_scan.h"
#include "crypto/prf.h"
#include "relation/column_store.h"
#include "relation/domain.h"
#include "relation/relation.h"

namespace catmark {

/// Everything a streaming watermark session needs, in one value: the secret
/// keys, the scheme parameters with the keyed-PRF backend *pinned*
/// (params.prf must be set — a session that re-resolved CATMARK_PRF in some
/// later process would embed marks invisible to dispute-time detection), the
/// attribute pair, the categorical domain, the payload length and the mark
/// itself. Build one from the embedding that created the relation
/// (FromEmbedReport) or from a published certificate (FromCertificate), then
/// open a StreamSession over it.
struct SessionSpec {
  WatermarkKeySet keys;
  /// params.prf must hold a value (Validate enforces it) — the factories
  /// below pin it from the report / certificate.
  WatermarkParams params;
  std::string key_attr;
  std::string target_attr;
  /// The embed-time domain. Inserts select marked values from it, so it must
  /// be the one detection will use.
  CategoricalDomain domain;
  /// |wm_data| — must match the original embedding (>= wm.size()).
  std::size_t payload_length = 0;
  BitVector wm;

  /// Builds a spec from the original embedding run. An explicit
  /// `params.prf` wins; on auto (nullopt) the backend is pinned from the
  /// report, *not* re-resolved from CATMARK_PRF at insert time.
  static SessionSpec FromEmbedReport(WatermarkKeySet keys,
                                     WatermarkParams params,
                                     const EmbedOptions& options,
                                     const EmbedReport& report, BitVector wm);

  /// Builds a spec from a published certificate: verifies `keys` against the
  /// certificate's key commitment (FailedPrecondition on mismatch), then
  /// takes every parameter from the certificate. Certificates without a PRF
  /// field predate the PRF subsystem and mean the legacy keyed hash.
  static Result<SessionSpec> FromCertificate(
      const WatermarkCertificate& certificate, const WatermarkKeySet& keys);

  /// Structural validation: keys valid, attributes named, domain of size
  /// >= 2, e >= 1, a pinned PRF backend, a non-empty mark that fits the
  /// payload length.
  Status Validate() const;
};

/// What one insert batch did.
struct BatchReport {
  std::size_t rows = 0;          ///< rows appended
  std::size_t fit_rows = 0;      ///< rows satisfying the fitness test
  std::size_t altered_rows = 0;  ///< fit rows whose target cell changed
  /// Keys that went through the k1 PRF this batch. A siphash24 session
  /// hashes every non-NULL key; the slow backends hash each distinct key
  /// once while their verdict cache has room, and repeats cost no hashing.
  std::size_t hashed_keys = 0;
};

/// A live streaming embedding session (Section 4.3, "as updates occur to
/// the data, the resulting tuples can be evaluated on the fly for 'fitness'
/// and watermarked accordingly"), marking whole batches per call.
///
/// InsertRange is the one marking loop. It runs the same per-tuple rule as
/// the offline embedder and is bit-compatible with it, but works column-wise
/// off the source relation's store:
///
///   - keys run through the FitScanner (core/fit_scan.h) that the embed and
///     detect paths use, straight off the source's key column: batched k1,
///     the vectorized fitness test, and one batched k2 call over the ~1/e
///     fit keys;
///   - rows append through Relation::AppendRowsFrom with the marked target
///     values as a per-row override, so no Row is ever materialized.
///
/// The backend pinned in params.prf decides whether verdicts are memoized.
/// keyed-hash and hmac-sha256 cost hundreds of ns per hash, so their
/// sessions keep a resident key->verdict cache (up to kVerdictCacheCapacity
/// distinct keys) that survives across batches. siphash24 hashes a key in a
/// few ns — less than the cache probe — so its sessions never build one.
///
/// Inserts are atomic: the input is validated against the relation's schema
/// up front, and on any error nothing is appended. A session is not
/// internally synchronized — it is single-writer (the WatermarkService runs
/// *distinct* sessions in parallel, never one session from two threads).
///
/// The session does not own the relation; every insert and Refresh takes it
/// explicitly, and a session may serve several relations of the same schema
/// shape (the column bindings re-resolve when the relation changes, the
/// key->verdict cache is relation-independent).
class StreamSession {
 public:
  /// Distinct keys a caching session keeps resident; keys past the cap are
  /// hashed per occurrence instead of memoized.
  static constexpr std::size_t kVerdictCacheCapacity = std::size_t{1} << 20;

  /// True for the backends whose sessions keep a verdict cache.
  static bool CachesVerdicts(PrfKind prf) {
    return prf != PrfKind::kSipHash24;
  }

  /// Validates `spec` and builds the session: PRF key schedules and the
  /// ECC-expanded payload.
  static Result<StreamSession> Create(SessionSpec spec);

  StreamSession(StreamSession&&) = default;
  StreamSession& operator=(StreamSession&&) = default;
  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Watermarks rows [begin, begin + count) of `src` and appends them to
  /// `rel`; `src` is left untouched. `src` must have `rel`'s schema
  /// (InvalidArgument otherwise) and hold the whole range (OutOfRange
  /// otherwise); on either error `rel` is unchanged. Dictionary codes are
  /// assigned in row order, exactly as appending the marked rows one at a
  /// time would.
  Result<BatchReport> InsertRange(Relation& rel, const Relation& src,
                                  std::size_t begin, std::size_t count);

  /// Row adapter over InsertRange: validates `rows` against `rel`'s schema
  /// (on an arity/type mismatch anywhere, nothing is appended), stages them
  /// in a reused per-session relation and marks them from there. `rows` is
  /// consumed.
  Result<BatchReport> InsertBatch(Relation& rel, std::span<Row> rows);

  /// Single-row convenience — a batch of one. Returns true when the tuple
  /// was fit (and therefore carries a mark bit).
  Result<bool> Insert(Relation& rel, Row row);

  /// Re-evaluates an updated tuple in place: when the key attribute of row
  /// `row_index` is fit, re-applies the embedding rule to the target
  /// attribute (an UPDATE that touched either attribute may have destroyed
  /// the bit). Returns true when the tuple is fit. Reuses the session's
  /// resident column bindings and, on the caching backends, its verdict
  /// cache — a refresh of a key seen before performs no keyed hashing.
  Result<bool> Refresh(Relation& rel, std::size_t row_index);

  const SessionSpec& spec() const { return spec_; }
  const CategoricalDomain& domain() const { return spec_.domain; }
  std::size_t payload_length() const { return spec_.payload_length; }

  /// Lifetime totals across every batch.
  std::size_t total_rows() const { return total_rows_; }
  std::size_t total_fit() const { return total_fit_; }
  /// Distinct keys resident in the verdict cache (always 0 on siphash24).
  std::size_t cached_keys() const { return cache_.size(); }

 private:
  /// The per-key outcome of the Section 3.2.1 hashes: fitness, the fitness
  /// hash itself (drives value selection) and the k2-derived payload
  /// position. Everything downstream (bit lookup, SelectValueIndex) is cheap
  /// integer work recomputed per row.
  struct Verdict {
    std::uint64_t h1 = 0;
    std::uint32_t payload_index = 0;
    bool fit = false;
  };
  using VerdictCache =
      std::unordered_map<std::string, Verdict, TransparentStringHash,
                         std::equal_to<>>;

  explicit StreamSession(SessionSpec spec);

  /// Binds key/target column indices for `rel`, memoized on the relation's
  /// schema identity so consecutive batches against the same relation skip
  /// the name lookups.
  Status BindColumns(const Relation& rel);

  /// Cache-or-compute for one key (the Refresh path). A miss runs the
  /// session's FitScanner over the one key.
  Verdict VerdictFor(const Value& key_value);

  SessionSpec spec_;
  BitVector wm_data_;  // ECC-expanded payload
  // Built once: inserts must not pay the backend's key schedule (for
  // siphash24, a SHA-256 key derivation) per tuple, let alone per batch.
  std::unique_ptr<KeyedPrf> prf_k1_;
  std::unique_ptr<KeyedPrf> prf_k2_;

  // Resident key->verdict cache; only filled when CachesVerdicts(prf).
  bool cache_verdicts_ = false;
  VerdictCache cache_;

  // Column bindings for the relation last served, keyed on its schema's
  // identity.
  const Schema* bound_schema_ = nullptr;
  std::size_t key_col_ = 0;
  std::size_t target_col_ = 0;

  // Per-insert scratch, reused across batches: the fit scanner's buffers;
  // on caching sessions, the rows whose key missed the cache (with the
  // cache slot to fill, null past the cap) and the rows whose key hit it;
  // the appended source rows and their target override.
  FitScratch fit_scratch_;
  std::vector<std::pair<std::size_t, Verdict*>> misses_;
  std::vector<std::pair<std::size_t, const Verdict*>> hits_;
  std::vector<std::size_t> range_;
  std::vector<const Value*> marked_;
  // InsertBatch's staging relation, rebuilt when the schema changes.
  Relation staged_;
  std::vector<std::uint8_t> scratch_;

  std::size_t total_rows_ = 0;
  std::size_t total_fit_ = 0;
};

}  // namespace catmark

#endif  // CATMARK_SERVICE_SESSION_H_
