#ifndef CATMARK_SERVICE_SESSION_H_
#define CATMARK_SERVICE_SESSION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/certificate.h"
#include "core/channel.h"
#include "core/embedder.h"
#include "core/keys.h"
#include "core/params.h"
#include "ecc/code.h"
#include "relation/column_store.h"
#include "relation/domain.h"
#include "relation/relation.h"

namespace catmark {

/// Everything a streaming watermark session needs, in one value: the secret
/// keys, the scheme parameters, the attribute pair, the categorical domain
/// and the mark itself. Build one from the embedding that created the
/// relation (FromEmbedReport) or from a published certificate
/// (FromCertificate), then open a StreamSession over it, which checks it
/// against core/channel.h's list.
struct SessionSpec {
  WatermarkKeySet keys;
  /// The keyed-PRF backend and the payload length must be *pinned*: a
  /// session that re-resolved CATMARK_PRF in some later process, or
  /// re-derived |wm_data| from a grown relation, would embed marks
  /// invisible to dispute-time detection. The factories below pin both
  /// from the report / certificate.
  WatermarkParams params;
  std::string key_attr;
  std::string target_attr;
  /// The embed-time domain. Inserts select marked values from it, so it must
  /// be the one detection will use.
  CategoricalDomain domain;
  BitVector wm;

  /// Builds a spec from the original embedding run. An explicit
  /// `params.prf` wins; on auto (nullopt) the backend is pinned from the
  /// report, *not* re-resolved from CATMARK_PRF at insert time. The payload
  /// length is always the report's.
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
};

/// What one insert batch did.
struct BatchReport {
  std::size_t rows = 0;          ///< rows appended
  std::size_t fit_rows = 0;      ///< rows satisfying the fitness test
  std::size_t altered_rows = 0;  ///< fit rows whose target cell changed
  /// Keys that went through the k1 PRF this batch: every non-NULL key.
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
/// The rule needs no state per key, so the session keeps none: every key is
/// hashed each time it is inserted or refreshed, on every PRF backend.
///
/// Inserts are atomic: the input is validated against the relation's schema
/// up front, and on any error nothing is appended. A session is not
/// internally synchronized — it is single-writer.
///
/// The session does not own the relation; every insert and Refresh takes it
/// explicitly and looks its key and target columns up by name, so a session
/// may serve several relations whose schemas order the columns differently.
class StreamSession {
 public:
  /// Resolves the scheme half of the channel once (core/channel.h, checks
  /// 1-5), after the session-only check: InvalidArgument unless
  /// spec.params.prf and spec.params.payload_length are pinned. Every
  /// insert and Refresh resolves the column half (checks 6-9) against the
  /// relation it writes before it writes anything.
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
  /// the bit). Returns true when the tuple is fit. The key runs through the
  /// same FitScanner as an insert.
  Result<bool> Refresh(Relation& rel, std::size_t row_index);

  const SessionSpec& spec() const { return spec_; }
  const CategoricalDomain& domain() const { return spec_.domain; }
  std::size_t payload_length() const { return spec_.params.payload_length; }

  /// Lifetime totals across every batch.
  std::size_t total_rows() const { return total_rows_; }
  std::size_t total_fit() const { return total_fit_; }

 private:
  StreamSession(SessionSpec spec, Channel channel, PayloadBits wm_data);

  /// The domain value a fit key with hashes (h1, h2) must carry.
  const Value& MarkedValue(std::uint64_t h1, std::uint64_t h2) const;

  SessionSpec spec_;
  // Resolved once: inserts must not pay the backend's key schedule (for
  // siphash24, a SHA-256 key derivation) per tuple, let alone per batch.
  Channel channel_;
  PayloadBits wm_data_;  // the ECC-expanded payload, looked up per slot

  // Per-insert scratch, reused across batches: the fit scanner's buffers,
  // the appended source rows and their target override.
  FitScratch fit_scratch_;
  std::vector<std::size_t> range_;
  std::vector<const Value*> marked_;
  // InsertBatch's staging relation, rebuilt when the schema changes.
  Relation staged_;

  std::size_t total_rows_ = 0;
  std::size_t total_fit_ = 0;
};

}  // namespace catmark

#endif  // CATMARK_SERVICE_SESSION_H_
