#ifndef CATMARK_CORE_CHANNEL_H_
#define CATMARK_CORE_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/codec.h"
#include "core/fit_scan.h"
#include "core/keys.h"
#include "core/params.h"
#include "relation/domain.h"

namespace catmark {

// The one resolver of what the Section 3.2.1 rule runs on (fit iff
// H(T(K), k1) mod e == 0, slot H(T(K), k2) mod |wm_data|, value index with
// its LSB forced to the slot's bit). Embed, detect (so also the sweep),
// stream and fit-tuple injection resolve here, once per embed, candidate,
// session or injection. The check list every path refers to, in order:
//
//   Scheme half, Channel::Create(keys, params, N, |wm|):
//     1. k1 != k2, both non-empty                       InvalidArgument
//     2. e >= 1                                          InvalidArgument
//     3. |wm| >= 1                                       InvalidArgument
//     4. payload length: params.payload_length, else max(|wm|, N/e), which
//        needs N/e >= 1                                  FailedPrecondition
//        and within [MinPayloadLength(ecc, |wm|),
//        kMaxPayloadLength]                              InvalidArgument
//     5. PRF: params.prf, else CATMARK_PRF (an unknown
//        name is refused), else the keyed hash           InvalidArgument
//   Column half, ChannelColumns::Resolve(rel, key, target, domain):
//     6. both attributes exist                           NotFound
//     7. key attribute != target attribute               InvalidArgument
//     8. the given domain, else the target column's
//        distinct values; at least 2 of them             FailedPrecondition
//     9. every domain value has the target column's type InvalidArgument
//
// A domain of the right type that the data does not hold still resolves:
// no cell votes, and a bit with no vote decodes as 0.

/// Payload length the scheme derives when WatermarkParams::payload_length
/// is 0: the available bandwidth N/e, floored at the watermark length.
std::size_t DerivePayloadLength(std::size_t num_tuples, std::uint64_t e,
                                std::size_t wm_len);

/// Check 4 (needs params.e >= 1 and wm_len >= 1).
Result<std::size_t> ResolvePayloadLength(const WatermarkParams& params,
                                         std::size_t num_tuples,
                                         std::size_t wm_len);

/// The scheme half: the checked e and payload length, the pinned PRF and
/// the k1/k2 PRFs built once over it. Immutable; each worker takes its own
/// Scanner.
class Channel {
 public:
  /// Runs checks 1-5; `num_tuples` only matters to a derived payload
  /// length. Without `hash_k2` (the embedding-map position source) no k2
  /// PRF is built and the scanner reports h2 = 0.
  static Result<Channel> Create(const WatermarkKeySet& keys,
                                const WatermarkParams& params,
                                std::size_t num_tuples, std::size_t wm_len,
                                bool hash_k2 = true);

  std::uint64_t e() const { return e_; }
  PrfKind prf() const { return prf_; }
  std::size_t payload_length() const { return payload_length_; }

  /// A fit scanner over the channel's PRFs and e; it must not outlive the
  /// channel.
  FitScanner Scanner(FitScratch& scratch) const {
    return FitScanner(*k1_, k2_.get(), e_, scratch);
  }

  /// The wm_data slot of k2 hash `h2`: below the payload length, so it
  /// fits 32 bits. Slot(0) is 0.
  std::uint32_t Slot(std::uint64_t h2) const {
    return static_cast<std::uint32_t>(
        PayloadIndexFromHash(h2, payload_length_, bit_index_mode_));
  }

 private:
  Channel() = default;

  std::uint64_t e_ = 1;
  PrfKind prf_ = PrfKind::kKeyedHash;
  std::size_t payload_length_ = 1;
  BitIndexMode bit_index_mode_ = BitIndexMode::kModulo;
  std::unique_ptr<KeyedPrf> k1_;
  std::unique_ptr<KeyedPrf> k2_;
};

/// The column half: the key and target columns of a relation and the
/// domain, borrowed when given (it must outlive this), owned when
/// recovered.
class ChannelColumns {
 public:
  /// Runs checks 6-9. `domain` null means recover it from the data.
  static Result<ChannelColumns> Resolve(const Relation& rel,
                                        const std::string& key_attr,
                                        const std::string& target_attr,
                                        const CategoricalDomain* domain);

  /// An unresolved placeholder, to be assigned from Resolve.
  ChannelColumns() = default;

  std::size_t key_col() const { return key_col_; }
  std::size_t target_col() const { return target_col_; }
  const CategoricalDomain& domain() const { return *domain_; }

 private:
  std::size_t key_col_ = 0;
  std::size_t target_col_ = 0;
  // unique_ptr keeps the recovered domain's address stable across moves.
  std::unique_ptr<const CategoricalDomain> recovered_;
  const CategoricalDomain* domain_ = nullptr;
};

}  // namespace catmark

#endif  // CATMARK_CORE_CHANNEL_H_
