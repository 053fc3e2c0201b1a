#include "core/channel.h"

#include <utility>

#include "ecc/code.h"

namespace catmark {

std::size_t DerivePayloadLength(std::size_t num_tuples, std::uint64_t e,
                                std::size_t wm_len) {
  const std::size_t bandwidth = num_tuples / static_cast<std::size_t>(e);
  return bandwidth > wm_len ? bandwidth : wm_len;
}

Result<std::size_t> ResolvePayloadLength(const WatermarkParams& params,
                                         std::size_t num_tuples,
                                         std::size_t wm_len) {
  std::size_t payload_len = params.payload_length;
  if (payload_len == 0) {
    if (num_tuples / params.e == 0) {
      return Status::FailedPrecondition(
          "cannot derive the payload length: e exceeds the relation size "
          "(N/e == 0); pass the owner-side payload_length instead");
    }
    payload_len = DerivePayloadLength(num_tuples, params.e, wm_len);
  }
  const std::size_t min_len = MinPayloadLength(params.ecc, wm_len);
  if (payload_len < min_len || payload_len > kMaxPayloadLength) {
    return Status::InvalidArgument(
        "payload length " + std::to_string(payload_len) + " is outside [" +
        std::to_string(min_len) + ", " + std::to_string(kMaxPayloadLength) +
        "] (a " + std::to_string(wm_len) + "-bit mark under " +
        std::string(EccKindName(params.ecc)) + ")");
  }
  return payload_len;
}

Result<Channel> Channel::Create(const WatermarkKeySet& keys,
                                const WatermarkParams& params,
                                std::size_t num_tuples, std::size_t wm_len,
                                bool hash_k2) {
  if (!keys.valid()) {
    return Status::InvalidArgument(
        "invalid watermark key set (keys must be non-empty and distinct)");
  }
  if (params.e == 0) {
    return Status::InvalidArgument("encoding parameter e must be >= 1");
  }
  if (wm_len == 0) return Status::InvalidArgument("watermark is empty");
  Channel channel;
  channel.e_ = params.e;
  channel.bit_index_mode_ = params.bit_index_mode;
  CATMARK_ASSIGN_OR_RETURN(channel.payload_length_,
                           ResolvePayloadLength(params, num_tuples, wm_len));
  CATMARK_ASSIGN_OR_RETURN(channel.prf_, ResolvePrfKind(params.prf));
  channel.k1_ = CreateKeyedPrf(channel.prf_, keys.k1, params.hash_algo);
  if (hash_k2) {
    channel.k2_ = CreateKeyedPrf(channel.prf_, keys.k2, params.hash_algo);
  }
  return channel;
}

Result<ChannelColumns> ChannelColumns::Resolve(
    const Relation& rel, const std::string& key_attr,
    const std::string& target_attr, const CategoricalDomain* domain) {
  ChannelColumns columns;
  CATMARK_ASSIGN_OR_RETURN(columns.key_col_,
                           rel.schema().ColumnIndexOrError(key_attr));
  CATMARK_ASSIGN_OR_RETURN(columns.target_col_,
                           rel.schema().ColumnIndexOrError(target_attr));
  if (columns.key_col_ == columns.target_col_) {
    return Status::InvalidArgument(
        "key and target attribute must differ (the channel is their "
        "association)");
  }
  columns.domain_ = domain;
  if (domain == nullptr) {
    CATMARK_ASSIGN_OR_RETURN(
        CategoricalDomain recovered,
        CategoricalDomain::FromRelationColumn(rel, columns.target_col_));
    columns.recovered_ =
        std::make_unique<const CategoricalDomain>(std::move(recovered));
    columns.domain_ = columns.recovered_.get();
  }
  if (columns.domain_->size() < 2) {
    return Status::FailedPrecondition(
        "target attribute domain has fewer than 2 values: the channel has "
        "no capacity (Section 3.3 note)");
  }
  // A value the column cannot hold matches no cell: every bit would read 0.
  const ColumnType target_type = rel.schema().column(columns.target_col_).type;
  for (const Value& v : columns.domain_->values()) {
    if (!v.MatchesType(target_type)) {
      return Status::InvalidArgument(
          "domain value '" + v.ToString() + "' does not match the type of "
          "target attribute '" + target_attr + "'");
    }
  }
  return columns;
}

}  // namespace catmark
