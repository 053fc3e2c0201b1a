#include "core/embedding_map.h"

#include <charconv>

#include "common/hex.h"
#include "common/str_util.h"

namespace catmark {

std::string_view EmbeddingMap::SerializeKey(
    const Value& pk, std::vector<std::uint8_t>& scratch) {
  return pk.SerializeKeyInto(scratch);
}

void EmbeddingMap::Insert(const Value& pk, std::size_t idx) {
  // The embed apply loop calls this once per committed tuple: probe with a
  // view over the reused scratch buffer and only materialize an owned key
  // string for first-time inserts.
  const std::string_view key = pk.SerializeKeyInto(insert_scratch_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second = idx;
    return;
  }
  map_.emplace(std::string(key), idx);
}

std::optional<std::size_t> EmbeddingMap::Lookup(const Value& pk) const {
  std::vector<std::uint8_t> scratch;
  return Lookup(SerializeKey(pk, scratch));
}

std::optional<std::size_t> EmbeddingMap::Lookup(
    std::string_view serialized_pk) const {
  const auto it = map_.find(serialized_pk);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::string EmbeddingMap::Serialize() const {
  std::string out;
  for (const auto& [key, idx] : map_) {
    out += HexEncode(reinterpret_cast<const std::uint8_t*>(key.data()),
                     key.size());
    out += ',';
    out += std::to_string(idx);
    out += '\n';
  }
  return out;
}

Result<EmbeddingMap> EmbeddingMap::Deserialize(std::string_view text) {
  EmbeddingMap map;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) {
      return Status::InvalidArgument("embedding map line missing comma");
    }
    Result<std::vector<std::uint8_t>> key_bytes =
        HexDecode(line.substr(0, comma));
    if (!key_bytes.ok()) return key_bytes.status();
    const std::string_view idx_text = line.substr(comma + 1);
    std::size_t idx = 0;
    const auto [ptr, ec] = std::from_chars(
        idx_text.data(), idx_text.data() + idx_text.size(), idx);
    if (ec != std::errc() || ptr != idx_text.data() + idx_text.size()) {
      return Status::InvalidArgument("embedding map line has bad index");
    }
    std::string key(key_bytes.value().begin(), key_bytes.value().end());
    if (!map.map_.emplace(std::move(key), idx).second) {
      return Status::InvalidArgument(
          "embedding map has a duplicate key: " +
          std::string(line.substr(0, comma)));
    }
  }
  return map;
}

}  // namespace catmark
