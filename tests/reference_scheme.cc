#include "reference_scheme.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "crypto/prf.h"
#include "ecc/code.h"
#include "relation/csv.h"

namespace catmark {
namespace reference {

namespace {

std::uint64_t Prf(const KeyedPrf& prf, const Value& v) {
  std::vector<std::uint8_t> bytes;
  v.SerializeForHash(bytes);
  return prf.Hash64(bytes.data(), bytes.size());
}

/// b(L): the number of bits needed to write L (b(0) == b(1) == 1).
int BitsOf(std::uint64_t x) {
  int b = 1;
  while (x >= 2) {
    x /= 2;
    ++b;
  }
  return b;
}

/// The wm_data position of a fit tuple from its k2 hash.
std::size_t SlotOf(std::uint64_t h2, std::size_t len, BitIndexMode mode) {
  if (mode == BitIndexMode::kModulo) return h2 % len;
  // msb(H, b(L)): the top b(L) bits of the 64-bit hash, then % L so the
  // slot stays in range when L is not a power of two.
  const int b = BitsOf(len);
  return (h2 >> (64 - b)) % len;
}

/// t such that value == a_t, by a linear walk over the sorted domain.
std::optional<std::size_t> DomainIndex(const CategoricalDomain& domain,
                                       const Value& value) {
  for (std::size_t t = 0; t < domain.size(); ++t) {
    if (domain.value(t) == value) return t;
  }
  return std::nullopt;
}

/// wm_data as the detector sees it: a bit per position plus whether any
/// vote survived there (a tied or vote-less position is an erasure).
struct DensePayload {
  std::vector<int> bit;
  std::vector<bool> present;
};

/// One majority vote per codeword position `pos(i)` over the present
/// wm_data positions; fills the per-position confidence when asked.
std::vector<long> VotesPerPosition(const DensePayload& p, std::size_t width,
                                   std::size_t (*pos)(std::size_t,
                                                      std::size_t,
                                                      std::size_t),
                                   std::vector<long>* totals) {
  std::vector<long> votes(width, 0);
  if (totals != nullptr) totals->assign(width, 0);
  const std::size_t len = p.bit.size();
  for (std::size_t i = 0; i < len; ++i) {
    if (!p.present[i]) continue;
    const std::size_t j = pos(i, len, width);
    votes[j] += p.bit[i] == 1 ? 1 : -1;
    if (totals != nullptr) ++(*totals)[j];
  }
  return votes;
}

std::size_t Cyclic(std::size_t i, std::size_t /*len*/, std::size_t width) {
  return i % width;
}

std::size_t Block(std::size_t i, std::size_t len, std::size_t width) {
  // Block j spans positions [j * L / m, (j + 1) * L / m).
  const unsigned __int128 j =
      static_cast<unsigned __int128>(i) * width / len;
  return j >= width ? width - 1 : static_cast<std::size_t>(j);
}

/// Hamming(7,4) single-error correction, positions 1..7 with parity at 1,
/// 2 and 4: the syndrome is the XOR of the 1-based positions holding a 1,
/// and names the flipped position.
void CorrectCodeword(int cw[7]) {
  int syndrome = 0;
  for (int pos = 1; pos <= 7; ++pos) {
    if (cw[pos - 1] == 1) syndrome ^= pos;
  }
  if (syndrome != 0) cw[syndrome - 1] ^= 1;
}

Status DenseDecode(const DensePayload& p, std::size_t wm_len, EccKind ecc,
                   ReferenceDetection& out) {
  const std::size_t len = p.bit.size();
  out.wm = BitVector(wm_len);
  out.bit_confidence.clear();
  switch (ecc) {
    case EccKind::kMajorityVoting: {
      std::vector<long> totals;
      const std::vector<long> votes =
          VotesPerPosition(p, wm_len, &Cyclic, &totals);
      out.bit_confidence.assign(wm_len, 0.0);
      for (std::size_t j = 0; j < wm_len; ++j) {
        out.wm.Set(j, votes[j] > 0 ? 1 : 0);
        if (totals[j] > 0) {
          out.bit_confidence[j] = static_cast<double>(std::labs(votes[j])) /
                                  static_cast<double>(totals[j]);
        }
      }
      return Status::OK();
    }
    case EccKind::kIdentity: {
      if (len < wm_len) {
        return Status::InvalidArgument("payload shorter than watermark");
      }
      for (std::size_t j = 0; j < wm_len; ++j) {
        out.wm.Set(j, p.present[j] ? p.bit[j] : 0);
      }
      return Status::OK();
    }
    case EccKind::kBlockRepetition: {
      if (len < wm_len) {
        return Status::InvalidArgument("payload shorter than watermark");
      }
      const std::vector<long> votes =
          VotesPerPosition(p, wm_len, &Block, nullptr);
      for (std::size_t j = 0; j < wm_len; ++j) {
        out.wm.Set(j, votes[j] > 0 ? 1 : 0);
      }
      return Status::OK();
    }
    case EccKind::kHamming74: {
      const std::size_t codewords = (wm_len + 3) / 4;
      const std::size_t base_len = 7 * codewords;
      if (len < base_len) {
        return Status::InvalidArgument("payload below Hamming(7,4) minimum");
      }
      const std::vector<long> votes =
          VotesPerPosition(p, base_len, &Cyclic, nullptr);
      for (std::size_t c = 0; c < codewords; ++c) {
        int cw[7];
        for (std::size_t k = 0; k < 7; ++k) {
          cw[k] = votes[7 * c + k] > 0 ? 1 : 0;
        }
        CorrectCodeword(cw);
        const int data[4] = {cw[2], cw[4], cw[5], cw[6]};
        for (std::size_t k = 0; k < 4; ++k) {
          if (4 * c + k < wm_len) out.wm.Set(4 * c + k, data[k]);
        }
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown ECC kind");
}

}  // namespace

Result<ReferenceDetection> ReferenceDetect(const Relation& rel,
                                           const ReferenceInputs& in) {
  if (in.wm_len == 0) {
    return Status::InvalidArgument("watermark length must be > 0");
  }
  if (in.e == 0) return Status::InvalidArgument("e must be >= 1");
  if (in.domain.size() < 2) {
    return Status::FailedPrecondition("domain has fewer than 2 values");
  }
  const int key_col = rel.schema().ColumnIndex(in.key_attr);
  const int target_col = rel.schema().ColumnIndex(in.target_attr);
  if (key_col < 0 || target_col < 0) {
    return Status::NotFound("unknown attribute");
  }
  const std::size_t n = rel.NumRows();
  if (n == 0) return Status::FailedPrecondition("empty relation");

  ReferenceDetection out;
  out.num_tuples = n;
  std::size_t len = in.payload_length;
  if (len == 0) {
    if (n / in.e == 0) {
      return Status::FailedPrecondition("N/e == 0: cannot derive L");
    }
    len = n / in.e > in.wm_len ? n / in.e : in.wm_len;
  }
  out.payload_length = len;

  const std::unique_ptr<KeyedPrf> k1 =
      CreateKeyedPrf(in.prf, in.keys.k1, in.hash_algo);
  const std::unique_ptr<KeyedPrf> k2 =
      CreateKeyedPrf(in.prf, in.keys.k2, in.hash_algo);

  // wm_decode, one tuple T_j at a time.
  std::map<std::size_t, long> tally;
  for (std::size_t j = 0; j < n; ++j) {
    const Value key = rel.Get(j, static_cast<std::size_t>(key_col));
    if (key.is_null()) continue;  // no key, no fitness
    // if (H(T_j(K), k1) mod e == 0) the tuple is fit.
    if (Prf(*k1, key) % in.e != 0) continue;
    ++out.fit_tuples;
    // Its wm_data position: H(T_j(K), k2) reduced to [0, L), or the
    // embedding map's entry for T_j(K).
    std::size_t slot;
    if (in.embedding_map != nullptr) {
      const std::optional<std::size_t> found = in.embedding_map->Lookup(key);
      if (!found.has_value()) continue;
      slot = *found % len;
    } else {
      slot = SlotOf(Prf(*k2, key), len, in.bit_index_mode);
    }
    // t such that T_j(A) == a_t; the embedded bit is t & 1.
    const Value value = rel.Get(j, static_cast<std::size_t>(target_col));
    if (value.is_null()) continue;
    const std::optional<std::size_t> t = DomainIndex(in.domain, value);
    if (!t.has_value()) continue;
    ++out.usable_votes;
    tally[slot] += (*t % 2 == 1) ? 1 : -1;
  }

  // wm_data: the per-position majority; ties and silent positions erased.
  DensePayload payload;
  payload.bit.assign(len, 0);
  payload.present.assign(len, false);
  for (const auto& [slot, votes] : tally) {
    if (votes == 0) continue;
    payload.present[slot] = true;
    payload.bit[slot] = votes > 0 ? 1 : 0;
    ++out.positions_present;
  }
  out.payload_fill = static_cast<double>(out.positions_present) /
                     static_cast<double>(len);

  const Status decoded = DenseDecode(payload, in.wm_len, in.ecc, out);
  if (!decoded.ok()) return decoded;
  return out;
}

ReferenceInputs DetectInputsOf(const KeyCandidate& c,
                               const CategoricalDomain& domain) {
  ReferenceInputs in;
  in.key_attr = "K";
  in.target_attr = "A";
  in.domain = domain;
  in.keys = c.keys;
  in.e = c.params.e;
  EXPECT_TRUE(c.params.prf.has_value()) << "the oracle needs an explicit PRF";
  in.prf = c.params.prf.value_or(PrfKind::kKeyedHash);
  in.hash_algo = c.params.hash_algo;
  in.ecc = c.params.ecc;
  in.bit_index_mode = c.params.bit_index_mode;
  in.payload_length = c.params.payload_length;
  in.wm_len = c.wm_len;
  in.embedding_map = c.embedding_map;
  return in;
}

void ExpectDetectMatchesReference(const Result<DetectionResult>& got,
                                  const Result<ReferenceDetection>& want,
                                  const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": pipeline "
      << (got.ok() ? "OK" : got.status().ToString()) << " vs reference "
      << (want.ok() ? "OK" : want.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    return;
  }
  const DetectionResult& g = got.value();
  const ReferenceDetection& w = want.value();
  EXPECT_EQ(g.wm, w.wm) << where;
  EXPECT_EQ(g.num_tuples, w.num_tuples) << where;
  EXPECT_EQ(g.fit_tuples, w.fit_tuples) << where;
  EXPECT_EQ(g.usable_votes, w.usable_votes) << where;
  EXPECT_EQ(g.payload_length, w.payload_length) << where;
  EXPECT_EQ(g.positions_present, w.positions_present) << where;
  EXPECT_EQ(g.payload_fill, w.payload_fill) << where;
  EXPECT_EQ(g.bit_confidence, w.bit_confidence) << where;
  EXPECT_EQ(g.rows_scanned, w.num_tuples) << where;
}

ReferenceEmbedInputs EmbedInputsOf(const WatermarkKeySet& keys,
                                   const WatermarkParams& params,
                                   const EmbedOptions& options) {
  ReferenceEmbedInputs in;
  in.key_attr = options.key_attr;
  in.target_attr = options.target_attr;
  in.domain = options.domain;
  in.keys = keys;
  in.e = params.e;
  EXPECT_TRUE(params.prf.has_value()) << "the oracle needs an explicit PRF";
  in.prf = params.prf.value_or(PrfKind::kKeyedHash);
  in.hash_algo = params.hash_algo;
  in.ecc = params.ecc;
  in.bit_index_mode = params.bit_index_mode;
  in.payload_length = params.payload_length;
  in.min_category_keep = params.min_category_keep;
  in.build_embedding_map = options.build_embedding_map;
  return in;
}

Result<ReferenceEmbedding> ReferenceEmbed(Relation& rel,
                                          const ReferenceEmbedInputs& in,
                                          const BitVector& wm,
                                          EmbeddingLedger* ledger) {
  if (in.e == 0) return Status::InvalidArgument("e must be >= 1");
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  const int key_col = rel.schema().ColumnIndex(in.key_attr);
  const int target_col = rel.schema().ColumnIndex(in.target_attr);
  if (key_col < 0 || target_col < 0) {
    return Status::NotFound("unknown attribute");
  }
  const std::size_t key = static_cast<std::size_t>(key_col);
  const std::size_t target = static_cast<std::size_t>(target_col);
  const std::size_t n = rel.NumRows();
  if (n == 0) return Status::FailedPrecondition("empty relation");
  if (n / in.e == 0) return Status::FailedPrecondition("N/e == 0");

  ReferenceEmbedding out;
  out.num_tuples = n;
  if (in.domain.has_value()) {
    out.domain = *in.domain;
  } else {
    std::set<Value> distinct;
    for (std::size_t j = 0; j < n; ++j) {
      const Value v = rel.Get(j, target);
      if (!v.is_null()) distinct.insert(v);
    }
    Result<CategoricalDomain> recovered = CategoricalDomain::FromValues(
        std::vector<Value>(distinct.begin(), distinct.end()));
    if (!recovered.ok()) return recovered.status();
    out.domain = std::move(recovered).value();
  }
  const std::size_t domain_size = out.domain.size();
  if (domain_size < 2) {
    return Status::FailedPrecondition("domain has fewer than 2 values");
  }
  for (std::size_t t = 0; t < domain_size; ++t) {
    if (!out.domain.value(t).MatchesType(rel.schema().column(target).type)) {
      return Status::InvalidArgument("domain value of the wrong type");
    }
  }

  std::size_t len = in.payload_length;
  if (len == 0) len = n / in.e > wm.size() ? n / in.e : wm.size();
  out.payload_length = len;
  Result<BitVector> wm_data = CreateEcc(in.ecc)->Encode(wm, len);
  if (!wm_data.ok()) return wm_data.status();

  const std::unique_ptr<KeyedPrf> k1 =
      CreateKeyedPrf(in.prf, in.keys.k1, in.hash_algo);
  const std::unique_ptr<KeyedPrf> k2 =
      CreateKeyedPrf(in.prf, in.keys.k2, in.hash_algo);

  // t such that value == a_t, for the domain's own values only.
  std::map<Value, std::size_t> index_of;
  for (std::size_t t = 0; t < domain_size; ++t) {
    index_of.emplace(out.domain.value(t), t);
  }
  const auto domain_index = [&](const Value& v) -> std::optional<std::size_t> {
    const auto it = index_of.find(v);
    if (it == index_of.end()) return std::nullopt;
    return it->second;
  };

  // Occurrences of each domain value, for the category-drain guard.
  std::vector<long> count(domain_size, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const std::optional<std::size_t> t = domain_index(rel.Get(j, target));
    if (t.has_value()) ++count[*t];
  }

  // wm_embed, one tuple T_j at a time.
  std::vector<bool> written(len, false);
  std::size_t map_index = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Value k = rel.Get(j, key);
    if (k.is_null()) continue;  // no key, no fitness
    // if (H(T_j(K), k1) mod e == 0) the tuple is fit.
    const std::uint64_t h1 = Prf(*k1, k);
    if (h1 % in.e != 0) continue;
    ++out.fit_tuples;
    if (ledger != nullptr && ledger->IsMarked(j, target)) {
      ++out.skipped_by_ledger;
      continue;
    }
    // Its wm_data position: H(T_j(K), k2) reduced to [0, L), or the next
    // embedding-map index.
    const std::size_t slot = in.build_embedding_map
                                 ? map_index % len
                                 : SlotOf(Prf(*k2, k), len, in.bit_index_mode);
    // t = H(T_j(K), k1) mod |D| with its LSB forced to the bit; one past
    // the end steps back 2, keeping the LSB.
    std::size_t t = h1 % domain_size;
    t = wm_data.value().Get(slot) == 1 ? (t | 1) : (t & ~std::size_t{1});
    if (t >= domain_size) t -= 2;

    const std::optional<std::size_t> old = domain_index(rel.Get(j, target));
    if (old == t) {
      ++out.unchanged_tuples;
    } else {
      if (in.min_category_keep > 0 && old.has_value() &&
          count[*old] <= in.min_category_keep) {
        ++out.skipped_by_domain_guard;
        continue;
      }
      const Status set = rel.Set(j, target, out.domain.value(t));
      if (!set.ok()) return set;
      if (old.has_value()) --count[*old];
      ++count[t];
      ++out.altered_tuples;
    }
    if (!written[slot]) {
      written[slot] = true;
      ++out.positions_written;
    }
    if (in.build_embedding_map) {
      out.embedding_map.Insert(k, slot);
      ++map_index;
    }
    if (ledger != nullptr) ledger->Mark(j, target);
  }
  return out;
}

void ExpectEmbedMatchesReference(const Result<EmbedReport>& got,
                                 const Relation& got_rel,
                                 const EmbeddingLedger* got_ledger,
                                 const Result<ReferenceEmbedding>& want,
                                 const Relation& want_rel,
                                 const EmbeddingLedger* want_ledger,
                                 const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": pipeline "
      << (got.ok() ? "OK" : got.status().ToString()) << " vs reference "
      << (want.ok() ? "OK" : want.status().ToString());
  EXPECT_EQ(WriteCsvString(got_rel), WriteCsvString(want_rel)) << where;
  ASSERT_EQ(got_ledger == nullptr, want_ledger == nullptr) << where;
  if (got_ledger != nullptr) {
    EXPECT_EQ(got_ledger->size(), want_ledger->size()) << where;
    for (std::size_t j = 0; j < got_rel.NumRows(); ++j) {
      for (std::size_t c = 0; c < got_rel.schema().num_columns(); ++c) {
        ASSERT_EQ(got_ledger->IsMarked(j, c), want_ledger->IsMarked(j, c))
            << where << " ledger cell (" << j << ", " << c << ")";
      }
    }
  }
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    return;
  }
  const EmbedReport& g = got.value();
  const ReferenceEmbedding& w = want.value();
  EXPECT_EQ(g.num_tuples, w.num_tuples) << where;
  EXPECT_EQ(g.rows_scanned, w.num_tuples) << where;
  EXPECT_EQ(g.fit_tuples, w.fit_tuples) << where;
  EXPECT_EQ(g.altered_tuples, w.altered_tuples) << where;
  EXPECT_EQ(g.unchanged_tuples, w.unchanged_tuples) << where;
  EXPECT_EQ(g.skipped_by_quality, 0u) << where;
  EXPECT_EQ(g.skipped_by_ledger, w.skipped_by_ledger) << where;
  EXPECT_EQ(g.skipped_by_domain_guard, w.skipped_by_domain_guard) << where;
  EXPECT_EQ(g.payload_length, w.payload_length) << where;
  EXPECT_EQ(g.positions_written, w.positions_written) << where;
  EXPECT_EQ(g.alteration_fraction,
            static_cast<double>(w.altered_tuples) /
                static_cast<double>(w.num_tuples))
      << where;
  EXPECT_TRUE(g.domain == w.domain) << where;
  EXPECT_EQ(g.embedding_map.Serialize(), w.embedding_map.Serialize())
      << where;
}

}  // namespace reference
}  // namespace catmark
