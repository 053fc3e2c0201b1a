#ifndef CATMARK_CORE_PARAMS_H_
#define CATMARK_CORE_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "crypto/hash.h"
#include "crypto/prf.h"
#include "ecc/code.h"

namespace catmark {

/// How a 64-bit keyed hash is reduced to a wm_data position in [0, L).
enum class BitIndexMode {
  /// H mod L — always in range, uniform; the library default.
  kModulo,
  /// Paper-literal msb(H, b(L)) followed by a final % L guard (the paper's
  /// expression can exceed L-1 whenever L is not a power of two, and the
  /// guard keeps every such position inside wm_data).
  kMsbModL,
};

/// Largest payload length: positions are 32-bit (FitTuple::payload_index),
/// and a certificate's payload_length field is read in [1, this].
inline constexpr std::size_t kMaxPayloadLength =
    std::numeric_limits<std::uint32_t>::max();

/// Tunable parameters of the watermarking scheme (Section 3.2).
struct WatermarkParams {
  /// Encoding parameter e: a tuple is "fit" iff H(T(K), k1) mod e == 0, so
  /// roughly N/e tuples carry the mark. Controls the trade-off between data
  /// alteration (fewer fit tuples) and resilience (more fit tuples) —
  /// analyzed in Section 4.4 and swept in Figures 5-6.
  std::uint64_t e = 60;

  /// crypto_hash() choice (MD5/SHA per Section 2.2; SHA-256 default). Only
  /// consulted by the keyed-hash PRF backend below.
  HashAlgorithm hash_algo = HashAlgorithm::kSha256;

  /// Keyed-PRF backend for tuple fitness / value / position selection.
  /// nullopt = auto: the CATMARK_PRF environment variable when set (unknown
  /// names are InvalidArgument at embed/detect time), otherwise the legacy
  /// keyed hash. Embedder and detector must use the same backend — the
  /// certificate records which one embedding used, and streaming sessions
  /// (StreamSession::Create) refuse to run until the backend is pinned from
  /// the embed report or certificate: a later process must never re-resolve
  /// CATMARK_PRF for inserts into an already-marked relation.
  std::optional<PrfKind> prf;

  /// Error correcting code for wm -> wm_data (majority voting in the paper).
  EccKind ecc = EccKind::kMajorityVoting;

  BitIndexMode bit_index_mode = BitIndexMode::kModulo;

  /// Payload (|wm_data|) length. 0 = derive max(|wm|, N/e)
  /// (ResolvePayloadLength) from N at embed time, from the suspect's N' at
  /// detect time — which no longer gives N/e after a subset attack. So the
  /// embed report carries the resolved value, and a certificate or a
  /// streaming session carries it pinned here.
  std::size_t payload_length = 0;

  /// Worker threads for the embed/detect pipeline's parallel stages (plan
  /// precompute, domain-index view, vote tally). 0 = auto: the
  /// CATMARK_THREADS environment variable when set, otherwise the hardware
  /// thread count. Results are bit-identical for every value — embedding
  /// applies its plan sequentially and detection merges per-thread integer
  /// tallies — so this knob only trades wall-clock for cores.
  std::size_t num_threads = 0;

  /// Embedding skips alterations that would drop a category of the target
  /// attribute below this many occurrences. Draining a category would (a)
  /// remove it from a blindly re-derived domain, shifting every higher
  /// value index and scrambling detection, and (b) be a conspicuous
  /// semantic change (a product vanishing from the catalogue). The skipped
  /// bits are absorbed by the ECC. 0 disables the guard.
  long min_category_keep = 1;
};

}  // namespace catmark

#endif  // CATMARK_CORE_PARAMS_H_
