#ifndef CATMARK_COMMON_PARALLEL_H_
#define CATMARK_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace catmark {

/// Worker count used when a caller passes 0 ("auto"): the CATMARK_THREADS
/// environment variable when it parses as a positive integer, otherwise
/// std::thread::hardware_concurrency(), floored at 1.
std::size_t DefaultThreadCount();

/// Ceiling applied to CATMARK_THREADS values, derived from the hardware
/// thread count: max(8, 4 * hardware), capped at an absolute 256. Modest
/// oversubscription is deliberately allowed — the sanitizer sweeps run 8
/// workers on small machines to exercise cross-thread interleavings — but a
/// fat-fingered value (e.g. "999999999") clamps here instead of exhausting
/// process resources.
std::size_t MaxEnvThreadCount(std::size_t hardware);

/// Parses a CATMARK_THREADS-style string against a hardware thread count
/// (exposed separately from DefaultThreadCount so validation is unit-
/// testable without mutating the environment):
///
///   - nullptr / empty / any non-digit character (signs, spaces, "8x") /
///     zero: invalid — falls back to max(hardware, 1). strtoul would have
///     silently wrapped "-4" to a huge positive count; only plain digit
///     strings are accepted.
///   - a positive integer: clamped to MaxEnvThreadCount(hardware).
std::size_t ResolveThreadCountEnv(const char* text, std::size_t hardware);

/// Resolves a requested worker count (0 = DefaultThreadCount) against an
/// input of `n` items: never more threads than items, never fewer than 1.
std::size_t EffectiveThreadCount(std::size_t requested, std::size_t n);

/// Shard boundaries ParallelFor uses for (n, num_threads): `num_threads + 1`
/// offsets where shard s covers [bounds[s], bounds[s + 1]) and the first
/// n % num_threads shards take one extra item. Deterministic in (n,
/// num_threads) only, so two passes over the same input see identical
/// shard extents.
std::vector<std::size_t> ShardBounds(std::size_t n, std::size_t num_threads);

/// In-place exclusive prefix sum: counts[s] becomes the sum of counts[0..s);
/// returns the total. This is how per-shard counts turn into each shard's
/// first output offset.
std::size_t ExclusivePrefixSum(std::vector<std::size_t>& counts);

/// Sharded parallel-for: splits [0, n) into `num_threads` near-equal
/// contiguous shards (exactly ShardBounds) and runs fn(shard, begin, end)
/// once per shard — shard 0 on the calling thread, the rest on freshly
/// spawned threads, all joined before returning. Shard boundaries depend
/// only on (n, num_threads), and callers that only write shard-local state
/// (or per-row slots) get results independent of the thread count. `fn`
/// must not throw.
void ParallelFor(std::size_t n, std::size_t num_threads,
                 const std::function<void(std::size_t shard, std::size_t begin,
                                          std::size_t end)>& fn);

}  // namespace catmark

#endif  // CATMARK_COMMON_PARALLEL_H_
