#include "core/fit_scan.h"

#include "crypto/siphash_simd.h"

namespace catmark {

FitScanner::FitScanner(const KeyedPrf& k1, const KeyedPrf* k2,
                       std::uint64_t e, FitScratch& scratch)
    : k1_(k1), k2_(k2), fit_by_e_(e), scratch_(scratch) {
  scratch_.i64.resize(kChunk);
}

void FitScanner::HashKeys(const std::int64_t* typed, std::size_t n) {
  FitScratch& s = scratch_;
  if (typed == nullptr) {
    HashPrepared(s.arena.data(), std::span<const std::size_t>(s.bounds));
    return;
  }
  s.h1.resize(n);
  k1_.Hash64Int64Keys(typed, n, std::span<std::uint64_t>(s.h1));
  SelectFit(n, typed, nullptr, nullptr);
}

void FitScanner::HashPrepared(const std::uint8_t* arena,
                              std::span<const std::size_t> bounds) {
  FitScratch& s = scratch_;
  const std::size_t n = bounds.size() - 1;
  s.h1.resize(n);
  k1_.Hash64Arena(arena, bounds, std::span<std::uint64_t>(s.h1));
  SelectFit(n, nullptr, arena, bounds.data());
}

void FitScanner::SelectFit(std::size_t n, const std::int64_t* typed,
                           const std::uint8_t* arena,
                           const std::size_t* bounds) {
  FitScratch& s = scratch_;
  s.mask.resize((n + 63) / 64);
  DivisibilityMask64(fit_by_e_, s.h1.data(), n, s.mask.data());
  s.fit.clear();
  ForEachFitRow(s.mask.data(), 0, n, [&](std::size_t i) {
    s.fit.push_back(static_cast<std::uint32_t>(i));
  });
  const std::size_t nfit = s.fit.size();
  if (k2_ == nullptr || nfit == 0) return;
  s.h2.resize(nfit);
  if (typed != nullptr) {
    s.fit_i64.resize(nfit);
    for (std::size_t f = 0; f < nfit; ++f) s.fit_i64[f] = typed[s.fit[f]];
    k2_->Hash64Int64Keys(s.fit_i64.data(), nfit,
                         std::span<std::uint64_t>(s.h2));
    return;
  }
  // Pack the fit messages back to back, so the k2 call takes the same arena
  // path (and siphash24's equal-length fast path) as the k1 call.
  s.fit_arena.clear();
  s.fit_bounds.assign(1, 0);
  for (const std::uint32_t m : s.fit) {
    s.fit_arena.insert(s.fit_arena.end(), arena + bounds[m],
                       arena + bounds[m + 1]);
    s.fit_bounds.push_back(s.fit_arena.size());
  }
  k2_->Hash64Arena(s.fit_arena.data(),
                   std::span<const std::size_t>(s.fit_bounds),
                   std::span<std::uint64_t>(s.h2));
}

}  // namespace catmark
