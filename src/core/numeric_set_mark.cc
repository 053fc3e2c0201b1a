#include "core/numeric_set_mark.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bits.h"
#include "common/check.h"
#include "crypto/prf.h"

namespace catmark {

NumericSetMarker::NumericSetMarker(SecretKey key, NumericSetMarkParams params)
    : key_(std::move(key)), params_(params) {
  CATMARK_CHECK(params_.quantization_step > 0.0);
}

std::vector<std::size_t> NumericSetMarker::ChunkBounds(
    std::size_t n, std::size_t chunks) const {
  // Base boundaries at the i/chunks quantiles, each jittered by up to 1/8
  // chunk width using the keyed hash. The jitter is computed as a *relative*
  // offset so boundaries sit at the same quantiles whatever n is — that is
  // what makes detection agree with embedding after subset selection.
  const std::unique_ptr<KeyedPrf> prf =
      CreateKeyedPrf(PrfKind::kKeyedHash, key_);
  std::vector<std::size_t> bounds(chunks + 1);
  bounds[0] = 0;
  bounds[chunks] = n;
  const double width = static_cast<double>(n) / static_cast<double>(chunks);
  for (std::size_t i = 1; i < chunks; ++i) {
    std::uint8_t be[8];  // the message is i's 8 big-endian bytes
    StoreBigEndian64(static_cast<std::uint64_t>(i), be);
    const std::uint64_t h = prf->Hash64(be, sizeof(be));
    const double jitter_fraction =
        static_cast<double>(h % 1024) / 1024.0 - 0.5;  // [-0.5, 0.5)
    long b = std::lround(static_cast<double>(i) * width +
                         jitter_fraction * width / 4.0);
    if (b < static_cast<long>(bounds[i - 1] + 1)) {
      b = static_cast<long>(bounds[i - 1] + 1);
    }
    if (b > static_cast<long>(n - (chunks - i))) {
      b = static_cast<long>(n - (chunks - i));
    }
    bounds[i] = static_cast<std::size_t>(b);
  }
  return bounds;
}

namespace {

double StdDev(const std::vector<double>& values) {
  const double mean =
      std::accumulate(values.begin(), values.end(), 0.0) /
      static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(values.size()));
}

}  // namespace

Result<NumericSetEmbedReport> NumericSetMarker::Embed(
    std::vector<double>& values, const BitVector& wm) const {
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  if (values.size() < 4 * wm.size()) {
    return Status::FailedPrecondition(
        "numeric set needs at least 4 items per watermark bit");
  }
  const double sd = StdDev(values);
  if (sd <= 0.0) {
    return Status::FailedPrecondition(
        "constant numeric set has no embedding bandwidth (zero entropy)");
  }
  const double q = params_.quantization_step;

  // Work on sort order; remember original positions so the set keeps its
  // (semantically meaningless) storage order.
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });

  const std::vector<std::size_t> bounds =
      ChunkBounds(values.size(), wm.size());

  NumericSetEmbedReport report;
  report.chunk_means.resize(wm.size());
  for (std::size_t c = 0; c < wm.size(); ++c) {
    const std::size_t lo = bounds[c], hi = bounds[c + 1];
    double mean = 0.0;
    for (std::size_t i = lo; i < hi; ++i) mean += values[order[i]];
    mean /= static_cast<double>(hi - lo);

    // Nearest correct-parity quantization cell centre.
    long k = std::lround(mean / q);
    if ((std::abs(k) & 1L) != wm.Get(c)) {
      const long down = k - 1, up = k + 1;
      k = std::abs(mean / q - static_cast<double>(down)) <=
                  std::abs(mean / q - static_cast<double>(up))
              ? down
              : up;
    }
    const double delta = static_cast<double>(k) * q - mean;
    for (std::size_t i = lo; i < hi; ++i) values[order[i]] += delta;
    report.max_item_change = std::max(report.max_item_change,
                                      std::abs(delta));
    report.total_change +=
        std::abs(delta) * static_cast<double>(hi - lo);
    report.chunk_means[c] = static_cast<double>(k) * q;
  }
  return report;
}

Result<BitVector> NumericSetMarker::Detect(const std::vector<double>& values,
                                           std::size_t wm_len) const {
  if (wm_len == 0) return Status::InvalidArgument("wm_len must be > 0");
  if (values.size() < wm_len) {
    return Status::FailedPrecondition("set smaller than the mark");
  }
  const double q = params_.quantization_step;

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<std::size_t> bounds = ChunkBounds(sorted.size(), wm_len);

  BitVector wm(wm_len);
  for (std::size_t c = 0; c < wm_len; ++c) {
    const std::size_t lo = bounds[c], hi = bounds[c + 1];
    double mean = 0.0;
    for (std::size_t i = lo; i < hi; ++i) mean += sorted[i];
    mean /= static_cast<double>(hi - lo);
    const long k = std::lround(mean / q);
    wm.Set(c, static_cast<int>(std::abs(k) & 1L));
  }
  return wm;
}

}  // namespace catmark
