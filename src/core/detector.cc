#include "core/detector.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/detect_engine.h"
#include "ecc/code.h"
#include "random/stats.h"

namespace catmark {

MatchStats MatchWatermark(const BitVector& expected, const BitVector& decoded) {
  MatchStats stats;
  stats.length_mismatch = expected.size() != decoded.size();
  stats.total_bits = std::max(expected.size(), decoded.size());
  const std::size_t common = std::min(expected.size(), decoded.size());
  if (stats.length_mismatch) {
    // Size-tolerant: bits present on only one side count as mismatches, so a
    // detector run with the wrong payload length degrades the score instead
    // of crashing the process.
    for (std::size_t i = 0; i < common; ++i) {
      if (expected.Get(i) == decoded.Get(i)) ++stats.matched_bits;
    }
  } else {
    stats.matched_bits = common - expected.HammingDistance(decoded);
  }
  if (stats.total_bits > 0) {
    stats.match_fraction = static_cast<double>(stats.matched_bits) /
                           static_cast<double>(stats.total_bits);
    stats.mark_alteration = 1.0 - stats.match_fraction;
    stats.false_match_probability =
        BinomialTailAtLeast(stats.total_bits, stats.matched_bits, 0.5);
  }
  return stats;
}

namespace {

/// Sorts hits by slot: LSD radix over the bytes the largest slot spans (two
/// passes for a 50,000-slot payload, at most eight), ping-ponging through
/// `buffer`.
void SortBySlot(std::vector<SlotVote>& hits, std::vector<SlotVote>& buffer) {
  const std::size_t n = hits.size();
  std::size_t max_slot = 0;
  for (const SlotVote& hit : hits) max_slot = std::max(max_slot, hit.slot);
  buffer.resize(n);
  SlotVote* src = hits.data();
  SlotVote* dst = buffer.data();
  for (unsigned shift = 0; shift < 64 && (max_slot >> shift) != 0;
       shift += 8) {
    std::size_t start[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++start[(src[i].slot >> shift) & 0xff];
    std::size_t offset = 0;
    for (std::size_t& bucket : start) {
      const std::size_t count = bucket;
      bucket = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[start[(src[i].slot >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != hits.data()) std::copy(src, src + n, hits.data());
}

}  // namespace

std::vector<SlotVote>& MergeSlotRuns(std::span<std::vector<SlotVote>> parts,
                                     std::vector<SlotVote>& sort_buffer) {
  std::vector<SlotVote>& runs = parts[0];
  for (std::size_t w = 1; w < parts.size(); ++w) {
    runs.insert(runs.end(), parts[w].begin(), parts[w].end());
  }
  SortBySlot(runs, sort_buffer);
  std::size_t out = 0;
  for (std::size_t i = 0; i < runs.size();) {
    SlotVote run = runs[i];
    for (++i; i < runs.size() && runs[i].slot == run.slot; ++i) {
      run.vote += runs[i].vote;
    }
    if (run.vote != 0) runs[out++] = run;  // a tie is an erasure
  }
  runs.resize(out);
  return runs;
}

Status FinishVoteTally(std::span<const SlotVote> runs, std::size_t payload_len,
                       std::size_t wm_len, EccKind ecc_kind,
                       DetectionResult& result) {
  result.positions_present = static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(),
                    [](const SlotVote& run) { return run.vote != 0; }));
  result.payload_fill = payload_len == 0
                            ? 0.0
                            : static_cast<double>(result.positions_present) /
                                  static_cast<double>(payload_len);
  const std::unique_ptr<ErrorCorrectingCode> ecc = CreateEcc(ecc_kind);
  CATMARK_ASSIGN_OR_RETURN(DecodedMark decoded,
                           ecc->Decode(runs, payload_len, wm_len));
  result.wm = std::move(decoded.wm);
  result.bit_confidence = std::move(decoded.confidence);
  return Status::OK();
}

Detector::Detector(WatermarkKeySet keys, WatermarkParams params)
    : keys_(std::move(keys)), params_(params) {}

Result<DetectionResult> Detector::Detect(const Relation& rel,
                                         const DetectOptions& options,
                                         std::size_t wm_len) const {
  // Both Figure 2 variants are one engine pass with one candidate; the
  // embedding map, when given, replaces k2 as the candidate's position
  // source. wall_seconds covers the plan and the pass.
  const auto start = std::chrono::steady_clock::now();
  DetectEngineOptions engine_options;
  engine_options.key_attr = options.key_attr;
  engine_options.target_attr = options.target_attr;
  engine_options.domain =
      options.domain.has_value() ? &*options.domain : nullptr;
  engine_options.num_threads = params_.num_threads;
  CATMARK_ASSIGN_OR_RETURN(const DetectEngine engine,
                           DetectEngine::Create(rel, engine_options));
  KeyCandidate candidate{keys_, params_, wm_len, options.embedding_map};
  if (options.payload_length != 0) {
    candidate.params.payload_length = options.payload_length;
  }
  CATMARK_ASSIGN_OR_RETURN(DetectionResult result, engine.Detect(candidate));
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return result;
}

}  // namespace catmark
