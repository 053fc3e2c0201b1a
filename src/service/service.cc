#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "core/detect_engine.h"

namespace catmark {

WatermarkService::WatermarkService(ServiceOptions options)
    : options_(options) {}

Result<SweepReport> WatermarkService::SweepOwnership(
    const Relation& suspect, std::span<const OwnershipCandidate> candidates,
    double alpha) const {
  const auto start = std::chrono::steady_clock::now();
  if (candidates.empty()) {
    return Status::InvalidArgument("ownership sweep needs >= 1 candidate");
  }
  SweepReport report;

  // Group candidates sharing (key attribute, target attribute, domain):
  // one RelationPlan serves the whole group. An empty certificate domain
  // means "recover from the suspect data", which is also per-group state.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const WatermarkCertificate& cert = candidates[i].certificate;
    std::size_t g = groups.size();
    for (std::size_t k = 0; k < groups.size(); ++k) {
      const WatermarkCertificate& rep =
          candidates[groups[k].front()].certificate;
      if (rep.key_attr == cert.key_attr &&
          rep.target_attr == cert.target_attr && rep.domain == cert.domain) {
        g = k;
        break;
      }
    }
    if (g == groups.size()) groups.emplace_back();
    groups[g].push_back(i);
  }

  for (const std::vector<std::size_t>& group : groups) {
    const WatermarkCertificate& rep = candidates[group.front()].certificate;
    DetectEngineOptions options;
    options.key_attr = rep.key_attr;
    options.target_attr = rep.target_attr;
    if (!rep.domain.empty()) options.domain = &rep.domain;
    options.num_threads = options_.num_threads;
    Result<DetectEngine> engine = DetectEngine::Create(suspect, options);
    if (!engine.ok()) {
      for (const std::size_t i : group) {
        report.failed.emplace_back(candidates[i].id, engine.status());
      }
      continue;
    }
    ++report.plans_built;

    std::vector<KeyCandidate> keys;
    keys.reserve(group.size());
    for (const std::size_t i : group) {
      const WatermarkCertificate& cert = candidates[i].certificate;
      keys.push_back({candidates[i].keys, cert.params, cert.wm.size()});
    }
    std::vector<Result<DetectionResult>> results =
        engine->DetectMany(std::span<const KeyCandidate>(keys));
    // The commitment check (a SHA-256 per candidate) and the decision are
    // independent per candidate, so they fan out too; each worker writes
    // only its own slots, and the report is assembled in candidate order.
    std::vector<SweepMatch> matches(group.size());
    ParallelFor(group.size(),
                EffectiveThreadCount(options_.num_threads, group.size()),
                [&](std::size_t /*shard*/, std::size_t begin,
                    std::size_t end) {
                  for (std::size_t k = begin; k < end; ++k) {
                    if (!results[k].ok()) continue;
                    const OwnershipCandidate& candidate =
                        candidates[group[k]];
                    SweepMatch& match = matches[k];
                    match.id = candidate.id;
                    match.commitment_verified =
                        candidate.certificate.VerifyKeys(candidate.keys);
                    match.detection = std::move(results[k]).value();
                    match.decision = DecideOwnership(
                        candidate.certificate.wm, match.detection.wm, alpha);
                  }
                });
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (!results[k].ok()) {
        report.failed.emplace_back(candidates[group[k]].id,
                                   results[k].status());
        continue;
      }
      report.messages_hashed += matches[k].detection.messages_hashed;
      report.ranked.push_back(std::move(matches[k]));
    }
  }

  // Most convincing claim first; the tail tiebreak on id makes the order
  // total, so reports are reproducible run to run.
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const SweepMatch& a, const SweepMatch& b) {
              if (a.decision.owned != b.decision.owned) {
                return a.decision.owned;
              }
              if (a.decision.p_value != b.decision.p_value) {
                return a.decision.p_value < b.decision.p_value;
              }
              if (a.decision.matched_bits != b.decision.matched_bits) {
                return a.decision.matched_bits > b.decision.matched_bits;
              }
              return a.id < b.id;
            });
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace catmark
