#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "core/detect_engine.h"

namespace catmark {

WatermarkService::WatermarkService(ServiceOptions options)
    : options_(options) {}

Result<std::size_t> WatermarkService::Open(SessionSpec spec,
                                           Relation relation) {
  CATMARK_ASSIGN_OR_RETURN(StreamSession session,
                           StreamSession::Create(std::move(spec)));
  // A relation passed by value usually arrives copied, with column capacity
  // == size: the very first insert batch would then pay an O(N) relocation
  // of every column (plus the page faults of the fresh allocations) inside
  // the timed insert path. Reserve append headroom now, at open time.
  relation.Reserve(relation.NumRows() + relation.NumRows() / 4 + 1024);
  const std::size_t id = entries_.size();
  entries_.push_back(std::make_unique<Entry>(
      Entry{std::move(session), std::move(relation)}));
  ++open_count_;
  return id;
}

WatermarkService::Entry* WatermarkService::Find(std::size_t id) {
  if (id >= entries_.size()) return nullptr;
  return entries_[id].get();
}

StreamSession& WatermarkService::session(std::size_t id) {
  Entry* entry = Find(id);
  CATMARK_CHECK(entry != nullptr) << "session " << id << " is not open";
  return entry->session;
}

const Relation& WatermarkService::relation(std::size_t id) const {
  CATMARK_CHECK(id < entries_.size() && entries_[id] != nullptr)
      << "session " << id << " is not open";
  return entries_[id]->relation;
}

Result<BatchReport> WatermarkService::InsertBatch(std::size_t id,
                                                  std::span<Row> rows) {
  Entry* entry = Find(id);
  if (entry == nullptr) {
    return Status::InvalidArgument("session " + std::to_string(id) +
                                   " is not open");
  }
  return entry->session.InsertBatch(entry->relation, rows);
}

Result<bool> WatermarkService::Refresh(std::size_t id, std::size_t row_index) {
  Entry* entry = Find(id);
  if (entry == nullptr) {
    return Status::InvalidArgument("session " + std::to_string(id) +
                                   " is not open");
  }
  return entry->session.Refresh(entry->relation, row_index);
}

std::vector<Result<BatchReport>> WatermarkService::ExecuteBatches(
    std::span<SessionBatch> batches) {
  std::vector<Result<BatchReport>> results;
  results.reserve(batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    results.emplace_back(Status::Internal("not executed"));
  }

  // Group batch indices by session, first-appearance order. Each group is
  // one unit of parallel work: a session is single-writer, so its batches
  // run in submission order on whichever worker owns the group.
  constexpr std::size_t kUngrouped = static_cast<std::size_t>(-1);
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of(entries_.size(), kUngrouped);
  std::vector<std::size_t> bad;  // batches naming a closed / unknown session
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const std::size_t id = batches[i].session_id;
    if (id >= entries_.size() || entries_[id] == nullptr) {
      bad.push_back(i);
      continue;
    }
    if (group_of[id] == kUngrouped) {
      group_of[id] = groups.size();
      groups.emplace_back();
    }
    groups[group_of[id]].push_back(i);
  }
  for (const std::size_t i : bad) {
    results[i] = Status::InvalidArgument(
        "session " + std::to_string(batches[i].session_id) + " is not open");
  }

  // Distinct sessions share no mutable state and every result slot is
  // written by exactly one worker, so the fan-out is race-free and the
  // outcome is independent of the thread count.
  ParallelFor(groups.size(),
              EffectiveThreadCount(options_.num_threads, groups.size()),
              [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
                for (std::size_t g = begin; g < end; ++g) {
                  for (const std::size_t i : groups[g]) {
                    SessionBatch& b = batches[i];
                    Entry& entry = *entries_[b.session_id];
                    results[i] = entry.session.InsertBatch(
                        entry.relation, std::span<Row>(b.rows));
                  }
                }
              });
  return results;
}

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
      const OwnershipCandidate& candidate = candidates[i];
      KeyCandidate kc;
      kc.keys = candidate.keys;
      kc.params = candidate.certificate.params;
      kc.params.payload_length = candidate.certificate.payload_length;
      kc.wm_len = candidate.certificate.wm.size();
      keys.push_back(std::move(kc));
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

Result<Relation> WatermarkService::Close(std::size_t id) {
  Entry* entry = Find(id);
  if (entry == nullptr) {
    return Status::InvalidArgument("session " + std::to_string(id) +
                                   " is not open");
  }
  Relation relation = std::move(entry->relation);
  entries_[id].reset();
  --open_count_;
  return relation;
}

}  // namespace catmark
