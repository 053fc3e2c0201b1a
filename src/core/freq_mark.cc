#include "core/freq_mark.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "relation/histogram.h"

namespace catmark {

FrequencyMarker::FrequencyMarker(SecretKey key, FreqMarkParams params)
    : key_(std::move(key)), params_(params) {
  CATMARK_CHECK(params_.quantization_step > 0.0 &&
                params_.quantization_step < 0.5);
}

namespace {

// Group of domain value `v`: the keyed hash of v's canonical bytes followed
// by the salt byte, mod num_groups; the message is built in `scratch`.
std::size_t GroupIndex(const KeyedPrf& prf, const Value& v,
                       std::size_t num_groups, std::uint8_t salt,
                       HashScratch& scratch) {
  scratch.clear();
  v.SerializeForHash(scratch);
  scratch.push_back(salt);
  return static_cast<std::size_t>(
      prf.Hash64(scratch.data(), scratch.size()) % num_groups);
}

Result<std::uint8_t> GroupingSalt(const KeyedPrf& prf,
                                  const CategoricalDomain& domain,
                                  std::size_t num_groups) {
  HashScratch scratch;
  for (int salt = 0; salt < 64; ++salt) {
    std::vector<bool> hit(num_groups, false);
    for (std::size_t t = 0; t < domain.size(); ++t) {
      hit[GroupIndex(prf, domain.value(t), num_groups,
                     static_cast<std::uint8_t>(salt), scratch)] = true;
    }
    bool all = true;
    for (bool h : hit) all = all && h;
    if (all) return static_cast<std::uint8_t>(salt);
  }
  return Status::FailedPrecondition(
      "no keyed grouping covers all watermark bits; enlarge the domain or "
      "shorten the mark");
}

/// Distance from `mass` to the nearest edge of its quantization cell.
/// Cells are centred on integer multiples of q (decode rounds mass/q), so
/// the edges sit at half-integers; a freshly re-centred mass has margin
/// ~q/2.
double CellMargin(double mass, double q) {
  const double pos = mass / q;
  const double frac = pos - std::floor(pos);
  return q * std::abs(frac - 0.5);
}

}  // namespace

std::unique_ptr<KeyedPrf> FrequencyMarker::Prf() const {
  return CreateKeyedPrf(PrfKind::kKeyedHash, key_, params_.hash_algo);
}

std::size_t FrequencyMarker::GroupOf(const Value& v, std::size_t num_groups,
                                     std::uint8_t salt) const {
  HashScratch scratch;
  return GroupIndex(*Prf(), v, num_groups, salt, scratch);
}

Result<std::uint8_t> FrequencyMarker::FindGroupingSalt(
    const CategoricalDomain& domain, std::size_t num_groups) const {
  return GroupingSalt(*Prf(), domain, num_groups);
}

Result<FreqEmbedReport> FrequencyMarker::Embed(
    Relation& rel, const std::string& attr, const BitVector& wm,
    const std::optional<CategoricalDomain>& domain_opt,
    QualityAssessor* assessor) const {
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  CATMARK_ASSIGN_OR_RETURN(const std::size_t col,
                           rel.schema().ColumnIndexOrError(attr));
  CategoricalDomain domain;
  if (domain_opt.has_value()) {
    domain = *domain_opt;
  } else {
    CATMARK_ASSIGN_OR_RETURN(domain,
                             CategoricalDomain::FromRelationColumn(rel, col));
  }
  const std::size_t groups = wm.size();
  if (domain.size() < 2 * groups) {
    return Status::FailedPrecondition(
        "frequency-domain channel needs nA >= 2*|wm| categories (have " +
        std::to_string(domain.size()) + ", need " +
        std::to_string(2 * groups) + ")");
  }

  CATMARK_ASSIGN_OR_RETURN(FrequencyHistogram hist,
                           FrequencyHistogram::Compute(rel, col, domain));
  const std::size_t total = hist.total();
  const double q = params_.quantization_step;
  // Quantization step in tuple counts; must be resolvable.
  const auto q_count = static_cast<long>(
      std::llround(q * static_cast<double>(total)));
  if (q_count < 2) {
    return Status::FailedPrecondition(
        "quantization step too small for this data size (q*N < 2)");
  }

  // Group assignment and per-group counts. The salt guarantees every group
  // owns at least one category; the detector re-derives it from the domain.
  const std::unique_ptr<KeyedPrf> prf = Prf();
  CATMARK_ASSIGN_OR_RETURN(const std::uint8_t salt,
                           GroupingSalt(*prf, domain, groups));
  std::vector<std::size_t> group_of(domain.size());
  std::vector<long> group_count(groups, 0);
  std::vector<std::vector<std::size_t>> group_categories(groups);
  HashScratch scratch;
  for (std::size_t t = 0; t < domain.size(); ++t) {
    const std::size_t g =
        GroupIndex(*prf, domain.value(t), groups, salt, scratch);
    group_of[t] = g;
    group_count[g] += static_cast<long>(hist.count(t));
    group_categories[g].push_back(t);
  }

  // Per-category floors: embedding never drains a category below
  // min(current count, min_category_keep) occurrences — emptied categories
  // would vanish from a blindly re-derived domain and scramble the keyed
  // grouping (besides being a conspicuous data-quality change).
  std::vector<long> cat_floor(domain.size());
  std::vector<long> group_floor(groups, 0);
  for (std::size_t t = 0; t < domain.size(); ++t) {
    cat_floor[t] = std::min<long>(static_cast<long>(hist.count(t)),
                                  params_.min_category_keep);
    group_floor[group_of[t]] += cat_floor[t];
  }

  // Integer count targets in cell units: k_g is the quantization cell index
  // whose parity carries wm bit g. Start from the cell nearest the current
  // mass, subject to a feasibility minimum — the group's final count can
  // never go below its floor, and max(k*q_count, floor) must still round to
  // k (floor < k*q_count + q_count/2).
  const auto min_cell_for = [&](std::size_t g, int bit) {
    long k = (group_floor[g] - q_count / 2 + q_count) / q_count;  // ceil-ish
    if (k < 0) k = 0;
    while (k * q_count + q_count / 2 <= group_floor[g]) ++k;
    if ((k & 1L) != bit) ++k;
    return k;
  };
  const auto target_of = [&](std::size_t g, long k) {
    return std::max(k * q_count, group_floor[g]);
  };
  std::vector<long> cell(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const double cells =
        static_cast<double>(group_count[g]) / static_cast<double>(q_count);
    long k = std::lround(cells);
    if ((k & 1L) != wm.Get(g)) {
      const long down = k - 1;
      const long up = k + 1;
      k = (down >= 0 &&
           std::abs(cells - static_cast<double>(down)) <=
               std::abs(cells - static_cast<double>(up)))
              ? down
              : up;
    }
    cell[g] = std::max(k, min_cell_for(g, wm.Get(g)));
  }
  std::vector<long> target(groups);
  for (std::size_t g = 0; g < groups; ++g) target[g] = target_of(g, cell[g]);

  // Moves conserve the total count, so targets must sum to the current
  // total. First shrink the imbalance with parity-preserving +-2 cell
  // shifts on the cheapest groups, then absorb the residual (< 2*q_count)
  // by nudging groups off-centre while staying inside their cells.
  long imbalance = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    imbalance += target[g] - group_count[g];
  }
  while (std::abs(imbalance) >= 2 * q_count) {
    const long direction = imbalance > 0 ? -2 : 2;  // cells, applied to one k
    std::size_t best = groups;
    long best_cost = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const long k_cand = cell[g] + direction;
      if (k_cand < min_cell_for(g, wm.Get(g))) continue;
      const long cand = target_of(g, k_cand);
      const long cost = std::abs(cand - group_count[g]) -
                        std::abs(target[g] - group_count[g]);
      if (best == groups || cost < best_cost) {
        best = g;
        best_cost = cost;
      }
    }
    if (best == groups) break;  // no group can shift further
    cell[best] += direction;
    const long new_target = target_of(best, cell[best]);
    imbalance += new_target - target[best];
    target[best] = new_target;
  }
  // Distribute the residual evenly: each group can absorb up to
  // q_count/2 - 1 off-centre without leaving its cell (and never below its
  // floor); spreading the nudges keeps every group's cell margin large.
  const long max_nudge = q_count / 2 - 1;
  for (std::size_t g = 0; g < groups && imbalance != 0; ++g) {
    const long remaining_groups = static_cast<long>(groups - g);
    long share = -imbalance / remaining_groups;
    if (share == 0) share = imbalance > 0 ? -1 : 1;
    long nudge = std::max(-max_nudge, std::min(max_nudge, share));
    nudge = std::max(nudge, group_floor[g] - target[g]);
    target[g] += nudge;
    imbalance += nudge;
  }
  if (imbalance != 0) {
    return Status::Internal(
        "could not balance frequency targets; increase quantization_step");
  }

  // Per-category row lists (rows holding each in-domain value).
  std::vector<std::vector<std::size_t>> rows_of(domain.size());
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    const Value& v = rel.Get(r, col);
    if (v.is_null()) continue;
    const auto t = domain.IndexOf(v);
    if (t.has_value()) rows_of[*t].push_back(r);
  }

  // Execute moves: repeatedly move one tuple from the most-surplus group's
  // largest category to the most-deficit group's largest category.
  std::vector<long> delta(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    delta[g] = target[g] - group_count[g];
  }
  std::vector<long> cat_count(domain.size());
  for (std::size_t t = 0; t < domain.size(); ++t) {
    cat_count[t] = static_cast<long>(hist.count(t));
  }

  FreqEmbedReport report;
  report.num_groups = groups;
  while (true) {
    std::size_t donor = groups, receiver = groups;
    for (std::size_t g = 0; g < groups; ++g) {
      if (delta[g] < 0 && (donor == groups || delta[g] < delta[donor])) {
        donor = g;
      }
      if (delta[g] > 0 &&
          (receiver == groups || delta[g] > delta[receiver])) {
        receiver = g;
      }
    }
    if (donor == groups || receiver == groups) break;

    // Donor category: largest count with a movable row, never taking a
    // category below its floor.
    std::size_t cat_from = domain.size();
    for (std::size_t t : group_categories[donor]) {
      if (!rows_of[t].empty() && cat_count[t] > cat_floor[t] &&
          (cat_from == domain.size() || cat_count[t] > cat_count[cat_from])) {
        cat_from = t;
      }
    }
    if (cat_from == domain.size()) break;  // donor exhausted
    std::size_t cat_to = group_categories[receiver][0];
    for (std::size_t t : group_categories[receiver]) {
      if (cat_count[t] > cat_count[cat_to]) cat_to = t;
    }

    const std::size_t row = rows_of[cat_from].back();
    rows_of[cat_from].pop_back();
    const Value& new_value = domain.value(cat_to);
    bool applied = true;
    if (assessor != nullptr) {
      const Status s = assessor->ProposeAlteration(rel, row, col, new_value);
      if (!s.ok()) {
        if (!s.IsConstraintViolation()) return s;
        applied = false;
      }
    } else {
      CATMARK_RETURN_IF_ERROR(rel.Set(row, col, new_value));
    }
    if (applied) {
      rows_of[cat_to].push_back(row);
      --cat_count[cat_from];
      ++cat_count[cat_to];
      ++delta[donor];
      --delta[receiver];
      ++report.tuples_moved;
    } else if (rows_of[cat_from].empty() && delta[donor] < 0) {
      // Vetoed and the donor category ran dry: the donor group keeps its
      // deficit; bail out if nothing can move any more.
      bool movable = false;
      for (std::size_t t : group_categories[donor]) {
        if (!rows_of[t].empty() && cat_count[t] > cat_floor[t]) {
          movable = true;
        }
      }
      if (!movable) break;
    }
  }

  // Final masses for the report.
  CATMARK_ASSIGN_OR_RETURN(FrequencyHistogram after,
                           FrequencyHistogram::Compute(rel, col, domain));
  report.group_mass.assign(groups, 0.0);
  for (std::size_t t = 0; t < domain.size(); ++t) {
    report.group_mass[group_of[t]] += after.frequency(t);
  }
  report.min_cell_margin = q;
  for (double m : report.group_mass) {
    report.min_cell_margin = std::min(report.min_cell_margin,
                                      CellMargin(m, q));
  }
  return report;
}

Result<FreqDetectReport> FrequencyMarker::Detect(
    const Relation& rel, const std::string& attr, std::size_t wm_len,
    const std::optional<CategoricalDomain>& domain_opt) const {
  if (wm_len == 0) return Status::InvalidArgument("wm_len must be > 0");
  CATMARK_ASSIGN_OR_RETURN(const std::size_t col,
                           rel.schema().ColumnIndexOrError(attr));
  CategoricalDomain domain;
  if (domain_opt.has_value()) {
    domain = *domain_opt;
  } else {
    CATMARK_ASSIGN_OR_RETURN(domain,
                             CategoricalDomain::FromRelationColumn(rel, col));
  }
  CATMARK_ASSIGN_OR_RETURN(FrequencyHistogram hist,
                           FrequencyHistogram::Compute(rel, col, domain));

  const std::unique_ptr<KeyedPrf> prf = Prf();
  CATMARK_ASSIGN_OR_RETURN(const std::uint8_t salt,
                           GroupingSalt(*prf, domain, wm_len));
  FreqDetectReport report;
  report.group_mass.assign(wm_len, 0.0);
  HashScratch scratch;
  for (std::size_t t = 0; t < domain.size(); ++t) {
    report.group_mass[GroupIndex(*prf, domain.value(t), wm_len, salt,
                                 scratch)] += hist.frequency(t);
  }
  const double q = params_.quantization_step;
  report.wm = BitVector(wm_len);
  report.min_cell_margin = q;
  for (std::size_t g = 0; g < wm_len; ++g) {
    const long cell = std::lround(report.group_mass[g] / q);
    report.wm.Set(g, static_cast<int>(cell & 1L));
    report.min_cell_margin =
        std::min(report.min_cell_margin, CellMargin(report.group_mass[g], q));
  }
  return report;
}

}  // namespace catmark
