#include "coverage/benefit_index.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/require.hpp"

namespace decor::coverage {

namespace {

// Disc events (2*rs delta sweeps), entries skipped as stale/covered in
// best() and full cold-start rebuilds — the index's cost drivers.
common::Counter& delta_sweep_counter() {
  static common::Counter& c =
      common::metrics().counter("benefit.delta_sweeps");
  return c;
}
common::Counter& stale_pop_counter() {
  static common::Counter& c = common::metrics().counter("benefit.stale_pops");
  return c;
}
common::Counter& rebuild_counter() {
  static common::Counter& c = common::metrics().counter("benefit.rebuilds");
  return c;
}
common::Histogram& rebuild_hist() {
  static common::Histogram& h =
      common::profile_histogram("profile.benefit.rebuild_us");
  return h;
}
common::Histogram& delta_sweep_hist() {
  static common::Histogram& h =
      common::profile_histogram("profile.benefit.delta_sweep_us");
  return h;
}

}  // namespace

BenefitIndex::BenefitIndex(const CoverageMap& map, std::uint32_t k,
                           std::vector<std::int64_t> owners)
    : index_(map.index_ptr()),
      rs_(map.rs()),
      k_(k),
      counts_(map.counts()),
      owner_(std::move(owners)),
      benefit_(index_->size(), 0),
      touch_epoch_(index_->size(), 0) {
  DECOR_REQUIRE_MSG(k_ >= 1, "coverage requirement must be >= 1");
  if (owner_.empty()) owner_.assign(index_->size(), 0);
  DECOR_REQUIRE_MSG(owner_.size() == index_->size(),
                    "owner labels must cover every point");
  init_buckets();
  rebuild();
}

BenefitIndex::BenefitIndex(std::shared_ptr<const geom::PointGridIndex> index,
                           double rs, std::uint32_t k,
                           std::vector<std::int64_t> owners)
    : index_(std::move(index)),
      rs_(rs),
      k_(k),
      counts_(index_->size(), 0),
      owner_(std::move(owners)),
      benefit_(index_->size(), 0),
      touch_epoch_(index_->size(), 0) {
  DECOR_REQUIRE_MSG(k_ >= 1, "coverage requirement must be >= 1");
  DECOR_REQUIRE_MSG(rs_ > 0.0, "sensing radius must be positive");
  if (owner_.empty()) owner_.assign(index_->size(), 0);
  DECOR_REQUIRE_MSG(owner_.size() == index_->size(),
                    "owner labels must cover every point");
  init_buckets();
  rebuild();
}

void BenefitIndex::init_buckets() {
  const double area = index_->bounds().area();
  points_per_area_ =
      area > 0.0 ? static_cast<double>(index_->size()) / area : 0.0;
  for (std::size_t p = 0; p < owner_.size(); ++p) {
    if (owner_[p] != kNoOwner) {
      bucket(owner_[p]).push_back(static_cast<std::uint32_t>(p));
    }
  }
}

std::vector<std::uint32_t>& BenefitIndex::bucket(std::int64_t own) {
  DECOR_ASSERT(own >= 0);
  const auto i = static_cast<std::size_t>(own);
  if (i >= owner_points_.size()) owner_points_.resize(i + 1);
  return owner_points_[i];
}

std::size_t BenefitIndex::disc_estimate(double radius) const noexcept {
  return static_cast<std::size_t>(points_per_area_ * radius * radius) + 1;
}

template <typename Fn>
void BenefitIndex::for_each_owned_in_disc(std::int64_t own,
                                          geom::Point2 center, double radius,
                                          Fn&& fn) const {
  if (own < 0) return;
  const auto i = static_cast<std::size_t>(own);
  if (i < owner_points_.size() &&
      owner_points_[i].size() < disc_estimate(radius)) {
    // Same membership predicate as PointGridIndex::for_each_in_disc.
    for (const std::uint32_t p : owner_points_[i]) {
      if (geom::within(index_->point(p), center, radius)) fn(std::size_t{p});
    }
    return;
  }
  index_->for_each_in_disc(center, radius, [&](std::size_t q) {
    if (owner_[q] == own) fn(q);
  });
}

std::uint64_t BenefitIndex::recompute_one(std::size_t point_id) const {
  const std::int64_t own = owner_[point_id];
  if (own == kNoOwner) return 0;
  std::uint64_t b = 0;
  for_each_owned_in_disc(own, index_->point(point_id), rs_,
                         [&](std::size_t q) {
                           const std::uint32_t c = counts_[q];
                           if (c < k_) b += k_ - c;
                         });
  return b;
}

void BenefitIndex::rebuild() {
  common::ProfileScope profile(rebuild_hist());
  rebuild_counter().inc();
  // Scatter: every owned point q with deficit d > 0 adds d to each
  // same-owner point within rs of it. distance_sq is symmetric, so this
  // is exactly the per-point gather of recompute_one, but it sweeps only
  // the deficit points (few once a field is mostly covered).
  std::fill(benefit_.begin(), benefit_.end(), 0);
  for (std::size_t q = 0; q < counts_.size(); ++q) {
    const std::int64_t own = owner_[q];
    if (own == kNoOwner || counts_[q] >= k_) continue;
    const std::uint64_t d = k_ - counts_[q];
    for_each_owned_in_disc(own, index_->point(q), rs_,
                           [&](std::size_t p) { benefit_[p] += d; });
  }
  // Seed the heap with one exact entry per candidate, in ascending point
  // order.
  std::vector<Candidate> seed;
  for (std::size_t p = 0; p < counts_.size(); ++p) {
    if (owner_[p] != kNoOwner && counts_[p] < k_) {
      seed.push_back(Candidate{benefit_[p], p});
    }
  }
  heap_ = Heap(Worse{}, std::move(seed));
}

void BenefitIndex::touch(std::size_t point_id) {
  if (touch_epoch_[point_id] == epoch_) return;
  touch_epoch_[point_id] = epoch_;
  touched_.push_back(static_cast<std::uint32_t>(point_id));
}

void BenefitIndex::queue(std::size_t point_id) {
  if (owner_[point_id] != kNoOwner && counts_[point_id] < k_) {
    heap_.push(Candidate{benefit_[point_id], point_id});
  }
}

void BenefitIndex::flush_touched() {
  // Touched points are exactly those whose benefit rose; a fresh
  // snapshot keeps each one's heap entry an upper bound.
  for (const std::uint32_t p : touched_) queue(p);
  touched_.clear();
}

void BenefitIndex::apply_deficit_delta(std::size_t q,
                                       std::uint32_t old_count,
                                       std::uint32_t new_count) {
  const std::uint64_t d0 = old_count >= k_ ? 0 : k_ - old_count;
  const std::uint64_t d1 = new_count >= k_ ? 0 : k_ - new_count;
  if (d0 == d1) return;
  const std::int64_t own = owner_[q];
  if (own == kNoOwner) return;  // contributes to no candidate
  if (d1 > d0) {
    const std::uint64_t up = d1 - d0;
    for_each_owned_in_disc(own, index_->point(q), rs_, [&](std::size_t p) {
      benefit_[p] += up;
      touch(p);
    });
  } else {
    // A falling benefit leaves every existing snapshot an upper bound:
    // nothing to queue.
    const std::uint64_t down = d0 - d1;
    for_each_owned_in_disc(own, index_->point(q), rs_, [&](std::size_t p) {
      DECOR_ASSERT(benefit_[p] >= down);
      benefit_[p] -= down;
    });
  }
}

void BenefitIndex::add_disc(geom::Point2 pos, double radius,
                            std::uint32_t mult) {
  if (mult == 0) return;
  common::ProfileScope profile(delta_sweep_hist());
  delta_sweep_counter().inc();
  index_->for_each_in_disc(pos, radius, [&](std::size_t q) {
    const std::uint32_t old = counts_[q];
    counts_[q] = old + mult;
    apply_deficit_delta(q, old, counts_[q]);
  });
}

void BenefitIndex::remove_disc(geom::Point2 pos, double radius,
                               std::uint32_t mult) {
  if (mult == 0) return;
  common::ProfileScope profile(delta_sweep_hist());
  delta_sweep_counter().inc();
  ++epoch_;
  index_->for_each_in_disc(pos, radius, [&](std::size_t q) {
    const std::uint32_t old = counts_[q];
    DECOR_REQUIRE_MSG(old >= mult,
                      "removing a disc that was never added here");
    counts_[q] = old - mult;
    apply_deficit_delta(q, old, counts_[q]);
    // A point that just became uncovered re-enters the candidate set;
    // its own benefit rose too (it is within rs of itself), so the delta
    // above already touched it and flush re-queues it.
  });
  flush_touched();
}

std::size_t BenefitIndex::add_disc_owned(geom::Point2 pos, double radius,
                                         std::int64_t owner) {
  std::size_t newly_covered = 0;
  delta_sweep_counter().inc();
  for_each_owned_in_disc(owner, pos, radius, [&](std::size_t q) {
    const std::uint32_t old = counts_[q];
    counts_[q] = old + 1;
    if (old < k_ && counts_[q] >= k_) ++newly_covered;
    apply_deficit_delta(q, old, counts_[q]);
  });
  return newly_covered;
}

void BenefitIndex::set_owner(std::size_t point_id, std::int64_t new_owner) {
  const std::int64_t old_owner = owner_[point_id];
  if (old_owner == new_owner) return;
  delta_sweep_counter().inc();
  ++epoch_;
  const std::uint32_t c = counts_[point_id];
  const std::uint64_t d = c >= k_ ? 0 : k_ - c;
  if (d > 0) {
    // Move this point's deficit contribution from the old owner's
    // candidates to the new owner's (its own slot is recomputed below).
    const geom::Point2 pos = index_->point(point_id);
    for_each_owned_in_disc(old_owner, pos, rs_, [&](std::size_t p) {
      if (p == point_id) return;
      DECOR_ASSERT(benefit_[p] >= d);
      benefit_[p] -= d;
    });
    for_each_owned_in_disc(new_owner, pos, rs_, [&](std::size_t p) {
      if (p == point_id) return;
      benefit_[p] += d;
      touch(p);
    });
  }
  if (old_owner != kNoOwner) {
    auto& old_bucket = bucket(old_owner);
    const auto it = std::lower_bound(
        old_bucket.begin(), old_bucket.end(),
        static_cast<std::uint32_t>(point_id));
    DECOR_ASSERT(it != old_bucket.end() && *it == point_id);
    old_bucket.erase(it);
  }
  if (new_owner != kNoOwner) {
    auto& new_bucket = bucket(new_owner);
    new_bucket.insert(std::lower_bound(new_bucket.begin(), new_bucket.end(),
                                       static_cast<std::uint32_t>(point_id)),
                      static_cast<std::uint32_t>(point_id));
  }
  owner_[point_id] = new_owner;
  // The point's own snapshots were taken under its old owner, or it had
  // none (unowned): queue its new benefit unconditionally.
  benefit_[point_id] = recompute_one(point_id);
  touch(point_id);
  flush_touched();
}

std::optional<BenefitIndex::Candidate> BenefitIndex::best() const {
  std::uint64_t stale = 0;
  std::optional<Candidate> found;
  while (!heap_.empty()) {
    const Candidate top = heap_.top();
    const bool candidate =
        owner_[top.point] != kNoOwner && counts_[top.point] < k_;
    const std::uint64_t live = benefit_[top.point];
    if (candidate && live == top.benefit) {
      // Every other candidate's best entry bounds its live benefit from
      // above and ranks no higher, so this is the exact maximum.
      found = top;
      break;
    }
    heap_.pop();  // an upper bound, or no longer a candidate
    ++stale;
    if (candidate) heap_.push(Candidate{live, top.point});
  }
  if (stale > 0) stale_pop_counter().inc(stale);
  return found;
}

std::optional<BenefitIndex::Candidate> BenefitIndex::best_believed(
    const geom::PointGridIndex& points, double rs, std::uint32_t k,
    const std::vector<std::uint32_t>& candidates,
    const std::function<std::optional<std::uint32_t>(std::size_t)>&
        count_of) {
  const auto choice = choose_believed(points, rs, k, candidates, count_of);
  if (!choice) return std::nullopt;
  return choice->best;
}

std::optional<BenefitIndex::BelievedChoice> BenefitIndex::choose_believed(
    const geom::PointGridIndex& points, double rs, std::uint32_t k,
    const std::vector<std::uint32_t>& candidates,
    const std::function<std::optional<std::uint32_t>(std::size_t)>&
        count_of) {
  std::optional<BelievedChoice> best;
  for (const std::uint32_t pid : candidates) {
    const auto c = count_of(pid);
    DECOR_ASSERT(c.has_value());
    if (*c >= k) continue;
    std::uint64_t b = 0;
    points.for_each_in_disc(points.point(pid), rs, [&](std::size_t q) {
      const auto cq = count_of(q);
      if (cq && *cq < k) b += k - *cq;
    });
    if (!best) {
      best = BelievedChoice{Candidate{b, pid}, 0, 0};
    } else if (b > best->best.benefit) {
      best->runner_up = best->best.benefit;
      best->best = Candidate{b, pid};
    } else if (b > best->runner_up) {
      best->runner_up = b;
    }
    ++best->scanned;
  }
  return best;
}

}  // namespace decor::coverage
