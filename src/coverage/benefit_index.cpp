#include "coverage/benefit_index.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/profile.hpp"
#include "common/require.hpp"

namespace decor::coverage {

namespace {

// Disc events (2*rs delta sweeps), entries skipped as stale/covered in
// best(), full cold-start rebuilds, and batched shard sweeps — the
// index's cost drivers.
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
common::Counter& batch_counter() {
  static common::Counter& c = common::metrics().counter("benefit.batches");
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
                           std::vector<std::int64_t> owners,
                           std::size_t threads, ShardSpec spec)
    : index_(map.index_ptr()),
      rs_(map.rs()),
      k_(k),
      threads_(threads),
      counts_(map.counts()),
      owner_(std::move(owners)),
      benefit_(index_->size(), 0),
      touch_epoch_(index_->size(), 0) {
  DECOR_REQUIRE_MSG(k_ >= 1, "coverage requirement must be >= 1");
  if (owner_.empty()) owner_.assign(index_->size(), 0);
  DECOR_REQUIRE_MSG(owner_.size() == index_->size(),
                    "owner labels must cover every point");
  init_buckets();
  init_shards(spec);
  rebuild();
}

BenefitIndex::BenefitIndex(std::shared_ptr<const geom::PointGridIndex> index,
                           double rs, std::uint32_t k,
                           std::vector<std::int64_t> owners,
                           std::size_t threads, ShardSpec spec)
    : index_(std::move(index)),
      rs_(rs),
      k_(k),
      threads_(threads),
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
  init_shards(spec);
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

void BenefitIndex::init_shards(ShardSpec spec) {
  shards_ = ShardGrid(index_->bounds(), spec.resolve());
  const std::size_t nshards = shards_.count();
  shard_of_point_.resize(index_->size());
  shard_points_.assign(nshards, {});
  for (std::size_t p = 0; p < index_->size(); ++p) {
    const std::size_t s = shards_.shard_of(index_->point(p));
    shard_of_point_[p] = static_cast<std::uint32_t>(s);
    shard_points_[s].push_back(static_cast<std::uint32_t>(p));
  }
  heaps_.resize(nshards);
  batch_changed_.resize(nshards);
  batch_touched_.resize(nshards);
  count_epoch_.assign(index_->size(), 0);
  accepted_epoch_.assign(index_->size(), 0);
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
  // Seed each shard's heap with one exact entry per candidate, from its
  // ascending point list (one shard == the historical single heap).
  for (std::size_t s = 0; s < heaps_.size(); ++s) {
    std::vector<Candidate> seed;
    for (const std::uint32_t p : shard_points_[s]) {
      if (owner_[p] != kNoOwner && counts_[p] < k_) {
        seed.push_back(Candidate{benefit_[p], p});
      }
    }
    heaps_[s] = Heap(Worse{}, std::move(seed));
  }
}

void BenefitIndex::touch(std::size_t point_id) {
  if (touch_epoch_[point_id] == epoch_) return;
  touch_epoch_[point_id] = epoch_;
  touched_.push_back(static_cast<std::uint32_t>(point_id));
}

void BenefitIndex::queue(std::size_t point_id) {
  if (owner_[point_id] != kNoOwner && counts_[point_id] < k_) {
    heaps_[shard_of_point_[point_id]].push(
        Candidate{benefit_[point_id], point_id});
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

void BenefitIndex::apply_discs(const std::vector<DiscDelta>& batch) {
  if (batch.empty()) return;
  common::ProfileScope profile(delta_sweep_hist());
  delta_sweep_counter().inc(batch.size());
  batch_counter().inc();
  const std::size_t nshards = heaps_.size();

  // Phase A — counts, parallel by owning shard. Each shard applies every
  // event reaching its tile to the points it owns, recording each
  // changed point's pre-batch count once (count_epoch_ dedup; the slot
  // is only ever written by the point's own shard). Afterwards dq holds
  // the net signed deficit change of the whole batch.
  ++batch_epoch_;
  common::parallel_for(
      nshards,
      [&](std::size_t s) {
        auto& changed = batch_changed_[s];
        changed.clear();
        for (const auto& e : batch) {
          if (e.mult == 0) continue;
          if (!shards_.may_reach(s, e.pos, e.radius)) continue;
          index_->for_each_in_disc(e.pos, e.radius, [&](std::size_t q) {
            if (shard_of_point_[q] != s) return;
            if (count_epoch_[q] != batch_epoch_) {
              count_epoch_[q] = batch_epoch_;
              changed.push_back(
                  {static_cast<std::uint32_t>(q), counts_[q], 0});
            }
            if (e.mult > 0) {
              counts_[q] += static_cast<std::uint32_t>(e.mult);
            } else {
              const auto drop = static_cast<std::uint32_t>(-e.mult);
              DECOR_REQUIRE_MSG(counts_[q] >= drop,
                                "removing a disc that was never added here");
              counts_[q] -= drop;
            }
          });
        }
        for (auto& c : changed) {
          const std::uint32_t now = counts_[c.point];
          const std::int64_t d0 = c.old_count >= k_ ? 0 : k_ - c.old_count;
          const std::int64_t d1 = now >= k_ ? 0 : k_ - now;
          c.dq = d1 - d0;
        }
      },
      threads_);

  // Phase B — benefits, parallel by destination shard. Every shard scans
  // all shards' changed lists in ascending shard order and folds the
  // deficit deltas into the benefits of its own points within rs. The
  // deltas are integers, so the fold is exact in any order; iterating in
  // fixed order anyway keeps the per-shard heap push sequence (via the
  // touched lists) deterministic too. Only rising deficits (dq > 0)
  // touch: a net fall leaves the old snapshots upper bounds.
  ++epoch_;
  common::parallel_for(
      nshards,
      [&](std::size_t s) {
        auto& touched = batch_touched_[s];
        touched.clear();
        for (std::size_t t = 0; t < nshards; ++t) {
          for (const auto& c : batch_changed_[t]) {
            if (c.dq == 0) continue;
            const std::int64_t own = owner_[c.point];
            if (own == kNoOwner) continue;
            const geom::Point2 qp = index_->point(c.point);
            if (!shards_.may_reach(s, qp, rs_)) continue;
            index_->for_each_in_disc(qp, rs_, [&](std::size_t p) {
              if (shard_of_point_[p] != s || owner_[p] != own) return;
              const std::int64_t b =
                  static_cast<std::int64_t>(benefit_[p]) + c.dq;
              DECOR_ASSERT(b >= 0);
              benefit_[p] = static_cast<std::uint64_t>(b);
              if (c.dq > 0 && touch_epoch_[p] != epoch_) {
                touch_epoch_[p] = epoch_;
                touched.push_back(static_cast<std::uint32_t>(p));
              }
            });
          }
        }
        // Per-shard flush: one fresh snapshot per point whose benefit
        // rose, into this shard's own heap.
        for (const std::uint32_t p : touched) queue(p);
      },
      threads_);
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

std::optional<BenefitIndex::Candidate> BenefitIndex::shard_best(
    std::size_t shard, bool skip_accepted) const {
  auto& heap = heaps_[shard];
  std::uint64_t stale = 0;
  std::optional<Candidate> found;
  while (!heap.empty()) {
    const Candidate top = heap.top();
    const bool candidate =
        owner_[top.point] != kNoOwner && counts_[top.point] < k_ &&
        !(skip_accepted && accepted_epoch_[top.point] == select_epoch_);
    const std::uint64_t live = benefit_[top.point];
    if (candidate && live == top.benefit) {
      // Every other candidate's best entry bounds its live benefit from
      // above and ranks no higher, so this is the exact maximum.
      found = top;
      break;
    }
    heap.pop();  // an upper bound, no longer a candidate, or accepted
    ++stale;
    if (candidate) heap.push(Candidate{live, top.point});
  }
  if (stale > 0) stale_pop_counter().inc(stale);
  return found;
}

std::optional<BenefitIndex::Candidate> BenefitIndex::best() const {
  // Merge the per-shard tops under the same (benefit desc, point asc)
  // total order the heaps use; ascending shard order makes the scan
  // deterministic, the total order makes the winner independent of the
  // shard layout.
  std::optional<Candidate> found;
  for (std::size_t s = 0; s < heaps_.size(); ++s) {
    const auto c = shard_best(s, /*skip_accepted=*/false);
    if (c && (!found || Worse{}(*found, *c))) found = c;
  }
  return found;
}

std::vector<BenefitIndex::Candidate> BenefitIndex::select_batch(
    double place_radius, std::size_t max_batch) {
  std::vector<Candidate> out;
  if (max_batch == 0) return out;
  ++select_epoch_;
  // Two placements interact iff some point lies within rs of one
  // candidate and within place_radius of the other — impossible beyond
  // place_radius + rs (<= is kept as conflict: a too-early stop only
  // shortens the batch, never changes the sequence).
  const double conflict_r = place_radius + rs_;
  const double conflict_r2 = conflict_r * conflict_r;
  std::vector<geom::Point2> accepted_pos;
  while (out.size() < max_batch) {
    std::optional<Candidate> found;
    std::size_t found_shard = 0;
    for (std::size_t s = 0; s < heaps_.size(); ++s) {
      const auto c = shard_best(s, /*skip_accepted=*/true);
      if (c && (!found || Worse{}(*found, *c))) {
        found = c;
        found_shard = s;
      }
    }
    if (!found) break;
    const geom::Point2 pos = index_->point(found->point);
    bool conflict = false;
    for (const geom::Point2 a : accepted_pos) {
      if (geom::distance_sq(pos, a) <= conflict_r2) {
        conflict = true;
        break;
      }
    }
    if (conflict) break;  // its benefit may change once the batch lands
    accepted_epoch_[found->point] = select_epoch_;
    heaps_[found_shard].pop();  // consume the winning snapshot
    accepted_pos.push_back(pos);
    out.push_back(*found);
  }
  // The commit only adds discs, which queue nothing, so re-queue each
  // winner's current benefit: an upper bound of its post-commit value.
  for (const Candidate& c : out) queue(c.point);
  return out;
}

std::size_t BenefitIndex::heap_size() const noexcept {
  std::size_t total = 0;
  for (const auto& h : heaps_) total += h.size();
  return total;
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
