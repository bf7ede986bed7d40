#include "decor/voronoi_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/profile.hpp"
#include "common/require.hpp"
#include "coverage/benefit_index.hpp"

namespace decor::core {

namespace {

constexpr std::int64_t kNoOwner = coverage::BenefitIndex::kNoOwner;

common::Histogram& ownership_hist() {
  static common::Histogram& h =
      common::profile_histogram("profile.voronoi.build_ownership_us");
  return h;
}

class VoronoiEngine {
 public:
  VoronoiEngine(Field& field, common::Rng& rng, EngineLimits limits)
      : field_(field),
        rng_(rng),
        limits_(limits),
        k_(field.params.k),
        rs_(field.params.rs),
        rc_(field.params.rc) {}

  DeploymentResult run();

 private:
  void build_ownership();
  void claim_territory(std::uint32_t node, geom::Point2 pos);
  bool seed_frontier(DeploymentResult& result);
  void place(std::uint32_t owner_of_decision, geom::Point2 pos,
             DeploymentResult& result);

  Field& field_;
  common::Rng& rng_;
  EngineLimits limits_;
  std::uint32_t k_;
  double rs_;
  double rc_;
  // Ground-truth counts plus per-point owner labels and owner-restricted
  // Equation-1 benefits, all maintained incrementally: a placement is one
  // add_disc, a territory claim a set_owner per reassigned point.
  std::unique_ptr<coverage::BenefitIndex> index_;
};

void VoronoiEngine::build_ownership() {
  common::ProfileScope profile(ownership_hist());
  const auto& index = field_.map.index();
  std::vector<std::int64_t> owners(index.size(), kNoOwner);
  for (std::size_t pid = 0; pid < index.size(); ++pid) {
    const geom::Point2 p = index.point(pid);
    double best_d = std::numeric_limits<double>::infinity();
    std::int64_t best = kNoOwner;
    field_.sensors.index().for_each_in_disc(
        p, rc_, [&](std::uint32_t sid, geom::Point2 spos) {
          const double d = geom::distance_sq(p, spos);
          if (d < best_d || (d == best_d && static_cast<std::int64_t>(sid) <
                                                best)) {
            best_d = d;
            best = sid;
          }
        });
    owners[pid] = best;
  }
  index_ = std::make_unique<coverage::BenefitIndex>(field_.map, k_,
                                                    std::move(owners));
}

void VoronoiEngine::claim_territory(std::uint32_t node, geom::Point2 pos) {
  // The new node takes over every point within rc that is now closer to
  // it than to the point's previous owner (Definition 1, incremental).
  field_.map.index().for_each_in_disc(pos, rc_, [&](std::size_t pid) {
    const geom::Point2 p = field_.map.index().point(pid);
    const double d_new = geom::distance_sq(p, pos);
    const std::int64_t cur_owner = index_->owner(pid);
    if (cur_owner == kNoOwner) {
      index_->set_owner(pid, node);
      return;
    }
    const geom::Point2 cur =
        field_.sensors.position(static_cast<std::uint32_t>(cur_owner));
    const double d_cur = geom::distance_sq(p, cur);
    if (d_new < d_cur ||
        (d_new == d_cur && node < static_cast<std::uint32_t>(cur_owner))) {
      index_->set_owner(pid, node);
    }
  });
}

void VoronoiEngine::place(std::uint32_t placing_owner, geom::Point2 pos,
                          DeploymentResult& result) {
  // The placing node announces the deployment to its rc-neighborhood.
  const geom::Point2 announcer =
      field_.sensors.position(placing_owner);
  result.messages += field_.sensors.index().count_in_disc(announcer, rc_) - 1;

  const std::uint32_t id = field_.deploy(pos);
  index_->add_disc(pos, rs_);
  ++result.placed_nodes;
  result.placements.push_back(pos);
  claim_territory(id, pos);
  if (limits_.on_place) limits_.on_place(result.placed_nodes, field_.map);
}

bool VoronoiEngine::seed_frontier(DeploymentResult& result) {
  // Only unowned uncovered points remain: carry a starter node to the one
  // nearest to the deployed network (or to the first uncovered point when
  // the field is empty).
  const auto& index = field_.map.index();
  const double diag = std::sqrt(index.bounds().width() * index.bounds().width() +
                                index.bounds().height() * index.bounds().height());
  geom::Point2 best_pos{};
  double best_d = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t pid = 0; pid < index.size(); ++pid) {
    if (index_->count(pid) >= k_ || index_->owner(pid) != kNoOwner) continue;
    const geom::Point2 p = index.point(pid);
    // Distance to the nearest alive sensor, by expanding ring search.
    double d = std::numeric_limits<double>::infinity();
    for (double r = rc_; r <= 2.0 * diag; r *= 2.0) {
      double local = std::numeric_limits<double>::infinity();
      field_.sensors.index().for_each_in_disc(
          p, r, [&](std::uint32_t, geom::Point2 spos) {
            local = std::min(local, geom::distance_sq(p, spos));
          });
      if (local < std::numeric_limits<double>::infinity()) {
        d = local;
        break;
      }
    }
    if (!found || d < best_d) {
      best_d = d;
      best_pos = p;
      found = true;
    }
  }
  if (!found) return false;
  const std::uint32_t id = field_.deploy(best_pos);
  index_->add_disc(best_pos, rs_);
  ++result.placed_nodes;
  result.placements.push_back(best_pos);
  ++result.messages;  // the out-of-band seeding directive
  claim_territory(id, best_pos);
  if (limits_.on_place) limits_.on_place(result.placed_nodes, field_.map);
  return true;
}

DeploymentResult VoronoiEngine::run() {
  DeploymentResult result;
  result.initial_nodes = field_.sensors.alive_count();
  build_ownership();

  const auto& index = field_.map.index();
  while (result.placed_nodes < limits_.max_new_nodes) {
    // Group uncovered points by owner (round-start snapshot).
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_owner;
    bool any_unowned_uncovered = false;
    for (std::size_t pid = 0; pid < index.size(); ++pid) {
      if (index_->count(pid) >= k_) continue;
      const std::int64_t owner = index_->owner(pid);
      if (owner == kNoOwner) {
        any_unowned_uncovered = true;
        continue;
      }
      by_owner[static_cast<std::uint32_t>(owner)].push_back(pid);
    }

    if (by_owner.empty()) {
      if (!any_unowned_uncovered) break;  // fully covered
      ++result.rounds;
      if (!seed_frontier(result)) break;
      continue;
    }

    // Every owner decides simultaneously on the round-start coverage; the
    // snapshot of counts is implicit because placements apply afterwards.
    // Benefit over this node's own points only (Equation 1 restricted to
    // the local Voronoi cell) is an O(1) read per candidate.
    struct Decision {
      std::uint32_t owner;
      geom::Point2 pos;
    };
    std::vector<Decision> decisions;
    decisions.reserve(by_owner.size());
    for (auto& [owner, pids] : by_owner) {
      std::uint64_t best_benefit = 0;
      geom::Point2 best_pos{};
      bool found = false;
      for (std::size_t pid : pids) {
        const std::uint64_t b = index_->benefit(pid);
        if (!found || b > best_benefit) {
          best_benefit = b;
          best_pos = index.point(pid);
          found = true;
        }
      }
      DECOR_ASSERT(found);
      decisions.push_back(Decision{owner, best_pos});
    }

    ++result.rounds;
    // Deterministic application order (sorted by owner id), shuffled to
    // de-bias the trace; the decisions themselves were simultaneous.
    std::sort(decisions.begin(), decisions.end(),
              [](const Decision& a, const Decision& b) {
                return a.owner < b.owner;
              });
    rng_.shuffle(decisions);
    for (const auto& d : decisions) {
      if (result.placed_nodes >= limits_.max_new_nodes) break;
      place(d.owner, d.pos, result);
    }
  }

  result.cells = std::max<std::size_t>(field_.sensors.alive_count(), 1);
  result.reached_full_coverage = field_.map.fully_covered(k_);
  return result;
}

}  // namespace

DeploymentResult voronoi_decor(Field& field, common::Rng& rng,
                               EngineLimits limits) {
  return VoronoiEngine(field, rng, limits).run();
}

}  // namespace decor::core
