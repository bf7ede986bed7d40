// Differential tests for coverage::BenefitIndex: the incremental index
// must be *exact* — benefits, counts and chosen placements byte-identical
// to naive CoverageMap::benefit rescans — through full deploy / fail /
// restore lifecycles, for owner-restricted views, for the scatter
// cold-start rebuild, and for the lazy heap's upper-bound contract under
// mixed add / remove / ownership mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "coverage/benefit_index.hpp"
#include "decor/decor.hpp"

namespace {

using namespace decor;
using coverage::BenefitIndex;
using geom::Point2;

core::DecorParams small_params(std::uint32_t k) {
  core::DecorParams p;
  p.field = geom::make_rect(0, 0, 40, 40);
  p.num_points = 500;
  p.k = k;
  p.rs = 4.0;
  p.rc = 8.0;
  return p;
}

/// The centralized oracle: first maximum of a sequential rescan of the
/// uncovered candidates (benefit desc, point id asc).
std::optional<BenefitIndex::Candidate> naive_best(
    const coverage::CoverageMap& map, std::uint32_t k) {
  std::optional<BenefitIndex::Candidate> best;
  for (std::size_t id : map.uncovered_points(k)) {
    const std::uint64_t b = map.benefit(map.index().point(id), k);
    if (!best || b > best->benefit) best = {b, id};
  }
  return best;
}

void expect_matches_map(const BenefitIndex& index,
                        const coverage::CoverageMap& map, std::uint32_t k,
                        const char* phase) {
  ASSERT_EQ(index.num_points(), map.num_points());
  for (std::size_t p = 0; p < map.num_points(); ++p) {
    ASSERT_EQ(index.count(p), map.kp(p)) << phase << " point " << p;
    ASSERT_EQ(index.benefit(p), map.benefit(map.index().point(p), k))
        << phase << " point " << p;
  }
  const auto lazy = index.best();
  const auto naive = naive_best(map, k);
  ASSERT_EQ(lazy.has_value(), naive.has_value()) << phase;
  if (lazy) {
    EXPECT_EQ(lazy->point, naive->point) << phase;
    EXPECT_EQ(lazy->benefit, naive->benefit) << phase;
  }
}

/// Owner-restricted Equation-1 gather for one point from the index's
/// public counts and labels (the per-point recompute the scatter rebuild
/// and the delta updates must agree with).
std::uint64_t gathered_benefit(const BenefitIndex& index, std::size_t p) {
  const std::int64_t own = index.owner(p);
  if (own == BenefitIndex::kNoOwner) return 0;
  std::uint64_t b = 0;
  index.points().for_each_in_disc(
      index.points().point(p), index.rs(), [&](std::size_t q) {
        if (index.owner(q) != own) return;
        const std::uint32_t c = index.count(q);
        if (c < index.k()) b += index.k() - c;
      });
  return b;
}

/// First maximum of a sequential scan over owned uncovered points,
/// benefits gathered from scratch.
std::optional<BenefitIndex::Candidate> rescan_best(const BenefitIndex& index) {
  std::optional<BenefitIndex::Candidate> best;
  for (std::size_t p = 0; p < index.num_points(); ++p) {
    if (index.owner(p) == BenefitIndex::kNoOwner || !index.uncovered(p)) {
      continue;
    }
    const std::uint64_t b = gathered_benefit(index, p);
    if (!best || b > best->benefit) best = {b, p};
  }
  return best;
}

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Seeded, MatchesNaiveThroughDeployFailRestoreCycles) {
  common::Rng rng(GetParam());
  const std::uint32_t k = 1 + static_cast<std::uint32_t>(GetParam() % 3);
  core::Field field(small_params(k), rng);
  BenefitIndex index(field.map, k);

  // Phase 1: random initial deployment, a heterogeneous radius mix.
  for (int i = 0; i < 25; ++i) {
    const Point2 pos = lds::random_point(field.params.field, rng);
    const double rs = rng.bernoulli(0.3) ? rng.uniform(2.0, 6.0)
                                         : field.params.rs;
    field.deploy(pos, rs);
    index.add_disc(pos, rs);
  }
  expect_matches_map(index, field.map, k, "deploy");

  // Phase 2: greedy restore driven by the index, every choice checked
  // against a fresh naive rescan.
  std::size_t guard = 0;
  while (const auto best = index.best()) {
    const auto naive = naive_best(field.map, k);
    ASSERT_TRUE(naive.has_value());
    ASSERT_EQ(best->point, naive->point) << "step " << guard;
    ASSERT_EQ(best->benefit, naive->benefit) << "step " << guard;
    const Point2 pos = field.map.index().point(best->point);
    field.deploy(pos);
    index.add_disc(pos, field.params.rs);
    ASSERT_LT(++guard, 5000u);
  }
  EXPECT_TRUE(field.map.fully_covered(k));
  expect_matches_map(index, field.map, k, "restored");

  // Phase 3: random failures mirrored as remove_disc (each with the
  // radius the sensor was deployed with).
  common::Rng fail_rng(GetParam() ^ 0xfa11);
  for (std::uint32_t id :
       core::fail_random_fraction(field, 0.35, fail_rng)) {
    const auto& s = field.sensors.sensor(id);
    index.remove_disc(s.pos, s.rs > 0.0 ? s.rs : field.params.rs);
  }
  expect_matches_map(index, field.map, k, "random-failure");

  // Phase 4: a disc-shaped disaster.
  for (std::uint32_t id : core::fail_area(field, {{20, 20}, 10.0})) {
    const auto& s = field.sensors.sensor(id);
    index.remove_disc(s.pos, s.rs > 0.0 ? s.rs : field.params.rs);
  }
  expect_matches_map(index, field.map, k, "area-failure");

  // Phase 5: restore again after the compound damage.
  guard = 0;
  while (const auto best = index.best()) {
    const auto naive = naive_best(field.map, k);
    ASSERT_TRUE(naive.has_value());
    ASSERT_EQ(best->point, naive->point) << "restore step " << guard;
    const Point2 pos = field.map.index().point(best->point);
    field.deploy(pos);
    index.add_disc(pos, field.params.rs);
    ASSERT_LT(++guard, 5000u);
  }
  EXPECT_TRUE(field.map.fully_covered(k));
  expect_matches_map(index, field.map, k, "re-restored");
}

TEST_P(Seeded, CentralizedEnginePlacementsMatchReferenceAcrossCycles) {
  // Engine-level differential: the indexed centralized engine and the
  // O(placements x candidates) reference must emit byte-identical
  // placement sequences through a deploy -> fail -> restore cycle.
  const std::uint32_t k = 1 + static_cast<std::uint32_t>(GetParam() % 3);
  auto make_field = [&] {
    common::Rng rng(GetParam());
    core::Field field(small_params(k), rng);
    field.deploy_random(25, rng);
    return field;
  };
  auto a = make_field();
  auto b = make_field();

  const auto deploy_a = core::centralized_greedy(a);
  const auto deploy_b = core::centralized_greedy_reference(b);
  ASSERT_EQ(deploy_a.placements.size(), deploy_b.placements.size());
  for (std::size_t i = 0; i < deploy_a.placements.size(); ++i) {
    ASSERT_EQ(deploy_a.placements[i], deploy_b.placements[i]) << i;
  }

  common::Rng fail_a(GetParam() ^ 1), fail_b(GetParam() ^ 1);
  core::fail_random_fraction(a, 0.3, fail_a);
  core::fail_random_fraction(b, 0.3, fail_b);
  core::fail_area(a, {{15, 25}, 8.0});
  core::fail_area(b, {{15, 25}, 8.0});

  const auto restore_a = core::centralized_greedy(a);
  const auto restore_b = core::centralized_greedy_reference(b);
  ASSERT_EQ(restore_a.placements.size(), restore_b.placements.size());
  for (std::size_t i = 0; i < restore_a.placements.size(); ++i) {
    ASSERT_EQ(restore_a.placements[i], restore_b.placements[i]) << i;
  }
  EXPECT_TRUE(a.map.fully_covered(k));
  EXPECT_TRUE(b.map.fully_covered(k));
}

TEST_P(Seeded, OwnerRestrictedDeltasMatchNaiveRecompute) {
  // The distributed engines' usage pattern: ownership labels, per-owner
  // count updates and ownership reassignment. After every mutation the
  // maintained benefits must equal a from-scratch owner-restricted sum,
  // and best() a naive rescan: the lazy heap holds only upper bounds, so
  // count-raising updates (add_disc, add_disc_owned) must not grow it.
  common::Rng op_rng(GetParam() ^ 0xbeef);
  const auto field_rect = geom::make_rect(0, 0, 30, 30);
  coverage::CoverageMap map(field_rect, lds::halton_points(field_rect, 300),
                            3.0);
  const std::uint32_t k = 2;
  const std::int64_t kNone = BenefitIndex::kNoOwner;

  std::vector<std::int64_t> owners(map.num_points());
  for (auto& o : owners) {
    o = op_rng.bernoulli(0.15) ? kNone
                               : static_cast<std::int64_t>(op_rng.below(4));
  }
  BenefitIndex index(map.index_ptr(), map.rs(), k, owners);

  auto verify_all = [&](int op) {
    for (std::size_t p = 0; p < map.num_points(); ++p) {
      ASSERT_EQ(index.benefit(p), gathered_benefit(index, p))
          << "op " << op << " point " << p;
    }
    const auto naive = rescan_best(index);
    const auto lazy = index.best();
    ASSERT_EQ(lazy.has_value(), naive.has_value()) << "op " << op;
    if (lazy) {
      ASSERT_EQ(lazy->point, naive->point) << "op " << op;
      ASSERT_EQ(lazy->benefit, naive->benefit) << "op " << op;
    }
  };

  struct Added {
    Point2 pos;
    double radius;
    std::uint32_t mult;
  };
  std::vector<Added> discs;
  for (int op = 0; op < 300; ++op) {
    const auto choice = op_rng.below(4);
    const std::size_t heap_before = index.heap_size();
    if (choice == 0 || discs.empty()) {
      const Added d{lds::random_point(field_rect, op_rng),
                    op_rng.uniform(1.5, 5.0),
                    1 + static_cast<std::uint32_t>(op_rng.below(2))};
      index.add_disc(d.pos, d.radius, d.mult);
      ASSERT_LE(index.heap_size(), heap_before) << "op " << op;
      discs.push_back(d);
    } else if (choice == 1) {
      const auto i = op_rng.below(discs.size());
      index.remove_disc(discs[i].pos, discs[i].radius, discs[i].mult);
      discs.erase(discs.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (choice == 2) {
      index.add_disc_owned(lds::random_point(field_rect, op_rng),
                           op_rng.uniform(1.5, 5.0),
                           static_cast<std::int64_t>(op_rng.below(4)));
      ASSERT_LE(index.heap_size(), heap_before) << "op " << op;
      // Owned count updates are belief-only; they are intentionally not
      // reversible through remove_disc bookkeeping here.
      discs.clear();
    } else {
      const std::size_t p = op_rng.below(map.num_points());
      const std::int64_t o =
          op_rng.bernoulli(0.2)
              ? kNone
              : static_cast<std::int64_t>(op_rng.below(4));
      index.set_owner(p, o);
    }
    verify_all(op);
  }
}

TEST_P(Seeded, ScatterRebuildMatchesPerPointGather) {
  // The cold start scatters each deficit point's deficit onto its
  // same-owner neighbours; it must equal the per-point gather for every
  // point under each labelling the engines use: one shared owner, grid
  // cells, Voronoi regions (nearest sensor within rc) and labels with
  // kNoOwner holes.
  common::Rng rng(GetParam());
  const std::uint32_t k = 3;
  core::Field field(small_params(k), rng);
  field.deploy_random(40, rng);
  const auto& pts = field.map.index();
  const std::int64_t kNone = BenefitIndex::kNoOwner;

  std::vector<std::int64_t> cells(pts.size());
  std::vector<std::int64_t> voronoi(pts.size(), kNone);
  std::vector<std::int64_t> holes(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const Point2 pos = pts.point(p);
    cells[p] = static_cast<std::int64_t>(std::floor(pos.y / 8.0)) * 5 +
               static_cast<std::int64_t>(std::floor(pos.x / 8.0));
    double best_d = field.params.rc * field.params.rc;
    for (const std::uint32_t id : field.sensors.alive_ids()) {
      const double d = geom::distance_sq(pos, field.sensors.position(id));
      if (d <= best_d && (voronoi[p] == kNone || d < best_d)) {
        best_d = d;
        voronoi[p] = id;
      }
    }
    holes[p] = rng.bernoulli(0.3) ? kNone
                                  : static_cast<std::int64_t>(rng.below(4));
  }

  const std::vector<std::pair<const char*, std::vector<std::int64_t>>>
      labellings = {{"shared", {}},
                    {"cells", cells},
                    {"voronoi", voronoi},
                    {"holes", holes}};
  for (const auto& [name, owners] : labellings) {
    const BenefitIndex index(field.map, k, owners);
    for (std::size_t p = 0; p < pts.size(); ++p) {
      ASSERT_EQ(index.benefit(p), gathered_benefit(index, p))
          << name << " point " << p;
    }
    const auto lazy = index.best();
    const auto naive = rescan_best(index);
    ASSERT_EQ(lazy.has_value(), naive.has_value()) << name;
    if (lazy) {
      EXPECT_EQ(lazy->point, naive->point) << name;
      EXPECT_EQ(lazy->benefit, naive->benefit) << name;
    }
  }
}

TEST_P(Seeded, BestBelievedMatchesSequentialScan) {
  // The simulator nodes' one-shot kernel must agree with the sequential
  // first-maximum scan it replaced, including candidate-order ties.
  common::Rng rng(GetParam());
  const auto field_rect = geom::make_rect(0, 0, 25, 25);
  const geom::PointGridIndex points(field_rect,
                                    lds::halton_points(field_rect, 200),
                                    3.0);
  const std::uint32_t k = 2;
  // A random "responsibility" subset with random believed counts.
  std::vector<std::optional<std::uint32_t>> counts(points.size());
  std::vector<std::uint32_t> candidates;
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (rng.bernoulli(0.6)) {
      counts[p] = static_cast<std::uint32_t>(rng.below(4));
      candidates.push_back(static_cast<std::uint32_t>(p));
    }
  }
  rng.shuffle(candidates);  // caller order is authoritative, not id order

  auto count_of = [&](std::size_t pid) { return counts[pid]; };
  const auto got = BenefitIndex::best_believed(points, 3.0, k, candidates,
                                               count_of);

  std::optional<BenefitIndex::Candidate> want;
  for (const std::uint32_t pid : candidates) {
    if (*counts[pid] >= k) continue;
    std::uint64_t b = 0;
    points.for_each_in_disc(points.point(pid), 3.0, [&](std::size_t q) {
      if (counts[q] && *counts[q] < k) b += k - *counts[q];
    });
    if (!want || b > want->benefit) want = {b, pid};
  }
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) {
    EXPECT_EQ(got->point, want->point);
    EXPECT_EQ(got->benefit, want->benefit);
  }
}

TEST_P(Seeded, LazyHeapStaysExactThroughMixedMutations) {
  // Greedy drains (best() + add_disc) interleaved with removals, a
  // removal burst with an add riding along (so some points see deltas of
  // both signs), and ownership changes, under partial ownership with
  // kNoOwner holes. After every operation best() must equal a naive
  // owned-uncovered rescan.
  const std::uint32_t k = 2;
  common::Rng field_rng(GetParam());
  core::Field field(small_params(k), field_rng);
  const coverage::CoverageMap& map = field.map;
  const std::int64_t kNone = BenefitIndex::kNoOwner;

  common::Rng rng(GetParam() * 7 + 1);
  std::vector<std::int64_t> owners(map.num_points());
  for (auto& o : owners) {
    o = rng.bernoulli(0.1) ? kNone : static_cast<std::int64_t>(rng.below(3));
  }
  BenefitIndex index(map, k, owners);

  auto expect_exact = [&](int op) {
    const auto lazy = index.best();
    const auto naive = rescan_best(index);
    ASSERT_EQ(lazy.has_value(), naive.has_value()) << "op " << op;
    if (lazy) {
      ASSERT_EQ(lazy->point, naive->point) << "op " << op;
      ASSERT_EQ(lazy->benefit, naive->benefit) << "op " << op;
    }
  };
  auto remove_one = [&](std::vector<Point2>& placed) {
    const auto i = rng.below(placed.size());
    index.remove_disc(placed[i], map.rs());
    placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(i));
  };

  std::vector<Point2> placed;
  for (int op = 0; op < 150; ++op) {
    const auto choice = rng.below(5);
    if (choice <= 1 || placed.empty()) {
      for (std::size_t n = 1 + rng.below(6); n > 0; --n) {
        const auto best = index.best();
        if (!best) break;
        placed.push_back(map.index().point(best->point));
        index.add_disc(placed.back(), map.rs());
        expect_exact(op);
      }
    } else if (choice == 2) {
      remove_one(placed);
    } else if (choice == 3) {
      for (std::size_t n = 1 + rng.below(3); n > 0 && !placed.empty(); --n) {
        remove_one(placed);
        expect_exact(op);
      }
      placed.push_back(lds::random_point(field.params.field, rng));
      index.add_disc(placed.back(), map.rs());
    } else {
      index.set_owner(rng.below(map.num_points()),
                      rng.bernoulli(0.15)
                          ? kNone
                          : static_cast<std::int64_t>(rng.below(3)));
    }
    expect_exact(op);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(BenefitIndexHeap, SetOwnerQueuesAPointThatHadNoEntry) {
  // Unowned points get no heap entry at rebuild. Claiming one must queue
  // it even though no neighbour's benefit rose: it is then the only
  // candidate, with its own deficit as benefit.
  const auto field_rect = geom::make_rect(0, 0, 30, 30);
  coverage::CoverageMap map(field_rect, lds::halton_points(field_rect, 50),
                            3.0);
  const std::uint32_t k = 2;
  BenefitIndex index(map.index_ptr(), map.rs(), k,
                     std::vector<std::int64_t>(50, BenefitIndex::kNoOwner));
  ASSERT_FALSE(index.best().has_value());
  index.set_owner(7, 0);
  const auto best = index.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->point, 7u);
  EXPECT_EQ(best->benefit, k);
}

}  // namespace
