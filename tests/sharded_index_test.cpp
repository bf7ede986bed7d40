// Differential harness for the sharded BenefitIndex: for any shard
// count the index must be observationally identical to the unsharded
// one — same counts, benefits, arg-max winners and tie-breaks — because
// sharding only changes how the work is laid out, never the Equation-1
// arithmetic. The suites pin that equivalence on randomized fields,
// on points exactly on shard boundaries, on discs straddling four
// shards at a tile corner, and through the batched
// select_batch/apply_discs drain the centralized engine uses.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "coverage/benefit_index.hpp"
#include "coverage/shard.hpp"
#include "decor/centralized.hpp"
#include "decor/decor.hpp"
#include "decor/sim_runner.hpp"
#include "sim/audit_log.hpp"

namespace {

using namespace decor;
using coverage::BenefitIndex;
using coverage::CoverageMap;
using coverage::ShardGrid;
using coverage::ShardSpec;
using geom::make_rect;
using geom::Point2;
using geom::Rect;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 7};

// --- shard geometry ----------------------------------------------------------

TEST(ShardGrid, TilesPartitionTheField) {
  const Rect field = make_rect(0, 0, 50, 30);
  for (const std::size_t n : {1u, 2u, 4u, 6u, 7u, 12u}) {
    const ShardGrid grid(field, n);
    EXPECT_EQ(grid.count(), n);
    double total = 0.0;
    for (std::size_t s = 0; s < grid.count(); ++s) {
      total += grid.tile(s).area();
    }
    EXPECT_NEAR(total, field.area(), 1e-9) << n << " shards";
    // Every point belongs to exactly one shard whose tile contains it.
    common::Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      const Point2 p{rng.uniform(0.0, 50.0), rng.uniform(0.0, 30.0)};
      const std::size_t s = grid.shard_of(p);
      ASSERT_LT(s, grid.count());
      EXPECT_TRUE(grid.tile(s).contains(p));
    }
  }
}

TEST(ShardGrid, FactorizationFollowsTheLongSide) {
  // 6 shards on a wide field: 3 columns x 2 rows; on a tall field the
  // factors swap. Primes degenerate to a strip.
  const ShardGrid wide(make_rect(0, 0, 60, 20), 6);
  EXPECT_EQ(wide.sx(), 3u);
  EXPECT_EQ(wide.sy(), 2u);
  const ShardGrid tall(make_rect(0, 0, 20, 60), 6);
  EXPECT_EQ(tall.sx(), 2u);
  EXPECT_EQ(tall.sy(), 3u);
  const ShardGrid strip(make_rect(0, 0, 40, 40), 7);
  EXPECT_EQ(strip.sx() * strip.sy(), 7u);
}

TEST(ShardGrid, MayReachCoversEveryPointInTheDisc) {
  // may_reach must never exclude the shard of a point actually inside
  // the disc — phase A/B of the batched sweep rely on it as a
  // conservative gate.
  const Rect field = make_rect(0, 0, 45, 35);
  common::Rng rng(7);
  for (const std::size_t n : {2u, 4u, 7u, 9u}) {
    const ShardGrid grid(field, n);
    for (int trial = 0; trial < 300; ++trial) {
      const Point2 c{rng.uniform(-5.0, 50.0), rng.uniform(-5.0, 40.0)};
      const double r = rng.uniform(0.5, 12.0);
      for (int probe = 0; probe < 20; ++probe) {
        const double ang = rng.uniform(0.0, 6.28318);
        const double d = rng.uniform(0.0, r);
        Point2 p{c.x + d * std::cos(ang), c.y + d * std::sin(ang)};
        p = field.clamp(p);
        if (!geom::within(p, c, r)) continue;
        EXPECT_TRUE(grid.may_reach(grid.shard_of(p), c, r));
      }
    }
  }
}

// --- differential: sharded vs unsharded --------------------------------------

core::DecorParams diff_params() {
  core::DecorParams p;
  p.field = make_rect(0, 0, 60, 60);
  p.num_points = 1200;
  p.k = 2;
  p.rs = 4.0;
  return p;
}

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// Full observable state of an index, for exact comparison.
std::string state_digest(const BenefitIndex& index) {
  std::ostringstream out;
  for (std::size_t p = 0; p < index.num_points(); ++p) {
    out << index.count(p) << ':' << index.benefit(p) << ':'
        << index.owner(p) << '\n';
  }
  const auto best = index.best();
  if (best) out << "best " << best->benefit << '@' << best->point;
  return out.str();
}

TEST_P(Seeded, MutationSequenceMatchesUnshardedExactly) {
  // The same random add/remove sequence applied to indices with 1, 2, 4
  // and 7 shards must leave identical counts, benefits and arg-max
  // winners after every event.
  const auto params = diff_params();
  common::Rng field_rng(GetParam());
  core::Field field(params, field_rng);
  const CoverageMap& map = field.map;

  std::vector<std::unique_ptr<BenefitIndex>> indices;
  for (const std::size_t n : kShardCounts) {
    indices.push_back(std::make_unique<BenefitIndex>(
        map, params.k, std::vector<std::int64_t>{}, 0, ShardSpec{n}));
    EXPECT_EQ(indices.back()->num_shards(), n);
  }

  common::Rng rng(GetParam() ^ 0xABCD);
  std::vector<std::pair<Point2, double>> added;
  for (int step = 0; step < 120; ++step) {
    const bool remove = !added.empty() && rng.bernoulli(0.3);
    if (remove) {
      const std::size_t i = rng.below(added.size());
      for (auto& index : indices) {
        index->remove_disc(added[i].first, added[i].second);
      }
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const Point2 pos = lds::random_point(params.field, rng);
      const double radius = rng.uniform(2.0, 6.0);
      for (auto& index : indices) index->add_disc(pos, radius);
      added.push_back({pos, radius});
    }
    const auto expect = indices.front()->best();
    for (std::size_t i = 1; i < indices.size(); ++i) {
      const auto got = indices[i]->best();
      ASSERT_EQ(expect.has_value(), got.has_value()) << "step " << step;
      if (expect) {
        ASSERT_EQ(expect->point, got->point) << "step " << step;
        ASSERT_EQ(expect->benefit, got->benefit) << "step " << step;
      }
    }
    if (step % 20 == 19) {
      const std::string expect_state = state_digest(*indices.front());
      for (std::size_t i = 1; i < indices.size(); ++i) {
        ASSERT_EQ(state_digest(*indices[i]), expect_state)
            << "step " << step << ", shards " << kShardCounts[i];
      }
    }
  }
}

TEST_P(Seeded, BatchedApplyMatchesSequentialEvents) {
  // apply_discs must be observationally identical to replaying the same
  // events one at a time through add_disc / remove_disc.
  const auto params = diff_params();
  common::Rng field_rng(GetParam());
  core::Field field(params, field_rng);
  const CoverageMap& map = field.map;

  common::Rng rng(GetParam() * 31 + 5);
  for (const std::size_t n : kShardCounts) {
    BenefitIndex sharded(map, params.k, {}, 0, ShardSpec{n});
    common::Rng seq(rng.below(1u << 30));
    BenefitIndex ref(map, params.k);
    for (int round = 0; round < 10; ++round) {
      std::vector<BenefitIndex::DiscDelta> batch;
      const std::size_t events = 1 + seq.below(12);
      for (std::size_t e = 0; e < events; ++e) {
        const Point2 pos = lds::random_point(params.field, seq);
        const double radius = seq.uniform(2.0, 6.0);
        batch.push_back({pos, radius, 1});
      }
      sharded.apply_discs(batch);
      for (const auto& d : batch) ref.add_disc(d.pos, d.radius);
      ASSERT_EQ(state_digest(sharded), state_digest(ref))
          << "shards " << n << ", round " << round;
    }
  }
}

TEST_P(Seeded, SelectBatchIsExactGreedyPrefix) {
  // Draining the index through select_batch + apply_discs must yield the
  // exact placement sequence of the sequential best() + add_disc loop,
  // including tie-breaks, for every shard count.
  const auto params = diff_params();
  common::Rng field_rng(GetParam());
  core::Field field(params, field_rng);
  const CoverageMap& map = field.map;

  // Reference: the historical sequential drain.
  std::vector<std::size_t> expect_points;
  std::vector<std::uint64_t> expect_benefits;
  {
    BenefitIndex ref(map, params.k);
    while (expect_points.size() < 400) {
      const auto best = ref.best();
      if (!best) break;
      expect_points.push_back(best->point);
      expect_benefits.push_back(best->benefit);
      ref.add_disc(map.index().point(best->point), map.rs());
    }
  }

  for (const std::size_t n : kShardCounts) {
    BenefitIndex sharded(map, params.k, {}, 0, ShardSpec{n});
    std::vector<std::size_t> got_points;
    std::vector<std::uint64_t> got_benefits;
    while (got_points.size() < 400) {
      const auto batch =
          sharded.select_batch(map.rs(), 400 - got_points.size());
      if (batch.empty()) break;
      std::vector<BenefitIndex::DiscDelta> discs;
      for (const auto& c : batch) {
        got_points.push_back(c.point);
        got_benefits.push_back(c.benefit);
        discs.push_back({map.index().point(c.point), map.rs(), 1});
      }
      sharded.apply_discs(discs);
    }
    ASSERT_EQ(got_points, expect_points) << "shards " << n;
    ASSERT_EQ(got_benefits, expect_benefits) << "shards " << n;
  }
}

TEST_P(Seeded, LazyHeapStaysExactThroughSelectBatchInterleaving) {
  // select_batch consumes its winners' heap entries and the commit's adds
  // queue nothing, so select_batch must re-queue the winners itself.
  // Interleave batched drains with single and batched removals and
  // ownership changes; after every operation best() must equal a naive
  // owned-uncovered rescan.
  const auto params = diff_params();
  common::Rng field_rng(GetParam());
  core::Field field(params, field_rng);
  const CoverageMap& map = field.map;
  const std::int64_t kNone = BenefitIndex::kNoOwner;

  auto rescan = [](const BenefitIndex& index) {
    std::optional<BenefitIndex::Candidate> best;
    for (std::size_t p = 0; p < index.num_points(); ++p) {
      const std::int64_t own = index.owner(p);
      if (own == kNone || !index.uncovered(p)) continue;
      std::uint64_t b = 0;
      index.points().for_each_in_disc(
          index.points().point(p), index.rs(), [&](std::size_t q) {
            if (index.owner(q) == own && index.uncovered(q)) {
              b += index.k() - index.count(q);
            }
          });
      if (!best || b > best->benefit) best = {b, p};
    }
    return best;
  };

  for (const std::size_t n : kShardCounts) {
    common::Rng rng(GetParam() * 7 + n);
    std::vector<std::int64_t> owners(map.num_points());
    for (auto& o : owners) {
      o = rng.bernoulli(0.1) ? kNone
                             : static_cast<std::int64_t>(rng.below(3));
    }
    BenefitIndex index(map, params.k, owners, 0, ShardSpec{n});
    std::vector<Point2> placed;
    for (int op = 0; op < 150; ++op) {
      const auto choice = rng.below(5);
      if (choice <= 1 || placed.empty()) {
        const auto batch = index.select_batch(map.rs(), 1 + rng.below(6));
        std::vector<BenefitIndex::DiscDelta> discs;
        for (const auto& c : batch) {
          discs.push_back({map.index().point(c.point), map.rs(), 1});
          placed.push_back(discs.back().pos);
        }
        index.apply_discs(discs);
      } else if (choice == 2) {
        const auto i = rng.below(placed.size());
        index.remove_disc(placed[i], map.rs());
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (choice == 3) {
        // A batched failure: rising deficits must queue in phase B. One
        // add rides along so some points see deltas of both signs.
        std::vector<BenefitIndex::DiscDelta> discs;
        for (std::size_t n_rm = 1 + rng.below(3); n_rm > 0 && !placed.empty();
             --n_rm) {
          const auto i = rng.below(placed.size());
          discs.push_back({placed[i], map.rs(), -1});
          placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(i));
        }
        discs.push_back({lds::random_point(params.field, rng), map.rs(), 1});
        placed.push_back(discs.back().pos);
        index.apply_discs(discs);
      } else {
        index.set_owner(rng.below(map.num_points()),
                        rng.bernoulli(0.15)
                            ? kNone
                            : static_cast<std::int64_t>(rng.below(3)));
      }
      const auto lazy = index.best();
      const auto naive = rescan(index);
      ASSERT_EQ(lazy.has_value(), naive.has_value())
          << "shards " << n << ", op " << op;
      if (lazy) {
        ASSERT_EQ(lazy->point, naive->point)
            << "shards " << n << ", op " << op;
        ASSERT_EQ(lazy->benefit, naive->benefit)
            << "shards " << n << ", op " << op;
      }
    }
  }
}

TEST_P(Seeded, CentralizedEngineSequenceInvariantAcrossShards) {
  // End to end: the centralized engine's placements (positions, order
  // and count) must be identical for shards in {1, 2, 4, 7}.
  auto params = diff_params();
  std::optional<core::DeploymentResult> expect;
  for (const std::size_t n : kShardCounts) {
    params.shards = n;
    common::Rng rng(GetParam());
    core::Field field(params, rng);
    field.deploy_random(25, rng);
    auto result = core::centralized_greedy(field, {});
    if (!expect) {
      expect = std::move(result);
      continue;
    }
    ASSERT_EQ(result.placed_nodes, expect->placed_nodes) << "shards " << n;
    ASSERT_EQ(result.reached_full_coverage, expect->reached_full_coverage);
    ASSERT_EQ(result.placements.size(), expect->placements.size());
    for (std::size_t i = 0; i < result.placements.size(); ++i) {
      ASSERT_EQ(result.placements[i].x, expect->placements[i].x)
          << "shards " << n << ", placement " << i;
      ASSERT_EQ(result.placements[i].y, expect->placements[i].y)
          << "shards " << n << ", placement " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- boundary geometry -------------------------------------------------------

TEST(ShardedIndex, PointsExactlyOnShardBoundaries) {
  // A 2x2 sharding of a 40x40 field puts the interior boundaries at
  // x=20 and y=20. Points exactly on those lines must belong to exactly
  // one shard and behave identically to the unsharded index under discs
  // crossing the boundary.
  const Rect bounds = make_rect(0, 0, 40, 40);
  std::vector<Point2> pts;
  for (double t = 1.0; t < 40.0; t += 1.0) {
    pts.push_back({20.0, t});  // vertical boundary
    pts.push_back({t, 20.0});  // horizontal boundary
  }
  common::Rng rng(3);
  for (int i = 0; i < 300; ++i) pts.push_back(lds::random_point(bounds, rng));

  const CoverageMap map(bounds, pts, 4.0);
  BenefitIndex flat(map, 2);
  BenefitIndex sharded(map, 2, {}, 0, ShardSpec{4});
  ASSERT_EQ(sharded.num_shards(), 4u);

  // Each boundary point has exactly one owning shard.
  const ShardGrid& grid = sharded.shard_grid();
  for (std::size_t p = 0; p < pts.size(); ++p) {
    EXPECT_EQ(sharded.shard(p), grid.shard_of(map.index().point(p)));
  }

  for (int step = 0; step < 60; ++step) {
    // Discs biased to the boundary cross so they keep straddling tiles.
    const Point2 pos{rng.uniform(14.0, 26.0), rng.uniform(14.0, 26.0)};
    const double radius = rng.uniform(2.0, 8.0);
    flat.add_disc(pos, radius);
    sharded.add_disc(pos, radius);
    ASSERT_EQ(state_digest(sharded), state_digest(flat)) << "step " << step;
  }
}

TEST(ShardedIndex, DiscStraddlingFourShardsAppliesOnce) {
  // A disc centred exactly on the corner where four tiles meet reaches
  // all four shards; every point in it must still be counted exactly
  // once, sequentially and batched.
  const Rect bounds = make_rect(0, 0, 40, 40);
  common::Rng rng(17);
  std::vector<Point2> pts;
  pts.push_back({20.0, 20.0});  // the corner itself
  for (int i = 0; i < 400; ++i) pts.push_back(lds::random_point(bounds, rng));
  const CoverageMap map(bounds, pts, 4.0);

  BenefitIndex flat(map, 3);
  BenefitIndex sharded(map, 3, {}, 0, ShardSpec{4});
  BenefitIndex batched(map, 3, {}, 0, ShardSpec{4});

  const Point2 corner{20.0, 20.0};
  const std::vector<double> radii{3.0, 6.0, 9.0};
  std::vector<BenefitIndex::DiscDelta> batch;
  for (const double r : radii) {
    flat.add_disc(corner, r);
    sharded.add_disc(corner, r);
    batch.push_back({corner, r, 1});
  }
  batched.apply_discs(batch);
  EXPECT_EQ(state_digest(sharded), state_digest(flat));
  EXPECT_EQ(state_digest(batched), state_digest(flat));
  // The corner point sits in all three discs: counted exactly thrice.
  EXPECT_EQ(flat.count(0), 3u);
  EXPECT_EQ(sharded.count(0), 3u);
  EXPECT_EQ(batched.count(0), 3u);
}

// --- audit log byte-identity -------------------------------------------------

TEST(ShardedIndex, SimAuditLogByteIdenticalAcrossShardCounts) {
  // The DECOR sim harness records every placement decision as a
  // decor.audit.v1 record; at a fixed seed the serialized log must be
  // byte-identical for any shard count.
  auto run_audit = [](std::size_t shards) {
    core::SimRunConfig cfg;
    cfg.params.field = make_rect(0, 0, 20, 20);
    cfg.params.num_points = 200;
    cfg.params.k = 1;
    cfg.params.cell_side = 5.0;
    cfg.params.shards = shards;
    cfg.seed = 42;
    cfg.run_time = 80.0;
    cfg.audit = true;
    common::Rng rng(42);
    for (int i = 0; i < 8; ++i) {
      cfg.initial_positions.push_back(
          lds::random_point(cfg.params.field, rng));
    }
    core::GridSimHarness harness(std::move(cfg));
    harness.run();
    std::ostringstream lines;
    for (const auto& r : harness.audit().records()) {
      lines << sim::AuditLog::record_json(r) << '\n';
    }
    return lines.str();
  };
  const std::string flat = run_audit(1);
  EXPECT_FALSE(flat.empty());
  EXPECT_EQ(run_audit(2), flat);
  EXPECT_EQ(run_audit(4), flat);
  EXPECT_EQ(run_audit(7), flat);
}

}  // namespace
