#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "coverage/benefit_index.hpp"
#include "coverage/coverage_map.hpp"
#include "decor/point_field.hpp"
#include "net/neighbor_table.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace core = decor::core;
namespace geom = decor::geom;
namespace sim = decor::sim;

// Operations per probe: enough for a steady per-op figure, small enough
// that the probes stay well under a second each.
constexpr std::uint64_t kProbeEvents = 400000;
constexpr std::uint64_t kProbeReceptions = 400000;
constexpr std::uint64_t kProbeObserves = 1000000;
constexpr int kMaxRounds = 1000;

double ns_per_op(Clock::time_point t0, std::uint64_t ops) {
  if (ops == 0) return 0.0;
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s * 1e9 / static_cast<double>(ops);
}

/// One heartbeat-like timer per node, each re-arming itself with a
/// jittered one-second period until the event budget is spent.
double probe_simulator(std::size_t timers, std::uint64_t seed) {
  sim::Simulator s(seed);
  std::uint64_t left = kProbeEvents;
  struct Tick {
    sim::Simulator* s;
    std::uint64_t* left;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      s->schedule(1.0 + 0.01 * s->rng().uniform(0.0, 1.0), *this);
    }
  };
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < timers; ++i) {
    s.schedule(s.rng().uniform(0.0, 1.0), Tick{&s, &left});
  }
  s.run();
  return ns_per_op(t0, s.events_executed());
}

class ProbeNode : public sim::NodeProcess {
 public:
  void send(double range) {
    sim::Message m;
    m.src = id();
    m.kind = 1;
    broadcast(m, range);
  }
};

/// Rounds of one broadcast per node at the workload's range over a world
/// holding the run's final node positions, each node at a random offset
/// within the round like a heartbeat. Returns ns per reception; every
/// reception is one delivery event, so this includes its queue cost.
double probe_radio(sim::World& world, double range) {
  const std::uint32_t n = static_cast<std::uint32_t>(world.num_nodes());
  sim::Simulator& s = world.sim();
  const std::uint64_t rx0 = world.radio().total_rx();
  const auto t0 = Clock::now();
  for (int round = 0; round < kMaxRounds; ++round) {
    for (std::uint32_t id = 0; id < n; ++id) {
      auto* node = &world.node_as<ProbeNode>(id);
      s.schedule(s.rng().uniform(0.0, 1.0),
                 [node, range] { node->send(range); });
    }
    s.run();
    if (world.radio().total_rx() - rx0 >= kProbeReceptions) break;
  }
  return ns_per_op(t0, world.radio().total_rx() - rx0);
}

/// Every node refreshes each radio neighbor once per simulated second,
/// the HELLO/heartbeat pattern of the protocol nodes.
double probe_neighbor_table(const sim::World& world, double range) {
  const std::size_t n = world.num_nodes();
  std::vector<std::vector<std::uint32_t>> nbrs(n);
  std::uint64_t per_round = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    nbrs[id] = world.neighbors(id, range);
    per_round += nbrs[id].size();
  }
  if (per_round == 0) return 0.0;
  std::vector<decor::net::NeighborTable> tables(n);
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  for (int round = 0; round < kMaxRounds && done < kProbeObserves; ++round) {
    const double t = static_cast<double>(round);
    for (std::uint32_t id = 0; id < n; ++id) {
      for (const std::uint32_t j : nbrs[id]) {
        tables[id].observe(j, world.position(j), t);
      }
    }
    done += per_round;
  }
  return ns_per_op(t0, done);
}

/// Replays the run's placements through a BenefitIndex over the field's
/// points: one arg-max query and one disc insertion per placement.
double probe_benefit_index(const ProbeInputs& in) {
  if (in.placements.empty()) return 0.0;
  decor::common::Rng rng(in.seed);
  decor::coverage::CoverageMap map(in.params.field,
                                   core::make_points(in.params, rng),
                                   in.params.rs);
  for (const auto& p : in.initial) map.add_disc(p);
  decor::coverage::BenefitIndex index(map, in.params.k);
  std::uint64_t checksum = 0;
  const auto t0 = Clock::now();
  for (const auto& p : in.placements) {
    if (const auto best = index.best()) checksum += best->benefit;
    index.add_disc(p, in.params.rs);
  }
  const double ns = ns_per_op(t0, in.placements.size());
  // Keeps the queries observable so they cannot be optimised away.
  if (checksum == ~std::uint64_t{0}) return -ns;
  return ns;
}

}  // namespace

ProbeResults run_probes(const ProbeInputs& in) {
  ProbeResults r;
  r.ns_per_event =
      probe_simulator(std::max<std::size_t>(in.positions.size(), 1), in.seed);
  sim::World world(in.params.field, sim::RadioParams{}, in.seed, in.range);
  for (const auto& p : in.positions) {
    world.spawn(p, std::make_unique<ProbeNode>());
  }
  world.sim().run();
  if (!in.positions.empty()) {
    r.ns_per_rx = probe_radio(world, in.range);
    r.ns_per_observe = probe_neighbor_table(world, in.range);
  }
  r.ns_per_placement = probe_benefit_index(in);
  return r;
}

}  // namespace perfbench
