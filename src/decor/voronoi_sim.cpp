#include "decor/voronoi_sim.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/metrics.hpp"
#include "common/otlp.hpp"
#include "common/require.hpp"
#include "coverage/benefit_index.hpp"
#include "decor/point_field.hpp"
#include "decor/sim_runner.hpp"
#include "net/messages.hpp"
#include "sim/flight_recorder.hpp"

namespace decor::core {

namespace {
struct PosKey {
  double x, y;
  bool operator==(const PosKey&) const = default;
};
struct PosKeyHash {
  std::size_t operator()(const PosKey& k) const noexcept {
    std::hash<double> h;
    return h(k.x) * 1000003u ^ h(k.y);
  }
};
}  // namespace

struct VoronoiSimHarness::Shared {
  DecorParams params;
  double check_interval = 0.5;
  VoronoiSimHarness* harness = nullptr;
  const geom::PointGridIndex* points = nullptr;
  net::HeartbeatParams heartbeat;
  bool enable_arq = true;
  net::ReliableLinkParams arq;
  net::DataPlaneParams data_plane;
  /// Per-world ARQ accounting (single-threaded simulation).
  net::ArqStats arq_stats;
  /// Per-world data-plane accounting (zeros unless the data plane runs).
  net::DataPlaneStats data_stats;
  /// Placement audit sink, or nullptr when auditing is off. Nodes only
  /// pre-mint kPlacement trace ids when auditing, so non-audited runs
  /// keep their exact pre-audit trace-id sequences.
  sim::AuditLog* audit = nullptr;
};

namespace {

class DecorVoronoiSimNode final : public net::SensorNode {
 public:
  using Shared = VoronoiSimHarness::Shared;

  explicit DecorVoronoiSimNode(std::shared_ptr<Shared> shared)
      : net::SensorNode(make_node_params(*shared)),
        shared_(std::move(shared)) {
    set_arq_stats(&shared_->arq_stats);
    set_data_stats(&shared_->data_stats);
  }

  void on_start() override {
    net::SensorNode::on_start();
    // Phase jitter de-synchronizes the per-node check loops.
    const double phase =
        world().rng().uniform(0.0, shared_->check_interval);
    set_timer(shared_->check_interval + phase, [this] { tick(); });
  }

 protected:
  void handle_message(const sim::Message& msg) override {
    if (msg.kind == net::kPlacement) {
      const auto& p = msg.as<net::PlacementPayload>();
      // The announcement that deployed *this very node* is not an extra
      // device — we already count ourselves, and crediting it deadlocks
      // a k>1 point with a permanent phantom. A later co-located sibling
      // is heard through its own HELLO/heartbeats instead.
      if (p.pos == pos()) return;
      // Remember out-of-range-for-HELLO deployments whose discs can
      // still cover our points; in-range nodes arrive via HELLO.
      if (geom::distance(p.pos, pos()) <= params_.rc + shared_->params.rs) {
        ++notices_[PosKey{p.pos.x, p.pos.y}];
      }
    }
  }

  void on_neighbor_failed(std::uint32_t, geom::Point2 last_pos) override {
    // The device at last_pos is gone: retire one per-device claim there
    // (a deployment of ours, else a placement notice). Claims outlive
    // the neighbor table, so without this the dead node's coverage
    // lives on as a phantom and the hole never heals.
    const PosKey key{last_pos.x, last_pos.y};
    if (auto it = my_placements_.find(key); it != my_placements_.end()) {
      if (--it->second == 0) my_placements_.erase(it);
    } else if (auto it2 = notices_.find(key); it2 != notices_.end()) {
      if (--it2->second == 0) notices_.erase(it2);
    }
    // Ownership and coverage both changed; the next tick recomputes.
    idle_streak_ = 0;
  }

 private:
  static net::SensorNodeParams make_node_params(const Shared& shared) {
    net::SensorNodeParams p;
    p.rc = shared.params.rc;
    p.heartbeat = shared.heartbeat;
    p.enable_arq = shared.enable_arq;
    p.arq = shared.arq;
    p.data_plane = shared.data_plane;
    return p;
  }

  /// Points of my local Voronoi cell: within rc, closer to me than to
  /// any neighbor I can hear (ties break to the lower node id).
  std::vector<std::uint32_t> owned_points() const {
    std::vector<std::uint32_t> out;
    const auto& neighbors = table_.snapshot();
    shared_->points->for_each_in_disc(
        pos(), params_.rc, [&](std::size_t pid) {
          const geom::Point2 p = shared_->points->point(pid);
          const double d_self = geom::distance_sq(p, pos());
          for (const auto& [nid, entry] : neighbors) {
            const double d_nb = geom::distance_sq(p, entry.pos);
            if (d_nb < d_self || (d_nb == d_self && nid < id())) return;
          }
          out.push_back(static_cast<std::uint32_t>(pid));
        });
    return out;
  }

  /// Believed coverage of the given points from everything this node can
  /// hear (multiplicity preserved; see sim_runner.cpp for why).
  std::unordered_map<std::size_t, std::uint32_t> believed_coverage(
      const std::vector<std::uint32_t>& pids) const {
    std::unordered_map<std::size_t, std::uint32_t> counts;
    counts.reserve(pids.size());
    for (auto pid : pids) counts.emplace(pid, 0);

    std::vector<std::pair<geom::Point2, std::uint32_t>> contributors;
    contributors.emplace_back(pos(), 1);
    std::unordered_map<PosKey, std::uint32_t, PosKeyHash> heard_at;
    for (const auto& [nid, entry] : table_.snapshot()) {
      (void)nid;
      contributors.emplace_back(entry.pos, 1);
      ++heard_at[PosKey{entry.pos.x, entry.pos.y}];
    }
    for (const auto& [key, placed] : my_placements_) {
      const auto it = heard_at.find(key);
      const std::uint32_t heard = it == heard_at.end() ? 0 : it->second;
      if (placed > heard) {
        contributors.emplace_back(geom::Point2{key.x, key.y},
                                  placed - heard);
      }
    }
    for (const auto& [key, n] : notices_) {
      // Skip notices already represented by a heard neighbor there.
      const auto it = heard_at.find(key);
      const std::uint32_t heard = it == heard_at.end() ? 0 : it->second;
      if (n > heard) {
        contributors.emplace_back(geom::Point2{key.x, key.y}, n - heard);
      }
    }

    for (const auto& [c, mult] : contributors) {
      shared_->points->for_each_in_disc(
          c, shared_->params.rs, [&](std::size_t pid) {
            auto it = counts.find(pid);
            if (it != counts.end()) it->second += mult;
          });
    }
    return counts;
  }

  void tick() {
    const auto mine = owned_points();
    const auto counts = believed_coverage(mine);

    // Max-benefit uncovered owned point (Equation 1 over my cell; points
    // outside the cell neither contribute nor qualify).
    const auto choice = coverage::BenefitIndex::choose_believed(
        *shared_->points, shared_->params.rs, shared_->params.k, mine,
        [&](std::size_t pid) -> std::optional<std::uint32_t> {
          const auto it = counts.find(pid);
          if (it == counts.end()) return std::nullopt;
          return it->second;
        });

    if (choice) {
      const auto& best = choice->best;
      const geom::Point2 best_pos = shared_->points->point(best.point);
      idle_streak_ = 0;
      ++my_placements_[PosKey{best_pos.x, best_pos.y}];
      shared_->harness->spawn_node(best_pos);
      // A neighbor that misses this places on top of the new node, so
      // the announcement is ARQed; dedup keeps retransmissions from
      // inflating notice multiplicity.
      auto msg = sim::Message::make(id(), net::kPlacement,
                                    net::PlacementPayload{best_pos, 0},
                                    net::wire_size(net::kPlacement));
      if (shared_->audit != nullptr) {
        // Pre-mint the exchange's trace id so the audit row joins onto
        // the causal trace of its own announcement.
        msg.trace_id = world().mint_trace_id();
        std::uint64_t newly = 0;
        for (const auto& [pid, c] : counts) {
          if (c + 1 != shared_->params.k) continue;
          if (geom::distance_sq(shared_->points->point(pid), best_pos) <=
              shared_->params.rs * shared_->params.rs) {
            ++newly;
          }
        }
        shared_->audit->record({world().sim().now(), id(), -1, "benefit",
                                best.point, best_pos, best.benefit,
                                choice->runner_up, choice->scanned, newly,
                                msg.trace_id});
      }
      broadcast_reliable(msg);
    } else {
      ++idle_streak_;
    }
    // Idle nodes back off exponentially (up to 8x) so a converged
    // network costs little; failures reset the streak.
    const double backoff =
        static_cast<double>(1u << std::min(idle_streak_, 3u));
    set_timer(shared_->check_interval * backoff, [this] { tick(); });
  }

  std::shared_ptr<Shared> shared_;
  std::unordered_map<PosKey, std::uint32_t, PosKeyHash> notices_;
  std::unordered_map<PosKey, std::uint32_t, PosKeyHash> my_placements_;
  std::uint32_t idle_streak_ = 0;
};

}  // namespace

VoronoiSimHarness::VoronoiSimHarness(VoronoiSimConfig cfg)
    : cfg_(std::move(cfg)) {
  // Reboot-capable campaigns need the ARQ dedup purge; applied before
  // Shared copies the params (see GridSimHarness for the rationale).
  if (!cfg_.fault_plan.empty()) cfg_.arq.purge_on_give_up = true;
  const auto& p = cfg_.params;
  world_ = std::make_unique<sim::World>(p.field, cfg_.radio, cfg_.seed,
                                        p.rc);
  // Shared-bus wiring mirrors GridSimHarness: attach every producer
  // before any sink opens, then add the optional extra sinks.
  world_->trace().attach_bus(&bus_);
  timeline_.attach_bus(&bus_);
  audit_.attach_bus(&bus_);
  metrics_snap_.attach_bus(&bus_);
  if (!cfg_.telemetry_stream.empty()) {
    auto stream = std::make_unique<common::FrameStreamSink>(
        cfg_.telemetry_stream);
    DECOR_REQUIRE_MSG(stream->ok(), "cannot open telemetry stream: " +
                                        cfg_.telemetry_stream);
    telemetry_sink_ = stream.get();
    bus_.add_sink(std::move(stream));
  }
  if (!cfg_.otlp.empty()) {
    auto otlp = std::make_unique<common::OtlpSink>(cfg_.otlp);
    otlp->set_span_namer([](std::string_view kind, std::string_view detail) {
      return otlp_span_name(kind, detail);
    });
    bus_.add_sink(std::move(otlp));
    world_->trace().enable(true);
  }
  if (cfg_.trace_capacity > 0) {
    world_->trace().set_capacity(cfg_.trace_capacity);
  }
  if (!cfg_.trace_jsonl.empty()) {
    // An unopenable sink is a fatal misconfiguration: silently running
    // without the dump the caller asked for wastes the whole run.
    DECOR_REQUIRE_MSG(world_->trace().open_jsonl(cfg_.trace_jsonl),
                      "cannot open trace JSONL sink: " + cfg_.trace_jsonl);
  }
  if (cfg_.trace || !cfg_.trace_jsonl.empty()) world_->trace().enable(true);
  if (!cfg_.timeline_jsonl.empty()) {
    DECOR_REQUIRE_MSG(timeline_.open_jsonl(cfg_.timeline_jsonl),
                      "cannot open timeline JSONL sink: " + cfg_.timeline_jsonl);
  }
  if (!cfg_.flight_dir.empty()) {
    // Same fail-fast contract as the JSONL sinks: discovering at dump
    // time that the post-mortem directory is unwritable loses the
    // evidence the caller asked to keep.
    DECOR_REQUIRE_MSG(sim::prepare_flight_dir(cfg_.flight_dir),
                      "cannot write flight dir: " + cfg_.flight_dir);
  }
  common::Rng point_rng(cfg_.seed ^ 0x5eedbeefULL);
  map_ = std::make_unique<coverage::CoverageMap>(
      p.field, make_points(p, point_rng), p.rs);
  if (cfg_.field_interval > 0.0 || !cfg_.field_jsonl.empty()) {
    const std::size_t side =
        cfg_.field_raster > 0
            ? cfg_.field_raster
            : coverage::FieldRecorder::default_raster(p.field, p.rs);
    field_ = std::make_unique<coverage::FieldRecorder>(p.field, p.k, side,
                                                       side);
    field_->attach_bus(&bus_);
    if (!cfg_.field_jsonl.empty()) {
      DECOR_REQUIRE_MSG(field_->open_jsonl(cfg_.field_jsonl),
                        "cannot open field JSONL sink: " + cfg_.field_jsonl);
    }
  }
  if (!cfg_.audit_jsonl.empty()) {
    DECOR_REQUIRE_MSG(audit_.open_jsonl(cfg_.audit_jsonl),
                      "cannot open audit JSONL sink: " + cfg_.audit_jsonl);
  }
  if (!cfg_.metrics_jsonl.empty()) {
    DECOR_REQUIRE_MSG(metrics_snap_.open_jsonl(cfg_.metrics_jsonl),
                      "cannot open metrics JSONL sink: " + cfg_.metrics_jsonl);
  }
  shared_ = std::make_shared<Shared>();
  shared_->params = p;
  shared_->check_interval = cfg_.check_interval;
  shared_->harness = this;
  shared_->points = &map_->index();
  shared_->heartbeat = cfg_.heartbeat;
  shared_->enable_arq = cfg_.enable_arq;
  shared_->arq = cfg_.arq;
  shared_->data_plane = cfg_.data_plane;
  if (cfg_.audit || !cfg_.audit_jsonl.empty()) shared_->audit = &audit_;
  if (!cfg_.fault_plan.empty()) {
    sim::FaultInjector::Hooks hooks;
    hooks.kill = [this](std::uint32_t id) { kill_node(id); };
    hooks.reboot = [this](std::uint32_t id) { reboot_node(id); };
    const bool has_sink = cfg_.data_plane.enabled;
    const std::uint32_t sink = cfg_.data_plane.sink;
    hooks.is_protected = [has_sink, sink](std::uint32_t id) {
      return has_sink && id == sink;
    };
    hooks.sink = sink;
    hooks.has_sink = has_sink;
    injector_ = std::make_unique<sim::FaultInjector>(*world_, cfg_.fault_plan,
                                                     std::move(hooks));
    injector_->arm();
  }
  if (cfg_.invariant_interval > 0.0) register_invariants();
}

void VoronoiSimHarness::register_invariants() {
  // Leaderless scheme: same invariant catalog as the grid harness minus
  // leader uniqueness (see GridSimHarness::register_invariants for the
  // per-check rationale).
  monitor_.add_check("coverage-alive", [this]() -> std::optional<std::string> {
    const auto& idx = map_->index();
    std::vector<std::uint32_t> counts(idx.size(), 0);
    for (std::uint32_t id : world_->alive_ids()) {
      idx.for_each_in_disc(world_->position(id), cfg_.params.rs,
                           [&](std::size_t pid) { ++counts[pid]; });
    }
    std::size_t covered = 0;
    for (auto c : counts) {
      if (c >= cfg_.params.k) ++covered;
    }
    const std::size_t believed = map_->num_covered(cfg_.params.k);
    if (covered != believed) {
      return "alive nodes cover " + std::to_string(covered) +
             " points but the map credits " + std::to_string(believed);
    }
    return std::nullopt;
  });
  monitor_.add_check("arq-conservation",
                     [this]() -> std::optional<std::string> {
    const auto& a = shared_->arq_stats;
    std::uint64_t in_flight = 0;
    for (std::uint32_t id : world_->alive_ids()) {
      if (auto* sn = dynamic_cast<net::SensorNode*>(&world_->node(id))) {
        if (auto* l = sn->link()) in_flight += l->in_flight();
      }
    }
    const std::uint64_t accounted =
        a.completed + a.failed + a.abandoned + in_flight;
    if (a.sent != accounted) {
      return "sent=" + std::to_string(a.sent) + " but completed+failed+" +
             "abandoned+in_flight=" + std::to_string(accounted);
    }
    return std::nullopt;
  });
  monitor_.add_check("goodput-bound", [this]() -> std::optional<std::string> {
    const auto& d = shared_->data_stats;
    if (d.readings_delivered > d.readings_originated) {
      return "delivered " + std::to_string(d.readings_delivered) +
             " unique readings but only " +
             std::to_string(d.readings_originated) + " were originated";
    }
    return std::nullopt;
  });
  monitor_.set_on_first_violation(
      [this](const std::string& name, const std::string& detail) {
        if (!cfg_.flight_dir.empty()) {
          dump_flight_bundle("invariant", name + ": " + detail);
        }
      });
}

VoronoiSimHarness::~VoronoiSimHarness() = default;

std::uint32_t VoronoiSimHarness::spawn_node(geom::Point2 pos) {
  const auto id =
      world_->spawn(pos, std::make_unique<DecorVoronoiSimNode>(shared_));
  map_->add_disc(pos);
  if (initial_deployed_) placements_.push_back(pos);
  return id;
}

void VoronoiSimHarness::kill_node(std::uint32_t id) {
  if (!world_->alive(id)) return;
  const auto pos = world_->position(id);
  world_->kill(id);
  map_->remove_disc(pos);
}

void VoronoiSimHarness::reboot_node(std::uint32_t id) {
  if (world_->alive(id)) return;
  world_->reboot(id, std::make_unique<DecorVoronoiSimNode>(shared_));
  map_->add_disc(world_->position(id));
}

void VoronoiSimHarness::schedule_random_kills(double at, std::size_t count) {
  world_->sim().schedule_at(at, [this, count] {
    auto alive = world_->alive_ids();
    // Mirror of the grid harness: random chaos never kills the
    // data-plane sink; only an explicit sink_outage fault event may.
    if (cfg_.data_plane.enabled) std::erase(alive, cfg_.data_plane.sink);
    const auto picks =
        world_->rng().sample_indices(alive.size(),
                                     std::min(count, alive.size()));
    for (std::size_t idx : picks) kill_node(alive[idx]);
  });
}

sim::TimelineSample VoronoiSimHarness::sample_timeline() {
  sim::TimelineSample s;
  s.t = world_->sim().now();
  s.covered_fraction = map_->fraction_covered(cfg_.params.k);
  s.uncovered_points = static_cast<std::uint64_t>(
      map_->num_points() - map_->num_covered(cfg_.params.k));
  s.alive_nodes = world_->alive_count();
  std::uint64_t in_flight = 0;
  for (std::uint32_t id : world_->alive_ids()) {
    if (auto* sn = dynamic_cast<net::SensorNode*>(&world_->node(id))) {
      if (auto* l = sn->link()) in_flight += l->in_flight();
    }
  }
  s.arq_in_flight = in_flight;
  // Leaderless scheme: the leaders field stays empty.
  if (cfg_.data_plane.enabled) {
    s.has_readings = true;
    s.readings_delivered = shared_->data_stats.readings_delivered;
    s.reading_bytes = shared_->data_stats.bytes_delivered;
  }
  if (monitor_.active()) {
    s.has_invariants = true;
    s.invariant_violations = monitor_.violations();
  }
  if (cfg_.timeline_arq) {
    s.has_arq_detail = true;
    s.arq_sent = shared_->arq_stats.sent;
    s.arq_retx = shared_->arq_stats.retx;
  }
  return s;
}

void VoronoiSimHarness::dump_flight_bundle(const std::string& reason,
                                           const std::string& detail) {
  sim::FlightBundleInfo info;
  info.reason = reason;
  info.sim_time = world_->sim().now();
  info.scheme = "voronoi";
  info.detail = detail;
  if (injector_) info.faults_json = injector_->manifest_json();
  if (field_ != nullptr) {
    info.field_jsonl = field_->header_json() + "\n";
    if (const auto* s = field_->latest()) {
      info.field_jsonl += coverage::FieldRecorder::snapshot_json(*s) + "\n";
    }
  }
  if (metrics_snap_.snapshots_taken() > 0) {
    info.metrics_jsonl = "{\"schema\":\"decor.metrics.v1\"}\n";
    for (const auto& line : metrics_snap_.tail()) {
      info.metrics_jsonl += line + "\n";
    }
  }
  sim::write_flight_bundle(cfg_.flight_dir, info, world_->trace(),
                           &timeline_);
}

void VoronoiSimHarness::watchdog_seed() {
  // Only unowned uncovered points stall the protocol; drop a starter at
  // the uncovered point nearest to the deployed network (or the first
  // uncovered point when the field is empty).
  const auto& index = map_->index();
  geom::Point2 best_pos{};
  std::uint64_t best_pid = 0;
  double best_d = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t pid = 0; pid < index.size(); ++pid) {
    if (map_->kp(pid) >= cfg_.params.k) continue;
    const geom::Point2 p = index.point(pid);
    double d = 0.0;
    if (world_->alive_count() > 0) {
      d = std::numeric_limits<double>::infinity();
      for (double r = cfg_.params.rc;; r *= 2.0) {
        world_->index().for_each_in_disc(
            p, r, [&](std::uint32_t, geom::Point2 spos) {
              d = std::min(d, geom::distance_sq(p, spos));
            });
        if (d < std::numeric_limits<double>::infinity()) break;
        if (r > 4.0 * (cfg_.params.field.width() +
                       cfg_.params.field.height())) {
          break;
        }
      }
    }
    if (!found || d < best_d) {
      best_d = d;
      best_pos = p;
      best_pid = pid;
      found = true;
    }
  }
  if (found) {
    world_->trace().record(world_->sim().now(), sim::TraceKind::kProtocol, 0,
                           "watchdog_seed");
    // The stall itself is evidence worth keeping: the bundle captures the
    // state that forced manual (robot) intervention.
    if (!cfg_.flight_dir.empty()) {
      dump_flight_bundle("watchdog", "stalled; seeding frontier");
    }
    if (shared_->audit != nullptr) {
      // The watchdog is the harness (the paper's robot), not a node: no
      // actor id, no benefit scan, no announcement to trace.
      shared_->audit->record({world_->sim().now(), 0, -1, "watchdog",
                              best_pid, best_pos, 0, 0, 0, 0, 0});
    }
    spawn_node(best_pos);
    ++seeded_;
  }
}

VoronoiSimResult VoronoiSimHarness::run() {
  if (!initial_deployed_) {
    for (const auto& pos : cfg_.initial_positions) spawn_node(pos);
    initial_nodes_ = cfg_.initial_positions.size();
    initial_deployed_ = true;
  }

  if (cfg_.timeline_interval > 0.0 && !timeline_.active()) {
    timeline_.start(world_->sim(), cfg_.timeline_interval,
                    [this] { return sample_timeline(); });
  }
  if (cfg_.invariant_interval > 0.0 && !monitor_.active()) {
    monitor_.start(world_->sim(), cfg_.invariant_interval);
  }
  if ((cfg_.metrics_interval > 0.0 || !cfg_.metrics_jsonl.empty()) &&
      !metrics_snap_.active()) {
    const double every =
        cfg_.metrics_interval > 0.0
            ? cfg_.metrics_interval
            : (cfg_.timeline_interval > 0.0 ? cfg_.timeline_interval : 1.0);
    metrics_snap_.start(world_->sim(), every);
  }

  VoronoiSimResult result;
  result.initial_nodes = initial_nodes_;
  const std::size_t placements_before = placements_.size();
  const std::size_t seeded_before = seeded_;

  struct PollState {
    double finish_time;
    bool covered = false;
    std::size_t last_covered = 0;
    double last_progress = 0.0;
  };
  auto state = std::make_shared<PollState>(
      PollState{cfg_.run_time, false, 0, world_->sim().now()});
  auto poll = std::make_shared<std::function<void()>>();
  // Weak self-capture: no ownership cycle (see sim_runner.cpp).
  std::weak_ptr<std::function<void()>> weak_poll = poll;
  *poll = [this, state, weak_poll] {
    if (map_->fully_covered(cfg_.params.k)) {
      state->covered = true;
      state->finish_time = world_->sim().now();
      // The milestone lands in the trace so a dump alone (without the
      // harness result) still yields the convergence time, and on the
      // timeline so its convergence query sees a zero-uncovered sample.
      world_->trace().record(world_->sim().now(), sim::TraceKind::kProtocol,
                             0, "converged");
      if (timeline_.active()) timeline_.sample_once();
      if (metrics_snap_.active()) metrics_snap_.snapshot_once();
      // Final proof pass at the convergence instant, mirroring the
      // timeline's forced sample.
      if (monitor_.active()) monitor_.check_now();
      // Forced snapshot at the convergence instant: the final (hole-free)
      // field always lands on the recorder even between cadence ticks.
      if (field_) field_->snapshot(world_->sim().now(), *map_, true);
      if (cfg_.linger_after_coverage > 0.0) {
        // Fixed post-restoration horizon for data-plane goodput (see
        // sim_runner.cpp); run_until still caps at run_time.
        world_->sim().schedule(cfg_.linger_after_coverage,
                               [this] { world_->sim().stop(); });
      } else {
        world_->sim().stop();
      }
      return;
    }
    const std::size_t covered = map_->num_covered(cfg_.params.k);
    if (covered > state->last_covered) {
      state->last_covered = covered;
      state->last_progress = world_->sim().now();
    } else if (world_->sim().now() - state->last_progress >=
               cfg_.stall_timeout) {
      watchdog_seed();
      state->last_progress = world_->sim().now();
    }
    if (auto self = weak_poll.lock()) world_->sim().schedule(0.5, *self);
  };
  world_->sim().schedule(0.5, *poll);
  // Periodic field snapshots ride their own weak self-scheduling chain
  // (same lifetime contract as the poll); the first fires immediately so
  // the pre-restoration deficit field is always recorded.
  auto field_tick = std::make_shared<std::function<void()>>();
  if (field_) {
    const double every =
        cfg_.field_interval > 0.0 ? cfg_.field_interval : 1.0;
    std::weak_ptr<std::function<void()>> weak_field = field_tick;
    *field_tick = [this, every, weak_field] {
      field_->snapshot(world_->sim().now(), *map_);
      if (auto self = weak_field.lock()) world_->sim().schedule(every, *self);
    };
    world_->sim().schedule(0.0, *field_tick);
  }
  try {
    world_->sim().run_until(cfg_.run_time);
  } catch (const std::exception& e) {
    // Best-effort post-mortem before the error propagates.
    if (!cfg_.flight_dir.empty()) dump_flight_bundle("exception", e.what());
    throw;
  }

  result.reached_full_coverage =
      state->covered || map_->fully_covered(cfg_.params.k);
  if (!cfg_.flight_dir.empty() && !result.reached_full_coverage) {
    dump_flight_bundle(
        "non-convergence",
        std::to_string(map_->num_points() -
                       map_->num_covered(cfg_.params.k)) +
            " points below k-coverage at run_time");
  }
  result.finish_time = state->finish_time;
  result.end_time = world_->sim().now();
  result.placed_nodes = placements_.size();
  result.seeded_nodes = seeded_;
  result.placements = placements_;
  result.radio_tx = world_->radio().total_tx();
  result.radio_rx = world_->radio().total_rx();
  result.arq = shared_->arq_stats;
  result.data = shared_->data_stats;
  if (injector_) result.faults_fired = injector_->faults_fired();
  result.radio_corrupted = world_->radio().total_corrupted();
  result.radio_partition_blocked = world_->radio().total_partition_blocked();
  result.invariant_checks = monitor_.checks_run();
  result.invariant_violations = monitor_.violations();
  result.metrics = coverage::compute_metrics(*map_, cfg_.params.k + 1);
  // One update per run (deltas since run() entry, so repeated runs on
  // one harness never double-count); the hot protocol path stays free of
  // instrumentation.
  if (common::metrics_enabled()) {
    auto& m = common::metrics();
    static common::Counter& runs = m.counter("protocol.voronoi.runs");
    static common::Counter& placed =
        m.counter("protocol.voronoi.placements");
    static common::Counter& seeded = m.counter("protocol.voronoi.seeded");
    static common::Counter& covered =
        m.counter("protocol.voronoi.covered_runs");
    runs.inc();
    placed.inc(placements_.size() - placements_before);
    seeded.inc(seeded_ - seeded_before);
    if (result.reached_full_coverage) covered.inc();
  }
  // End-of-run barrier for buffered sinks (OTLP document, live stream).
  bus_.flush();
  // See GridSimHarness::run(): post-flush whole-frame drop accounting.
  if (telemetry_sink_ != nullptr && common::metrics_enabled()) {
    const std::uint64_t dropped = telemetry_sink_->frames_dropped();
    common::metrics()
        .counter("telemetry.dropped_frames")
        .inc(dropped - telemetry_dropped_reported_);
    telemetry_dropped_reported_ = dropped;
  }
  return result;
}

VoronoiSimResult run_voronoi_decor_sim(const VoronoiSimConfig& cfg) {
  VoronoiSimHarness harness(cfg);
  return harness.run();
}

}  // namespace decor::core
