#include "decor/protocol_harness.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/otlp.hpp"
#include "common/require.hpp"
#include "decor/point_field.hpp"
#include "net/messages.hpp"
#include "sim/flight_recorder.hpp"

namespace decor::core {

std::string otlp_span_name(std::string_view kind, std::string_view detail) {
  const auto pos = detail.find("kind=");
  if (pos != std::string_view::npos) {
    int mk = 0;
    for (std::size_t i = pos + 5; i < detail.size(); ++i) {
      const char c = detail[i];
      if (c < '0' || c > '9') break;
      mk = mk * 10 + (c - '0');
    }
    if (const char* name = net::msg_kind_name(mk)) {
      return std::string("msg.") + name;
    }
  }
  return std::string(kind);
}

std::vector<std::pair<geom::Point2, std::uint32_t>>
HarnessNode::believed_devices(
    const std::function<bool(geom::Point2)>& counts) const {
  std::vector<std::pair<geom::Point2, std::uint32_t>> devices;
  devices.emplace_back(pos(), 1);
  // Heard neighbors, each a distinct device (the table is keyed by id).
  PosCounts heard_at;
  for (const auto& [nid, entry] : table_.snapshot()) {
    (void)nid;
    if (!counts(entry.pos)) continue;
    devices.emplace_back(entry.pos, 1);
    ++heard_at[PosKey{entry.pos.x, entry.pos.y}];
  }
  const auto add_surplus = [&](const PosCounts& claims) {
    for (const auto& [key, n] : claims) {
      const auto it = heard_at.find(key);
      const std::uint32_t heard = it == heard_at.end() ? 0 : it->second;
      if (n > heard) {
        devices.emplace_back(geom::Point2{key.x, key.y}, n - heard);
      }
    }
  };
  add_surplus(my_placements_);
  add_surplus(notices_);
  return devices;
}

ProtocolHarness::ProtocolHarness(RunConfig&& cfg, double range,
                                 const char* scheme)
    : cfg_(std::move(cfg)), scheme_(scheme), range_(range) {
  // A fault campaign implies reboots are possible: the ARQ must re-open
  // its dedup window when it gives a peer up for dead, or the rebooted
  // incarnation's fresh traffic is swallowed as duplicates. Applied
  // before init() copies the params so every node inherits it.
  if (!cfg_.fault_plan.empty()) cfg_.arq.purge_on_give_up = true;
  const auto& p = cfg_.params;
  world_ = std::make_unique<sim::World>(p.field, cfg_.radio, cfg_.seed,
                                        range);
  // Every producer publishes on the harness bus, so extra sinks (live
  // stream, OTLP) see all streams; attach must precede any open_jsonl.
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
    // Spans are built from trace causality ids, so the exporter implies
    // trace recording even when --trace was not given.
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
  // Records stay in memory only when something reads them back: --trace
  // (and the Perfetto export), a bounded ring, or a flight bundle. A
  // JSONL or OTLP stream alone takes each record as it is made.
  const bool read_back = cfg_.trace || cfg_.trace_capacity > 0 ||
                         !cfg_.flight_dir.empty();
  if (!read_back && (!cfg_.trace_jsonl.empty() || !cfg_.otlp.empty())) {
    world_->trace().retain(false);
  }
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
}

ProtocolHarness::~ProtocolHarness() = default;

void ProtocolHarness::init(NodeShared& shared) {
  shared.params = cfg_.params;
  shared.node.rc = range_;
  shared.node.heartbeat = cfg_.heartbeat;
  shared.node.enable_arq = cfg_.enable_arq;
  shared.node.arq = cfg_.arq;
  shared.node.data_plane = cfg_.data_plane;
  shared.harness = this;
  shared.points = &map_->index();
  if (cfg_.audit || !cfg_.audit_jsonl.empty()) shared.audit = &audit_;
  shared_ = &shared;
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

void ProtocolHarness::register_invariants() {
  // (1) Ground-truth coverage consistency: the CoverageMap must credit
  // exactly the alive population — a disc left behind by a kill, or
  // missing after a reboot, shows up as a count mismatch here.
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
  add_scheme_checks();
  // (2) ArqStats conservation: every reliable send must end up exactly
  // once in completed / failed / abandoned or still be pending on an
  // alive link. Dead links were drained into `abandoned` by host_died().
  monitor_.add_check("arq-conservation",
                     [this]() -> std::optional<std::string> {
    const auto& a = shared_->arq_stats;
    const std::uint64_t accounted =
        a.completed + a.failed + a.abandoned + arq_in_flight();
    if (a.sent != accounted) {
      return "sent=" + std::to_string(a.sent) + " but completed+failed+" +
             "abandoned+in_flight=" + std::to_string(accounted);
    }
    return std::nullopt;
  });
  // (3) Goodput bound: the sink can never deliver more unique readings
  // than the field originated (dedup or incarnation bookkeeping broke if
  // it does). Trivially true while the data plane is off.
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

std::uint64_t ProtocolHarness::arq_in_flight() {
  std::uint64_t in_flight = 0;
  for (std::uint32_t id : world_->alive_ids()) {
    if (auto* sn = dynamic_cast<net::SensorNode*>(&world_->node(id))) {
      if (auto* l = sn->link()) in_flight += l->in_flight();
    }
  }
  return in_flight;
}

std::uint32_t ProtocolHarness::spawn_node(geom::Point2 pos) {
  const auto id = world_->spawn(pos, make_node());
  map_->add_disc(pos);
  if (initial_deployed_) placements_.push_back(pos);
  return id;
}

void ProtocolHarness::kill_node(std::uint32_t id) {
  if (!world_->alive(id)) return;
  const auto pos = world_->position(id);
  world_->kill(id);
  map_->remove_disc(pos);
}

void ProtocolHarness::reboot_node(std::uint32_t id) {
  if (world_->alive(id)) return;
  world_->reboot(id, make_node());
  map_->add_disc(world_->position(id));
}

void ProtocolHarness::schedule_random_kills(double at, std::size_t count) {
  world_->sim().schedule_at(at, [this, count] {
    auto alive = world_->alive_ids();
    // The data-plane sink is infrastructure (the base station): random
    // chaos must never take it down — only an explicit sink_outage fault
    // event may. Filtered before sampling so the exclusion is
    // deterministic, not a retry.
    if (cfg_.data_plane.enabled) std::erase(alive, cfg_.data_plane.sink);
    const auto picks =
        world_->rng().sample_indices(alive.size(),
                                     std::min(count, alive.size()));
    for (std::size_t idx : picks) kill_node(alive[idx]);
  });
}

sim::TimelineSample ProtocolHarness::sample_timeline() {
  sim::TimelineSample s;
  s.t = world_->sim().now();
  s.covered_fraction = map_->fraction_covered(cfg_.params.k);
  s.uncovered_points = static_cast<std::uint64_t>(
      map_->num_points() - map_->num_covered(cfg_.params.k));
  s.alive_nodes = world_->alive_count();
  s.arq_in_flight = arq_in_flight();
  fill_sample(s);
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

void ProtocolHarness::dump_flight_bundle(const std::string& reason,
                                         const std::string& detail) {
  sim::FlightBundleInfo info;
  info.reason = reason;
  info.sim_time = world_->sim().now();
  info.scheme = scheme_;
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
  // The bundle is a checkpoint: the streamed artifacts on disk catch up
  // with it.
  bus_.checkpoint();
  sim::write_flight_bundle(cfg_.flight_dir, info, world_->trace(),
                           &timeline_);
}

std::shared_ptr<ProtocolHarness::Tick> ProtocolHarness::start_chain(
    double delay, double every, Tick tick) {
  auto handle = std::make_shared<Tick>(std::move(tick));
  schedule_tick(delay, every, handle);
  return handle;
}

void ProtocolHarness::schedule_tick(double delay, double every,
                                    std::weak_ptr<Tick> tick) {
  world_->sim().schedule(delay, [this, every, tick = std::move(tick)] {
    const auto self = tick.lock();
    if (self && (*self)()) schedule_tick(every, every, self);
  });
}

RunResult ProtocolHarness::run() {
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
    // Path-only configs ride the timeline cadence (then 1s) so the two
    // series line up sample-for-sample.
    const double every =
        cfg_.metrics_interval > 0.0
            ? cfg_.metrics_interval
            : (cfg_.timeline_interval > 0.0 ? cfg_.timeline_interval : 1.0);
    metrics_snap_.start(world_->sim(), every);
  }

  RunResult result;
  result.initial_nodes = initial_nodes_;
  const std::size_t placements_before = placements_.size();
  const std::size_t seeded_before = seeded_.value_or(0);

  // Poll ground truth; stop as soon as the field is fully covered. The
  // chains live only as long as their handles below, so the poll may
  // hold this run's state by reference.
  double finish_time = cfg_.run_time;
  bool covered = false;
  Progress progress{0, world_->sim().now()};
  const auto poll = start_chain(0.5, 0.5, [&] {
    if (!map_->fully_covered(cfg_.params.k)) {
      on_uncovered_poll(progress);
      return true;
    }
    covered = true;
    finish_time = world_->sim().now();
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
      // Fixed post-restoration horizon: keep the data plane flowing
      // so goodput is measured over a comparable window regardless of
      // when convergence happened (run_until still caps at run_time).
      world_->sim().schedule(cfg_.linger_after_coverage,
                             [this] { world_->sim().stop(); });
    } else {
      world_->sim().stop();
    }
    return false;
  });
  // Periodic field snapshots ride their own chain; the first fires
  // immediately so the pre-restoration deficit field is always recorded.
  std::shared_ptr<Tick> field_tick;
  if (field_) {
    field_tick = start_chain(
        0.0, cfg_.field_interval > 0.0 ? cfg_.field_interval : 1.0, [this] {
          field_->snapshot(world_->sim().now(), *map_);
          return true;
        });
  }
  try {
    world_->sim().run_until(cfg_.run_time);
  } catch (const std::exception& e) {
    // Best-effort post-mortem before the error propagates: the in-memory
    // trace/timeline/metrics are exactly what debugging needs, and the
    // buffered streams must reach their files.
    if (!cfg_.flight_dir.empty()) dump_flight_bundle("exception", e.what());
    bus_.checkpoint();
    throw;
  }

  result.reached_full_coverage =
      covered || map_->fully_covered(cfg_.params.k);
  if (!cfg_.flight_dir.empty() && !result.reached_full_coverage) {
    dump_flight_bundle(
        "non-convergence",
        std::to_string(map_->num_points() -
                       map_->num_covered(cfg_.params.k)) +
            " points below k-coverage at run_time");
  }
  result.finish_time = finish_time;
  result.end_time = world_->sim().now();
  result.placed_nodes = placements_.size();
  result.seeded_nodes = seeded_.value_or(0);
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
  // instrumentation. Names are resolved per run, so each scheme's
  // counters move only for its own runs.
  if (common::metrics_enabled()) {
    auto& m = common::metrics();
    const std::string prefix = std::string("protocol.") + scheme_ + ".";
    m.counter(prefix + "runs").inc();
    m.counter(prefix + "placements").inc(placements_.size() -
                                         placements_before);
    if (seeded_) m.counter(prefix + "seeded").inc(*seeded_ - seeded_before);
    auto& covered_runs = m.counter(prefix + "covered_runs");
    if (result.reached_full_coverage) covered_runs.inc();
  }
  // End-of-run barrier for buffered sinks: the OTLP exporter writes its
  // document here, the live stream drains its pending frames.
  bus_.flush();
  // A sink that lost output fails the run: an artifact cut short (a full
  // disk) must not pass for a complete one.
  if (std::string failure = bus_.failure(); !failure.empty()) {
    throw std::runtime_error(failure);
  }
  // Whole frames the live stream shed (TCP backpressure drops entire
  // DTLM frames, never partial ones) — counted after the flush so the
  // final drain is included. Delta since the last run() on this harness.
  if (telemetry_sink_ != nullptr && common::metrics_enabled()) {
    const std::uint64_t dropped = telemetry_sink_->frames_dropped();
    common::metrics()
        .counter("telemetry.dropped_frames")
        .inc(dropped - telemetry_dropped_reported_);
    telemetry_dropped_reported_ = dropped;
  }
  return result;
}

}  // namespace decor::core
