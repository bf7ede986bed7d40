#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "coverage/area_estimate.hpp"
#include "coverage/sensor.hpp"
#include "decor/artifacts.hpp"
#include "decor/engines.hpp"
#include "decor/explain.hpp"
#include "decor/point_field.hpp"
#include "decor/restoration.hpp"
#include "decor/sim_runner.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"
#include "probes.hpp"
#include "sim/propagation.hpp"
#include "spans.hpp"

namespace perfbench {

namespace core = decor::core;
namespace coverage = decor::coverage;
namespace geom = decor::geom;
namespace sim = decor::sim;
namespace fs = std::filesystem;

void Values::set(const std::string& name, double v) {
  for (auto& [n, old] : items_) {
    if (n == name) {
      old = v;
      return;
    }
  }
  items_.emplace_back(name, v);
}

namespace {

/// Every per-layer value a traced iteration reports, in report order. A
/// layer the workload does not exercise reads 0.
const char* const kLayerNames[] = {
    "sim.events", "sim.radio.tx", "sim.radio.rx", "sim.radio.rx_per_tx",
    "sim.radio.dropped", "sim.radio.collisions", "sim.invariant.checks",
    "sim.trace.records", "sim.ns_per_event", "sim.convergence_s",
    "net.arq.sent", "net.arq.retx", "net.arq.acks_sent", "net.arq.dup_drops",
    "net.arq.gave_up", "net.arq.queued", "net.arq.first_try_ratio",
    "net.data.originated", "net.data.forwarded", "net.data.delivered",
    "net.data.delivery_ratio", "net.data.goodput_Bps",
    "coverage.benefit.delta_sweeps", "coverage.benefit.stale_pops",
    "coverage.benefit.rebuilds", "coverage.benefit.useful_pop_ratio",
    "coverage.fail_area_s", "decor.field_build_s", "decor.harness.build_s",
    "decor.harness.run_s", "decor.engine.centralized.deploy_s",
    "decor.engine.centralized.restore_s",
    "decor.engine.centralized.placements_per_s",
    "decor.engine.grid.deploy_s", "decor.engine.grid.restore_s",
    "decor.engine.grid.placements_per_s", "decor.engine.voronoi.deploy_s",
    "decor.engine.voronoi.restore_s", "decor.engine.voronoi.placements_per_s",
    "decor.engine.rounds", "decor.engine.messages", "decor.explain.load_s",
    "decor.explain.analyze_s", "decor.explain.parse_mb_per_s",
    "common.telemetry.events", "common.telemetry.bytes.trace",
    "common.telemetry.bytes.timeline", "common.telemetry.bytes.field",
    "common.telemetry.bytes.audit", "common.telemetry.bytes.metrics",
    "common.telemetry.observe_s", "probe.sim.ns_per_event",
    "probe.radio.ns_per_rx", "probe.net.ns_per_observe",
    "probe.coverage.ns_per_placement", "probe.sim.est_s", "probe.radio.est_s",
    "probe.net.est_s", "probe.coverage.est_s", "probe.unattributed_s",
};

/// The observability artifacts voronoi_observed streams, by stream name.
const char* const kStreams[] = {"trace", "timeline", "field", "audit",
                                "metrics"};

/// Harness builds per process in the sim workloads; setup_s is their
/// median (one build is well under a millisecond, too short to time once).
constexpr int kSimSetupReps = 21;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double registry_count(const char* name) {
  return static_cast<double>(decor::common::metrics().counter(name).value());
}

/// Reads the BenefitIndex counters; called before the probes and the
/// observe baseline, which would add to them.
void record_registry(IterationReport& rep) {
  rep.layers.set("coverage.benefit.delta_sweeps",
                 registry_count("benefit.delta_sweeps"));
  rep.layers.set("coverage.benefit.stale_pops",
                 registry_count("benefit.stale_pops"));
  rep.layers.set("coverage.benefit.rebuilds",
                 registry_count("benefit.rebuilds"));
}

/// Fraction of the field covered by >= k of `positions`, on the fixed
/// lattice of resolution x resolution cell centres.
double area_k_covered(const core::DecorParams& p,
                      const std::vector<geom::Point2>& positions,
                      std::size_t resolution) {
  coverage::SensorSet sensors(p.field, p.rs, p.rs);
  for (const auto& q : positions) sensors.add(q);
  return coverage::area_coverage_grid(sensors, p.field, p.k, p.rs,
                                      resolution);
}

core::DecorParams params_for(double side, std::size_t points) {
  core::DecorParams p;
  p.field = geom::make_rect(0.0, 0.0, side, side);
  p.num_points = points;
  return p;
}

void record_probes(const ProbeInputs& in, double events, double rx,
                   double run_s, IterationReport& rep) {
  Phase phase("probes");
  const ProbeResults pr = run_probes(in);
  const double placements = static_cast<double>(in.placements.size());
  // The radio probe's figure already covers the delivery event of each
  // reception, so the event-queue estimate counts only the other events.
  const double sim_s = pr.ns_per_event * (events - rx) * 1e-9;
  const double radio_s = pr.ns_per_rx * rx * 1e-9;
  // Every reception refreshes the sender's neighbor entry at most once.
  const double net_s = pr.ns_per_observe * rx * 1e-9;
  const double cov_s = pr.ns_per_placement * placements * 1e-9;
  auto& l = rep.layers;
  l.set("probe.sim.ns_per_event", pr.ns_per_event);
  l.set("probe.radio.ns_per_rx", pr.ns_per_rx);
  l.set("probe.net.ns_per_observe", pr.ns_per_observe);
  l.set("probe.coverage.ns_per_placement", pr.ns_per_placement);
  l.set("probe.sim.est_s", sim_s);
  l.set("probe.radio.est_s", radio_s);
  l.set("probe.net.est_s", net_s);
  l.set("probe.coverage.est_s", cov_s);
  l.set("probe.unattributed_s", run_s - sim_s - radio_s - net_s - cov_s);
}

// ---------------------------------------------------------------------
// Protocol simulations: grid_paper, voronoi_lossy_stream, voronoi_observed.

struct SimSpec {
  bool voronoi = false;
  double side = 100.0;
  std::size_t points = 2000;
  std::size_t initial = 20;
  double loss = 0.0;
  double burst = 0.0;  ///< > 1 selects the Gilbert–Elliott channel
  std::uint32_t window = 1;
  double load = 0.0;  ///< readings/s per node; 0 = no data plane
  double linger = 0.0;
  double run_time = 300.0;  ///< simulated-time limit
  bool observed = false;  ///< full observability stack + explain
  std::size_t area_resolution = 300;
};

// `decor sim --scheme=grid --seed=S`
constexpr SimSpec kGridPaper{};
// `decor sim --scheme=voronoi --loss=0.2 --burst=4 --window=4 --load=1
//  --linger=60 --seed=S`
constexpr SimSpec kVoronoiLossyStream{.voronoi = true,
                                      .loss = 0.2,
                                      .burst = 4.0,
                                      .window = 4,
                                      .load = 1.0,
                                      .linger = 60.0};
// `decor sim --scheme=voronoi --side=50 --points=500 --initial=5
//  --loss=0.1 --run-time=60 --linger=60 --seed=S` with every artifact sink
// and --invariants on. The fixed 60 s horizon keeps the trace (and the
// memory explain needs to read it back) the same size on every seed.
constexpr SimSpec kVoronoiObserved{.voronoi = true,
                                   .side = 50.0,
                                   .points = 500,
                                   .initial = 5,
                                   .loss = 0.1,
                                   .linger = 60.0,
                                   .run_time = 60.0,
                                   .observed = true,
                                   .area_resolution = 150};

std::string stream_path(const std::string& dir, const char* stream) {
  return (fs::path(dir) / (std::string(stream) + ".jsonl")).string();
}

template <class Config>
Config make_config(const SimSpec& s, std::uint64_t seed,
                   const std::string& dir, bool sinks) {
  Config cfg;
  cfg.params = params_for(s.side, s.points);
  decor::common::Rng rng(seed);
  cfg.initial_positions =
      decor::lds::random_points(cfg.params.field, s.initial, rng);
  cfg.seed = seed;
  cfg.run_time = s.run_time;
  cfg.linger_after_coverage = s.linger;
  if (s.burst > 1.0) {
    cfg.radio.propagation = std::make_shared<sim::GilbertElliottModel>(
        sim::GilbertElliottModel::from_loss_and_burst(s.loss, s.burst));
  } else {
    cfg.radio.loss_prob = s.loss;
  }
  cfg.arq.window = s.window;
  if (s.load > 0.0) {
    cfg.data_plane.enabled = true;
    cfg.data_plane.reading_interval = 1.0 / s.load;
  }
  if (s.observed && sinks) {
    cfg.trace_jsonl = stream_path(dir, "trace");
    cfg.timeline_interval = 0.5;
    cfg.timeline_jsonl = stream_path(dir, "timeline");
    cfg.field_interval = 1.0;
    cfg.field_jsonl = stream_path(dir, "field");
    cfg.audit_jsonl = stream_path(dir, "audit");
    cfg.metrics_interval = 1.0;
    cfg.metrics_jsonl = stream_path(dir, "metrics");
    cfg.invariant_interval = 0.5;
  }
  return cfg;
}

template <class Harness, class Config>
void run_sim(const SimSpec& spec, const IterationOptions& opts,
             IterationReport& rep) {
  const std::string& dir = opts.scratch;
  if (spec.observed) {
    if (dir.empty()) {
      throw std::invalid_argument("voronoi_observed needs --scratch");
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    // Metrics snapshots sample the registry, so the CLI turns it on
    // whenever they are requested; do the same.
    decor::common::metrics().enable(true);
  }
  const Config cfg = make_config<Config>(spec, opts.seed, dir, true);

  Phase iteration("iteration");
  std::unique_ptr<Harness> harness;
  {
    Phase setup("setup");
    std::vector<double> samples;
    for (int r = 0; r < kSimSetupReps; ++r) {
      harness.reset();
      Phase build("decor.harness.build");
      harness = std::make_unique<Harness>(cfg);
      samples.push_back(build.stop());
    }
    rep.setup_s = median(samples);
  }

  Phase run("run");
  Phase harness_run("decor.harness.run");
  const auto res = harness->run();
  const double run_s = harness_run.stop();
  sim::World& world = harness->world();
  const double events = static_cast<double>(world.sim().events_executed());
  const double dropped = static_cast<double>(world.radio().total_dropped());
  const double collisions =
      static_cast<double>(world.radio().total_collisions());
  const double trace_records =
      static_cast<double>(world.trace().total_recorded());
  const double telemetry_events =
      static_cast<double>(harness->telemetry().events_published());
  std::vector<geom::Point2> alive;
  for (const auto id : world.alive_ids()) alive.push_back(world.position(id));
  {
    // Destruction closes the artifact sinks, which explain reads next.
    Phase teardown("decor.harness.teardown");
    harness.reset();
  }
  double load_s = 0.0;
  double analyze_s = 0.0;
  core::ExplainDoc doc;
  if (spec.observed) {
    std::vector<core::Artifact> artifacts;
    {
      Phase load("decor.explain.load");
      artifacts = core::load_run_artifacts(dir, "explain");
      load_s = load.stop();
    }
    Phase analyze("decor.explain.analyze");
    doc = core::analyze_run(artifacts);
    analyze_s = analyze.stop();
  }
  rep.wall_s = run.stop();
  rep.work = static_cast<double>(res.radio_rx);
  rep.explain_s = load_s + analyze_s;

  Phase verify("verify");
  const double rx = static_cast<double>(res.radio_rx);
  const double tx = static_cast<double>(res.radio_tx);
  const double goodput = ratio(static_cast<double>(res.data.bytes_delivered),
                               res.end_time);
  auto& o = rep.outputs;
  o.set("placed_nodes", static_cast<double>(res.placed_nodes));
  if constexpr (requires { res.seeded_nodes; }) {
    o.set("seeded_nodes", static_cast<double>(res.seeded_nodes));
  }
  o.set("reached_full_coverage", res.reached_full_coverage ? 1.0 : 0.0);
  o.set("convergence_sim_s", res.finish_time);
  o.set("end_sim_s", res.end_time);
  o.set("radio_tx", tx);
  o.set("radio_rx", rx);
  o.set("radio_dropped", dropped);
  o.set("radio_collisions", collisions);
  o.set("sim_events", events);
  o.set("arq_sent", static_cast<double>(res.arq.sent));
  o.set("arq_retx", static_cast<double>(res.arq.retx));
  o.set("arq_acks_sent", static_cast<double>(res.arq.acks_sent));
  o.set("arq_dup_drops", static_cast<double>(res.arq.dup_drops));
  o.set("arq_gave_up", static_cast<double>(res.arq.gave_up));
  o.set("arq_queued", static_cast<double>(res.arq.queued));
  o.set("data_originated", static_cast<double>(res.data.readings_originated));
  o.set("data_forwarded", static_cast<double>(res.data.readings_forwarded));
  o.set("data_delivered", static_cast<double>(res.data.readings_delivered));
  o.set("data_bytes_delivered", static_cast<double>(res.data.bytes_delivered));
  o.set("goodput_Bps", goodput);
  o.set("invariant_checks", static_cast<double>(res.invariant_checks));
  o.set("invariant_violations", static_cast<double>(res.invariant_violations));
  o.set("trace_records", trace_records);
  o.set("telemetry_events", telemetry_events);
  o.set("area_k_covered",
        area_k_covered(cfg.params, alive, spec.area_resolution));
  if (!res.reached_full_coverage) {
    rep.failures.push_back("full k-coverage not reached within the run time");
  }
  if (res.invariant_violations > 0) {
    rep.errors.push_back("invariant violations: " +
                         std::to_string(res.invariant_violations));
  }
  std::vector<double> stream_bytes;
  if (spec.observed) {
    o.set("explain_converged", doc.converged ? 1.0 : 0.0);
    o.set("explain_convergence_s", doc.convergence_time);
    o.set("explain_detection_s", doc.detection);
    o.set("explain_decision_s", doc.decision);
    o.set("explain_propagation_s", doc.propagation);
    o.set("explain_trace_records", static_cast<double>(doc.trace_records));
    const double phases = doc.detection + doc.decision + doc.propagation;
    if (!res.reached_full_coverage) {
      // Nothing to explain; the missed goal is already a failure.
    } else if (!doc.converged) {
      rep.errors.push_back("explain did not find convergence");
    } else if (std::abs(phases - doc.convergence_time) > doc.sample_cadence) {
      rep.errors.push_back("explain phases do not sum to convergence_time");
    }
    for (const char* s : kStreams) {
      const fs::path p = stream_path(dir, s);
      stream_bytes.push_back(
          fs::exists(p) ? static_cast<double>(fs::file_size(p)) : 0.0);
      o.set(std::string("bytes_") + s, stream_bytes.back());
    }
    fs::remove_all(dir);
  }
  verify.stop();
  iteration.stop();
  if (!opts.traced) return;

  record_registry(rep);
  auto& l = rep.layers;
  l.set("sim.events", events);
  l.set("sim.radio.tx", tx);
  l.set("sim.radio.rx", rx);
  l.set("sim.radio.rx_per_tx", ratio(rx, tx));
  l.set("sim.radio.dropped", dropped);
  l.set("sim.radio.collisions", collisions);
  l.set("sim.invariant.checks", static_cast<double>(res.invariant_checks));
  l.set("sim.trace.records", trace_records);
  l.set("sim.ns_per_event", ratio(run_s * 1e9, events));
  l.set("sim.convergence_s", res.finish_time);
  const double sent = static_cast<double>(res.arq.sent);
  const double retx = static_cast<double>(res.arq.retx);
  l.set("net.arq.sent", sent);
  l.set("net.arq.retx", retx);
  l.set("net.arq.acks_sent", static_cast<double>(res.arq.acks_sent));
  l.set("net.arq.dup_drops", static_cast<double>(res.arq.dup_drops));
  l.set("net.arq.gave_up", static_cast<double>(res.arq.gave_up));
  l.set("net.arq.queued", static_cast<double>(res.arq.queued));
  l.set("net.arq.first_try_ratio", ratio(sent, sent + retx));
  const double originated = static_cast<double>(res.data.readings_originated);
  const double delivered = static_cast<double>(res.data.readings_delivered);
  l.set("net.data.originated", originated);
  l.set("net.data.forwarded", static_cast<double>(res.data.readings_forwarded));
  l.set("net.data.delivered", delivered);
  l.set("net.data.delivery_ratio", ratio(delivered, originated));
  l.set("net.data.goodput_Bps", goodput);
  l.set("decor.harness.build_s", rep.setup_s);
  l.set("decor.harness.run_s", run_s);
  l.set("common.telemetry.events", telemetry_events);
  if (spec.observed) {
    double total_bytes = 0.0;
    for (std::size_t i = 0; i < stream_bytes.size(); ++i) {
      l.set(std::string("common.telemetry.bytes.") + kStreams[i],
            stream_bytes[i]);
      total_bytes += stream_bytes[i];
    }
    l.set("decor.explain.load_s", load_s);
    l.set("decor.explain.analyze_s", analyze_s);
    l.set("decor.explain.parse_mb_per_s", ratio(total_bytes * 1e-6, load_s));
    // The same configuration with every sink and the monitor off: the
    // difference is what observing costs.
    const Config bare = make_config<Config>(spec, opts.seed, dir, false);
    Harness baseline(bare);
    Phase base_run("observe.baseline.run");
    const auto base = baseline.run();
    l.set("common.telemetry.observe_s", run_s - base_run.stop());
    if (base.radio_rx != res.radio_rx ||
        base.placed_nodes != res.placed_nodes) {
      rep.errors.push_back("observing changed the simulated trajectory");
    }
  }
  ProbeInputs in;
  in.params = cfg.params;
  // The grid harness broadcasts far enough to reach adjacent cells'
  // leaders: at least two cell diagonals.
  in.range = spec.voronoi ? cfg.params.rc
                          : std::max(cfg.params.rc, 2.0 * cfg.params.cell_side *
                                                        std::numbers::sqrt2);
  in.seed = opts.seed;
  in.positions = std::move(alive);
  in.initial = cfg.initial_positions;
  in.placements = res.placements;
  record_probes(in, events, rx, run_s, rep);
}

// ---------------------------------------------------------------------
// Offline engines: restore_offline.

constexpr double kRestoreSide = 600.0;
constexpr std::size_t kRestorePoints = 72000;  // the paper's point density
constexpr std::size_t kRestoreInitial = 3600;
constexpr double kFailureRadius = 90.0;
constexpr std::size_t kRestoreAreaResolution = 300;

struct Lane {
  core::Scheme scheme;
  decor::common::Rng rng;
  std::unique_ptr<core::Field> field;
  std::vector<geom::Point2> initial;
};

/// Each lane equals `decor restore --scheme=<lane> --side=600
/// --points=72000 --initial=3600 --k=3 --failure=area --radius=90
/// --seed=S`.
void run_restore(const IterationOptions& opts, IterationReport& rep) {
  const core::DecorParams params = params_for(kRestoreSide, kRestorePoints);
  Phase iteration("iteration");
  std::vector<Lane> lanes;
  {
    Phase setup("setup");
    for (const auto scheme : {core::Scheme::kCentralized, core::Scheme::kGrid,
                              core::Scheme::kVoronoi}) {
      Phase build("decor.field_build");
      Lane lane{scheme, decor::common::Rng(opts.seed), nullptr, {}};
      lane.field = std::make_unique<core::Field>(params, lane.rng);
      lane.initial = decor::lds::random_points(params.field, kRestoreInitial,
                                               lane.rng);
      for (const auto& p : lane.initial) lane.field->deploy(p);
      lanes.push_back(std::move(lane));
    }
    rep.setup_s = setup.stop();
  }

  struct LaneResult {
    core::DeploymentResult deploy;
    core::DeploymentResult restore;
    std::size_t killed = 0;
    double deploy_s = 0.0;
    double fail_s = 0.0;
    double restore_s = 0.0;
  };
  std::vector<LaneResult> results;
  Phase run("run");
  const geom::Disc area{params.field.center(), kFailureRadius};
  for (auto& lane : lanes) {
    const std::string name = std::string("decor.engine.") +
                             core::to_string(lane.scheme);
    LaneResult r;
    {
      Phase p(name + ".deploy");
      r.deploy = core::run_engine(lane.scheme, *lane.field, lane.rng);
      r.deploy_s = p.stop();
    }
    {
      Phase p("coverage.fail_area");
      r.killed = core::fail_area(*lane.field, area).size();
      r.fail_s = p.stop();
    }
    {
      Phase p(name + ".restore");
      r.restore = core::run_engine(lane.scheme, *lane.field, lane.rng);
      r.restore_s = p.stop();
    }
    results.push_back(std::move(r));
  }
  rep.wall_s = run.stop();

  Phase verify("verify");
  double placed = 0.0;
  double area_sum = 0.0;
  double rounds = 0.0;
  double messages = 0.0;
  auto& o = rep.outputs;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto& lane = lanes[i];
    const auto& r = results[i];
    const std::string s = core::to_string(lane.scheme);
    std::vector<geom::Point2> alive;
    for (const auto id : lane.field->sensors.alive_ids()) {
      alive.push_back(lane.field->sensors.position(id));
    }
    const double cov = area_k_covered(params, alive, kRestoreAreaResolution);
    o.set(s + ".deploy_placed", static_cast<double>(r.deploy.placed_nodes));
    o.set(s + ".killed", static_cast<double>(r.killed));
    o.set(s + ".restore_placed", static_cast<double>(r.restore.placed_nodes));
    o.set(s + ".messages",
          static_cast<double>(r.deploy.messages + r.restore.messages));
    o.set(s + ".rounds",
          static_cast<double>(r.deploy.rounds + r.restore.rounds));
    o.set(s + ".area_k_covered", cov);
    placed +=
        static_cast<double>(r.deploy.placed_nodes + r.restore.placed_nodes);
    area_sum += cov;
    rounds += static_cast<double>(r.deploy.rounds + r.restore.rounds);
    messages += static_cast<double>(r.deploy.messages + r.restore.messages);
    if (!r.deploy.reached_full_coverage || !r.restore.reached_full_coverage) {
      rep.failures.push_back(s + ": full k-coverage not reached");
    }
    if (r.restore.reached_full_coverage &&
        !lane.field->map.fully_covered(params.k)) {
      rep.errors.push_back(s + ": engine reports full coverage the map lacks");
    }
  }
  o.set("placed_nodes", placed);
  o.set("area_k_covered", area_sum / static_cast<double>(lanes.size()));
  rep.work = placed;
  verify.stop();
  iteration.stop();
  if (!opts.traced) return;

  record_registry(rep);
  auto& l = rep.layers;
  double fail_s = 0.0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto& r = results[i];
    const std::string name = std::string("decor.engine.") +
                             core::to_string(lanes[i].scheme);
    l.set(name + ".deploy_s", r.deploy_s);
    l.set(name + ".restore_s", r.restore_s);
    l.set(name + ".placements_per_s",
          ratio(static_cast<double>(r.deploy.placed_nodes +
                                    r.restore.placed_nodes),
                r.deploy_s + r.restore_s));
    fail_s += r.fail_s;
  }
  const double stale = registry_count("benefit.stale_pops");  // pre-probe
  l.set("coverage.fail_area_s", fail_s);
  l.set("coverage.benefit.useful_pop_ratio", ratio(placed, placed + stale));
  l.set("decor.field_build_s", rep.setup_s);
  l.set("decor.engine.rounds", rounds);
  l.set("decor.engine.messages", messages);
  ProbeInputs in;
  in.params = params;
  in.range = params.rc;
  in.seed = opts.seed;
  for (const auto id : lanes.back().field->sensors.alive_ids()) {
    in.positions.push_back(lanes.back().field->sensors.position(id));
  }
  in.initial = lanes.front().initial;
  in.placements = results.front().deploy.placements;
  record_probes(in, 0.0, 0.0, rep.wall_s, rep);
}

}  // namespace

IterationReport run_iteration(const IterationOptions& opts) {
  IterationReport rep;
  recorder().enable(opts.traced);
  if (opts.traced) {
    decor::common::metrics().reset();
    decor::common::metrics().enable(true);
    for (const char* name : kLayerNames) rep.layers.set(name, 0.0);
  }
  if (opts.workload == "grid_paper") {
    run_sim<core::GridSimHarness, core::SimRunConfig>(kGridPaper, opts, rep);
  } else if (opts.workload == "voronoi_lossy_stream") {
    run_sim<core::VoronoiSimHarness, core::VoronoiSimConfig>(
        kVoronoiLossyStream, opts, rep);
  } else if (opts.workload == "restore_offline") {
    run_restore(opts, rep);
  } else if (opts.workload == "voronoi_observed") {
    run_sim<core::VoronoiSimHarness, core::VoronoiSimConfig>(kVoronoiObserved,
                                                             opts, rep);
  } else {
    throw std::invalid_argument("unknown workload: " + opts.workload);
  }
  return rep;
}

}  // namespace perfbench
