// The protocol-harness core under both packet-level DECOR runners.
//
// Grid DECOR (sim_runner.*) and Voronoi DECOR (voronoi_sim.*) run one
// restoration loop: a node places a sensor at the max-benefit point it
// owns (Equation 1) and tells its neighbors across the boundary. The two
// schemes differ only in who owns a point — an elected grid-cell leader,
// or each node's local Voronoi cell. ProtocolHarness owns everything
// else: the world and its telemetry sinks, the ground-truth coverage map,
// the field recorder, audit log, fault injector, invariant monitor and
// flight bundles, the timeline, the poll + field-tick run loop and the
// run result. A scheme subclass supplies its node process and a few
// virtual hooks; each runs once per spawn, per sample or per 0.5 s poll,
// never on the per-event path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/telemetry.hpp"
#include "coverage/coverage_map.hpp"
#include "coverage/field_recorder.hpp"
#include "coverage/metrics.hpp"
#include "decor/params.hpp"
#include "net/sensor_node.hpp"
#include "sim/audit_log.hpp"
#include "sim/fault.hpp"
#include "sim/invariant_monitor.hpp"
#include "sim/metrics_snapshot.hpp"
#include "sim/timeline.hpp"
#include "sim/world.hpp"

namespace decor::core {

/// Configuration both protocol runners share; each scheme's config adds
/// its own pacing knobs (SimRunConfig, VoronoiSimConfig).
struct RunConfig {
  DecorParams params;
  std::vector<geom::Point2> initial_positions;
  std::uint64_t seed = 1;

  /// Wall limit in simulated seconds; the run also stops as soon as the
  /// field is fully k-covered.
  double run_time = 300.0;

  /// When > 0, reaching full k-coverage no longer stops the run at the
  /// convergence instant: the simulation keeps going for this many extra
  /// seconds (still capped by run_time). finish_time records the
  /// convergence time either way. This gives the data plane a
  /// fixed-length measurement window, so goodput comparisons are not
  /// confounded by how quickly restoration happened to converge.
  double linger_after_coverage = 0.0;

  net::HeartbeatParams heartbeat{1.0, 3.5};
  sim::RadioParams radio{};

  /// ARQ (net::ReliableLink) under the control-plane messages (kLeader,
  /// kPlacement, kCoverageQuery/Reply, seed probes); kHello/kHeartbeat
  /// stay best-effort. Disable to reproduce the fire-and-forget stack.
  bool enable_arq = true;
  net::ReliableLinkParams arq{};

  /// Data-plane workload: every non-sink sensor streams kReading frames
  /// to the base station (node 0, the first initial position) while
  /// restoration runs. Off by default — control-plane-only trajectories
  /// stay byte-identical.
  net::DataPlaneParams data_plane{};

  /// Tracing (applied to the world's Trace at construction): record
  /// protocol events, optionally bounded to the `trace_capacity` most
  /// recent records (0 = unbounded) and/or streamed to `trace_jsonl` as
  /// one JSON object per line.
  bool trace = false;
  std::size_t trace_capacity = 0;
  std::string trace_jsonl;

  /// Convergence timeline: sample coverage/liveness/ARQ state every
  /// `timeline_interval` sim-seconds (0 = no timeline), optionally
  /// streaming decor.timeline.v1 lines to `timeline_jsonl`.
  double timeline_interval = 0.0;
  std::string timeline_jsonl;

  /// Spatial field recorder: rasterized k-deficit snapshots every
  /// `field_interval` sim-seconds (decor.field.v1), with a forced
  /// snapshot at the convergence instant. Recording is on when either
  /// field_interval > 0 or `field_jsonl` is set (the interval then
  /// defaults to 1s); `field_raster` overrides the rs-derived raster
  /// side (0 = FieldRecorder::default_raster).
  double field_interval = 0.0;
  std::string field_jsonl;
  std::size_t field_raster = 0;

  /// Placement audit log: record every placement decision (in memory;
  /// tests and reports). `audit_jsonl` additionally streams each record
  /// as a decor.audit.v1 line and implies `audit`.
  bool audit = false;
  std::string audit_jsonl;

  /// Flight recorder: when set, a run that ends without full coverage,
  /// needs the voronoi watchdog, or aborts on an exception dumps
  /// trace/timeline/metrics into this directory (see
  /// sim/flight_recorder.hpp for the bundle layout).
  std::string flight_dir;

  /// Fault campaign (decor.faults.v1): armed on the event queue before
  /// the run starts. A non-empty plan switches the ARQ to
  /// purge_on_give_up so rebooted peers are un-quarantined (see
  /// ReliableLinkParams); empty plans leave trajectories untouched.
  sim::FaultPlan fault_plan;

  /// Invariant monitor cadence in sim-seconds (0 = monitor off): every
  /// period the harness re-proves ground-truth coverage consistency,
  /// ArqStats conservation and the goodput bound (grid adds leader
  /// uniqueness), and dumps a flight bundle (if flight_dir is set) on
  /// first violation.
  double invariant_interval = 0.0;

  /// Periodic metrics-registry snapshots (decor.metrics.v1): active when
  /// `metrics_interval` > 0 or `metrics_jsonl` is set. The cadence
  /// defaults to the timeline cadence (then 1s) when only the sink path
  /// is given. Snapshots are meaningful only while the registry is
  /// enabled (--json / MetricsRegistry::enable).
  double metrics_interval = 0.0;
  std::string metrics_jsonl;

  /// Live telemetry stream: length-prefixed DTLM frames of the
  /// timeline/field/audit/metrics streams to "-" (stdout), a file path,
  /// or "tcp:HOST:PORT" (what `decor watch` consumes).
  std::string telemetry_stream;

  /// OTLP/JSON export endpoint: a file path (document rewritten at run
  /// end) or "http://host:port/path" (best-effort POST). Implies trace
  /// recording — spans are built from trace causality ids.
  std::string otlp;

  /// Serialize cumulative ARQ sent/retx counters on every timeline
  /// sample (the live dashboard's retx-ratio series). Off by default so
  /// existing decor.timeline.v1 output stays byte-identical.
  bool timeline_arq = false;
};

struct RunResult {
  std::size_t initial_nodes = 0;
  std::size_t placed_nodes = 0;
  /// Nodes the voronoi stall watchdog (the paper's robot) had to seed,
  /// out of placed_nodes; always 0 for grid.
  std::size_t seeded_nodes = 0;
  bool reached_full_coverage = false;
  double finish_time = 0.0;
  /// Sim clock when the run actually stopped (== finish_time unless
  /// linger_after_coverage extended it); goodput denominators use this.
  double end_time = 0.0;
  std::uint64_t radio_tx = 0;
  std::uint64_t radio_rx = 0;
  /// ARQ accounting, cumulative over the harness lifetime (not reset
  /// between repeated run() calls on one harness).
  net::ArqStats arq;
  /// Data-plane accounting (all zeros unless cfg.data_plane.enabled).
  net::DataPlaneStats data;
  coverage::CoverageMetrics metrics;
  std::vector<geom::Point2> placements;
  /// Fault-campaign accounting (zeros unless cfg.fault_plan non-empty).
  std::uint64_t faults_fired = 0;
  std::uint64_t radio_corrupted = 0;
  std::uint64_t radio_partition_blocked = 0;
  /// Invariant-monitor accounting (zeros unless invariant_interval > 0).
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
};

/// Exact-position keys: spawn positions are approximation-point
/// coordinates copied bit-for-bit, so double equality is reliable here.
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

class ProtocolHarness;

/// Static field knowledge and per-world accounting every simulated node
/// of one harness shares; a scheme derives its own shared state from it.
struct NodeShared {
  DecorParams params;
  /// The protocol stack every node runs: range, heartbeat, ARQ, data plane.
  net::SensorNodeParams node;
  ProtocolHarness* harness = nullptr;
  const geom::PointGridIndex* points = nullptr;
  /// Placement audit sink, or nullptr when auditing is off. Nodes only
  /// pre-mint kPlacement trace ids when auditing, so non-audited runs
  /// keep their exact pre-audit trace-id sequences.
  sim::AuditLog* audit = nullptr;
  /// Per-world ARQ accounting every node's link feeds (simulation is
  /// single-threaded; surfaced through RunResult).
  net::ArqStats arq_stats;
  /// Per-world data-plane accounting (zeros unless the data plane runs).
  net::DataPlaneStats data_stats;
};

/// Base of each scheme's node process: runs the shared protocol stack,
/// feeds the per-world accounting and keeps the placement claims a
/// node's coverage belief is built from.
class HarnessNode : public net::SensorNode {
 protected:
  using PosCounts = std::unordered_map<PosKey, std::uint32_t, PosKeyHash>;

  explicit HarnessNode(NodeShared& shared) : net::SensorNode(shared.node) {
    set_arq_stats(&shared.arq_stats);
    set_data_stats(&shared.data_stats);
  }

  /// (position, multiplicity) of every device this node believes covers
  /// its points: itself, each heard neighbor `counts` accepts, and the
  /// surplus of its own deployments (their HELLO may still be in flight)
  /// and of the placement notices over the neighbors heard at each
  /// position. Multiplicity matters — k-coverage routinely stacks several
  /// sensors on one point — so devices are counted per entity, never
  /// deduped by position.
  std::vector<std::pair<geom::Point2, std::uint32_t>> believed_devices(
      const std::function<bool(geom::Point2)>& counts) const;

  /// Replacements this node deployed, per position.
  PosCounts my_placements_;
  /// Placement announcements from beyond this node's own area, per
  /// position (one per message, multiplicity preserved).
  PosCounts notices_;
};

class ProtocolHarness {
 public:
  virtual ~ProtocolHarness();

  ProtocolHarness(const ProtocolHarness&) = delete;
  ProtocolHarness& operator=(const ProtocolHarness&) = delete;

  sim::World& world() noexcept { return *world_; }
  coverage::CoverageMap& map() noexcept { return *map_; }
  /// The convergence timeline (empty unless cfg.timeline_interval > 0).
  sim::Timeline& timeline() noexcept { return timeline_; }
  /// The field recorder, or nullptr when field recording is off.
  coverage::FieldRecorder* field() noexcept { return field_.get(); }
  /// The placement audit log (empty unless cfg.audit / cfg.audit_jsonl).
  sim::AuditLog& audit() noexcept { return audit_; }
  /// The telemetry bus every producer of this harness publishes on.
  common::TelemetryBus& telemetry() noexcept { return bus_; }
  /// The periodic metrics snapshotter (inactive unless configured).
  sim::MetricsSnapshotter& metrics_snapshotter() noexcept {
    return metrics_snap_;
  }
  /// The fault injector, or nullptr when cfg.fault_plan is empty.
  sim::FaultInjector* injector() noexcept { return injector_.get(); }
  /// The invariant monitor (inactive unless cfg.invariant_interval > 0).
  sim::InvariantMonitor& monitor() noexcept { return monitor_; }

  /// Spawns a scheme node at `pos` (initial deployment and replacements);
  /// keeps the ground-truth map in sync.
  std::uint32_t spawn_node(geom::Point2 pos);

  /// Kills a node and removes its coverage (failure injection).
  void kill_node(std::uint32_t id);

  /// Reboots a dead node in place with a fresh protocol process
  /// (amnesia); restores its coverage disc. No-op on an alive node.
  void reboot_node(std::uint32_t id);

  /// Chaos: at simulated time `at`, kills `count` uniformly random alive
  /// nodes (ground-truth map kept in sync, unlike raw World::kill).
  void schedule_random_kills(double at, std::size_t count);

  /// Runs until full k-coverage or cfg.run_time; callable repeatedly
  /// (failure injection between calls resumes the protocol).
  RunResult run();

 protected:
  /// Ground-truth progress of one run(), for the stall watchdog.
  struct Progress {
    std::size_t last_covered = 0;
    double last_progress = 0.0;
  };

  /// Builds the world (radio range `range`), the telemetry bus and its
  /// sinks, the coverage map and the recorders. `scheme` names the
  /// scheme in flight bundles and protocol counters.
  ProtocolHarness(RunConfig&& cfg, double range, const char* scheme);

  /// Finishes construction once the scheme's node-shared state exists:
  /// fills its scheme-independent part, arms the fault plan and
  /// registers the invariants. A scheme constructor calls it last.
  void init(NodeShared& shared);

  /// Scheme hooks. make_node() runs per spawn/reboot, the others per
  /// invariant pass, timeline sample or 0.5 s poll.
  virtual std::unique_ptr<sim::NodeProcess> make_node() = 0;
  /// Registers scheme invariants after coverage-alive.
  virtual void add_scheme_checks() {}
  /// Fills the scheme's fields of a timeline sample.
  virtual void fill_sample(sim::TimelineSample&) {}
  /// Runs on every poll that finds the field short of full k-coverage.
  virtual void on_uncovered_poll(Progress&) {}

  void dump_flight_bundle(const std::string& reason,
                          const std::string& detail);

  RunConfig cfg_;
  /// Nodes the stall watchdog seeded; empty for a scheme without one,
  /// which then publishes no protocol.<scheme>.seeded counter.
  std::optional<std::size_t> seeded_;

 private:
  using Tick = std::function<bool()>;

  /// Runs `tick` after `delay`, then every `every` seconds while it
  /// returns true and the caller still holds the returned handle. Each
  /// firing checks the handle first, so a chain an earlier run() left
  /// queued does nothing at all.
  std::shared_ptr<Tick> start_chain(double delay, double every, Tick tick);
  void schedule_tick(double delay, double every, std::weak_ptr<Tick> tick);

  sim::TimelineSample sample_timeline();
  void register_invariants();
  /// ARQ frames still pending on alive links.
  std::uint64_t arq_in_flight();

  const char* scheme_;
  double range_;
  /// Declared before the producers so sinks outlive nothing that
  /// publishes into them (producers detach their file sinks themselves;
  /// destruction order only matters for the bus-owned extra sinks).
  common::TelemetryBus bus_;
  /// Bus-owned live stream sink, retained to surface its whole-frame
  /// drop count (TCP backpressure) as telemetry.dropped_frames.
  common::FrameStreamSink* telemetry_sink_ = nullptr;
  std::uint64_t telemetry_dropped_reported_ = 0;
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<coverage::CoverageMap> map_;
  NodeShared* shared_ = nullptr;
  sim::Timeline timeline_;
  sim::MetricsSnapshotter metrics_snap_;
  std::unique_ptr<coverage::FieldRecorder> field_;
  sim::AuditLog audit_;
  std::unique_ptr<sim::FaultInjector> injector_;
  sim::InvariantMonitor monitor_;
  std::vector<geom::Point2> placements_;
  std::size_t initial_nodes_ = 0;
  bool initial_deployed_ = false;
};

/// OTLP span name for a trace record: radio records carry the protocol
/// message kind as "kind=<int>" in the detail, which maps onto the wire
/// vocabulary ("msg.placement"); anything else falls back to the trace
/// kind.
std::string otlp_span_name(std::string_view kind, std::string_view detail);

}  // namespace decor::core
