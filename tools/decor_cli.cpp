// decor — command-line front end to the DECOR library.
//
// Subcommands:
//   deploy        run a deployment engine and report metrics
//   restore       deploy, inject a failure, restore, report both halves
//   sim           run the event-driven protocol (grid or voronoi scheme)
//   discrepancy   compare point-set generators on star discrepancy
//   connectivity  deploy and measure communication-graph connectivity
//   lifetime      duty-cycled sleep scheduling on a k-covered network
//   peas          PEAS baseline working-set formation
//   trace report  summarize a trace JSONL dump or a run dir's trace
//   report html   render one or more run directories as one HTML file
//   watch         live TUI dashboard (run dir replay, DTLM capture, or
//                 `watch -- sim ...` to spawn and follow a live run)
//   bench diff    compare two decor.bench.v1 documents (perf gate)
//
// Common flags: --k --rs --rc --side --points --initial --seed --cell
// Run `decor <subcommand> --help` for the specifics; every flag has a
// paper-default so bare invocations work.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/options.hpp"
#include "common/profile.hpp"
#include "common/provenance.hpp"
#include "common/require.hpp"
#include "common/table.hpp"
#include "coverage/area_estimate.hpp"
#include "coverage/field_recorder.hpp"
#include "decor/artifacts.hpp"
#include "decor/bench_diff.hpp"
#include "decor/decor.hpp"
#include "decor/explain.hpp"
#include "decor/run_report.hpp"
#include "decor/voronoi_sim.hpp"
#include "decor/watch.hpp"
#include "graph/comm_graph.hpp"
#include "graph/connectivity.hpp"
#include "graph/vertex_connectivity.hpp"
#include "decor/sleep_scheduling.hpp"
#include "lds/discrepancy.hpp"
#include "lds/hammersley.hpp"
#include "net/messages.hpp"
#include "net/peas.hpp"
#include "sim/fault.hpp"
#include "sim/propagation.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace decor;

/// Ordered key/value report each subcommand fills; with --json it is
/// serialized as {"schema":"decor.cli.v1","command":...,"report":{...},
/// "metrics":{...}} (keys in insertion order, metrics snapshot appended).
class CliReport {
 public:
  void add(std::string key, double v) {
    entries_.push_back({std::move(key), Kind::kNum, v, 0, "", false});
  }
  void add(std::string key, std::uint64_t v) {
    entries_.push_back({std::move(key), Kind::kUint, 0.0, v, "", false});
  }
  void add(std::string key, bool v) {
    entries_.push_back({std::move(key), Kind::kBool, 0.0, 0, "", v});
  }
  void add(std::string key, std::string v) {
    entries_.push_back(
        {std::move(key), Kind::kStr, 0.0, 0, std::move(v), false});
  }

  bool write(const std::string& path, const std::string& command) const {
    std::ostringstream out;
    common::JsonWriter w(out);
    w.begin_object();
    w.key("schema");
    w.value("decor.cli.v1");
    w.key("command");
    w.value(command);
    w.key("meta");
    common::write_provenance(w);
    w.key("report");
    w.begin_object();
    for (const auto& e : entries_) {
      w.key(e.key);
      switch (e.kind) {
        case Kind::kNum:
          w.value(e.num);
          break;
        case Kind::kUint:
          w.value(e.uint);
          break;
        case Kind::kStr:
          w.value(e.str);
          break;
        case Kind::kBool:
          w.value(e.b);
          break;
      }
    }
    w.end_object();
    w.key("metrics");
    common::metrics().write_json(w);
    w.end_object();
    std::ofstream f(path);
    if (!f.is_open()) {
      std::cerr << "error: cannot write " << path << "\n";
      return false;
    }
    f << out.str() << "\n";
    std::cout << "json report: " << path << "\n";
    return true;
  }

 private:
  enum class Kind { kNum, kUint, kStr, kBool };
  struct Entry {
    std::string key;
    Kind kind;
    double num;
    std::uint64_t uint;
    std::string str;
    bool b;
  };
  std::vector<Entry> entries_;
};

/// The flags each subcommand reads, besides --json and --help, which
/// every subcommand accepts. `watch` is absent: it checks its own flags,
/// since everything after its "--" belongs to the child command.
const std::map<std::string, std::vector<std::string>>& subcommand_flags() {
  static const auto table = [] {
    // params_from()
    const std::vector<std::string> params = {"side", "k",      "rs",
                                             "rc",   "cell",   "points",
                                             "point-kind"};
    const auto with_params = [&](std::vector<std::string> flags) {
      flags.insert(flags.end(), params.begin(), params.end());
      return flags;
    };
    return std::map<std::string, std::vector<std::string>>{
        {"deploy", with_params({"scheme", "seed", "initial", "map", "dump",
                                "field-jsonl", "field-raster",
                                "field-every"})},
        {"restore",
         with_params({"scheme", "seed", "initial", "failure", "fraction",
                      "radius", "field-jsonl", "field-raster",
                      "field-every"})},
        {"sim",
         with_params({"scheme", "seed", "initial", "run-time", "trace",
                      "trace-cap", "trace-jsonl", "trace-perfetto",
                      "timeline", "timeline-jsonl", "timeline-arq",
                      "flight-dir", "field", "field-jsonl", "field-raster",
                      "audit", "audit-jsonl", "metrics", "metrics-jsonl",
                      "telemetry", "otlp", "profile", "loss", "burst",
                      "kill-leader-at", "fault-plan", "invariants", "window",
                      "load", "bitrate", "linger"})},
        {"discrepancy", {"n", "seed"}},
        {"lifetime",
         with_params({"scheme", "seed", "initial", "battery", "epochs"})},
        {"peas",
         with_params({"seed", "initial", "rp", "mean-sleep", "run-time"})},
        {"connectivity", with_params({"scheme", "seed", "initial", "kappa"})},
        {"trace", {"in", "top"}},
        {"explain", {"top", "out"}},
        {"report", {"out", "max-heatmaps", "max-audit-rows"}},
        {"bench", {"fail-over"}},
    };
  }();
  return table;
}

/// The values an enumerated flag accepts (empty for a free-form flag).
std::vector<std::string> flag_choices(const std::string& cmd,
                                      const std::string& flag) {
  if (flag == "scheme") {
    if (cmd == "sim") return {"grid", "voronoi"};
    return {"centralized", "random", "grid", "voronoi"};
  }
  if (flag == "failure") return {"area", "random"};
  if (flag == "point-kind") {
    return {"halton", "hammersley", "random", "jittered"};
  }
  for (const char* b : {"map", "dump", "trace", "audit", "timeline-arq",
                        "profile", "kappa", "plain"}) {
    if (flag == b) return {"true", "false", "1", "0", "yes", "no"};
  }
  return {};
}

/// Declares `known` (plus --json and --help) on `opts` and throws
/// std::invalid_argument, naming the flag, for an undeclared flag or a
/// value an enumerated flag does not accept.
void check_flags(const std::string& cmd, common::Options& opts,
                 std::vector<std::string> known) {
  known.insert(known.end(), {"json", "help"});
  const std::string unknown = opts.declare(known);
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag --" + unknown + " for " + cmd);
  }
  for (const auto& flag : known) {
    const auto choices = flag_choices(cmd, flag);
    if (choices.empty() || !opts.has(flag)) continue;
    const std::string value = opts.get(flag, "");
    if (std::find(choices.begin(), choices.end(), value) != choices.end()) {
      continue;
    }
    std::string expected;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i > 0) expected += i + 1 == choices.size() ? " or " : ", ";
      expected += choices[i];
    }
    throw std::invalid_argument("unknown --" + flag + "=" + value + " for " +
                                cmd + " (expected " + expected + ")");
  }
}

core::DecorParams params_from(const common::Options& opts) {
  core::DecorParams p;
  const double side = opts.get_double("side", 100.0);
  p.field = geom::make_rect(0, 0, side, side);
  p.k = static_cast<std::uint32_t>(opts.get_int("k", 3));
  p.rs = opts.get_double("rs", 4.0);
  p.rc = opts.get_double("rc", 2.0 * p.rs);
  p.cell_side = opts.get_double("cell", 5.0);
  p.num_points = static_cast<std::size_t>(opts.get_int("points", 2000));
  const std::string kind = opts.get("point-kind", "halton");
  if (kind == "hammersley") p.point_kind = core::PointKind::kHammersley;
  if (kind == "random") p.point_kind = core::PointKind::kRandom;
  if (kind == "jittered") p.point_kind = core::PointKind::kJittered;
  return p;
}

core::Scheme scheme_from(const common::Options& opts) {
  const std::string s = opts.get("scheme", "grid");
  for (const auto scheme : {core::Scheme::kCentralized, core::Scheme::kRandom,
                            core::Scheme::kGrid, core::Scheme::kVoronoi}) {
    if (s == core::to_string(scheme)) return scheme;
  }
  throw std::invalid_argument(
      "unknown --scheme=" + s +
      " (expected centralized, random, grid or voronoi)");
}

void report_deployment(const core::Field& field,
                       const core::DeploymentResult& result,
                       std::uint32_t k, CliReport& rep,
                       const std::string& prefix = "") {
  const auto metrics = coverage::compute_metrics(field.map, k + 1);
  const auto redundancy =
      coverage::find_redundant(field.map, field.sensors, k);
  std::cout << "placed " << result.placed_nodes << " nodes ("
            << result.total_nodes() << " total) in " << result.rounds
            << " round(s); " << result.messages << " messages; "
            << (result.reached_full_coverage ? "full" : "PARTIAL")
            << " coverage\n"
            << coverage::summarize(metrics, k) << "; redundant nodes: "
            << redundancy.redundant_ids.size() << " ("
            << static_cast<int>(redundancy.fraction() * 100) << "%)\n";
  rep.add(prefix + "placed_nodes",
          static_cast<std::uint64_t>(result.placed_nodes));
  rep.add(prefix + "total_nodes",
          static_cast<std::uint64_t>(result.total_nodes()));
  rep.add(prefix + "rounds", static_cast<std::uint64_t>(result.rounds));
  rep.add(prefix + "messages",
          static_cast<std::uint64_t>(result.messages));
  rep.add(prefix + "full_coverage", result.reached_full_coverage);
  rep.add(prefix + "redundant_nodes",
          static_cast<std::uint64_t>(redundancy.redundant_ids.size()));
  rep.add(prefix + "covered_fraction", field.map.fraction_covered(k));
}

/// --field-jsonl for the offline engines: a FieldRecorder over the field
/// whose snapshots the EngineLimits::on_place hook takes every
/// --field-every placements. `t` in the emitted decor.field.v1 lines is
/// the placement count, not simulated time (the engines run outside the
/// event clock).
std::unique_ptr<coverage::FieldRecorder> make_field_recorder(
    const common::Options& opts, const core::DecorParams& params) {
  const std::string path = opts.get("field-jsonl", "");
  if (path.empty()) return nullptr;
  const auto raster =
      static_cast<std::size_t>(opts.get_int("field-raster", 0));
  const std::size_t side =
      raster > 0 ? raster
                 : coverage::FieldRecorder::default_raster(params.field,
                                                           params.rs);
  auto rec = std::make_unique<coverage::FieldRecorder>(params.field,
                                                       params.k, side, side);
  DECOR_REQUIRE_MSG(rec->open_jsonl(path),
                    "cannot write field jsonl: " + path);
  return rec;
}

/// Closes the --field-jsonl sink of an offline engine run; a failed
/// write fails the command like an unopenable path does.
void close_field_jsonl(coverage::FieldRecorder& rec) {
  if (std::string failure = rec.close_jsonl(); !failure.empty()) {
    throw std::runtime_error(failure);
  }
}

core::EngineLimits field_limits(coverage::FieldRecorder* rec,
                                std::size_t every) {
  core::EngineLimits limits;
  if (rec != nullptr) {
    limits.on_place = [rec, every](std::size_t placed,
                                   const coverage::CoverageMap& map) {
      if (every <= 1 || placed % every == 0) {
        rec->snapshot(static_cast<double>(placed), map, false);
      }
    };
  }
  return limits;
}

int cmd_deploy(const common::Options& opts, CliReport& rep) {
  const auto scheme = scheme_from(opts);
  const auto params = params_from(opts);
  common::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  core::Field field(params, rng);
  field.deploy_random(
      static_cast<std::size_t>(opts.get_int("initial", 200)), rng);
  auto field_rec = make_field_recorder(opts, params);
  if (field_rec) field_rec->snapshot(0.0, field.map, false);
  const auto every =
      static_cast<std::size_t>(opts.get_int("field-every", 25));
  const auto result = core::run_engine(scheme, field, rng,
                                       field_limits(field_rec.get(), every));
  if (field_rec) {
    field_rec->snapshot(static_cast<double>(result.placed_nodes), field.map,
                        true);
    close_field_jsonl(*field_rec);
    rep.add("field_snapshots",
            static_cast<std::uint64_t>(field_rec->snapshots().size()));
  }
  rep.add("scheme", opts.get("scheme", "grid"));
  report_deployment(field, result, params.k, rep);
  if (opts.get_bool("map", false)) {
    std::cout << coverage::ascii_field(field.map, params.k) << '\n';
  }
  if (opts.get_bool("dump", false)) {
    std::cout << "x,y\n";
    field.sensors.for_each([&](const coverage::Sensor& s) {
      if (s.alive) std::cout << s.pos.x << ',' << s.pos.y << '\n';
    });
  }
  return result.reached_full_coverage ? 0 : 2;
}

int cmd_restore(const common::Options& opts, CliReport& rep) {
  const auto params = params_from(opts);
  const auto scheme = scheme_from(opts);
  common::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  core::Field field(params, rng);
  field.deploy_random(
      static_cast<std::size_t>(opts.get_int("initial", 200)), rng);
  std::cout << "== deployment ==\n";
  rep.add("scheme", opts.get("scheme", "grid"));
  report_deployment(field, core::run_engine(scheme, field, rng), params.k,
                    rep, "deploy_");

  const std::string type = opts.get("failure", "area");
  rep.add("failure", type);
  if (type == "random") {
    const double fraction = opts.get_double("fraction", 0.3);
    const auto killed = core::fail_random_fraction(field, fraction, rng);
    std::cout << "\n== failure: " << killed.size()
              << " random nodes killed ==\n";
    rep.add("killed_nodes", static_cast<std::uint64_t>(killed.size()));
  } else {
    const double radius = opts.get_double("radius", 24.0);
    const geom::Disc disc{field.params.field.center(), radius};
    const auto killed = core::fail_area(field, disc);
    std::cout << "\n== failure: disc radius " << radius << " killed "
              << killed.size() << " nodes ==\n";
    rep.add("killed_nodes", static_cast<std::uint64_t>(killed.size()));
  }
  std::cout << coverage::summarize(
                   coverage::compute_metrics(field.map, params.k + 1),
                   params.k)
            << "\n\n== restoration ==\n";
  // Field snapshots cover the restoration half: the first snapshot is the
  // post-failure deficit field, the rest trace its repair.
  auto field_rec = make_field_recorder(opts, params);
  if (field_rec) field_rec->snapshot(0.0, field.map, false);
  const auto every =
      static_cast<std::size_t>(opts.get_int("field-every", 25));
  const auto restore = core::run_engine(scheme, field, rng,
                                        field_limits(field_rec.get(), every));
  if (field_rec) {
    field_rec->snapshot(static_cast<double>(restore.placed_nodes), field.map,
                        true);
    close_field_jsonl(*field_rec);
    rep.add("field_snapshots",
            static_cast<std::uint64_t>(field_rec->snapshots().size()));
  }
  report_deployment(field, restore, params.k, rep, "restore_");
  return restore.reached_full_coverage ? 0 : 2;
}

/// Renders the buffered trace as a Perfetto-loadable trace_event file
/// with protocol-level span names; false (after a stderr line) when the
/// output file cannot be created.
bool export_perfetto(const std::string& path, const sim::Trace& trace) {
  std::ofstream f(path);
  if (!f.is_open()) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  sim::write_chrome_trace(
      trace.chronological(), f,
      [](int kind) -> std::string {
        const char* n = net::msg_kind_name(kind);
        return n ? n : "kind-" + std::to_string(kind);
      },
      net::kAck);
  std::cout << "perfetto trace: " << path << "\n";
  return true;
}

void report_timeline(const sim::Timeline& timeline, CliReport& rep) {
  const double conv = timeline.convergence_time();
  std::cout << "timeline: " << timeline.samples().size() << " samples, "
            << (conv >= 0.0
                    ? "converged at t=" + std::to_string(conv) + "s"
                    : std::string("never fully covered while sampling"))
            << "\n";
  rep.add("timeline_samples",
          static_cast<std::uint64_t>(timeline.samples().size()));
  rep.add("timeline_convergence_time", conv);
}

/// Prints and reports one protocol run of either scheme; only voronoi,
/// whose stall watchdog seeds nodes, reports seeded_nodes. Returns the
/// process exit code (2 when full coverage was not reached).
int report_sim(const std::string& scheme, core::ProtocolHarness& harness,
               const core::RunResult& r, const core::RunConfig& cfg,
               const std::string& trace_perfetto, CliReport& rep) {
  const bool voronoi = scheme == "voronoi";
  std::cout << (voronoi ? "voronoi" : "grid") << " sim: placed "
            << r.placed_nodes;
  if (voronoi) std::cout << " (+" << r.seeded_nodes << " seeded)";
  std::cout << ", covered=" << (r.reached_full_coverage ? "yes" : "no")
            << " at t=" << r.finish_time << "s, radio tx=" << r.radio_tx
            << ", arq retx=" << r.arq.retx << "\n";
  rep.add("placed_nodes", static_cast<std::uint64_t>(r.placed_nodes));
  if (voronoi) {
    rep.add("seeded_nodes", static_cast<std::uint64_t>(r.seeded_nodes));
  }
  rep.add("full_coverage", r.reached_full_coverage);
  rep.add("finish_time", r.finish_time);
  rep.add("end_time", r.end_time);
  rep.add("radio_tx", r.radio_tx);
  rep.add("radio_rx", r.radio_rx);
  rep.add("arq_sent", r.arq.sent);
  rep.add("arq_best_effort", r.arq.best_effort);
  rep.add("arq_retx", r.arq.retx);
  rep.add("arq_gave_up", r.arq.gave_up);
  if (cfg.data_plane.enabled) {
    rep.add("readings_delivered", r.data.readings_delivered);
    rep.add("readings_originated", r.data.readings_originated);
    rep.add("goodput_bytes_per_s",
            r.end_time > 0.0
                ? static_cast<double>(r.data.bytes_delivered) / r.end_time
                : 0.0);
  }
  if (!cfg.fault_plan.empty()) {
    rep.add("faults_fired", r.faults_fired);
    rep.add("radio_corrupted", r.radio_corrupted);
    rep.add("radio_partition_blocked", r.radio_partition_blocked);
  }
  if (cfg.invariant_interval > 0.0) {
    rep.add("invariant_checks", r.invariant_checks);
    rep.add("invariant_violations", r.invariant_violations);
  }
  if (cfg.timeline_interval > 0.0) report_timeline(harness.timeline(), rep);
  if (harness.field() != nullptr) {
    rep.add("field_snapshots", static_cast<std::uint64_t>(
                                   harness.field()->snapshots().size()));
  }
  if (cfg.audit || !cfg.audit_jsonl.empty()) {
    rep.add("audit_records", static_cast<std::uint64_t>(
                                 harness.audit().records().size()));
  }
  if (cfg.metrics_interval > 0.0 || !cfg.metrics_jsonl.empty()) {
    rep.add("metrics_snapshots",
            harness.metrics_snapshotter().snapshots_taken());
  }
  if (!cfg.telemetry_stream.empty() || !cfg.otlp.empty()) {
    rep.add("telemetry_events", harness.telemetry().events_published());
  }
  if (!trace_perfetto.empty() &&
      !export_perfetto(trace_perfetto, harness.world().trace())) {
    return 1;
  }
  return r.reached_full_coverage ? 0 : 2;
}

int cmd_sim(const common::Options& opts, CliReport& rep) {
  const std::string s = opts.get("scheme", "grid");
  core::RunConfig cfg;
  cfg.params = params_from(opts);
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  common::Rng rng(cfg.seed);
  cfg.initial_positions = lds::random_points(
      cfg.params.field, static_cast<std::size_t>(opts.get_int("initial", 20)),
      rng);
  cfg.run_time = opts.get_double("run-time", 300.0);
  // Trace plumbing shared by both schemes: --trace records protocol
  // events in memory (bounded by --trace-cap), --trace-jsonl streams
  // every record to a file, --trace-perfetto renders the buffer as a
  // Perfetto/chrome://tracing file after the run (implies --trace).
  const std::string trace_perfetto = opts.get("trace-perfetto", "");
  cfg.trace = opts.get_bool("trace", false) || !trace_perfetto.empty();
  cfg.trace_capacity = static_cast<std::size_t>(opts.get_int("trace-cap", 0));
  cfg.trace_jsonl = opts.get("trace-jsonl", "");
  // Observability: --timeline=T samples the convergence timeline every T
  // sim-seconds (--timeline-jsonl streams it), --flight-dir arms the
  // flight recorder, --profile turns on the wall-clock scope timers.
  cfg.timeline_interval = opts.get_double("timeline", 0.0);
  cfg.timeline_jsonl = opts.get("timeline-jsonl", "");
  cfg.flight_dir = opts.get("flight-dir", "");
  // Spatial observability: --field=T snapshots the k-deficit raster every
  // T sim-seconds (--field-jsonl streams decor.field.v1, --field-raster
  // overrides the cell count), --audit-jsonl streams every placement
  // decision as decor.audit.v1 (--audit records them in memory only).
  cfg.field_interval = opts.get_double("field", 0.0);
  cfg.field_jsonl = opts.get("field-jsonl", "");
  cfg.field_raster = static_cast<std::size_t>(opts.get_int("field-raster", 0));
  cfg.audit = opts.get_bool("audit", false);
  cfg.audit_jsonl = opts.get("audit-jsonl", "");
  // Streaming telemetry: --metrics[=T] snapshots the metrics registry
  // every T sim-seconds as decor.metrics.v1 (--metrics-jsonl streams it
  // and, alone, rides the timeline cadence), --telemetry frames the
  // live streams as DTLM records to "-"/path/tcp:HOST:PORT (what
  // `decor watch` consumes), --otlp exports spans + metrics as an
  // OTLP/JSON document (file path or http://host:port; implies
  // --trace), --timeline-arq adds cumulative ARQ sent/retx counters to
  // every timeline sample.
  cfg.metrics_interval = opts.get_double("metrics", 0.0);
  cfg.metrics_jsonl = opts.get("metrics-jsonl", "");
  if (cfg.metrics_interval <= 0.0 && opts.has("metrics")) {
    cfg.metrics_interval =
        cfg.timeline_interval > 0.0 ? cfg.timeline_interval : 1.0;
  }
  cfg.telemetry_stream = opts.get("telemetry", "");
  cfg.otlp = opts.get("otlp", "");
  cfg.timeline_arq = opts.get_bool("timeline-arq", false);
  // Snapshots sample the global registry, so asking for them turns the
  // registry on even without --json (which enables it in main()).
  if ((cfg.metrics_interval > 0.0 || !cfg.metrics_jsonl.empty()) &&
      !common::metrics_enabled()) {
    common::metrics().reset();
    common::metrics().enable(true);
  }
  if (opts.get_bool("profile", false)) common::set_profiling_enabled(true);
  // Chaos knobs: --loss (frame loss probability), --burst (mean loss-run
  // length; > 1 switches from i.i.d. loss to a Gilbert–Elliott bursty
  // channel), --kill-leader-at (grid only: kill the acting cell leader at
  // that simulated time).
  const double loss = opts.get_double("loss", 0.0);
  const double burst = opts.get_double("burst", 0.0);
  if (burst > 1.0) {
    cfg.radio.propagation = std::make_shared<sim::GilbertElliottModel>(
        sim::GilbertElliottModel::from_loss_and_burst(loss, burst));
  } else {
    cfg.radio.loss_prob = loss;
  }
  const double kill_leader_at = opts.get_double("kill-leader-at", -1.0);
  // Fault campaigns: --fault-plan=FILE arms a decor.faults.v1 plan
  // (reboots, partitions, frame corruption, sink outages) on the run;
  // --invariants=T samples the live safety checks every T sim-seconds
  // (plain --invariants selects the 0.5s default cadence).
  const std::string fault_plan_path = opts.get("fault-plan", "");
  if (!fault_plan_path.empty()) {
    std::string error;
    auto plan = sim::FaultPlan::load(fault_plan_path, &error);
    if (!plan) {
      std::cerr << "error: cannot load fault plan '" << fault_plan_path
                << "': " << error << "\n";
      return 1;
    }
    cfg.fault_plan = std::move(*plan);
  }
  cfg.invariant_interval = opts.get_double("invariants", 0.0);
  if (cfg.invariant_interval <= 0.0 && opts.has("invariants")) {
    cfg.invariant_interval = 0.5;
  }
  // Transport + data-plane knobs: --window sets the ARQ sliding-window
  // size (1 = historical stop-and-wait), --load > 0 enables the sensing
  // workload at that many readings/s per node, streamed to the base
  // station (node 0); --bitrate models airtime so concurrent frames can
  // collide (0 = infinitely fast channel, the historical default).
  cfg.arq.window = static_cast<std::uint32_t>(opts.get_int("window", 1));
  const double load = opts.get_double("load", 0.0);
  if (load > 0.0) {
    cfg.data_plane.enabled = true;
    cfg.data_plane.reading_interval = 1.0 / load;
  }
  cfg.radio.bitrate_bps = opts.get_double("bitrate", 0.0);
  // --linger keeps the sim alive that many seconds past convergence so
  // data-plane goodput is measured over a fixed horizon.
  cfg.linger_after_coverage = opts.get_double("linger", 0.0);
  rep.add("scheme", s);
  rep.add("loss", loss);
  rep.add("burst", burst);
  rep.add("window", static_cast<std::uint64_t>(cfg.arq.window));
  rep.add("load", load);
  if (s == "voronoi") {
    if (kill_leader_at >= 0.0) {
      std::cerr << "warning: --kill-leader-at ignored (the voronoi "
                   "scheme is leaderless)\n";
    }
    core::VoronoiSimConfig vcfg;
    static_cast<core::RunConfig&>(vcfg) = cfg;
    core::VoronoiSimHarness harness(std::move(vcfg));
    return report_sim(s, harness, harness.run(), cfg, trace_perfetto, rep);
  }
  core::SimRunConfig gcfg;
  static_cast<core::RunConfig&>(gcfg) = cfg;
  core::GridSimHarness harness(std::move(gcfg));
  if (kill_leader_at >= 0.0) harness.schedule_leader_kill(kill_leader_at);
  return report_sim(s, harness, harness.run(), cfg, trace_perfetto, rep);
}

/// Shell-quotes one token for the `decor watch -- sim ...` popen line.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

/// `decor watch` — live TUI dashboard over the telemetry streams.
///
///   decor watch RUN_DIR          replay a completed run directory
///   decor watch CAPTURE|-        follow a DTLM capture file / stdin
///   decor watch [opts] -- sim …  spawn the sim with --telemetry=- and
///                                follow it live
///
/// Takes argc/argv directly (not Options) because everything after the
/// bare "--" is the child command, not watch flags.
int cmd_watch(int argc, char** argv, CliReport& rep) {
  int sep = argc;
  for (int i = 2; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--") {
      sep = i;
      break;
    }
  }
  common::Options opts(sep - 1, argv + 1);
  check_flags("watch", opts, {"cols", "rows", "frames", "out", "plain"});
  core::WatchOptions wopts;
  wopts.cols = static_cast<std::size_t>(opts.get_int("cols", 72));
  wopts.rows = static_cast<std::size_t>(opts.get_int("rows", 20));
  wopts.max_frames = static_cast<std::size_t>(opts.get_int("frames", 0));
  const std::string out_path = opts.get("out", "");
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::binary | std::ios::trunc);
    if (!out_file.is_open()) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    out = &out_file;
  }
  // ANSI clear-screen frames only on an interactive terminal; files and
  // pipes get deterministic form-feed-separated frames (--plain forces
  // that on a terminal too, for byte-compare smokes).
  wopts.ansi = out_path.empty() && !opts.get_bool("plain", false) &&
               ::isatty(1) != 0;

  std::size_t frames = 0;
  if (sep < argc) {
    // Live mode: re-invoke this binary with the child args, a DTLM
    // stream on stdout, and dashboard-friendly cadences unless the
    // caller already picked them.
    std::string cmd = shell_quote(argv[0]);
    bool has_timeline = false;
    bool has_field = false;
    for (int i = sep + 1; i < argc; ++i) {
      const std::string_view a = argv[i];
      if (a.rfind("--timeline", 0) == 0) has_timeline = true;
      if (a.rfind("--field", 0) == 0) has_field = true;
      cmd += ' ';
      cmd += shell_quote(argv[i]);
    }
    if (!has_timeline) cmd += " --timeline=0.5";
    if (!has_field) cmd += " --field=1";
    cmd += " --telemetry=-";
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      std::cerr << "error: cannot spawn: " << cmd << "\n";
      return 1;
    }
    frames = core::watch_follow(pipe, wopts, *out);
    const int status = ::pclose(pipe);
    // A child that ran out of sim time (exit 2) or died of EPIPE after
    // --frames stopped the reader is not a watch failure; report it.
    rep.add("child_status", static_cast<std::uint64_t>(
                                status < 0 ? 0 : static_cast<unsigned>(
                                                     status)));
  } else {
    const auto& pos = opts.positional();
    const std::string target = pos.empty() ? std::string() : pos.front();
    if (target.empty()) {
      std::cerr << "usage: decor watch RUN_DIR | decor watch CAPTURE|- | "
                   "decor watch [opts] -- sim ...\n";
      return 1;
    }
    if (target == "-") {
      frames = core::watch_follow(stdin, wopts, *out);
    } else if (std::filesystem::is_directory(target)) {
      frames = core::watch_replay_dir(target, wopts, *out);
    } else {
      std::FILE* f = std::fopen(target.c_str(), "rb");
      if (f == nullptr) {
        std::cerr << "error: cannot open " << target << "\n";
        return 1;
      }
      frames = core::watch_follow(f, wopts, *out);
      std::fclose(f);
    }
  }
  rep.add("watch_frames", static_cast<std::uint64_t>(frames));
  if (!out_path.empty()) {
    std::cout << "watch frames: " << frames << " -> " << out_path << "\n";
  }
  return 0;
}

int cmd_discrepancy(const common::Options& opts, CliReport& rep) {
  const auto n = static_cast<std::size_t>(opts.get_int("n", 2000));
  const geom::Rect unit = geom::make_rect(0, 0, 1, 1);
  common::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  const double d_halton =
      lds::star_discrepancy(lds::halton_points(unit, n), unit);
  const double d_ham =
      lds::star_discrepancy(lds::hammersley_points(unit, n), unit);
  const double d_jit =
      lds::star_discrepancy(lds::jittered_points(unit, n, rng), unit);
  const double d_rand =
      lds::star_discrepancy(lds::random_points(unit, n, rng), unit);
  common::Table table({"generator", "star discrepancy"});
  table.add_row({"halton", std::to_string(d_halton)});
  table.add_row({"hammersley", std::to_string(d_ham)});
  table.add_row({"jittered", std::to_string(d_jit)});
  table.add_row({"random", std::to_string(d_rand)});
  std::cout << "N = " << n << "\n" << table.to_text();
  rep.add("n", static_cast<std::uint64_t>(n));
  rep.add("halton", d_halton);
  rep.add("hammersley", d_ham);
  rep.add("jittered", d_jit);
  rep.add("random", d_rand);
  return 0;
}

int cmd_lifetime(const common::Options& opts, CliReport& rep) {
  const auto params = params_from(opts);
  common::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  core::Field field(params, rng);
  field.deploy_random(
      static_cast<std::size_t>(opts.get_int("initial", 100)), rng);
  const auto deploy = core::run_engine(scheme_from(opts), field, rng);
  const double battery = opts.get_double("battery", 100.0);
  const auto max_epochs =
      static_cast<std::size_t>(opts.get_int("epochs", 100000));
  const auto nodes = field.sensors.alive_count();
  const auto result = core::simulate_lifetime(field, battery, max_epochs);
  std::cout << "deployment: " << nodes << " nodes ("
            << (deploy.reached_full_coverage ? "full" : "partial") << " "
            << params.k << "-coverage)\n"
            << "lifetime: " << result.epochs << " epochs"
            << (result.hit_epoch_limit ? " (limit reached)" : "")
            << ", mean awake set " << result.mean_awake << " nodes ("
            << 100.0 * result.mean_awake / static_cast<double>(nodes)
            << "% of the network)\n";
  rep.add("nodes", static_cast<std::uint64_t>(nodes));
  rep.add("full_coverage", deploy.reached_full_coverage);
  rep.add("epochs", static_cast<std::uint64_t>(result.epochs));
  rep.add("hit_epoch_limit", result.hit_epoch_limit);
  rep.add("mean_awake", result.mean_awake);
  return 0;
}

int cmd_peas(const common::Options& opts, CliReport& rep) {
  const auto params = params_from(opts);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  common::Rng rng(seed);
  net::PeasParams pp;
  pp.probing_range = opts.get_double("rp", params.rs);
  pp.mean_sleep = opts.get_double("mean-sleep", 5.0);
  pp.rc = params.rc;
  sim::World world(params.field, sim::RadioParams{}, seed);
  const auto n = static_cast<std::size_t>(opts.get_int("initial", 200));
  std::vector<std::uint32_t> ids;
  for (const auto& pos : lds::random_points(params.field, n, rng)) {
    ids.push_back(world.spawn(pos, std::make_unique<net::PeasNode>(pp)));
  }
  world.sim().run_until(opts.get_double("run-time", 150.0));
  std::size_t workers = 0;
  coverage::CoverageMap awake(params.field,
                              core::make_points(params, rng), params.rs);
  for (auto id : ids) {
    if (world.node_as<net::PeasNode>(id).working()) {
      ++workers;
      awake.add_disc(world.position(id));
    }
  }
  std::cout << "PEAS: " << workers << "/" << n << " nodes working ("
            << 100.0 * static_cast<double>(workers) /
                   static_cast<double>(n)
            << "%), working-set 1-coverage "
            << 100.0 * awake.fraction_covered(1) << "% of the points\n";
  rep.add("deployed_nodes", static_cast<std::uint64_t>(n));
  rep.add("working_nodes", static_cast<std::uint64_t>(workers));
  rep.add("working_coverage_fraction", awake.fraction_covered(1));
  return 0;
}

int cmd_connectivity(const common::Options& opts, CliReport& rep) {
  const auto params = params_from(opts);
  common::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  core::Field field(params, rng);
  field.deploy_random(
      static_cast<std::size_t>(opts.get_int("initial", 50)), rng);
  const auto result = core::run_engine(scheme_from(opts), field, rng);
  const auto g = graph::build_comm_graph(field.sensors, params.rc);
  std::cout << "deployment: " << result.total_nodes() << " nodes, "
            << (result.reached_full_coverage ? "full" : "partial") << " "
            << params.k << "-coverage\n"
            << "graph at rc=" << params.rc << ": " << g.num_edges()
            << " links, " << graph::num_components(g) << " component(s), "
            << "min degree " << graph::min_degree(g) << "\n";
  rep.add("total_nodes", static_cast<std::uint64_t>(result.total_nodes()));
  rep.add("full_coverage", result.reached_full_coverage);
  rep.add("edges", static_cast<std::uint64_t>(g.num_edges()));
  rep.add("components", static_cast<std::uint64_t>(graph::num_components(g)));
  rep.add("min_degree", static_cast<std::uint64_t>(graph::min_degree(g)));
  if (opts.get_bool("kappa", true)) {
    const auto kappa = graph::vertex_connectivity(g);
    std::cout << "vertex connectivity kappa = " << kappa
              << " (paper corollary "
              << (params.rc >= 2.0 * params.rs ? "applies: expect >= k"
                                               : "does not apply")
              << ")\n";
    rep.add("kappa", static_cast<std::uint64_t>(kappa));
  }
  return 0;
}

/// `decor trace report <dump>` — reconstructs protocol-level statistics
/// (per-kind send counts, retransmit ratio, convergence time, slowest
/// exchanges) from a trace JSONL dump alone (--trace-jsonl or a flight
/// bundle's trace.jsonl). A run directory is also accepted: the shared
/// artifact loader classifies its files and the trace artifact is
/// reported. Perfetto exports are output only and are refused here.
int cmd_trace_report(const common::Options& opts, CliReport& rep) {
  std::string path = opts.get("in", "");
  const auto& pos = opts.positional();
  // Options drops the subcommand itself ("trace"), so positional()[0] is
  // "report" and [1] the dump path.
  if (path.empty() && pos.size() >= 2) path = pos[1];
  if (path.empty()) {
    std::cerr << "usage: decor trace report <dump.jsonl|run-dir> [--top=N]\n";
    return 1;
  }
  core::TraceIndex index;
  std::error_code dir_ec;
  if (std::filesystem::is_directory(path, dir_ec)) {
    auto artifacts = core::load_run_artifacts(path, "trace report");
    const auto trace = std::find_if(
        artifacts.begin(), artifacts.end(),
        [](const core::Artifact& a) { return a.kind == "trace"; });
    if (trace == artifacts.end()) {
      std::cerr << "error: " << path << " holds no trace artifact\n";
      return 1;
    }
    path = (std::filesystem::path(path) / trace->rel).string();
    index = std::move(trace->trace);
  } else {
    std::ifstream f(path, std::ios::binary);
    if (!f.is_open()) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    std::string text = std::move(buf).str();
    if (text.substr(0, text.find('\n')).find("\"traceEvents\"") !=
        std::string::npos) {
      std::cerr << "error: " << path
                << " is a Perfetto export; decor trace report reads trace "
                   "JSONL (--trace-jsonl, a flight bundle's trace.jsonl or "
                   "a run dir)\n";
      return 1;
    }
    index = core::TraceIndex(std::move(text));
  }

  struct Span {
    double first_t = 0.0;
    double last_t = 0.0;
    std::uint64_t origin = 0;
    bool started = false;      // saw any record (anchors first_t)
    bool have_origin = false;  // saw the originating tx
    std::string name;
    std::uint64_t retransmits = 0;
    bool acked = false;  // saw an ack leg: evidence the exchange was ARQed
  };
  std::map<std::uint64_t, Span> spans;
  std::map<std::string, std::uint64_t> kind_counts;
  std::uint64_t records = 0, retransmits = 0, acks = 0, drops = 0;
  const std::uint64_t malformed = index.malformed();
  double convergence = -1.0;

  // A trace dump survives crashes and kills, so its tail can hold a
  // truncated or garbled line: the index skips and counts it, never
  // fatal. Lines without a string "kind" (foreign records) are ignored.
  for (const auto& r : index.records()) {
    if (r.kind == core::TraceRecordKind::kNone) continue;
    ++records;
    const std::string_view detail = index.detail(r);
    if (r.kind == core::TraceRecordKind::kProtocol) {
      if (detail == "converged" && convergence < 0.0) convergence = r.t;
      continue;
    }
    if (r.trace == 0) continue;  // pre-causality or unstamped record
    auto& s = spans[r.trace];
    if (!s.started) {
      s.started = true;
      s.first_t = r.t;
      s.last_t = r.t;
    }
    s.last_t = std::max(s.last_t, r.t);
    if (r.kind == core::TraceRecordKind::kDrop) ++drops;
    if (r.kind != core::TraceRecordKind::kTx) continue;
    const int mk = sim::parse_detail_kind(detail);
    if (mk == net::kAck) {
      ++acks;
      s.acked = true;
      continue;
    }
    if (!s.have_origin) {
      s.have_origin = true;
      s.origin = r.node;
      const char* n = net::msg_kind_name(mk);
      s.name = n ? n : "kind-" + std::to_string(mk);
      ++kind_counts[s.name];
    } else if (r.node == s.origin) {
      // Same frame leaving the origin again: an ARQ retransmission.
      ++s.retransmits;
      ++retransmits;
    }
  }
  // A dump with zero parseable records is a *warning*, not an error: a
  // crashed run can legitimately leave an empty or fully-truncated file
  // behind, and the report should say so rather than refuse to exist.
  // (An unopenable path stays a hard error above.)
  if (records == 0) {
    std::cerr << "warning: no trace records in " << path
              << (malformed > 0
                      ? " (" + std::to_string(malformed) +
                            " malformed lines skipped)"
                      : " (empty artifact)")
              << "\n";
  }

  const auto originals = static_cast<std::uint64_t>(spans.size());
  // The retransmit ratio is per *reliable* exchange: only spans that show
  // ARQ activity (an ack or a retransmission) count in the denominator.
  // Best-effort traffic (hellos, heartbeats, flood forwards, empty
  // expected-acker broadcasts) can never retransmit, so including it
  // would dilute the ratio into meaninglessness.
  std::uint64_t reliable = 0;
  for (const auto& [tid, s] : spans) {
    if (s.acked || s.retransmits > 0) ++reliable;
  }
  const double retx_ratio =
      reliable == 0
          ? 0.0
          : static_cast<double>(retransmits) / static_cast<double>(reliable);
  std::cout << "trace report: " << path << " (jsonl)\n"
            << "records: " << records << ", exchanges: " << originals
            << " (" << reliable << " reliable)\n";
  if (!kind_counts.empty()) {
    common::Table table({"kind", "originating sends"});
    for (const auto& [name, n] : kind_counts) {
      table.add_row({name, std::to_string(n)});
    }
    std::cout << table.to_text();
  }
  std::cout << "retransmits: " << retransmits << " (" << retx_ratio
            << " per reliable exchange), acks: " << acks
            << ", drops: " << drops << "\n";
  if (malformed > 0) {
    std::cout << "malformed lines skipped: " << malformed << "\n";
  }
  if (convergence >= 0.0) {
    std::cout << "convergence time: " << convergence << " s\n";
  } else {
    std::cout << "convergence: not reached within the dump\n";
  }

  // End-to-end latency per exchange: first record (the send) to the last
  // record sharing its causality id (final ack/rx/retransmit).
  std::vector<std::pair<double, std::uint64_t>> durations;
  durations.reserve(spans.size());
  for (const auto& [tid, s] : spans) {
    durations.emplace_back(s.last_t - s.first_t, tid);
  }
  std::sort(durations.begin(), durations.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const auto top =
      std::min<std::size_t>(durations.size(),
                            static_cast<std::size_t>(opts.get_int("top", 5)));
  if (top > 0) {
    std::cout << "slowest exchanges:\n";
    for (std::size_t i = 0; i < top; ++i) {
      const auto& s = spans[durations[i].second];
      std::cout << "  trace " << durations[i].second << "  "
                << (s.name.empty() ? "?" : s.name) << "  "
                << durations[i].first << " s  (" << s.retransmits
                << " retransmit" << (s.retransmits == 1 ? "" : "s")
                << ")\n";
    }
  }

  rep.add("format", std::string("jsonl"));
  rep.add("records", records);
  rep.add("malformed_lines", malformed);
  rep.add("exchanges", originals);
  rep.add("reliable_exchanges", reliable);
  rep.add("retransmits", retransmits);
  rep.add("retransmit_ratio", retx_ratio);
  rep.add("acks", acks);
  rep.add("drops", drops);
  rep.add("convergence_time", convergence);
  rep.add("max_exchange_latency",
          durations.empty() ? 0.0 : durations.front().first);
  return 0;
}

int cmd_trace(const common::Options& opts, CliReport& rep) {
  const auto& pos = opts.positional();
  if (pos.empty() || pos[0] != "report") {
    std::cerr << "usage: decor trace report <dump.jsonl|run-dir>\n";
    return 1;
  }
  return cmd_trace_report(opts, rep);
}

/// Loads an explain document from either a run directory (analyzed on
/// the spot) or a saved decor.explain.v1 JSON file. Returns false (with
/// a message on stderr) when the path is neither.
bool load_explain_input(const std::string& path, core::ExplainDoc& doc) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    doc = core::explain_run_dir(path);
    return true;
  }
  std::ifstream f(path);
  if (!f.is_open()) {
    std::cerr << "error: cannot open " << path << "\n";
    return false;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const auto parsed = common::parse_json(buf.str());
  if (!parsed || !core::explain_from_json(*parsed, doc)) {
    std::cerr << "error: " << path
              << " is neither a run directory nor a decor.explain.v1 "
                 "document\n";
    return false;
  }
  return true;
}

void print_phase_line(const core::ExplainDoc& doc) {
  std::cout << "phases: detection " << common::format_double(doc.detection)
            << " s, decision " << common::format_double(doc.decision)
            << " s, propagation "
            << common::format_double(doc.propagation) << " s (total "
            << common::format_double(doc.detection + doc.decision +
                                     doc.propagation)
            << " s)\n";
}

/// `decor explain diff <A> <B>` — joins two explain documents (run dirs
/// or saved JSON) and names the phase and links responsible for the
/// convergence delta.
int cmd_explain_diff(const common::Options& opts, CliReport& rep) {
  const auto& pos = opts.positional();
  if (pos.size() < 3) {
    std::cerr << "usage: decor explain diff <run-dir|explain.json> "
                 "<run-dir|explain.json>\n";
    return 1;
  }
  core::ExplainDoc a, b;
  if (!load_explain_input(pos[1], a) || !load_explain_input(pos[2], b)) {
    return 1;
  }
  const auto diff = core::explain_diff(a, b);
  if (diff.comparable) {
    std::cout << "convergence: " << common::format_double(a.convergence_time)
              << " s -> " << common::format_double(b.convergence_time)
              << " s (delta "
              << common::format_double(diff.convergence_delta) << " s)\n";
  } else {
    std::cout << "convergence: not comparable (a run never converged)\n";
  }
  common::Table table({"phase", "A", "B", "delta"});
  table.add_row({"detection", common::format_double(a.detection),
                 common::format_double(b.detection),
                 common::format_double(diff.detection_delta)});
  table.add_row({"decision", common::format_double(a.decision),
                 common::format_double(b.decision),
                 common::format_double(diff.decision_delta)});
  table.add_row({"propagation", common::format_double(a.propagation),
                 common::format_double(b.propagation),
                 common::format_double(diff.propagation_delta)});
  std::cout << table.to_text();
  std::cout << "dominant phase: " << diff.dominant_phase << "\n";
  for (const auto& l : diff.suspect_links) {
    std::cout << "suspect link " << l.src << " -> " << l.dst
              << ": score worsened by " << common::format_double(l.score)
              << " (median latency " << common::format_double(l.median_latency)
              << " s, " << l.crc_drops << " crc drops)\n";
  }
  for (const auto& n : diff.suspect_nodes) {
    std::cout << "suspect node " << n.node << ": score worsened by "
              << common::format_double(n.score) << " (retx ratio "
              << common::format_double(n.retx_ratio) << ", "
              << n.dead_peer_events << " dead-peer events)\n";
  }
  rep.add("comparable", diff.comparable);
  rep.add("convergence_delta", diff.convergence_delta);
  rep.add("detection_delta", diff.detection_delta);
  rep.add("decision_delta", diff.decision_delta);
  rep.add("propagation_delta", diff.propagation_delta);
  rep.add("dominant_phase", diff.dominant_phase);
  rep.add("suspect_links",
          static_cast<std::uint64_t>(diff.suspect_links.size()));
  rep.add("suspect_nodes",
          static_cast<std::uint64_t>(diff.suspect_nodes.size()));
  return 0;
}

/// `decor explain <run-dir>` — reconstructs the convergence critical
/// path from the run's artifacts and writes the deterministic
/// decor.explain.v1 document (default <run-dir>/explain.json).
int cmd_explain(const common::Options& opts, CliReport& rep) {
  const auto& pos = opts.positional();
  if (!pos.empty() && pos[0] == "diff") return cmd_explain_diff(opts, rep);
  if (pos.empty()) {
    std::cerr << "usage: decor explain <run-dir> [--out=path] [--top=N]\n"
                 "       decor explain diff <A> <B>\n";
    return 1;
  }
  core::ExplainOptions eopts;
  eopts.top_n = static_cast<std::size_t>(opts.get_int("top", 5));
  const auto doc = core::explain_run_dir(pos[0], eopts);

  if (doc.converged) {
    std::cout << "converged at t=" << common::format_double(doc.convergence_time)
              << " s\n";
  } else {
    std::cout << "never converged within the artifacts\n";
  }
  print_phase_line(doc);
  if (doc.last_hole.present) {
    std::cout << "last hole to close: centroid "
              << common::format_double(doc.last_hole.cx) << ","
              << common::format_double(doc.last_hole.cy) << " ("
              << doc.last_hole.points << " points, max deficit "
              << doc.last_hole.max_deficit << ", open at t="
              << common::format_double(doc.last_hole.t) << ")\n";
  }
  if (doc.closing_placement.present) {
    std::cout << "closing placement: t="
              << common::format_double(doc.closing_placement.t) << " node "
              << doc.closing_placement.actor << " ("
              << doc.closing_placement.reason << ") at "
              << common::format_double(doc.closing_placement.x) << ","
              << common::format_double(doc.closing_placement.y)
              << ", newly satisfied "
              << doc.closing_placement.newly_satisfied << ", trace "
              << doc.closing_placement.trace_id << "\n";
  }
  if (doc.exchange.present) {
    std::cout << "critical exchange: " << doc.exchange.legs.size()
              << " legs over "
              << common::format_double(doc.exchange.last_t -
                                       doc.exchange.first_t)
              << " s, " << doc.exchange.retransmits << " retransmit"
              << (doc.exchange.retransmits == 1 ? "" : "s") << " ("
              << common::format_double(doc.exchange.retx_delay)
              << " s induced), "
              << (doc.exchange.completed ? "acked" : "never completed")
              << "\n";
  }
  if (!doc.nodes.empty()) {
    common::Table table({"node", "tx", "retx", "drops", "dead peers",
                         "retx ratio", "lat infl", "score"});
    for (const auto& n : doc.nodes) {
      table.add_row({std::to_string(n.node), std::to_string(n.tx),
                     std::to_string(n.retx), std::to_string(n.drops),
                     std::to_string(n.dead_peer_events),
                     common::format_double(n.retx_ratio),
                     common::format_double(n.latency_inflation),
                     common::format_double(n.score)});
    }
    std::cout << "worst nodes:\n" << table.to_text();
  }
  if (!doc.links.empty()) {
    common::Table table({"link", "delivered", "crc drops", "median lat",
                         "lat infl", "score"});
    for (const auto& l : doc.links) {
      table.add_row({std::to_string(l.src) + "->" + std::to_string(l.dst),
                     std::to_string(l.delivered),
                     std::to_string(l.crc_drops),
                     common::format_double(l.median_latency),
                     common::format_double(l.latency_inflation),
                     common::format_double(l.score)});
    }
    std::cout << "worst links:\n" << table.to_text();
  }
  for (const auto& warning : doc.warnings) {
    std::cout << "warning: " << warning << "\n";
  }

  std::string out = opts.get("out", "");
  if (out.empty()) {
    out = (std::filesystem::path(pos[0]) / "explain.json").string();
  }
  const std::string json = core::explain_to_json(doc);
  std::ofstream f(out, std::ios::binary);
  if (!f.is_open()) {
    std::cerr << "error: cannot write " << out << "\n";
    return 1;
  }
  f << json;
  std::cout << "explain document: " << out << " (" << json.size()
            << " bytes)\n";
  rep.add("out", out);
  rep.add("converged", doc.converged);
  rep.add("convergence_time", doc.convergence_time);
  rep.add("detection", doc.detection);
  rep.add("decision", doc.decision);
  rep.add("propagation", doc.propagation);
  rep.add("audited_exchanges", doc.audited_exchanges);
  rep.add("warnings", static_cast<std::uint64_t>(doc.warnings.size()));
  return 0;
}

/// `decor report html <run-dir> [more-dirs...]` — renders every
/// recognized artifact in the directories (recursively) into one
/// self-contained HTML file. Several directories produce the aggregate
/// seed-vs-seed report. Default output: <first-dir>/report.html for one
/// directory, ./report.html for several (--out overrides either).
int cmd_report(const common::Options& opts, CliReport& rep) {
  const auto& pos = opts.positional();
  if (pos.size() < 2 || pos[0] != "html") {
    std::cerr << "usage: decor report html <run-dir> [more-dirs...] "
                 "[--out=path] [--max-heatmaps=N] [--max-audit-rows=N]\n";
    return 1;
  }
  const std::vector<std::string> dirs(pos.begin() + 1, pos.end());
  core::RunReportOptions ropts;
  ropts.max_heatmaps =
      static_cast<std::size_t>(opts.get_int("max-heatmaps", 10));
  ropts.max_audit_rows =
      static_cast<std::size_t>(opts.get_int("max-audit-rows", 200));
  const std::string html = core::render_run_report_html(dirs, ropts);
  std::string out = opts.get("out", "");
  if (out.empty()) {
    out = dirs.size() == 1
              ? (std::filesystem::path(dirs.front()) / "report.html")
                    .string()
              : std::string("report.html");
  }
  std::ofstream f(out, std::ios::binary);
  if (!f.is_open()) {
    std::cerr << "error: cannot write " << out << "\n";
    return 1;
  }
  f << html;
  std::cout << "report: " << out << " (" << html.size() << " bytes)\n";
  rep.add("out", out);
  rep.add("bytes", static_cast<std::uint64_t>(html.size()));
  rep.add("runs", static_cast<std::uint64_t>(dirs.size()));
  return 0;
}

/// `decor bench diff A.json B.json [--fail-over=PCT]` — metric-by-metric
/// comparison of two decor.bench.v1 documents. Report-only by default;
/// with --fail-over it is a gate: exit 3 when any common metric moved by
/// more than PCT percent. Exit 1 on unreadable or non-bench inputs.
int cmd_bench(const common::Options& opts, CliReport& rep) {
  const auto& pos = opts.positional();
  if (pos.size() < 3 || pos[0] != "diff") {
    std::cerr << "usage: decor bench diff <A.json> <B.json> "
                 "[--fail-over=PCT]\n";
    return 1;
  }
  const auto load =
      [](const std::string& path) -> std::optional<common::JsonValue> {
    std::ifstream f(path);
    if (!f.is_open()) return std::nullopt;
    std::stringstream buf;
    buf << f.rdbuf();
    return common::parse_json(buf.str());
  };
  const auto a = load(pos[1]);
  const auto b = load(pos[2]);
  if (!a || !b) {
    std::cerr << "error: cannot read or parse " << (!a ? pos[1] : pos[2])
              << "\n";
    return 1;
  }
  const auto diff = core::bench_diff(*a, *b);
  if (!diff) {
    std::cerr << "error: both inputs must be decor.bench.v1 documents "
                 "with a tables object\n";
    return 1;
  }
  if (!diff->entries.empty()) {
    common::Table table({"metric", "A", "B", "delta %"});
    for (const auto& e : diff->entries) {
      table.add_row({e.metric, common::format_double(e.a),
                     common::format_double(e.b),
                     common::format_double(e.delta_pct)});
    }
    std::cout << table.to_text();
  }
  for (const auto& id : diff->only_a) {
    std::cout << "only in A: " << id << "\n";
  }
  for (const auto& id : diff->only_b) {
    std::cout << "only in B: " << id << "\n";
  }
  const double worst = diff->max_abs_delta_pct();
  std::cout << diff->entries.size() << " metrics compared, max |delta| "
            << common::format_double(worst) << "%\n";
  rep.add("metrics_compared",
          static_cast<std::uint64_t>(diff->entries.size()));
  rep.add("only_a", static_cast<std::uint64_t>(diff->only_a.size()));
  rep.add("only_b", static_cast<std::uint64_t>(diff->only_b.size()));
  rep.add("max_abs_delta_pct", worst);
  const double fail_over = opts.get_double("fail-over", -1.0);
  rep.add("fail_over", fail_over);
  if (fail_over >= 0.0 && diff->exceeds(fail_over)) {
    std::cout << "FAIL: at least one metric moved by more than "
              << common::format_double(fail_over) << "%\n";
    return 3;
  }
  return 0;
}

void usage() {
  std::cout <<
      "usage: decor <subcommand> [--flag=value ...]\n\n"
      "subcommands:\n"
      "  deploy        run a deployment engine (--scheme=grid|voronoi|\n"
      "                centralized|random, --k, --initial, --map, --dump)\n"
      "  restore       deploy, fail (--failure=area|random, --radius,\n"
      "                --fraction), restore\n"
      "  sim           event-driven protocol run (--scheme=grid|voronoi)\n"
      "  discrepancy   compare point generators (--n)\n"
      "  lifetime      duty-cycled sleep scheduling (--battery, --epochs)\n"
      "  peas          PEAS baseline working-set (--rp, --mean-sleep)\n"
      "  connectivity  communication-graph analysis (--kappa)\n"
      "  trace report  summarize a trace JSONL dump or a run dir's trace\n"
      "                (--in=path or positional, --top=N)\n"
      "  explain       reconstruct the convergence critical path from a\n"
      "                run directory's artifacts (last hole, closing\n"
      "                placement, message exchange), attribute latency\n"
      "                across detection/decision/propagation phases and\n"
      "                rank node/link health (--out=path, --top=N);\n"
      "                `explain diff A B` names the phase and links\n"
      "                behind a convergence delta\n"
      "  report html   render run directories' JSONL artifacts into one\n"
      "                self-contained HTML file (--out, --max-heatmaps,\n"
      "                --max-audit-rows; several dirs = aggregate\n"
      "                seed-vs-seed report)\n"
      "  watch         live TUI dashboard: `watch RUN_DIR` replays a\n"
      "                completed run, `watch CAPTURE|-` follows a DTLM\n"
      "                feed, `watch [opts] -- sim ...` spawns the sim\n"
      "                live (--cols --rows --frames=N --out=path\n"
      "                --plain)\n"
      "  bench diff    compare two decor.bench.v1 docs; --fail-over=PCT\n"
      "                exits 3 when any metric moved more than PCT%\n\n"
      "common flags: --k --rs --rc --side --points --initial --seed "
      "--cell --point-kind\n"
      "telemetry: --json[=path] writes a decor.cli.v1 report (metrics "
      "snapshot included);\n"
      "  sim also takes --trace --trace-cap=N --trace-jsonl=path\n"
      "  sim observability: --trace-perfetto=path (Perfetto export)\n"
      "                     --timeline=T --timeline-jsonl=path\n"
      "                     --flight-dir=dir (post-mortem bundle)\n"
      "                     --profile (wall-clock scope timers)\n"
      "  sim streaming telemetry:\n"
      "    --metrics[=T] --metrics-jsonl=path (decor.metrics.v1\n"
      "                  registry snapshots, p50/p90/p99 summaries)\n"
      "    --telemetry=TARGET (- | path | tcp:HOST:PORT, DTLM frames)\n"
      "    --otlp=ENDPOINT (file or http://host:port, OTLP/JSON export;\n"
      "                     implies --trace)\n"
      "    --timeline-arq (ARQ sent/retx on each timeline sample)\n"
      "  sim chaos knobs: --loss=P --burst=B (B>1 = bursty channel)\n"
      "                   --kill-leader-at=T (grid scheme only)\n"
      "  sim fault campaigns:\n"
      "    --fault-plan=FILE (decor.faults.v1 JSON: reboots, partitions,\n"
      "                       frame corruption, sink outages)\n"
      "    --invariants[=T] (live safety checks every T s, default 0.5)\n"
      "  sim transport/data plane:\n"
      "    --window=W (ARQ sliding window; 1 = stop-and-wait)\n"
      "    --load=R (readings/s per node streamed to the base station)\n"
      "    --linger=T (keep simulating T s past convergence for a fixed\n"
      "                goodput window)\n"
      "    --bitrate=BPS (airtime model; 0 = collision-free channel)\n"
      "  spatial observability (sim, deploy, restore):\n"
      "    --field-jsonl=path (decor.field.v1 deficit snapshots)\n"
      "    --field=T (sim: snapshot cadence) --field-every=N (engines)\n"
      "    --field-raster=N (cells per side)\n"
      "    --audit-jsonl=path --audit (decor.audit.v1 placement log)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  common::Options opts(argc - 1, argv + 1);
  // Flags are checked before any work starts: a typo must not run a
  // whole experiment on a default value.
  if (const auto it = subcommand_flags().find(cmd);
      it != subcommand_flags().end()) {
    try {
      check_flags(cmd, opts, it->second);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    if (opts.has("help")) {
      usage();
      return 0;
    }
  }
  const bool want_json = opts.has("json");
  if (want_json) {
    common::metrics().reset();
    common::metrics().enable(true);
  }
  CliReport rep;
  int rc = -1;
  try {
    if (cmd == "deploy") rc = cmd_deploy(opts, rep);
    if (cmd == "restore") rc = cmd_restore(opts, rep);
    if (cmd == "sim") rc = cmd_sim(opts, rep);
    if (cmd == "watch") rc = cmd_watch(argc, argv, rep);
    if (cmd == "discrepancy") rc = cmd_discrepancy(opts, rep);
    if (cmd == "connectivity") rc = cmd_connectivity(opts, rep);
    if (cmd == "lifetime") rc = cmd_lifetime(opts, rep);
    if (cmd == "peas") rc = cmd_peas(opts, rep);
    if (cmd == "trace") rc = cmd_trace(opts, rep);
    if (cmd == "explain") rc = cmd_explain(opts, rep);
    if (cmd == "report") rc = cmd_report(opts, rep);
    if (cmd == "bench") rc = cmd_bench(opts, rep);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  if (rc < 0) {  // unknown subcommand
    usage();
    return cmd == "--help" || cmd == "help" ? 0 : 1;
  }
  if (want_json) {
    std::string path = opts.get("json", "");
    if (path.empty()) path = "decor-" + cmd + ".json";
    rep.write(path, cmd);
  }
  return rc;
}
