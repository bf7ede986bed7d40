// Ablation: what does the sliding window buy a live sensing workload?
//
// Every sensor streams kReading frames to the base station while the
// restoration protocol (grid and voronoi runners both measured per job)
// repairs coverage, over a contended channel: finite bitrate so
// concurrent frames collide, plus i.i.d. or Gilbert–Elliott loss on
// top. Sweeps offered load x loss/burstiness x ARQ window and reports
// data-plane goodput, restoration convergence time, coverage
// completion and the control-plane retransmission ratio.
//
// Runs linger a fixed horizon past convergence (linger_after_coverage)
// so goodput is measured over a comparable window for every variant —
// otherwise the denominator would be each run's own convergence time
// and the comparison would mostly measure restoration luck.
//
// The headline expected from the tables: window=1 (historical
// stop-and-wait with unlimited per-frame parallelism) melts down under
// collisions — retransmission storms crowd out readings — while
// window>1 paces senders with AIMD and cumulative acks, collapsing
// retx 10-20x and multiplying goodput at >=10% bursty loss.
#include <iostream>

#include "decor/voronoi_sim.hpp"
#include "fig_common.hpp"
#include "lds/random_points.hpp"
#include "sim/propagation.hpp"

int main(int argc, char** argv) {
  using namespace decor;
  const common::Options opts(argc, argv);
  bench::FigSetup setup(opts);
  // Dense small field: enough nodes in radio range of each other that a
  // finite-bitrate channel is genuinely contended.
  const double side = opts.get_double("side", 20.0);
  setup.base.field = geom::make_rect(0, 0, side, side);
  if (!opts.has("points")) setup.base.num_points = 200;
  setup.base.k = static_cast<std::uint32_t>(opts.get_int("k", 2));
  if (!opts.has("initial")) setup.initial_nodes = 10;
  bench::print_header(
      "Ablation: data plane",
      "sensing goodput under load x loss x burstiness x ARQ window",
      setup);

  const double bitrate = opts.get_double("bitrate", 50000.0);
  const double horizon = opts.get_double("horizon", 30.0);
  // Offered load: readings/s per node streamed to the sink.
  const std::vector<double> loads{2.0, 10.0};
  struct Channel {
    std::string label;
    double loss;
    double burst;  // <= 1 means i.i.d. loss
  };
  const std::vector<Channel> channels{
      {"iid10", 0.1, 0.0},
      {"ge20", 0.2, 6.0},
  };
  const std::vector<std::uint32_t> windows{1, 4, 8};

  std::vector<common::SeriesTable> tables;
  std::vector<std::string> names;
  for (const auto& ch : channels) {
    for (const std::uint32_t w : windows) {
      common::SeriesTable table("load/s");
      bench::run_jobs(
          setup.trials * loads.size(), table,
          [&](std::size_t i) {
            const std::size_t l = i / setup.trials;
            const std::size_t trial = i % setup.trials;
            const double load = loads[l];

            // One trial configuration, run once per scheme on the same
            // deployment and channel.
            core::RunConfig run;
            run.params = setup.base;
            run.seed = setup.seed + trial;
            run.run_time = horizon;
            run.linger_after_coverage = horizon;
            run.arq.window = w;
            run.data_plane.enabled = true;
            run.data_plane.reading_interval = 1.0 / load;
            run.radio.bitrate_bps = bitrate;
            if (ch.burst > 1.0) {
              run.radio.propagation =
                  std::make_shared<sim::GilbertElliottModel>(
                      sim::GilbertElliottModel::from_loss_and_burst(
                          ch.loss, ch.burst));
            } else {
              run.radio.loss_prob = ch.loss;
            }
            common::Rng rng = setup.trial_rng(trial, 47);
            run.initial_positions = lds::random_points(
                setup.base.field, setup.initial_nodes, rng);

            core::SimRunConfig gcfg;
            static_cast<core::RunConfig&>(gcfg) = run;
            const auto g = core::run_grid_decor_sim(gcfg);

            core::VoronoiSimConfig vcfg;
            static_cast<core::RunConfig&>(vcfg) = std::move(run);
            const auto v = core::run_voronoi_decor_sim(vcfg);

            auto goodput = [](double bytes, double end) {
              return end > 0.0 ? bytes / end : 0.0;
            };
            auto ratio = [](std::uint64_t num, std::uint64_t den) {
              return den > 0 ? static_cast<double>(num) /
                                   static_cast<double>(den)
                             : 0.0;
            };
            return std::vector<bench::Sample>{
                {load, "goodput_Bps",
                 goodput(static_cast<double>(g.data.bytes_delivered),
                         g.end_time)},
                {load, "delivered",
                 static_cast<double>(g.data.readings_delivered)},
                {load, "covered%",
                 g.reached_full_coverage ? 100.0 : 0.0},
                {load, "finish_s", g.finish_time},
                {load, "retx_ratio", ratio(g.arq.retx, g.arq.sent)},
                {load, "vor_goodput_Bps",
                 goodput(static_cast<double>(v.data.bytes_delivered),
                         v.end_time)},
                {load, "vor_covered%",
                 v.reached_full_coverage ? 100.0 : 0.0},
                {load, "vor_finish_s", v.finish_time},
                {load, "vor_retx_ratio", ratio(v.arq.retx, v.arq.sent)},
            };
          },
          setup.threads);
      names.push_back(ch.label + "_w" + std::to_string(w));
      tables.push_back(std::move(table));
      std::cout << "--- " << names.back() << " ---\n"
                << tables.back().to_text() << '\n';
    }
  }

  std::initializer_list<bench::NamedTable> named{
      {names[0], &tables[0]}, {names[1], &tables[1]},
      {names[2], &tables[2]}, {names[3], &tables[3]},
      {names[4], &tables[4]}, {names[5], &tables[5]}};
  bench::write_json_report(bench::json_path(opts, "ablation_dataplane"),
                           "Ablation: data plane", setup, named);
  return 0;
}
