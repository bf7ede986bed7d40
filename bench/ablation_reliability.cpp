// Ablation: what does reliable transport buy under adversarial radios?
//
// Sweeps loss rate x burstiness (i.i.d. vs Gilbert–Elliott bursts of ~4
// and ~16 frames) over the event-driven grid protocol and reports
// coverage completion, convergence time, sensors spent, raw radio
// traffic and the ARQ accounting (retransmissions, acks, give-ups). An
// ARQ-disabled i.i.d. control series quantifies the delta the
// ReliableLink layer is responsible for: without it lost control
// messages strand coverage holes; with it the cost shows up as bounded
// retransmission overhead instead.
#include <iostream>

#include "fig_common.hpp"
#include "lds/random_points.hpp"
#include "sim/propagation.hpp"

int main(int argc, char** argv) {
  using namespace decor;
  const common::Options opts(argc, argv);
  bench::FigSetup setup(opts);
  setup.base.field = geom::make_rect(0, 0, 30, 30);
  setup.base.num_points = 350;
  setup.base.k = static_cast<std::uint32_t>(opts.get_int("k", 2));
  setup.initial_nodes = 15;
  bench::print_header(
      "Ablation: reliability",
      "grid protocol under loss x burstiness, with and without ARQ",
      setup);

  const std::vector<double> losses{0.0, 0.1, 0.2, 0.3};
  // burst <= 1 means i.i.d. loss (the radio's independent loss_prob);
  // larger values use a Gilbert–Elliott chain (each run's Radio steps
  // its own clone of it).
  struct Variant {
    std::string label;
    double burst;
    bool arq;
  };
  const std::vector<Variant> variants{
      {"iid", 0.0, true},
      {"burst4", 4.0, true},
      {"burst16", 16.0, true},
      {"iid_noarq", 0.0, false},
  };

  std::vector<common::SeriesTable> tables(variants.size(),
                                          common::SeriesTable("loss%"));
  for (std::size_t v = 0; v < variants.size(); ++v) {
    common::SeriesTable table("loss%");
    bench::run_jobs(
        setup.trials * losses.size(), table,
        [&](std::size_t i) {
          const std::size_t l = i / setup.trials;
          const std::size_t trial = i % setup.trials;
          const double loss = losses[l];
          core::SimRunConfig cfg;
          cfg.params = setup.base;
          cfg.seed = setup.seed + trial;
          cfg.run_time = 600.0;
          cfg.enable_arq = variants[v].arq;
          if (variants[v].burst > 1.0) {
            cfg.radio.propagation =
                std::make_shared<sim::GilbertElliottModel>(
                    sim::GilbertElliottModel::from_loss_and_burst(
                        loss, variants[v].burst));
          } else {
            cfg.radio.loss_prob = loss;
          }
          common::Rng rng = setup.trial_rng(trial, 31 + v);
          cfg.initial_positions = lds::random_points(
              cfg.params.field, setup.initial_nodes, rng);
          const auto result = core::run_grid_decor_sim(cfg);
          const double x = loss * 100.0;
          // sent counts only ack-expecting frames (best-effort
          // broadcasts with nobody in range are tallied separately), so
          // the ratio is per *reliable* frame rather than diluted by
          // no-audience traffic.
          const double sent = static_cast<double>(result.arq.sent);
          const double retx = static_cast<double>(result.arq.retx);
          return std::vector<bench::Sample>{
              {x, "covered%", result.reached_full_coverage ? 100.0 : 0.0},
              {x, "finish_s", result.finish_time},
              {x, "placed", static_cast<double>(result.placed_nodes)},
              {x, "radio_tx", static_cast<double>(result.radio_tx)},
              {x, "retx", retx},
              {x, "retx_ratio", sent > 0.0 ? retx / sent : 0.0},
              {x, "acks", static_cast<double>(result.arq.acks_sent)},
              {x, "gave_up", static_cast<double>(result.arq.gave_up)},
          };
        },
        setup.threads);
    tables[v] = std::move(table);
    std::cout << "--- " << variants[v].label << " ---\n"
              << tables[v].to_text() << '\n';
  }

  bench::write_json_report(
      bench::json_path(opts, "ablation_reliability"),
      "Ablation: reliability", setup,
      {{"iid", &tables[0]},
       {"burst4", &tables[1]},
       {"burst16", &tables[2]},
       {"iid_noarq", &tables[3]}});
  return 0;
}
