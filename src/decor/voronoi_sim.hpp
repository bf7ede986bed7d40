// Protocol-driven Voronoi DECOR on the discrete-event simulator.
//
// The Voronoi scheme needs no leaders: every node owns its local Voronoi
// cell (the approximation points within rc that lie closer to it than to
// any neighbor it can hear) and independently places replacements for its
// own uncovered points. This runner executes that per-node loop over the
// real radio: neighbor knowledge comes from HELLO/heartbeats, placements
// are announced with kPlacement messages, and newly spawned nodes claim
// territory simply by being heard. A harness-level watchdog models the
// paper's deployment assumption (a human/robot carries starter nodes)
// when only unowned points — beyond rc of the whole network — remain
// uncovered. The scheme-independent machinery lives in protocol_harness.*.
#pragma once

#include <memory>

#include "decor/protocol_harness.hpp"

namespace decor::core {

struct VoronoiSimConfig : RunConfig {
  /// Pacing of each node's coverage-check loop.
  double check_interval = 0.5;

  /// Simulated seconds without ground-truth progress before the watchdog
  /// seeds the frontier (unowned uncovered points).
  double stall_timeout = 10.0;
};

class VoronoiSimHarness final : public ProtocolHarness {
 public:
  struct Shared;

  explicit VoronoiSimHarness(VoronoiSimConfig cfg);

 private:
  std::unique_ptr<sim::NodeProcess> make_node() override;
  /// The stall watchdog: seeds the frontier after stall_timeout seconds
  /// without ground-truth progress.
  void on_uncovered_poll(Progress& progress) override;
  void watchdog_seed();

  std::shared_ptr<Shared> shared_;
  double stall_timeout_;
};

RunResult run_voronoi_decor_sim(const VoronoiSimConfig& cfg);

}  // namespace decor::core
