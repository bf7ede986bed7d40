// Layer probes: each drives one module's public API in isolation, on
// inputs taken from the workload's own run, and reports host ns per
// operation. Multiplied by the workload's operation counts they give
// estimated layer seconds for the layers buried inside a harness run.
#pragma once

#include <cstdint>
#include <vector>

#include "decor/params.hpp"
#include "geometry/point.hpp"

namespace perfbench {

struct ProbeInputs {
  decor::core::DecorParams params;
  /// Radio range the workload's nodes broadcast at.
  double range = 8.0;
  std::uint64_t seed = 1;
  /// Alive node positions at the end of the run.
  std::vector<decor::geom::Point2> positions;
  /// Sensors on the field before the first placement.
  std::vector<decor::geom::Point2> initial;
  /// Placements in the order the run made them.
  std::vector<decor::geom::Point2> placements;
};

struct ProbeResults {
  double ns_per_event = 0.0;      ///< sim::Simulator schedule + run
  double ns_per_rx = 0.0;         ///< sim::World broadcast fan-out
  double ns_per_observe = 0.0;    ///< net::NeighborTable::observe
  double ns_per_placement = 0.0;  ///< coverage::BenefitIndex best + add
};

ProbeResults run_probes(const ProbeInputs& in);

}  // namespace perfbench
