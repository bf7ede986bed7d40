// The four benchmark workloads. One call runs one iteration of one
// workload in the current process and reports what it measured.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct IterationOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Record spans, enable the metrics registry and run the layer probes.
  bool traced = false;
  /// Directory for the run artifacts of voronoi_observed (created, then
  /// emptied after the explain step).
  std::string scratch;
};

/// Named values in insertion order; set() overwrites an existing name.
class Values {
 public:
  void set(const std::string& name, double v);
  const std::vector<std::pair<std::string, double>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

struct IterationReport {
  /// Median host seconds of the set-up repetitions in this process.
  double setup_s = 0.0;
  /// Host seconds of the iteration's timed region (set-up excluded).
  double wall_s = 0.0;
  /// Host seconds of the explain step inside the timed region
  /// (voronoi_observed only).
  double explain_s = 0.0;
  /// Units of work done in the timed region: simulated radio receptions
  /// for the sims, sensor placements for restore_offline.
  double work = 0.0;
  /// Deterministic outputs; every iteration of one workload and seed
  /// must reproduce them exactly.
  Values outputs;
  /// Per-layer values (filled in traced iterations only).
  Values layers;
  /// Reasons the iteration missed its goal (e.g. no full k-coverage).
  std::vector<std::string> failures;
  /// Output checks that did not hold.
  std::vector<std::string> errors;
};

/// Runs one iteration; throws std::invalid_argument for an unknown
/// workload.
IterationReport run_iteration(const IterationOptions& opts);

}  // namespace perfbench
