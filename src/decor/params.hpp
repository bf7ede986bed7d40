// Experiment and algorithm parameters.
//
// Defaults reproduce the paper's setup (Section 4): a 100x100 field
// approximated with 2000 Halton points, rs = 4, grid cells of 5x5 or
// 10x10, Voronoi communication radii 8 (= 2*rs) or 10*sqrt(2).
#pragma once

#include <cstdint>
#include <string>

#include "geometry/rect.hpp"

namespace decor::core {

/// How the field-approximation point set is generated.
enum class PointKind { kHalton, kHammersley, kRandom, kJittered };

/// Deployment algorithm family.
enum class Scheme { kCentralized, kRandom, kGrid, kVoronoi };

struct DecorParams {
  geom::Rect field = geom::make_rect(0.0, 0.0, 100.0, 100.0);

  /// Coverage requirement: every point must be covered by >= k sensors.
  std::uint32_t k = 3;

  /// Sensing radius rs.
  double rs = 4.0;

  /// Communication radius rc (Voronoi cell bound and protocol range);
  /// must satisfy rs <= rc.
  double rc = 8.0;

  /// Grid cell side (grid scheme).
  double cell_side = 5.0;

  /// Field approximation size.
  std::size_t num_points = 2000;
  PointKind point_kind = PointKind::kHalton;

  /// Nonzero applies deterministic digit scrambling to the Halton /
  /// Hammersley generators.
  std::uint64_t scramble_seed = 0;
};

/// The named configurations evaluated in the paper's figures.
struct NamedConfig {
  std::string label;
  Scheme scheme;
  DecorParams params;
};

inline const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kCentralized: return "centralized";
    case Scheme::kRandom: return "random";
    case Scheme::kGrid: return "grid";
    case Scheme::kVoronoi: return "voronoi";
  }
  return "?";
}

inline const char* to_string(PointKind p) {
  switch (p) {
    case PointKind::kHalton: return "halton";
    case PointKind::kHammersley: return "hammersley";
    case PointKind::kRandom: return "random";
    case PointKind::kJittered: return "jittered";
  }
  return "?";
}

}  // namespace decor::core
