// Sensor records and the authoritative set of deployed sensors.
//
// Sensors are static (Section 2 of the paper). The common case is a
// homogeneous network where every sensor shares the network-wide sensing
// radius rs from DecorParams, but the paper explicitly allows
// heterogeneous deployments ("the sensing and coverage radii of the
// sensors may vary"), so each Sensor record carries its own radius.
// SensorSet owns the id space; ids are dense indices so per-sensor side
// tables are plain vectors.
//
// Storage is structure-of-arrays: the large-field sweeps stream one
// field at a time (all positions, or all radii) over 10^5+ sensors,
// which wants dense homogeneous arrays, not an array of mixed records. Sensor is kept as
// the value type handed out by sensor() / for_each(), materialized from
// the arrays on demand.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/rect.hpp"
#include "geometry/sensor_index.hpp"

namespace decor::coverage {

/// One deployed sensor, materialized from the SoA columns. `alive` flips
/// to false on failure; ids are never reused so experiment traces stay
/// unambiguous.
struct Sensor {
  std::uint32_t id = 0;
  geom::Point2 pos;
  bool alive = true;
  /// This sensor's sensing radius.
  double rs = 0.0;
};

/// The ground-truth deployed network: dense-id structure-of-arrays
/// sensor storage plus a spatial index over the *alive* sensors for
/// coverage and neighborhood queries.
class SensorSet {
 public:
  /// `index_cell` should be on the order of the common query radius
  /// (rs or rc). `default_rs` is the radius assigned by add() when none
  /// is given.
  SensorSet(const geom::Rect& bounds, double index_cell,
            double default_rs = 0.0);

  /// Deploys a new alive sensor with the default sensing radius.
  std::uint32_t add(geom::Point2 pos);

  /// Deploys a new alive sensor with an explicit sensing radius
  /// (heterogeneous deployments).
  std::uint32_t add(geom::Point2 pos, double rs);

  /// Marks a sensor failed and removes it from the alive index. No-op if
  /// already dead.
  void kill(std::uint32_t id);

  /// Undoes a kill: the sensor re-enters the alive set and the spatial
  /// index at its original position (what-if analyses roll failures back
  /// instead of deep-copying the set). No-op if already alive.
  void revive(std::uint32_t id);

  std::size_t size() const noexcept { return xs_.size(); }
  std::size_t alive_count() const noexcept { return alive_count_; }

  /// One sensor's record, materialized from the columns.
  Sensor sensor(std::uint32_t id) const;
  bool alive(std::uint32_t id) const;
  geom::Point2 position(std::uint32_t id) const;

  /// Invokes fn(const Sensor&) for every sensor, dead and alive, in
  /// deployment order (the replacement for handing out an AoS vector).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t id = 0; id < xs_.size(); ++id) {
      fn(Sensor{id, {xs_[id], ys_[id]}, alive_[id] != 0, rs_[id]});
    }
  }

  /// SoA columns, id-indexed (dead sensors included).
  const std::vector<double>& xs() const noexcept { return xs_; }
  const std::vector<double>& ys() const noexcept { return ys_; }
  const std::vector<double>& radii() const noexcept { return rs_; }

  /// IDs of currently alive sensors, ascending.
  std::vector<std::uint32_t> alive_ids() const;

  /// Spatial index over alive sensors.
  const geom::DynamicSensorIndex& index() const noexcept { return index_; }

  const geom::Rect& bounds() const noexcept { return bounds_; }

  double default_rs() const noexcept { return default_rs_; }

 private:
  geom::Rect bounds_;
  double default_rs_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> rs_;
  std::vector<std::uint8_t> alive_;
  geom::DynamicSensorIndex index_;
  std::size_t alive_count_ = 0;
};

}  // namespace decor::coverage
