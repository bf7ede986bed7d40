// Pluggable radio propagation models.
//
// The paper assumes the unit-disc model (every node within rc hears every
// transmission); real deployments see probabilistic reception. The radio
// consults a PropagationModel per delivery, so experiments can swap the
// ideal disc for log-normal shadowing — the standard WSN-simulator model —
// and measure how much protocol behaviour depends on the idealization
// (bench/ablation_radio_realism).
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "geometry/point.hpp"

namespace decor::sim {

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Decides whether one frame sent from `src` reaches `dst`, given the
  /// nominal communication range of the transmission. May draw from
  /// `rng` (per-frame fading).
  virtual bool received(geom::Point2 src, geom::Point2 dst, double range,
                        common::Rng& rng) const = 0;

  /// Upper bound on the distance at which reception is possible; the
  /// radio uses it to bound its neighborhood query.
  virtual double max_range(double nominal_range) const = 0;

  /// A copy of this model, state included. Every Radio works on its own
  /// clone, so a model with state (GilbertElliottModel) handed to several
  /// worlds through one RadioParams is never shared between them.
  virtual std::unique_ptr<PropagationModel> clone() const = 0;
};

/// The paper's model: reception iff distance <= range, deterministic.
class UnitDiscModel final : public PropagationModel {
 public:
  bool received(geom::Point2 src, geom::Point2 dst, double range,
                common::Rng& rng) const override;
  double max_range(double nominal_range) const override {
    return nominal_range;
  }
  std::unique_ptr<PropagationModel> clone() const override {
    return std::make_unique<UnitDiscModel>(*this);
  }
};

/// Gilbert–Elliott bursty loss over the unit disc: the channel is a
/// two-state Markov chain (Good/Bad) stepped once per frame; a frame
/// within range is lost with `loss_good` or `loss_bad` depending on the
/// state after the step. The chain is channel-wide — it models
/// time-correlated interference (weather, jamming, a passing vehicle)
/// that hits every link at once, which is the burst structure i.i.d.
/// loss cannot produce. Stationary loss rate (closed form, pinned by the
/// unit test):
///   pi_bad  = p_gb / (p_gb + p_bg)
///   loss    = (1 - pi_bad) * loss_good + pi_bad * loss_bad
/// The state is per-instance and mutates on received(); each Radio steps
/// its own clone, so every world built from one config starts from the
/// state the config's instance holds.
class GilbertElliottModel final : public PropagationModel {
 public:
  /// `p_gb` / `p_bg` are the per-frame Good->Bad / Bad->Good transition
  /// probabilities; mean burst length is 1/p_bg frames.
  GilbertElliottModel(double p_gb, double p_bg, double loss_good = 0.0,
                      double loss_bad = 1.0);

  /// Convenience: the classic (loss_good=0, loss_bad=1) channel with the
  /// given stationary loss rate and mean burst length in frames.
  static GilbertElliottModel from_loss_and_burst(double stationary_loss,
                                                 double mean_burst_frames);

  bool received(geom::Point2 src, geom::Point2 dst, double range,
                common::Rng& rng) const override;
  double max_range(double nominal_range) const override {
    return nominal_range;
  }
  std::unique_ptr<PropagationModel> clone() const override {
    return std::make_unique<GilbertElliottModel>(*this);
  }

  /// Long-run loss rate of the chain (closed form above).
  double stationary_loss() const noexcept;
  bool in_bad_state() const noexcept { return bad_; }

 private:
  double p_gb_;
  double p_bg_;
  double loss_good_;
  double loss_bad_;
  mutable bool bad_ = false;
};

/// Log-normal shadowing: path loss grows as 10*eta*log10(d) dB plus a
/// zero-mean Gaussian with `sigma_db` standard deviation, drawn per
/// frame. The link budget is calibrated so that reception probability is
/// exactly 1/2 at the nominal range; closer links are near-certain,
/// farther ones decay with the Gaussian tail. sigma_db == 0 degenerates
/// to the unit disc.
class LogNormalShadowingModel final : public PropagationModel {
 public:
  explicit LogNormalShadowingModel(double path_loss_exponent = 3.0,
                                   double sigma_db = 4.0);

  bool received(geom::Point2 src, geom::Point2 dst, double range,
                common::Rng& rng) const override;
  double max_range(double nominal_range) const override;
  std::unique_ptr<PropagationModel> clone() const override {
    return std::make_unique<LogNormalShadowingModel>(*this);
  }

  /// Reception probability at distance `d` for nominal range `range`
  /// (exposed for tests and analysis).
  double reception_probability(double d, double range) const;

 private:
  double eta_;
  double sigma_db_;
};

}  // namespace decor::sim
