#include "protocols/low_sensing.hpp"

#include <algorithm>
#include <cmath>

namespace lowsense {

bool LowSensingParams::valid() const noexcept {
  if (!(c > 0.0)) return false;
  if (!(w_min > 2.0)) return false;
  if (listen_exponent < 0 || listen_exponent > 8) return false;
  return true;
}

LowSensingBackoff::LowSensingBackoff(const LowSensingParams& params)
    : params_(params), w_(params.w_min) {
  refresh_probs();
}

void LowSensingBackoff::refresh_probs() noexcept {
  ln_w_ = std::log(w_);
  double ln_boost = 1.0;  // ln^e(w), floored at 1
  for (int i = 0; i < params_.listen_exponent; ++i) ln_boost *= ln_w_;
  const double boost = params_.c * std::max(ln_boost, 1.0);
  listen_prob_ = std::min(boost / w_, 1.0);
  send_given_listen_ = std::min(1.0 / boost, 1.0);
  log1m_listen_ = std::log1p(-listen_prob_);
}

void LowSensingBackoff::on_observation(const Observation& obs) {
  // Fig. 1: multiplicative window update keyed on what was heard. A packet
  // that sent and collided hears noise (it is still in the system), so the
  // `sent` flag needs no special-casing here. With ternary feedback,
  // someone else's success leaves the window alone. Without collision
  // detection (ablation) only success vs. no success is heard: success
  // backs on, anything else backs off.
  bool back_on = obs.feedback == Feedback::kEmpty;
  if (params_.no_collision_detection) {
    back_on = obs.feedback == Feedback::kSuccess;
  } else if (obs.feedback == Feedback::kSuccess) {
    return;
  }
  const double old_w = w_;
  const double factor = 1.0 + 1.0 / (params_.c * std::max(ln_w_, 1.0));
  if (back_on) {
    w_ /= factor;
    if (params_.backon_floor) w_ = std::max(w_, params_.w_min);
    // Even without the floor (ablation), never let the window collapse
    // below 2 — the analysis (Lemma 5.1) requires w >= 2.
    w_ = std::max(w_, 2.0);
  } else {
    w_ *= factor;
  }
  if (w_ != old_w) refresh_probs();  // held at the floor: caches still exact
}

std::unique_ptr<Protocol> LowSensingFactory::create() const {
  return std::make_unique<LowSensingBackoff>(params_);
}

}  // namespace lowsense
