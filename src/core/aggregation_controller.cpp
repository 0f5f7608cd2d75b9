#include "otw/core/aggregation_controller.hpp"

#include <algorithm>
#include <cmath>

#include "otw/util/assert.hpp"

namespace otw::core {

AggregationWindowController::AggregationWindowController(
    const AggregationControlConfig& config)
    : config_(config), window_us_(config.initial_window_us) {
  OTW_REQUIRE(config.min_window_us > 0.0);
  OTW_REQUIRE(config.min_window_us <= config.max_window_us);
  OTW_REQUIRE(config.initial_window_us >= config.min_window_us &&
              config.initial_window_us <= config.max_window_us);
  OTW_REQUIRE(config.step_factor > 1.0);
  OTW_REQUIRE(config.age_penalty > 0.0);
  OTW_REQUIRE(config.rate_alpha > 0.0 && config.rate_alpha <= 1.0);
  OTW_REQUIRE(config.tracking_gain > 0.0 && config.tracking_gain <= 1.0);
}

double AggregationWindowController::score(std::size_t message_count,
                                          double age_us) const {
  switch (config_.variant) {
    case SaawVariant::RateTracking:
      return 0.0;  // not score-driven
    case SaawVariant::ScoreHillClimb: {
      const double gain =
          static_cast<double>(message_count - 1) * config_.benefit_per_message;
      const double harm = config_.age_penalty * age_us * age_us;
      return gain - harm;
    }
    case SaawVariant::PaperLiteral: {
      const double safe_age = std::max(age_us, 1e-9);
      const double rate = static_cast<double>(message_count) / safe_age;
      return rate / (1.0 + safe_age / config_.age_reference_us);
    }
  }
  return 0.0;
}

double AggregationWindowController::on_aggregate_sent(std::size_t message_count,
                                                      double age_us,
                                                      double elapsed_us) {
  OTW_REQUIRE(message_count >= 1);
  OTW_REQUIRE(age_us >= 0.0);
  OTW_REQUIRE(elapsed_us >= 0.0);

  if (config_.variant == SaawVariant::RateTracking) {
    // One aggregate = one observation of the arrival process: message_count
    // arrivals over the span since the previous flush (falling back to the
    // aggregate's own age when the spacing is unknown).
    const double span = std::max(elapsed_us > 0.0 ? elapsed_us : age_us, 1e-3);
    const double rate = static_cast<double>(message_count) / span;
    if (!rate_primed_) {
      rate_ewma_ = rate;
      rate_primed_ = true;
    } else {
      rate_ewma_ += config_.rate_alpha * (rate - rate_ewma_);
    }
    double target = 0.0;
    if (frame_cost_us_) {
      // Host-time optimum (header): W* = sqrt(2c / lambda), or the floor
      // when traffic is too sparse for an aggregate to fill.
      const double optimum = std::sqrt(2.0 * *frame_cost_us_ / rate_ewma_);
      const bool sparse = message_count == 1 && age_us >= window_us_ &&
                          rate_ewma_ * optimum < 1.0;
      target = sparse ? config_.min_window_us : optimum;
    } else {
      // Optimum of AOF - APF at arrival rate lambda:
      //   d/dW [lambda W benefit - penalty W^2] = 0  =>
      //   W* = lambda benefit / (2 penalty).
      target =
          rate_ewma_ * config_.benefit_per_message / (2.0 * config_.age_penalty);
    }
    window_us_ += config_.tracking_gain * (target - window_us_);
    window_us_ =
        std::clamp(window_us_, config_.min_window_us, config_.max_window_us);
    ++adaptations_;
    return window_us_;
  }

  const double current = score(message_count, age_us);
  if (!have_last_) {
    have_last_ = true;
    last_score_ = current;
    return window_us_;
  }

  switch (config_.variant) {
    case SaawVariant::ScoreHillClimb:
      // Keep moving while the score improves; reverse when it degrades.
      // Bounce off the clamps: the score flattens there and would otherwise
      // never trigger a reversal.
      if (current < last_score_ || window_us_ <= config_.min_window_us ||
          window_us_ >= config_.max_window_us) {
        direction_ = -direction_;
      }
      break;
    case SaawVariant::PaperLiteral:
      // "W is increased if R(age) has increased relative to the last
      //  aggregate, and vice versa."
      direction_ = current > last_score_ ? +1 : -1;
      break;
    case SaawVariant::RateTracking:
      break;  // handled above
  }

  if (direction_ > 0) {
    window_us_ *= config_.step_factor;
  } else {
    window_us_ /= config_.step_factor;
  }
  window_us_ = std::clamp(window_us_, config_.min_window_us, config_.max_window_us);
  last_score_ = current;
  ++adaptations_;
  return window_us_;
}

void AggregationWindowController::reset() {
  window_us_ = config_.initial_window_us;
  last_score_ = 0.0;
  have_last_ = false;
  direction_ = +1;
  rate_ewma_ = 0.0;
  rate_primed_ = false;
  adaptations_ = 0;
}

}  // namespace otw::core
