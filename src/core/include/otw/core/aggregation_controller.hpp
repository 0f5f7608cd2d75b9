// Adaptive aggregation-window controller: SAAW (paper Section 6).
//
// Control tuple: <R(age), W, W_initial, SAAW, everyAggregate>.
// The communication layer batches application messages per destination LP;
// an aggregate is flushed when its age reaches the window W. FAW keeps W
// fixed; SAAW re-evaluates W every time an aggregate is sent.
//
// The paper specifies R(age) loosely: "the rate of reception of messages,
// modified to reflect the age of the aggregate" — an aggregate with the same
// raw rate but a smaller age scores higher. We realize it as a per-aggregate
// net-benefit score balancing the paper's two factors:
//
//   AOF (gain)  = (n - 1) * benefit_per_message     (physical sends avoided)
//   APF (harm)  = age_penalty * age^2               (delay harm; superlinear
//                  because stale messages compound into downstream rollbacks)
//   score(n, age) = AOF - APF
//
// which at arrival rate lambda is concave in W with an interior maximum at
// W* = lambda * benefit / (2 * penalty): bursty phases (high lambda) earn
// larger windows, exactly the adaptation the paper describes. The transfer
// function is a direction-tracking hill-climb on the score, so W converges
// to the neighbourhood of W* from any initial window.
//
// A literal-transcription variant (compare raw age-discounted rates, no
// direction memory) is kept for the ablation bench; under steady load it
// limit-cycles around W_initial, which is why the score form is the default.
//
// The weights above are unitless and only mean something under a modeled
// cost (simulated NOW). On a wall-clock transport the engine measures the
// host cost c of one wire frame (set_frame_cost_us), and RateTracking weighs
// gain and harm in that one unit, host microseconds: a window W over uniform
// arrivals at rate lambda avoids (lambda W - 1) frames worth c each and adds
// lambda W^2 / 2 of waiting, so the net gain per microsecond is
//
//   lambda c - c / W - lambda W / 2,   maximal at W* = sqrt(2 c / lambda).
//
// As lambda falls W* grows. Traffic is too sparse for an aggregate to fill
// when an aggregate expires holding a single message and, at the estimated
// rate, even W* would not catch a second one (lambda W* < 1); such a flush
// targets min_window_us instead, so under sparse traffic W falls to its
// floor rather than growing. Both signals must agree: an LP emits its sends
// in bursts (one step's batch), which the mean rate alone understates, and a
// lone expired aggregate alone would pin a too-small window at the floor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace otw::core {

enum class SaawVariant : std::uint8_t {
  /// Default: certainty-equivalence adaptive control (cf. the paper's
  /// Astrom & Wittenmark reference). Estimate the arrival rate lambda from
  /// (message count, elapsed time since the previous flush), smooth it with
  /// an EWMA, and move the window toward the optimum of the AOF-APF balance,
  /// W* = lambda * benefit / (2 * penalty), or W* = sqrt(2 c / lambda) when
  /// a frame cost c is measured. Converges from any initial window and
  /// tracks bursts, which is what Figures 8-9 require of SAAW.
  RateTracking,
  /// Direction-memory hill-climb on the per-aggregate AOF-APF score.
  /// Simple, but noise-dominated near the optimum (kept for the ablation).
  ScoreHillClimb,
  /// Literal transcription of the paper's sentence: grow iff the
  /// age-discounted rate rose vs. the previous aggregate. Limit-cycles
  /// around the initial window under steady load (see the ablation bench).
  PaperLiteral,
};

struct AggregationControlConfig {
  /// W_initial, in platform microseconds.
  double initial_window_us = 32.0;
  double min_window_us = 1.0;
  double max_window_us = 100000.0;
  /// Multiplicative step applied by one hill-climb move.
  double step_factor = 1.25;
  /// AOF weight: benefit of one avoided physical message (score units).
  /// RateTracking uses it only where no frame cost is measured; the
  /// ablation variants always use it.
  double benefit_per_message = 1.0;
  /// APF weight applied to age^2 (score units per us^2). Same scope as
  /// benefit_per_message.
  double age_penalty = 2.0e-6;
  /// Age scale for the PaperLiteral rate discount 1 / (1 + age / ref).
  double age_reference_us = 100.0;
  /// RateTracking: EWMA weight for the arrival-rate estimate.
  double rate_alpha = 0.2;
  /// RateTracking: fraction of the window-to-target gap closed per flush.
  double tracking_gain = 0.3;
  SaawVariant variant = SaawVariant::RateTracking;
};

class AggregationWindowController {
 public:
  explicit AggregationWindowController(const AggregationControlConfig& config);

  /// Invoked by the communication layer each time an aggregate is flushed
  /// ("the window size is adapted as each aggregate is sent").
  /// @param message_count application messages in the aggregate (>= 1)
  /// @param age_us        time the aggregate spent open, in microseconds
  /// @param elapsed_us    time since the previous flush to the same
  ///                      destination (>= age_us); 0 means unknown, in which
  ///                      case age_us is used. Lets the rate estimator see
  ///                      the true arrival rate even when the window is far
  ///                      too small to batch anything.
  /// @return the window to use for the next aggregate.
  double on_aggregate_sent(std::size_t message_count, double age_us,
                           double elapsed_us = 0.0);

  /// Host cost of one wire frame in microseconds, as measured by the
  /// engine, or nullopt where none is measured. Applies to the next
  /// RateTracking adaptation; the ablation variants ignore it.
  void set_frame_cost_us(std::optional<double> cost_us) noexcept {
    frame_cost_us_ = cost_us;
  }

  /// RateTracking: current smoothed arrival-rate estimate (messages/us).
  [[nodiscard]] double rate_estimate() const noexcept { return rate_ewma_; }

  [[nodiscard]] double window_us() const noexcept { return window_us_; }
  [[nodiscard]] double last_score() const noexcept { return last_score_; }
  [[nodiscard]] std::uint64_t adaptations() const noexcept { return adaptations_; }
  [[nodiscard]] const AggregationControlConfig& config() const noexcept {
    return config_;
  }

  void reset();

 private:
  [[nodiscard]] double score(std::size_t message_count, double age_us) const;

  AggregationControlConfig config_;
  double window_us_;
  double last_score_ = 0.0;
  bool have_last_ = false;
  int direction_ = +1;
  double rate_ewma_ = 0.0;
  bool rate_primed_ = false;
  std::optional<double> frame_cost_us_;
  std::uint64_t adaptations_ = 0;
};

}  // namespace otw::core
